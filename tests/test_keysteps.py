"""Tests for trajectory projection, curvature scoring, and key-step selection."""

import numpy as np
import pytest

from rts import (
    KeyStepSet,
    NoiseTrajectory,
    PreconditionError,
    curvature,
    project_trajectory,
    select_key_steps,
)


def make_traj(latents):
    latents = np.asarray(latents, dtype=np.float64)
    times = np.linspace(1.0, 0.0, latents.shape[0])
    return NoiseTrajectory(latents=latents, injected=np.empty((0, latents.shape[1])), step_times=times)


def random_orthogonal(dim, rng):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def corner_path(n_steps, corners, dim, rng):
    """Piecewise-linear path in d dims turning exactly at the ``corners`` indices."""
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    points = [np.zeros(dim)]
    for step in range(1, n_steps):
        # The outgoing segment of point c is the one generated at step c+1.
        if step - 1 in corners:
            direction = rng.standard_normal(dim)
            direction /= np.linalg.norm(direction)
        points.append(points[-1] + direction)
    return np.array(points)


class TestProjectTrajectory:
    def test_identical_latents_project_to_origin(self):
        traj = make_traj(np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (6, 1)))
        proj = project_trajectory(traj)
        np.testing.assert_allclose(proj.points, 0.0, atol=1e-12)
        np.testing.assert_allclose(proj.singular_values, 0.0, atol=1e-12)
        assert proj.low_rank

    def test_3d_affine_subspace_is_isometric(self):
        # Latents in a 3D affine subspace of d=32: projected pairwise
        # distances must match the original ones.
        rng = np.random.default_rng(42)
        basis, _ = np.linalg.qr(rng.standard_normal((32, 3)))
        coords = rng.standard_normal((10, 3))
        latents = coords @ basis.T + rng.standard_normal(32)
        proj = project_trajectory(make_traj(latents))
        for i in range(10):
            for j in range(i + 1, 10):
                original = np.linalg.norm(latents[i] - latents[j])
                projected = np.linalg.norm(proj.points[i] - proj.points[j])
                np.testing.assert_allclose(projected, original, rtol=1e-9)

    def test_energy_identity_random_matrix(self):
        # Sum of squared projected norms equals the top-3 squared singular
        # values, cross-checked against the covariance eigendecomposition.
        rng = np.random.default_rng(42)
        latents = rng.standard_normal((16, 64))
        proj = project_trajectory(make_traj(latents))
        energy = float(np.sum(proj.points**2))
        np.testing.assert_allclose(energy, np.sum(proj.singular_values**2), rtol=1e-8)
        centered = latents - latents.mean(axis=0)
        eigvals = np.linalg.eigvalsh(centered.T @ centered)[::-1]
        np.testing.assert_allclose(energy, np.sum(eigvals[:3]), rtol=1e-8)

    def test_energy_identity_large(self):
        rng = np.random.default_rng(7)
        latents = rng.standard_normal((64, 256))
        proj = project_trajectory(make_traj(latents))
        energy = float(np.sum(proj.points**2))
        np.testing.assert_allclose(energy, np.sum(proj.singular_values**2), rtol=1e-8)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(3)
        proj = project_trajectory(make_traj(rng.standard_normal((12, 20))))
        gram = proj.components.T @ proj.components
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-9)
        assert not proj.low_rank

    def test_singular_values_sorted(self):
        rng = np.random.default_rng(4)
        proj = project_trajectory(make_traj(rng.standard_normal((12, 20))))
        sv = proj.singular_values
        assert sv[0] >= sv[1] >= sv[2] >= 0.0

    def test_rank_two_input_flags_low_rank_with_orthonormal_completion(self):
        # Points on a line in d=16: rank 1, yet all 3 components must still
        # be orthonormal (completion) and the flag set.
        direction = np.zeros(16)
        direction[2] = 1.0
        latents = np.outer(np.arange(8, dtype=np.float64), direction)
        proj = project_trajectory(make_traj(latents))
        assert proj.low_rank
        gram = proj.components.T @ proj.components
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-9)

    def test_dim_2_pads_with_zeros(self):
        # Latent dimension below 3 leaves nothing to complete with: the
        # third component column and point coordinate stay zero.
        rng = np.random.default_rng(5)
        proj = project_trajectory(make_traj(rng.standard_normal((9, 2))))
        assert proj.low_rank
        np.testing.assert_allclose(proj.components[:, 2], 0.0, atol=1e-15)
        np.testing.assert_allclose(proj.points[:, 2], 0.0, atol=1e-15)
        energy = float(np.sum(proj.points**2))
        np.testing.assert_allclose(energy, np.sum(proj.singular_values**2), rtol=1e-8)

    def test_too_few_latents_rejected(self):
        traj = make_traj(np.random.default_rng(0).standard_normal((3, 8)))
        with pytest.raises(PreconditionError):
            project_trajectory(traj)


class TestCurvature:
    def test_collinear_is_zero(self):
        points = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        np.testing.assert_allclose(curvature(points)[1], 0.0, atol=1e-12)

    def test_unit_circle_is_one(self):
        # Circumradius of points on the unit circle is 1.
        points = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        np.testing.assert_allclose(curvature(points)[1], 1.0, rtol=1e-12)

    def test_right_angle_corner(self):
        # 4 * area / product of distances = 4*0.5 / (1*1*sqrt(2)) = sqrt(2).
        points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        np.testing.assert_allclose(curvature(points)[1], np.sqrt(2.0), rtol=1e-12)

    def test_coincident_points_give_zero(self):
        points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert curvature(points)[1] == 0.0

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_fewer_than_three_points_rejected(self, count):
        points = np.random.default_rng(0).standard_normal((count, 3))
        with pytest.raises(PreconditionError):
            curvature(points)

    def test_matches_circumradius_on_random_triples(self):
        # Menger curvature is the reciprocal circumradius; check against the
        # law-of-sines circumradius R = abc / (4 * area).
        rng = np.random.default_rng(42)
        for _ in range(50):
            points = rng.standard_normal((3, 3))
            a = np.linalg.norm(points[1] - points[0])
            b = np.linalg.norm(points[2] - points[1])
            c = np.linalg.norm(points[2] - points[0])
            area = 0.5 * np.linalg.norm(np.cross(points[1] - points[0], points[2] - points[0]))
            np.testing.assert_allclose(curvature(points)[1], 4 * area / (a * b * c), rtol=1e-9)


class TestSelectKeySteps:
    def test_single_planted_corner(self):
        # One direction change at step 10; brute force confirms it is the
        # strict curvature maximum before asserting selection.
        rng = np.random.default_rng(42)
        latents = corner_path(24, {10}, 16, rng)
        proj = project_trajectory(make_traj(latents))
        scores = curvature(proj.points)[1:23]
        assert int(np.argmax(scores)) + 1 == 10
        selected = select_key_steps(proj, 1)
        assert selected.indices == (10,)

    def test_three_planted_corners_d128(self):
        rng = np.random.default_rng(42)
        latents = corner_path(48, {8, 20, 35}, 128, rng)
        proj = project_trajectory(make_traj(latents))
        selected = select_key_steps(proj, 3)
        assert sorted(selected.indices) == [8, 20, 35]

    def test_collinear_path_tie_breaks_to_smallest_indices(self):
        direction = np.zeros(8)
        direction[0] = 1.0
        latents = np.outer(np.arange(10, dtype=np.float64), direction)
        proj = project_trajectory(make_traj(latents))
        selected = select_key_steps(proj, 2)
        assert selected.indices == (1, 2)
        assert selected.curvatures == (0.0, 0.0)

    def test_curvatures_sorted_descending(self):
        rng = np.random.default_rng(11)
        proj = project_trajectory(make_traj(rng.standard_normal((20, 12))))
        selected = select_key_steps(proj, 8)
        assert all(
            c1 >= c2 for c1, c2 in zip(selected.curvatures, selected.curvatures[1:])
        )

    def test_endpoints_never_selected(self):
        rng = np.random.default_rng(12)
        proj = project_trajectory(make_traj(rng.standard_normal((12, 8))))
        selected = select_key_steps(proj, 10)
        assert 0 not in selected.indices
        assert 11 not in selected.indices
        assert len(selected.indices) == 10

    def test_rotation_invariance(self):
        # A fixed orthogonal transform of all latents must leave curvatures
        # and the selected indices unchanged. A random polyline gives every
        # interior step a distinct O(1) curvature, so the ranking is stable.
        rng = np.random.default_rng(42)
        latents = rng.standard_normal((30, 24))
        rotation = random_orthogonal(24, rng)
        base = select_key_steps(project_trajectory(make_traj(latents)), 5)
        rotated = select_key_steps(project_trajectory(make_traj(latents @ rotation.T)), 5)
        assert base.indices == rotated.indices
        np.testing.assert_allclose(base.curvatures, rotated.curvatures, atol=1e-9)

    def test_selection_deterministic(self):
        rng = np.random.default_rng(13)
        latents = rng.standard_normal((18, 10))
        a = select_key_steps(project_trajectory(make_traj(latents)), 4)
        b = select_key_steps(project_trajectory(make_traj(latents)), 4)
        assert a.indices == b.indices
        assert a.curvatures == b.curvatures

    @pytest.mark.parametrize("k", [0, -1, 11])
    def test_bad_k_rejected(self, k):
        rng = np.random.default_rng(16)
        proj = project_trajectory(make_traj(rng.standard_normal((12, 6))))
        with pytest.raises(PreconditionError):
            select_key_steps(proj, k)

    def test_result_type(self):
        rng = np.random.default_rng(17)
        proj = project_trajectory(make_traj(rng.standard_normal((10, 6))))
        selected = select_key_steps(proj, 3)
        assert isinstance(selected, KeyStepSet)
        assert len(selected.indices) == len(selected.curvatures) == 3
