"""Tests for trajectory projection, curvature scoring, and key-step selection."""

import numpy as np
import pytest

from rts import (
    DimensionError,
    KeyStepSet,
    NonFiniteError,
    PreconditionError,
    curvature,
    project_trajectory,
    select_key_steps,
)


def top_eigenvalue_sum(latents, k):
    centered = latents - latents.mean(axis=0)
    return float(np.sum(np.linalg.eigvalsh(centered.T @ centered)[::-1][:k]))


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
        latents = np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (6, 1))
        np.testing.assert_allclose(project_trajectory(latents), 0.0, atol=1e-12)

    def test_3d_affine_subspace_is_isometric(self):
        # Latents in a 3D affine subspace of d=32: projected pairwise
        # distances must match the original ones.
        rng = np.random.default_rng(42)
        basis, _ = np.linalg.qr(rng.standard_normal((32, 3)))
        coords = rng.standard_normal((10, 3))
        latents = coords @ basis.T + rng.standard_normal(32)
        points = project_trajectory(latents)
        for i in range(10):
            for j in range(i + 1, 10):
                original = np.linalg.norm(latents[i] - latents[j])
                projected = np.linalg.norm(points[i] - points[j])
                np.testing.assert_allclose(projected, original, rtol=1e-9)

    def test_energy_identity_random_matrix(self):
        # Sum of squared projected norms equals the top-3 eigenvalues of the
        # centered covariance, computed without the factorization.
        latents = np.random.default_rng(42).standard_normal((16, 64))
        energy = float(np.sum(project_trajectory(latents) ** 2))
        np.testing.assert_allclose(energy, top_eigenvalue_sum(latents, 3), rtol=1e-8)

    def test_energy_identity_large(self):
        latents = np.random.default_rng(7).standard_normal((64, 256))
        energy = float(np.sum(project_trajectory(latents) ** 2))
        np.testing.assert_allclose(energy, top_eigenvalue_sum(latents, 3), rtol=1e-8)

    def test_rank_one_input_keeps_distances_on_the_first_axis(self):
        # Points on a line in d=16: rank 1, so the line lies along the first
        # projected axis and the completion directions carry nothing.
        direction = np.zeros(16)
        direction[2] = 1.0
        latents = np.outer(np.arange(8, dtype=np.float64), direction)
        points = project_trajectory(latents)
        np.testing.assert_allclose(np.abs(points[:, 0]), np.abs(np.arange(8) - 3.5), atol=1e-12)
        np.testing.assert_allclose(points[:, 1:], 0.0, atol=1e-12)

    def test_dim_2_pads_with_zeros(self):
        # Latent dimension below 3 leaves nothing to complete with: the
        # third point coordinate stays zero.
        latents = np.random.default_rng(5).standard_normal((9, 2))
        points = project_trajectory(latents)
        np.testing.assert_allclose(points[:, 2], 0.0, atol=1e-15)
        np.testing.assert_allclose(float(np.sum(points**2)), top_eigenvalue_sum(latents, 2), rtol=1e-8)

    def test_too_few_latents_rejected(self):
        with pytest.raises(PreconditionError):
            project_trajectory(np.random.default_rng(0).standard_normal((3, 8)))

    def test_one_dimensional_latents_rejected(self):
        with pytest.raises(DimensionError):
            project_trajectory(np.arange(8.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e160])
    def test_non_finite_latents_rejected(self, bad):
        latents = np.random.default_rng(1).standard_normal((6, 4))
        latents[2, 1] = bad
        with pytest.raises(NonFiniteError):
            project_trajectory(latents)


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
        proj = project_trajectory(latents)
        scores = curvature(proj)[1:23]
        assert int(np.argmax(scores)) + 1 == 10
        selected = select_key_steps(proj, 1)
        assert selected.indices == (10,)

    def test_three_planted_corners_d128(self):
        rng = np.random.default_rng(42)
        latents = corner_path(48, {8, 20, 35}, 128, rng)
        proj = project_trajectory(latents)
        selected = select_key_steps(proj, 3)
        assert sorted(selected.indices) == [8, 20, 35]

    def test_collinear_path_tie_breaks_to_smallest_indices(self):
        direction = np.zeros(8)
        direction[0] = 1.0
        latents = np.outer(np.arange(10, dtype=np.float64), direction)
        proj = project_trajectory(latents)
        selected = select_key_steps(proj, 2)
        assert selected.indices == (1, 2)
        assert selected.curvatures == (0.0, 0.0)

    def test_curvatures_sorted_descending(self):
        rng = np.random.default_rng(11)
        proj = project_trajectory(rng.standard_normal((20, 12)))
        selected = select_key_steps(proj, 8)
        assert all(
            c1 >= c2 for c1, c2 in zip(selected.curvatures, selected.curvatures[1:])
        )

    def test_endpoints_never_selected(self):
        rng = np.random.default_rng(12)
        proj = project_trajectory(rng.standard_normal((12, 8)))
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
        base = select_key_steps(project_trajectory(latents), 5)
        rotated = select_key_steps(project_trajectory(latents @ rotation.T), 5)
        assert base.indices == rotated.indices
        np.testing.assert_allclose(base.curvatures, rotated.curvatures, atol=1e-9)

    def test_selection_deterministic(self):
        rng = np.random.default_rng(13)
        latents = rng.standard_normal((18, 10))
        a = select_key_steps(project_trajectory(latents), 4)
        b = select_key_steps(project_trajectory(latents), 4)
        assert a.indices == b.indices
        assert a.curvatures == b.curvatures

    @pytest.mark.parametrize("k", [0, -1, 11])
    def test_bad_k_rejected(self, k):
        rng = np.random.default_rng(16)
        proj = project_trajectory(rng.standard_normal((12, 6)))
        with pytest.raises(PreconditionError):
            select_key_steps(proj, k)

    def test_result_type(self):
        rng = np.random.default_rng(17)
        proj = project_trajectory(rng.standard_normal((10, 6)))
        selected = select_key_steps(proj, 3)
        assert isinstance(selected, KeyStepSet)
        assert len(selected.indices) == len(selected.curvatures) == 3


class TestPointChecks:
    """curvature and select_key_steps take finite (L, 3) polylines, one or an (S, L, 3) stack."""

    @staticmethod
    def both_calls():
        return {"curvature": curvature, "select_key_steps": lambda points: select_key_steps(points, 2)}

    @staticmethod
    def shaped(points, stack):
        # the stack holds one good polyline before the given one
        good = np.random.default_rng(20).standard_normal(points.shape)
        return np.stack([good, points]) if stack else points

    @pytest.mark.parametrize("stack", [False, True], ids=["polyline", "stack"])
    @pytest.mark.parametrize("width", [2, 4])
    def test_width_other_than_three_is_refused(self, width, stack):
        # before: (6, 2) ended in numpy's DeprecationWarning from np.cross, (6, 4) in a raw ValueError
        points = self.shaped(np.random.default_rng(21).standard_normal((6, width)), stack)
        for call in self.both_calls().values():
            with pytest.raises(DimensionError, match="3"):
                call(points)

    @pytest.mark.parametrize("stack", [False, True], ids=["polyline", "stack"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e160])
    def test_non_finite_points_are_refused(self, bad, stack):
        # before: all-NaN points gave KeyStepSet((1, 2), (nan, nan))
        points = self.shaped(np.full((6, 3), bad), stack)
        for call in self.both_calls().values():
            with pytest.raises(NonFiniteError):
                call(points)

    @pytest.mark.parametrize("stack", [False, True], ids=["polyline", "stack"])
    def test_a_polyline_too_long_for_its_curvature_is_refused(self, stack):
        # finite points whose cross products overflow float64; before: a RuntimeWarning and NaN curvatures
        points = np.array([[0.0, 0.0, 0.0], [1.0, 0.3, 0.0], [2.0, -0.5, 0.2], [3.0, 1.0, 0.1]])
        assert np.isfinite(curvature(self.shaped(points * 1e70, stack))).all()
        for call in self.both_calls().values():
            with pytest.raises(NonFiniteError, match="overflows"):
                call(self.shaped(points * 1e78, stack))

    def test_stack_selects_each_polyline_as_it_would_alone(self):
        rng = np.random.default_rng(23)
        stack = np.stack([project_trajectory(rng.standard_normal((12, 5))) for _ in range(4)])
        sets = select_key_steps(stack, 3)
        assert sets == [select_key_steps(points, 3) for points in stack]
        np.testing.assert_array_equal(curvature(stack), [curvature(points) for points in stack])

    def test_select_refuses_more_than_one_stack_axis(self):
        points = np.random.default_rng(24).standard_normal((2, 2, 6, 3))
        with pytest.raises(DimensionError):
            select_key_steps(points, 2)
