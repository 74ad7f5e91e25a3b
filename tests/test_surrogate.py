"""Tests for the reward-difference surrogate gradient estimate."""

import warnings

import numpy as np
import pytest
from scipy import stats

from conftest import tangent_part
from rts import (
    DimensionError,
    NeighborSet,
    NonFiniteError,
    PreconditionError,
    RngStream,
    estimate_gradient,
    random_spherical_sample,
)


def _neighbor_set(base, perturbations, rewards, tau=0.5):
    perturbations = np.asarray(perturbations, dtype=np.float64)
    base = np.asarray(base, dtype=np.float64)
    radius = np.linalg.norm(base)
    u = base / radius
    candidates = radius * (tau * u + np.sqrt(1 - tau**2) * perturbations)
    return NeighborSet(base, candidates, perturbations, rewards)


class TestClosedFormCases:
    def test_equal_rewards_give_zero_gradient(self):
        ns = _neighbor_set([2.0, 0.0], [[0.0, 1.0], [0.0, -1.0]], [0.7, 0.7])
        grad = estimate_gradient(0.7, ns)
        np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-15)

    def test_single_improving_neighbor(self):
        # (2 - 1) / (2 + 1) along (0, 1)
        ns = _neighbor_set([1.0, 0.0], [[0.0, 1.0]], [2.0])
        grad = estimate_gradient(1.0, ns)
        np.testing.assert_allclose(grad, [0.0, 1.0 / 3.0], atol=1e-12)

    def test_single_worsening_neighbor(self):
        # (0 - 1) / (0 + 1) along (0, 1)
        ns = _neighbor_set([1.0, 0.0], [[0.0, 1.0]], [0.0])
        grad = estimate_gradient(1.0, ns)
        np.testing.assert_allclose(grad, [0.0, -1.0], atol=1e-12)

    def test_two_neighbor_hand_sum(self):
        # coefficients (3-1)/6 and (2-1)/6 over orthogonal tangents
        ns = _neighbor_set(
            [1.0, 0.0, 0.0],
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [3.0, 2.0],
        )
        grad = estimate_gradient(1.0, ns)
        np.testing.assert_allclose(grad, [0.0, 2.0 / 6.0, 1.0 / 6.0], atol=1e-12)


class TestDenominatorGuard:
    def test_zero_sum_rewards_stay_finite(self):
        # D = 1 + (-1) = 0 is floored to 1e-8 in magnitude
        ns = _neighbor_set([1.0, 0.0], [[0.0, 1.0]], [1.0])
        grad = estimate_gradient(-1.0, ns)
        assert np.all(np.isfinite(grad))
        np.testing.assert_allclose(grad, [0.0, 2.0e8], rtol=1e-9)

    def test_negative_rewards_keep_ascent_orientation(self):
        # a worse neighbor must repel the estimate even when every reward is
        # negative: the scale uses |D| so the numerator's sign decides
        ns = _neighbor_set([1.0, 0.0], [[0.0, 1.0]], [-2.0])
        grad = estimate_gradient(-1.0, ns)
        np.testing.assert_allclose(grad, [0.0, -1.0 / 3.0], atol=1e-12)

    def test_scale_covariance(self):
        ns = _neighbor_set([1.0, 0.0, 0.0],
                           [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [3.0, 2.0])
        base = estimate_gradient(1.0, ns)
        scaled = estimate_gradient(10.0, ns.with_rewards([30.0, 20.0]))
        np.testing.assert_allclose(scaled, base, rtol=1e-12)


class TestValidation:
    def test_requires_rewards(self):
        ns = _neighbor_set([1.0, 0.0], [[0.0, 1.0]], None)
        with pytest.raises(PreconditionError):
            estimate_gradient(1.0, ns)

    def test_rejects_nonfinite_rewards(self):
        ns = _neighbor_set([1.0, 0.0], [[0.0, 1.0]], [np.nan])
        with pytest.raises(NonFiniteError):
            estimate_gradient(1.0, ns)
        ns = _neighbor_set([1.0, 0.0], [[0.0, 1.0]], [1.0])
        with pytest.raises(NonFiniteError):
            estimate_gradient(float("inf"), ns)

    def test_overflowing_coefficients_are_refused_without_a_warning(self):
        # the rewards cancel, so the scale floors at 1e-8 and (±1e301 - 0) / 1e-8 overflows
        ns = _neighbor_set([1.0, 0.0], [[0.0, 1.0], [0.0, -1.0]], [1e301, -1e301])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="surrogate gradient is non-finite"):
                estimate_gradient(0.0, ns)

    @pytest.mark.parametrize("rewards", [[1.0], [1.0, 2.0, 3.0], [[1.0], [2.0]], 1.0])
    def test_rejects_rewards_that_miss_the_perturbation_rows(self, rewards):
        ns = _neighbor_set([1.0, 0.0], [[0.0, 1.0], [0.0, -1.0]], None)
        with pytest.raises(DimensionError, match=r"rewards of shape .* for 2 perturbations"):
            estimate_gradient(1.0, ns.with_rewards(rewards))


class TestTangency:
    def test_gradient_lies_in_the_tangent_plane(self):
        stream = RngStream(31)
        rng = np.random.default_rng(42)
        for case in range(30):
            d = int(rng.choice([2, 8, 64]))
            base = rng.standard_normal(d) * rng.uniform(0.5, 10.0)
            ns = random_spherical_sample(base, n=5, tau=0.8, stream=stream.child(case))
            ns = ns.with_rewards(rng.standard_normal(5))
            grad = estimate_gradient(rng.standard_normal(), ns)
            u = base / np.linalg.norm(base)
            assert abs(grad @ u) < 1e-12


class TestDirectionalAlignment:
    """Statistical sanity on a quadratic landscape with a known gradient."""

    def test_mean_cosine_against_analytic_gradient(self):
        rng = np.random.default_rng(42)
        stream = RngStream(21)
        cosines = []
        for trial in range(200):
            z = rng.standard_normal(32)
            target = rng.standard_normal(32)
            reward = lambda x: -float(np.sum((x - target) ** 2))
            ns = random_spherical_sample(z, n=16, tau=0.99, stream=stream.child(trial))
            ns = ns.with_rewards([reward(c) for c in ns.candidates])
            g = estimate_gradient(reward(z), ns)
            u = z / np.linalg.norm(z)
            true_tangent = tangent_part(-2.0 * (z - target), u)
            cosines.append(
                g @ true_tangent / (np.linalg.norm(g) * np.linalg.norm(true_tangent))
            )
        cosines = np.array(cosines)
        positives = int(np.sum(cosines > 0.0))
        sign_p = stats.binomtest(positives, len(cosines), 0.5, alternative="greater").pvalue
        assert sign_p < 0.01
        # measured mean on this landscape is ~0.59 (sd ~0.085); 0.5 leaves
        # a wide determinism margin without weakening the direction claim
        assert cosines.mean() > 0.5
