"""Tests for the closed-form flow-matching testbed."""

import math

import numpy as np
import pytest

from conftest import RowReward
from rts import (
    DimensionError,
    MixtureModel,
    ModePreferenceReward,
    NonFiniteError,
    ODE,
    PreconditionError,
    QuadraticReward,
    RngStream,
    SDE,
    SolverSpec,
    denoise,
    evaluate_reward,
    marginal_velocity,
    nearest_mode,
    one_step_clean_estimate,
)
from rts.sim import (
    _TIME_TABLE_SIZE,
    _advance,
    _clean,
    _posterior,
    _velocity,
    heun_step,
)


def single_standard():
    return MixtureModel(weights=[1.0], means=[[0.0, 0.0]], stddevs=[1.0])


def two_component():
    return MixtureModel(
        weights=[0.4, 0.6], means=[[2.0, 1.0], [-1.5, -0.5]], stddevs=[0.5, 0.8]
    )


def quadrature_clean(model, x, t, half_width=8.0, n=1201):
    """Grid-integration oracle for E[x0 | x_t = x] at d=2.

    Uses only the generative definition x_t = (1-t)*x0 + t*eps: weights each
    grid point x0 by p_mix(x0) * N(x; (1-t)*x0, t^2 I) and integrates with
    the trapezoid rule. Independent of the responsibility algebra under test.
    """
    axis = np.linspace(-half_width, half_width, n)
    g0, g1 = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([g0.ravel(), g1.ravel()], axis=1)
    density = np.zeros(grid.shape[0])
    for w, mu, sd in zip(model.weights, model.means, model.stddevs):
        sq = np.sum((grid - mu) ** 2, axis=1)
        density += w * np.exp(-sq / (2.0 * sd**2)) / (2.0 * np.pi * sd**2)
    sq = np.sum((x - (1.0 - t) * grid) ** 2, axis=1)
    likelihood = np.exp(-sq / (2.0 * t**2))
    weights = density * likelihood
    total = np.sum(weights)
    return (weights @ grid) / total


class TestMixtureModel:
    def test_valid_construction(self):
        model = two_component()
        assert model.dim == 2
        assert model.n_components == 2

    def test_weights_must_sum_to_one(self):
        with pytest.raises(PreconditionError):
            MixtureModel(weights=[0.5, 0.6], means=[[0.0, 0.0], [1.0, 1.0]], stddevs=[1.0, 1.0])

    def test_weights_must_be_positive(self):
        with pytest.raises(PreconditionError):
            MixtureModel(weights=[1.2, -0.2], means=[[0.0, 0.0], [1.0, 1.0]], stddevs=[1.0, 1.0])

    def test_stddevs_must_be_positive(self):
        with pytest.raises(PreconditionError):
            MixtureModel(weights=[1.0], means=[[0.0, 0.0]], stddevs=[0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            MixtureModel(weights=[1.0], means=[[0.0, 0.0], [1.0, 1.0]], stddevs=[1.0])

    def test_non_finite_means_rejected(self):
        with pytest.raises(NonFiniteError):
            MixtureModel(weights=[1.0], means=[[np.inf, 0.0]], stddevs=[1.0])


class TestSolverSpec:
    def test_uniform_grid(self):
        spec = SolverSpec(ODE, 4)
        np.testing.assert_allclose(spec.time_grid, [1.0, 0.75, 0.5, 0.25, 0.0])

    def test_ode_with_churn_rejected(self):
        with pytest.raises(PreconditionError):
            SolverSpec(mode=ODE, steps=4, churn=0.5)

    def test_sde_without_churn_rejected(self):
        with pytest.raises(PreconditionError):
            SolverSpec(mode=SDE, steps=4, churn=0.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(PreconditionError):
            SolverSpec(mode="em", steps=4)

    def test_steps_below_one_rejected(self):
        with pytest.raises(PreconditionError):
            SolverSpec(mode=ODE, steps=0)


class TestMarginalVelocity:
    def test_single_standard_component_closed_form(self):
        # x_t = (1-t) x0 + t eps with x0, eps standard normal is jointly
        # Gaussian with x_t, so E[eps - x0 | x_t = x] is linear in x with
        # slope (2t-1) / ((1-t)^2 + t^2).
        model = single_standard()
        rng = np.random.default_rng(42)
        for t in [0.1, 0.3, 0.5, 0.9, 1.0]:
            x = rng.standard_normal(2) * 2.0
            slope = (2.0 * t - 1.0) / ((1.0 - t) ** 2 + t**2)
            np.testing.assert_allclose(marginal_velocity(model, x, t), slope * x, rtol=1e-12)

    def test_monte_carlo_regression_slope(self):
        # Estimate the regression slope of (eps - x0) on x_t from 10^6 draws
        # of the generative process; it must match the analytic slope within
        # three standard errors.
        t = 0.3
        rng = np.random.default_rng(42)
        x0 = rng.standard_normal(10**6)
        eps = rng.standard_normal(10**6)
        xt = (1.0 - t) * x0 + t * eps
        target = eps - x0
        slope_hat = float(xt @ target / (xt @ xt))
        residuals = target - slope_hat * xt
        se = float(np.std(residuals) / np.sqrt(xt @ xt))
        slope = (2.0 * t - 1.0) / ((1.0 - t) ** 2 + t**2)
        assert abs(slope_hat - slope) < 3.0 * se

    def test_well_posed_at_t_one(self):
        # At t=1 every component of x_t has unit variance and zero mean
        # shift, so responsibilities equal the prior weights and the velocity
        # is x minus the mixture mean.
        model = two_component()
        mixture_mean = model.weights @ model.means
        for x in [np.array([0.0, 0.0]), np.array([50.0, -80.0])]:
            v = marginal_velocity(model, x, 1.0)
            assert np.all(np.isfinite(v))
            np.testing.assert_allclose(v, x - mixture_mean, rtol=1e-12, atol=1e-12)

    def test_symmetry_plane_has_zero_velocity_along_mu(self):
        mu = np.array([1.5, 0.0])
        model = MixtureModel(weights=[0.5, 0.5], means=[mu, -mu], stddevs=[0.7, 0.7])
        for x1 in [-2.0, 0.0, 3.0]:
            x = np.array([0.0, x1])
            v = marginal_velocity(model, x, 0.4)
            np.testing.assert_allclose(v[0], 0.0, atol=1e-12)

    def test_quadrature_oracle_agreement(self):
        # v = (x - (1-t) E[x0|x_t]) / t - E[x0|x_t] with the expectation from
        # the grid-integration oracle.
        model = two_component()
        x = np.array([2.2, 1.1])
        t = 0.15
        clean = quadrature_clean(model, x, t)
        oracle_v = (x - (1.0 - t) * clean) / t - clean
        np.testing.assert_allclose(marginal_velocity(model, x, t), oracle_v, atol=1e-4)

    @pytest.mark.parametrize("t", [0.0, -0.1, 1.1])
    def test_time_out_of_range_rejected(self, t):
        with pytest.raises(PreconditionError):
            marginal_velocity(single_standard(), np.zeros(2), t)

    def test_nfe_increment(self, model_rows):
        marginal_velocity(single_standard(), np.zeros(2), 0.5)
        assert model_rows.count == 1


class TestCleanEstimate:
    def test_t_to_zero_limit_returns_x(self):
        model = two_component()
        x = np.array([0.7, -0.4])
        np.testing.assert_allclose(one_step_clean_estimate(model, x, 1e-9), x, atol=1e-8)

    def test_tiny_stddev_returns_mean(self):
        model = MixtureModel(weights=[1.0], means=[[1.0, -2.0]], stddevs=[1e-6])
        estimate = one_step_clean_estimate(model, np.array([4.0, 4.0]), 0.5)
        np.testing.assert_allclose(estimate, [1.0, -2.0], atol=1e-9)

    def test_quadrature_oracle_agreement(self):
        model = two_component()
        x = np.array([2.2, 1.1])
        t = 0.15
        estimate = one_step_clean_estimate(model, x, t)
        np.testing.assert_allclose(estimate, quadrature_clean(model, x, t), atol=1e-6)
        # Frozen regression anchor for the same configuration.
        np.testing.assert_allclose(estimate, [2.52307686, 1.26153844], atol=1e-7)

    def test_velocity_clean_identity(self):
        # The linear path gives x = (1-t) E[x0|x_t] + t E[eps|x_t], hence
        # x - t*v = clean estimate for every x and t.
        model = two_component()
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.standard_normal(2) * 2.5
            t = rng.uniform(0.05, 1.0)
            v = marginal_velocity(model, x, t)
            clean = one_step_clean_estimate(model, x, t)
            np.testing.assert_allclose(x - t * v, clean, rtol=1e-9, atol=1e-12)

    def test_nfe_increment(self, model_rows):
        one_step_clean_estimate(single_standard(), np.zeros(2), 0.5)
        assert model_rows.count == 1


class TestDenoise:
    def test_ode_bitwise_determinism(self):
        model = two_component()
        spec = SolverSpec(mode=ODE, steps=12)
        z = RngStream(5).child(0).generator().standard_normal(2)
        np.testing.assert_array_equal(denoise(model, spec, z)[0], denoise(model, spec, z)[0])

    def test_sde_replay_exactness(self):
        # Re-supplying the recorded injected noises replays the trajectory
        # bitwise: the stochasticity is fully externalized.
        model = two_component()
        spec = SolverSpec(mode=SDE, steps=10, churn=0.7)
        z = np.array([0.3, -1.2])
        latents, injected = denoise(model, spec, z, stream=RngStream(8))
        replayed, replayed_injected = denoise(model, spec, z, injected=injected)
        np.testing.assert_array_equal(replayed, latents)
        np.testing.assert_array_equal(replayed_injected, injected)

    def test_sde_same_stream_is_deterministic(self):
        model = two_component()
        spec = SolverSpec(mode=SDE, steps=6, churn=0.5)
        z = np.array([0.3, -1.2])
        a, _ = denoise(model, spec, z, stream=RngStream(3))
        b, _ = denoise(model, spec, z, stream=RngStream(3))
        np.testing.assert_array_equal(a, b)

    def test_trajectory_shapes_and_endpoints(self):
        # one noise for each of the first L - 1 steps
        model = two_component()
        spec = SolverSpec(mode=SDE, steps=9, churn=0.4)
        z = np.array([1.0, 1.0])
        latents, injected = denoise(model, spec, z, stream=RngStream(2))
        assert latents.shape == (10, 2)
        assert injected.shape == (8, 2)
        np.testing.assert_array_equal(latents[0], z)

    def test_ode_has_no_injected_noises(self):
        model = two_component()
        latents, injected = denoise(model, SolverSpec(mode=ODE, steps=5), np.array([1.0, 1.0]))
        assert latents.shape == (6, 2)
        assert injected.shape == (0, 2)

    def test_ode_rejects_injected(self):
        model = two_component()
        with pytest.raises(PreconditionError):
            denoise(model, SolverSpec(mode=ODE, steps=5), np.ones(2), injected=np.ones((4, 2)))

    def test_ode_rejects_scalar_injected(self):
        model = two_component()
        with pytest.raises(PreconditionError, match="ODE mode accepts no injected noises"):
            denoise(model, SolverSpec(mode=ODE, steps=5), np.ones(2), injected=np.float64(1.0))

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e160])
    def test_non_finite_injected_rejected_before_any_model_call(self, bad, model_rows):
        # the suite turns a RuntimeWarning into an error, so this also checks that no solve ran
        model = two_component()
        spec = SolverSpec(mode=SDE, steps=5, churn=0.5)
        injected = np.zeros((4, 2))
        injected[1, 0] = bad
        with pytest.raises(NonFiniteError):
            denoise(model, spec, np.ones(2), injected=injected)
        assert model_rows.count == 0

    def test_sde_requires_stream_or_injected(self):
        model = two_component()
        with pytest.raises(PreconditionError):
            denoise(model, SolverSpec(mode=SDE, steps=5, churn=0.5), np.ones(2))

    def test_wrong_injected_count_rejected(self):
        model = two_component()
        spec = SolverSpec(mode=SDE, steps=5, churn=0.5)
        for shape in [(5, 2), (4, 3), (2, 4, 2)]:
            with pytest.raises(DimensionError):
                denoise(model, spec, np.ones(2), injected=np.ones(shape))

    def test_nfe_is_two_per_step(self, model_rows):
        model = two_component()
        denoise(model, SolverSpec(mode=ODE, steps=7), np.ones(2))
        assert model_rows.count == 14
        model_rows.count = 0
        heun_step(model, np.ones(2), 1.0, 0.5)
        assert model_rows.count == 2

    def test_single_step_sde_draws_no_churn(self, model_rows):
        # the only step is the last one, which never gets churn
        model = two_component()
        spec = SolverSpec(mode=SDE, steps=1, churn=0.5)
        latents, injected = denoise(model, spec, np.ones(2), stream=RngStream(1))
        assert injected.shape == (0, 2)
        assert model_rows.count == 2
        np.testing.assert_array_equal(latents[-1], heun_step(model, np.ones(2), 1.0, 0.0))

    def test_batched_heun_matches_scalar(self):
        # The vectorized velocity broadcasts over rows; integrating a batch
        # must be bit-identical to integrating each row alone.
        model = two_component()
        spec = SolverSpec(mode=ODE, steps=8)
        rng = np.random.default_rng(42)
        batch = rng.standard_normal((16, 2))
        x = batch.copy()
        grid = spec.time_grid
        for i in range(spec.steps):
            dt = grid[i + 1] - grid[i]
            v_from = _velocity(model, x, grid[i])
            v_to = _velocity(model, x + dt * v_from, grid[i + 1])
            x = x + dt * 0.5 * (v_from + v_to)
        for row in range(16):
            np.testing.assert_array_equal(x[row], denoise(model, spec, batch[row])[0][-1])

    def test_single_component_moments(self):
        # Quick distributional check (the full 10^5-run version lives in the
        # acceptance suite): pushing standard normals through the flow toward
        # a standard normal target must preserve the first two moments.
        model = single_standard()
        spec = SolverSpec(mode=ODE, steps=50)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((10**4, 2))
        grid = spec.time_grid
        for i in range(spec.steps):
            dt = grid[i + 1] - grid[i]
            v_from = _velocity(model, x, grid[i])
            v_to = _velocity(model, x + dt * v_from, grid[i + 1])
            x = x + dt * 0.5 * (v_from + v_to)
        np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=0.05)
        np.testing.assert_allclose(x.var(axis=0), 1.0, atol=0.1)


class TestRewards:
    def test_quadratic_maximum_at_target(self):
        reward = QuadraticReward(target=np.array([0.3, -0.7]))
        assert evaluate_reward(reward, np.array([0.3, -0.7])) == 0.0

    def test_quadratic_hand_value(self):
        reward = QuadraticReward(target=np.zeros(2))
        assert evaluate_reward(reward, np.array([1.0, 0.0])) == -1.0

    def test_mode_preference_favors_preferred_mean(self):
        model = MixtureModel(
            weights=[0.25] * 4,
            means=[[2.0, 2.0], [-2.0, 2.0], [-2.0, -2.0], [2.0, -2.0]],
            stddevs=[0.5] * 4,
        )
        # Sharpness below half the minimum inter-mean distance keeps the
        # preferred bump the strict optimum.
        reward = ModePreferenceReward(model=model, preferred=1, sharpness=1.5)
        at_preferred = evaluate_reward(reward, model.means[1])
        for j in (0, 2, 3):
            assert at_preferred > evaluate_reward(reward, model.means[j])

    def test_mode_preference_closed_form(self):
        model = two_component()
        reward = ModePreferenceReward(model=model, preferred=0, sharpness=2.0)
        tilted = np.array([0.4 * 10.0, 0.6])
        tilted /= tilted.sum()
        x = np.array([0.5, 0.5])
        sq = np.sum((x - model.means) ** 2, axis=1)
        expected = float(tilted @ np.exp(-sq / (2.0 * 4.0)))
        np.testing.assert_allclose(evaluate_reward(reward, x), expected, rtol=1e-12)

    def test_mode_preference_validation(self):
        model = two_component()
        with pytest.raises(PreconditionError):
            ModePreferenceReward(model=model, preferred=2, sharpness=1.0)
        with pytest.raises(PreconditionError):
            ModePreferenceReward(model=model, preferred=0, sharpness=0.0)

    def test_non_finite_input_rejected(self):
        reward = QuadraticReward(target=np.zeros(2))
        with pytest.raises(NonFiniteError):
            evaluate_reward(reward, np.array([np.nan, 0.0]))

    def test_rows_of_another_dimension_rejected(self):
        quadratic = QuadraticReward(target=[0.0, 0.0])
        preference = ModePreferenceReward(model=two_component(), preferred=1, sharpness=1.0)
        for reward in (quadratic, preference):
            for x in (np.ones(3), np.ones((4, 3))):
                with pytest.raises(DimensionError):
                    evaluate_reward(reward, x)

    def test_nearest_mode(self):
        model = two_component()
        assert nearest_mode(model, np.array([1.9, 1.2])) == 0
        assert nearest_mode(model, np.array([-1.0, -0.4])) == 1


class TestRewardProtocol:
    """A reward is any object with ``dim`` and ``evaluate``; ``RowReward`` is one that ``rts`` does not define."""

    def test_one_row_scores_as_a_float(self):
        value = evaluate_reward(RowReward(lambda z: z[0] * 2.0, dim=2), np.array([3.0, 1.0]))
        assert type(value) is float and value == 6.0

    def test_batch_scores_each_row(self):
        x = np.random.default_rng(2).standard_normal((5, 3))
        scores = evaluate_reward(RowReward(lambda z: z[0] - z[2], dim=3), x)
        assert isinstance(scores, np.ndarray)
        np.testing.assert_array_equal(scores, x[:, 0] - x[:, 2])

    def test_inf_output_is_refused(self):
        reward = RowReward(lambda z: float("inf") if z[0] == 0.0 else 1.0)
        for x in (np.array([0.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]])):
            with pytest.raises(NonFiniteError):
                evaluate_reward(reward, x)

    def test_rows_of_another_dimension_are_refused(self):
        reward = RowReward(lambda z: 1.0, dim=2)
        for x in (np.ones(3), np.ones((4, 3))):
            with pytest.raises(DimensionError):
                evaluate_reward(reward, x)
        # dim None scores rows of any dimension
        assert evaluate_reward(RowReward(lambda z: z.size), np.ones(3)) == 3.0


CALLS = ("marginal_velocity", "one_step_clean_estimate", "evaluate_reward", "denoise")


class TestOverflowingLatents:
    """A finite latent whose squared norm would overflow is refused, not turned into NaN or a 0.0 reward."""

    @staticmethod
    def calls(x):
        model = two_component()
        reward = ModePreferenceReward(model=model, preferred=0, sharpness=1.0)
        return {
            "marginal_velocity": lambda: marginal_velocity(model, x, 0.5),
            "one_step_clean_estimate": lambda: one_step_clean_estimate(model, x, 0.5),
            "evaluate_reward": lambda: evaluate_reward(reward, x),
            "denoise": lambda: denoise(model, SolverSpec(ODE, 4), x)[0],
        }

    @pytest.mark.parametrize("name", CALLS)
    def test_entry_above_the_bound_is_refused(self, name):
        for x in [np.array([1e160, 0.0]), np.array([[0.0, 1.0], [0.0, -1e160]])]:
            with pytest.raises(NonFiniteError, match="magnitude"):
                self.calls(x)[name]()

    @pytest.mark.parametrize("name", CALLS)
    def test_entry_below_the_bound_gives_finite_output(self, name):
        # the suite turns an overflow warning into an error, so this also checks that none is raised
        assert np.all(np.isfinite(self.calls(np.array([1e149, 0.0]))[name]()))


def four_corner():
    return MixtureModel(
        weights=[0.1, 0.3, 0.3, 0.3],
        means=[[1.5, 1.5], [-1.5, 1.5], [-1.5, -1.5], [1.5, -1.5]],
        stddevs=[0.6] * 4,
    )


def wide_model():
    """64 components at d=512."""
    rng = np.random.default_rng(3)
    return MixtureModel(
        weights=np.full(64, 1 / 64), means=rng.normal(0.0, 0.2, (64, 512)), stddevs=np.full(64, 0.6)
    )


# (model, rows): a few rows, thousands of rows, and wide rows of many components
BATCH_CASES = [(four_corner, 7), (four_corner, 4100), (wide_model, 3)]


class TestBatchedPath:
    """A batch must give, row for row, the bits of single-latent calls."""

    @pytest.mark.parametrize("make_model,n", BATCH_CASES)
    def test_model_calls_equal_single_rows(self, make_model, n, model_rows):
        model = make_model()
        x = np.random.default_rng(n).standard_normal((n, model.dim)) * 1.5
        for call in (marginal_velocity, one_step_clean_estimate):
            model_rows.count = 0
            batch = call(model, x, 0.37)
            assert model_rows.count == n
            rows = np.stack([call(model, row, 0.37) for row in x])
            np.testing.assert_array_equal(batch, rows)
        model_rows.count = 0
        batch = heun_step(model, x, 0.5, 0.25)
        assert model_rows.count == 2 * n
        np.testing.assert_array_equal(batch, np.stack([heun_step(model, row, 0.5, 0.25) for row in x]))

    @pytest.mark.parametrize("make_model,n", [(four_corner, 7), (wide_model, 2)])
    def test_batched_solve_equals_denoise_per_row(self, make_model, n, model_rows):
        # per-row streams, given noises and ODE: both arrays, bit for bit
        model = make_model()
        sde, ode = SolverSpec(mode=SDE, steps=5, churn=0.4), SolverSpec(mode=ODE, steps=5)
        rng = np.random.default_rng(11)
        zs = rng.standard_normal((n, model.dim))
        noises = rng.standard_normal((n, sde.steps - 1, model.dim))
        streams = [RngStream(4).child(row) for row in range(n)]
        for spec, per_row, batch_kwargs in [
            (sde, lambda row: {"stream": streams[row]}, {"stream": streams}),
            (sde, lambda row: {"injected": noises[row]}, {"injected": noises}),
            (ode, lambda row: {}, {}),
        ]:
            model_rows.count = 0
            latents, injected = denoise(model, spec, zs, **batch_kwargs)
            assert model_rows.count == 2 * spec.steps * n
            assert injected.shape == (n, spec.steps - 1 if spec.mode == SDE else 0, model.dim)
            for row in range(n):
                row_latents, row_injected = denoise(model, spec, zs[row], **per_row(row))
                np.testing.assert_array_equal(latents[row], row_latents)
                np.testing.assert_array_equal(injected[row], row_injected)

    def test_batch_needs_one_stream_per_row(self):
        model = four_corner()
        spec = SolverSpec(mode=SDE, steps=5, churn=0.4)
        zs = np.ones((3, 2))
        for stream in [RngStream(0), [RngStream(0), RngStream(1)]]:
            with pytest.raises(PreconditionError, match="one stream per row"):
                denoise(model, spec, zs, stream=stream)
        with pytest.raises(DimensionError):
            denoise(model, spec, zs, injected=np.ones((spec.steps - 1, 2)))

    def test_shared_noises_broadcast_over_rows(self):
        model = four_corner()
        spec = SolverSpec(mode=SDE, steps=6, churn=0.5)
        rng = np.random.default_rng(5)
        zs = rng.standard_normal((4, 2))
        injected = rng.standard_normal((spec.steps - 1, 2))
        finals = _advance(model, spec, zs, 0, spec.steps, injected)
        for row in range(4):
            np.testing.assert_array_equal(finals[row], denoise(model, spec, zs[row], injected=injected)[0][-1])

    @pytest.mark.parametrize("make_model,n", BATCH_CASES)
    def test_mode_preference_reward_equals_single_rows(self, make_model, n):
        model = make_model()
        reward = ModePreferenceReward(model=model, preferred=0, sharpness=2.0)
        x = model.means[np.arange(n) % model.n_components] + 0.3
        scores = evaluate_reward(reward, x)
        assert isinstance(scores, np.ndarray) and scores.shape == (n,)
        singles = [evaluate_reward(reward, row) for row in x]
        assert all(type(s) is float for s in singles)
        np.testing.assert_array_equal(scores, singles)

    def test_looping_rewards_equal_single_rows(self):
        x = np.random.default_rng(2).standard_normal((5, 3))
        for reward in (QuadraticReward(target=[0.5, -1.0, 2.0]), RowReward(lambda z: z[0] - z[2])):
            scores = evaluate_reward(reward, x)
            np.testing.assert_array_equal(scores, [evaluate_reward(reward, row) for row in x])


def reference_kernel(model, x, t, dtype=np.float64):
    """Responsibilities, velocity and clean estimate in the direct form, over x − (1−t)·μ_k, in ``dtype``."""
    x, means, stddevs = (np.asarray(a, dtype=dtype) for a in (x, model.means, model.stddevs))
    t = dtype(t)
    one_minus = 1 - t
    centered = x[..., None, :] - one_minus * means
    var = (one_minus * stddevs) ** 2 + t * t
    log_resp = (
        np.log(np.asarray(model.weights, dtype=dtype))
        - np.sum(centered * centered, axis=-1) / (2 * var)
        - model.dim * np.log(2 * dtype(math.pi) * var) / 2
    )
    log_resp = log_resp - np.max(log_resp, axis=-1, keepdims=True)
    resp = np.exp(log_resp)
    resp /= np.sum(resp, axis=-1, keepdims=True)
    coef = (t - one_minus * stddevs**2) / var
    velocity = np.sum(resp[..., None] * (coef[:, None] * centered - means), axis=-2)
    coef = one_minus * stddevs**2 / var
    clean = np.sum(resp[..., None] * (means + coef[:, None] * centered), axis=-2)
    return resp, velocity, clean


def kernel(model, x, t):
    """What ``reference_kernel`` gives, from the kernel under test."""
    return _posterior(model, x, t)[0], _velocity(model, x, t), _clean(model, x, t)


# float64's smallest normal number: a value below it keeps no relative precision
TINY = np.finfo(np.float64).tiny


def assert_relatively_near(actual, exact):
    """Each value within 1e-12 of ``exact`` relative to itself; where ``exact`` is below ``TINY``, underflowed too."""
    normal = exact >= TINY
    np.testing.assert_allclose(actual[normal], exact[normal], rtol=1e-12, atol=0.0)
    assert np.all(actual[~normal] < 2 * TINY)


def assert_rows_near(actual, exact):
    """Each row within 1e-12 of the largest magnitude of its row in ``exact``.

    Coordinate by coordinate, 1e-12 cannot hold in float64 for a sum over
    components: on ``mid_model`` the direct form itself is off by 2e-12
    (velocity) and 2e-11 (clean) of a coordinate near 0.
    """
    scale = np.max(np.abs(exact), axis=-1, keepdims=True)
    assert np.all(np.abs(actual - exact) <= 1e-12 * scale)


def mid_model():
    """8 components at d=64."""
    rng = np.random.default_rng(8)
    return MixtureModel(
        weights=rng.dirichlet(np.ones(8)), means=rng.normal(0.0, 1.0, (8, 64)), stddevs=rng.uniform(0.3, 1.2, 8)
    )


def sharp_corner():
    """``four_corner`` with stddev 1e-3: responsibilities are near one-hot and log-densities large."""
    model = four_corner()
    return MixtureModel(weights=model.weights, means=model.means, stddevs=np.full(4, 1e-3))


# every point of a 16-step grid from t = 1 but its last, and a time near 0
KERNEL_TIMES = [*SolverSpec(mode=SDE, steps=16, churn=0.4).time_grid[:-1], 1e-3]


class TestTimeTable:
    """The per-time constants are computed once per (model, t); the kernel agrees with the direct form."""

    @pytest.mark.parametrize("make_model", [four_corner, mid_model, sharp_corner])
    def test_kernel_equals_inline_reference(self, make_model):
        model = make_model()
        batch = np.random.default_rng(4).standard_normal((5, model.dim)) * 1.5
        # the corrector of a solve's last step evaluates the velocity at t = 0
        for t in KERNEL_TIMES + [0.0]:
            on_modes = (1.0 - t) * model.means  # the component means of x_t
            for x in (batch[0], batch, on_modes):
                resp, velocity, clean = reference_kernel(model, x, t, np.longdouble)
                for _ in range(2):  # the first call fills the table, the second reads it
                    got = kernel(model, x, t)
                    assert_relatively_near(got[0], resp)
                    assert_rows_near(got[1], velocity)
                    assert_rows_near(got[2], clean)

    @pytest.mark.parametrize("make_model", [four_corner, mid_model])
    def test_reward_equals_direct_form(self, make_model):
        model = make_model()
        x = np.concatenate([np.random.default_rng(6).standard_normal((5, model.dim)) * 1.5, model.means])
        for sharpness in (0.5, 2.0, math.sqrt(model.dim)):
            reward = ModePreferenceReward(model, 0, sharpness)
            diff = x.astype(np.longdouble)[:, None, :] - model.means
            bumps = np.exp(-np.sum(diff * diff, axis=-1) / (2 * np.longdouble(sharpness) ** 2))
            assert_relatively_near(reward.evaluate(x), bumps @ reward._tilted)

    @staticmethod
    def close_mode_errors(means):
        """The largest error, per output, of the kernel and of the float64 direct form against ``np.longdouble``.

        Stddev 1e-3, points within 1e-3 of the midpoint of the first two
        means, relative to each output's largest magnitude.
        """
        k = len(means)
        model = MixtureModel(weights=np.full(k, 1 / k), means=means, stddevs=np.full(k, 1e-3))
        offsets = np.linspace(-1.0, 1.0, 9)[:, None] * [0.0, 1e-3]
        kernel_error, direct_error = np.zeros(3), np.zeros(3)
        for t in (0.5, 0.1, 0.02, 0.01, 0.005, 1e-3, 1e-4):
            x = (1.0 - t) * model.means[:2].mean(axis=0) + offsets
            exact = reference_kernel(model, x, t, np.longdouble)
            for errors, values in ((kernel_error, kernel(model, x, t)), (direct_error, reference_kernel(model, x, t))):
                for i, (got, want) in enumerate(zip(values, exact)):
                    errors[i] = max(errors[i], np.max(np.abs(got - want)) / np.max(np.abs(want)))
        assert np.all(direct_error > 0.0)
        return kernel_error, direct_error

    def test_close_modes_far_from_the_origin_stay_near_extended_precision(self):
        """Two modes 0.01 apart at distance 30.

        ‖x − s·μ_k‖² expanded about the origin cancels terms of order 900/var
        here; about the center of the means the kernel stays within a small
        factor of the direct form's own float64 error.
        """
        kernel_error, direct_error = self.close_mode_errors([[30.0, 0.005], [30.0, -0.005]])
        assert np.all(kernel_error <= 4.0 * direct_error)

    @pytest.mark.xfail(strict=True, reason="the kernel expands about the center of all the means, which is 30 away")
    def test_close_pairs_far_from_the_center_stay_near_extended_precision(self):
        """Two such pairs at ±30: the center is the origin, and the responsibilities lose ε·900/var."""
        means = [[30.0, 0.005], [30.0, -0.005], [-30.0, 0.005], [-30.0, -0.005]]
        kernel_error, direct_error = self.close_mode_errors(means)
        assert np.all(kernel_error <= 4.0 * direct_error)

    def test_table_holds_one_entry_per_time_of_component_vectors(self):
        model = mid_model()
        x = np.random.default_rng(5).standard_normal(model.dim)
        for t in KERNEL_TIMES * 3:
            _velocity(model, x, t)
        assert len(model._by_time) == len(KERNEL_TIMES)
        for consts in model._by_time.values():
            assert all(a.size == model.n_components for a in consts)

    def test_table_stays_bounded_over_many_times(self):
        model = four_corner()
        x = np.array([0.3, -0.2])
        times = np.linspace(1.0, 1e-4, 10**4)
        for t in times:
            marginal_velocity(model, x, t)
            assert len(model._by_time) <= _TIME_TABLE_SIZE
        exact = reference_kernel(model, x, times[-1], np.longdouble)[1]
        np.testing.assert_allclose(marginal_velocity(model, x, times[-1]), exact, rtol=1e-12, atol=0.0)
