"""Tests for the end-to-end pipeline, baselines, and NFE accounting."""

import dataclasses
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import rts.pipeline
from conftest import RowReward
from rts import (
    BudgetError,
    DimensionError,
    MixtureModel,
    ModePreferenceReward,
    PreconditionError,
    QuadraticReward,
    RngStream,
    RtsConfig,
    SearchConfig,
    SolverSpec,
    StreamBlock,
    denoise,
    evaluate_reward,
    expected_rts_nfe,
    guided_spherical_sample,
    nearest_mode,
    random_spherical_sample,
    run_bon,
    run_bon_block,
    run_free,
    run_free_block,
    run_rts,
    run_rts_block,
    run_search,
    run_zo,
    run_zo_block,
    sample_gaussian,
    select_key_steps,
)


def four_corner_model(preferred_weight=0.1, spread=1.5, stddev=0.6):
    other = (1.0 - preferred_weight) / 3.0
    return MixtureModel(
        weights=[preferred_weight, other, other, other],
        means=[[spread, spread], [-spread, spread], [-spread, -spread], [spread, -spread]],
        stddevs=[stddev] * 4,
    )


def worst_case_positions(steps, k):
    """Key-step positions maximizing re-simulation cost in the NFE ledger."""
    return [1] + list(range(steps - k + 1, steps))


class TestRtsConfig:
    def test_defaults(self):
        cfg = RtsConfig()
        assert cfg.search_init.n_neighbors == 3
        assert cfg.search_init.rounds == 4
        assert cfg.search_init.tau == 0.9
        assert cfg.search_init.alpha == 0.7
        assert cfg.search_inter.rounds == 2
        assert cfg.k_keysteps == 6
        assert cfg.eval_steps_init is None
        assert cfg.eval_steps_inter == 1
        assert cfg.budget_nfe is None
        assert cfg.resample_inter_fresh

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_keysteps": -1},
            {"eval_steps_init": 0},
            {"eval_steps_inter": 0},
            {"budget_nfe": 0},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(PreconditionError):
            RtsConfig(**kwargs)


_QUADRATIC = QuadraticReward(target=[0.0, 0.0])

# every count a library caller passes: a call that takes it, and a valid value
counts = pytest.mark.parametrize("make,valid", [
    pytest.param(lambda v: SolverSpec("ode", v), 8, id="steps"),
    pytest.param(lambda v: SearchConfig(n_neighbors=v), 3, id="n_neighbors"),
    pytest.param(lambda v: SearchConfig(rounds=v), 4, id="rounds"),
    pytest.param(lambda v: RtsConfig(k_keysteps=v), 6, id="k_keysteps"),
    pytest.param(lambda v: RtsConfig(eval_steps_init=v), 2, id="eval_steps_init"),
    pytest.param(lambda v: RtsConfig(eval_steps_inter=v), 1, id="eval_steps_inter"),
    pytest.param(lambda v: RtsConfig(budget_nfe=v), 100, id="budget_nfe"),
    pytest.param(lambda v: ModePreferenceReward(four_corner_model(), v, 1.0), 1, id="preferred"),
    pytest.param(lambda v: run_bon(four_corner_model(), SolverSpec("ode", 4), _QUADRATIC, v, RngStream(0)), 16,
                 id="bon-budget"),
    pytest.param(lambda v: run_zo(four_corner_model(), SolverSpec("ode", 4), _QUADRATIC, v, 0.9, RngStream(0)), 16,
                 id="zo-budget"),
    pytest.param(lambda v: select_key_steps(np.arange(18.0).reshape(6, 3) ** 2, v), 2, id="key-steps-k"),
    pytest.param(lambda v: random_spherical_sample(np.ones(2), v, 0.9, RngStream(0)), 2, id="random-sample-n"),
    pytest.param(lambda v: guided_spherical_sample(np.ones(2), v, 0.9, 0.5, np.array([1.0, -1.0]),
                                                   np.array([[0.6, -0.6], [-0.6, 0.6]]), RngStream(0)), 2,
                 id="guided-sample-n"),
])


class TestIntegerCounts:
    """Counts go through ``operator.index``: 2.5, 2.0 or "2" is refused, not truncated or parsed."""

    @counts
    @pytest.mark.parametrize("spoil", [lambda v: v + 0.5, float, str], ids=["fraction", "float", "string"])
    def test_non_integer_count_is_refused(self, make, valid, spoil):
        with pytest.raises(PreconditionError, match="must be an integer"):
            make(spoil(valid))

    @counts
    def test_numpy_integer_count_is_accepted(self, make, valid):
        make(np.int64(valid))


# every float or bool field of a library constructor: its name, a call that takes it, and a valid numpy value
_SCALARS = [
    ("churn", lambda v: SolverSpec("sde", 8, churn=v), np.float64(0.4)),
    ("tau", lambda v: SearchConfig(tau=v), np.float64(0.5)),
    ("alpha", lambda v: SearchConfig(alpha=v), np.float64(0.7)),
    ("sharpness", lambda v: ModePreferenceReward(four_corner_model(), 0, v), np.float64(1.0)),
    ("track_global_best", lambda v: SearchConfig(track_global_best=v), np.bool_(False)),
    ("resample_inter_fresh", lambda v: RtsConfig(resample_inter_fresh=v), np.bool_(False)),
]
scalars = pytest.mark.parametrize("name,make,valid", _SCALARS, ids=[name for name, _, _ in _SCALARS])
_FLOATS = [field for field in _SCALARS if isinstance(field[2], np.float64)]
floats = pytest.mark.parametrize("name,make,valid", _FLOATS, ids=[name for name, _, _ in _FLOATS])


class TestScalarFields:
    """Float and bool fields are type-checked, not parsed or coerced: "0.5" or "no" is refused, and so is a non-finite float."""

    @scalars
    def test_wrong_type_is_refused(self, name, make, valid):
        wrong = ("no", None, 1, 0.0) if isinstance(valid, np.bool_) else ("0.5", None, True, np.bool_(False))
        for value in wrong:
            with pytest.raises(PreconditionError, match=f"{name} must be a"):
                make(value)

    @scalars
    def test_valid_value_is_stored_as_given(self, name, make, valid):
        assert getattr(make(valid), name) is valid

    @floats
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 10**400], ids=["inf", "-inf", "nan", "huge-int"])
    def test_non_finite_float_is_refused(self, name, make, valid, value):
        # an infinite sharpness scored every latent 1.0; an infinite churn failed only inside the first solve;
        # an integer too large for a float ended in a raw OverflowError
        with pytest.raises(PreconditionError, match=f"{name} must be a finite float"):
            make(value)


class TestNfeLedger:
    """The counter must equal the ledger formula exactly, per configuration."""

    CONFIGS = [
        (
            SolverSpec(mode="ode", steps=8),
            RtsConfig(search_init=SearchConfig(n_neighbors=3, rounds=4), k_keysteps=6),
        ),
        (
            SolverSpec(mode="sde", steps=16, churn=0.4),
            RtsConfig(search_init=SearchConfig(n_neighbors=3, rounds=4), k_keysteps=6),
        ),
        (
            SolverSpec(mode="sde", steps=16, churn=0.4),
            RtsConfig(
                search_init=SearchConfig(n_neighbors=2, rounds=6, tau=0.7),
                search_inter=SearchConfig(n_neighbors=4, rounds=3, tau=0.8),
                k_keysteps=6,
                eval_steps_init=2,
            ),
        ),
        (
            SolverSpec(mode="sde", steps=12, churn=0.5),
            RtsConfig(
                search_init=SearchConfig(n_neighbors=3, rounds=0),
                k_keysteps=4,
                eval_steps_inter=2,
            ),
        ),
        (
            SolverSpec(mode="sde", steps=8, churn=0.3),
            RtsConfig(search_init=SearchConfig(n_neighbors=4, rounds=2), k_keysteps=0),
        ),
        (
            SolverSpec(mode="sde", steps=10, churn=0.6),
            RtsConfig(
                search_init=SearchConfig(n_neighbors=1, rounds=1),
                search_inter=SearchConfig(n_neighbors=2, rounds=2),
                k_keysteps=2,
                eval_steps_inter=3,
            ),
        ),
        (
            SolverSpec(mode="ode", steps=6),
            RtsConfig(
                search_init=SearchConfig(n_neighbors=2, rounds=2),
                eval_steps_init=3,
            ),
        ),
        (
            SolverSpec(mode="sde", steps=2, churn=0.4),
            RtsConfig(search_init=SearchConfig(n_neighbors=2, rounds=2), k_keysteps=6, eval_steps_init=1),
        ),
    ]

    @pytest.mark.parametrize("spec,cfg", CONFIGS)
    def test_counter_matches_formula(self, spec, cfg):
        model = four_corner_model()
        reward = ModePreferenceReward(model=model, preferred=0, sharpness=2.0)
        for seed in (0, 1):
            result = run_rts(model, spec, reward, cfg, RngStream(seed))
            positions = result.key_steps.indices if result.key_steps is not None else ()
            expected = expected_rts_nfe(cfg, spec, key_positions=positions)
            assert not result.truncated
            assert result.nfe_used == expected["total"]
            for phase in ("init_search", "record", "inter_search", "final"):
                assert result.nfe_breakdown[phase] == expected[phase]

    def test_worst_case_positions_dominate(self):
        # The budget helper assumes these positions maximize re-simulation;
        # verify against random position sets.
        spec = SolverSpec(mode="sde", steps=16, churn=0.4)
        cfg = RtsConfig(
            search_init=SearchConfig(n_neighbors=2, rounds=6, tau=0.7),
            search_inter=SearchConfig(n_neighbors=4, rounds=3, tau=0.8),
            k_keysteps=6,
            eval_steps_init=2,
        )
        worst = expected_rts_nfe(cfg, spec, key_positions=worst_case_positions(16, 6))
        rng = np.random.default_rng(42)
        for _ in range(200):
            positions = rng.choice(np.arange(1, 16), size=6, replace=False)
            total = expected_rts_nfe(cfg, spec, key_positions=positions)["total"]
            assert total <= worst["total"]

    @pytest.mark.parametrize("positions", [[0, 99], [0, 3], [3, 8]], ids=["both", "first", "last"])
    def test_positions_outside_the_interior_are_refused(self, positions):
        # interior steps of an 8-step solve are 1..7; 0 and 8 are its endpoints
        spec = SolverSpec(mode="sde", steps=8, churn=0.4)
        with pytest.raises(PreconditionError, match=r"key position must lie in \[1, 7\]"):
            expected_rts_nfe(RtsConfig(), spec, key_positions=positions)

    def test_repeated_position_is_refused(self):
        spec = SolverSpec(mode="sde", steps=8, churn=0.4)
        with pytest.raises(PreconditionError, match="distinct"):
            expected_rts_nfe(RtsConfig(), spec, key_positions=[5, 2, 5])


class TestBudgetProperty:
    """On random small configs the budget is a hard cap and the ledger is exact."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        mode=st.sampled_from(["ode", "sde"]),
        steps=st.integers(1, 6),
        search_init=st.builds(SearchConfig, n_neighbors=st.integers(1, 3), rounds=st.integers(0, 3)),
        search_inter=st.builds(SearchConfig, n_neighbors=st.integers(1, 3), rounds=st.integers(0, 2)),
        k_keysteps=st.integers(0, 4),
        eval_steps_init=st.none() | st.integers(1, 6),
        eval_steps_inter=st.integers(1, 3),
        budget=st.none() | st.integers(1, 200),
        seed=st.integers(0, 1000),
    )
    def test_budget_cap_and_ledger(
        self, mode, steps, search_init, search_inter, k_keysteps, eval_steps_init, eval_steps_inter, budget, seed
    ):
        model = four_corner_model()
        reward = ModePreferenceReward(model=model, preferred=0, sharpness=2.0)
        spec = SolverSpec(mode=mode, steps=steps, churn=0.4 if mode == "sde" else 0.0)
        cfg = RtsConfig(
            search_init=search_init,
            search_inter=search_inter,
            k_keysteps=k_keysteps,
            eval_steps_init=eval_steps_init,
            eval_steps_inter=eval_steps_inter,
            budget_nfe=budget,
        )
        # one scored initial noise plus the record denoise it owes
        eval_steps = eval_steps_init or steps
        record = 0 if search_init.rounds >= 1 and eval_steps == steps else 2 * steps
        minimum = (2 * eval_steps if search_init.rounds >= 1 else 0) + record
        if budget is not None and budget < minimum:
            with pytest.raises(BudgetError):
                run_rts(model, spec, reward, cfg, RngStream(seed))
            return
        result = run_rts(model, spec, reward, cfg, RngStream(seed))
        if budget is None:
            assert not result.truncated
        else:
            assert result.nfe_used <= budget
        # truncated runs included: every phase is listed in order and the phases add up
        assert list(result.nfe_breakdown) == ["init_search", "record", "inter_search", "final"]
        assert sum(result.nfe_breakdown.values()) == result.nfe_used
        if not result.truncated:
            positions = result.key_steps.indices if result.key_steps is not None else ()
            expected = expected_rts_nfe(cfg, spec, key_positions=positions)
            assert result.nfe_used == expected.pop("total")
            assert result.nfe_breakdown == expected


class TestBudgetSafety:
    def _setup(self):
        model = four_corner_model()
        spec = SolverSpec(mode="sde", steps=8, churn=0.4)
        reward = ModePreferenceReward(model=model, preferred=0, sharpness=2.0)
        cfg = RtsConfig(
            search_init=SearchConfig(n_neighbors=2, rounds=4, tau=0.7),
            search_inter=SearchConfig(n_neighbors=3, rounds=2),
            k_keysteps=3,
            eval_steps_init=2,
        )
        return model, spec, reward, cfg

    def test_budget_never_exceeded_and_truncation_flagged(self):
        model, spec, reward, cfg = self._setup()
        unbudgeted = run_rts(model, spec, reward, cfg, RngStream(0))
        total = unbudgeted.nfe_used
        minimum = 2 * 2 + 2 * 8  # one scored candidate plus the record run
        for budget in range(minimum, total + 5, 7):
            capped = RtsConfig(
                search_init=cfg.search_init,
                search_inter=cfg.search_inter,
                k_keysteps=cfg.k_keysteps,
                eval_steps_init=cfg.eval_steps_init,
                budget_nfe=budget,
            )
            result = run_rts(model, spec, reward, capped, RngStream(0))
            assert result.nfe_used <= budget
            assert result.truncated == (budget < total)
            assert np.isfinite(result.final_reward)

    def test_budget_at_total_matches_unbudgeted_run(self):
        model, spec, reward, cfg = self._setup()
        unbudgeted = run_rts(model, spec, reward, cfg, RngStream(3))
        capped = RtsConfig(
            search_init=cfg.search_init,
            search_inter=cfg.search_inter,
            k_keysteps=cfg.k_keysteps,
            eval_steps_init=cfg.eval_steps_init,
            budget_nfe=unbudgeted.nfe_used,
        )
        result = run_rts(model, spec, reward, capped, RngStream(3))
        assert not result.truncated
        np.testing.assert_array_equal(result.final_sample, unbudgeted.final_sample)
        assert result.nfe_used == unbudgeted.nfe_used

    def test_budget_below_one_candidate_errors(self):
        model, spec, reward, cfg = self._setup()
        tiny = RtsConfig(
            search_init=cfg.search_init,
            search_inter=cfg.search_inter,
            k_keysteps=cfg.k_keysteps,
            eval_steps_init=cfg.eval_steps_init,
            budget_nfe=19,  # minimum is 4 + 16
        )
        with pytest.raises(BudgetError):
            run_rts(model, spec, reward, tiny, RngStream(0))


class TestPhaseDecomposition:
    def _run(self, spec, cfg):
        model = four_corner_model()
        reward = ModePreferenceReward(model=model, preferred=0, sharpness=2.0)
        return run_rts(model, spec, reward, cfg, RngStream(4))

    def test_k_zero_disables_intermediate_phase(self):
        result = self._run(
            SolverSpec(mode="sde", steps=8, churn=0.4),
            RtsConfig(search_init=SearchConfig(n_neighbors=2, rounds=2), k_keysteps=0),
        )
        assert result.key_steps is None
        assert result.nfe_breakdown["inter_search"] == 0
        assert result.nfe_breakdown["final"] == 0
        assert result.round_history["inter"] == []

    def test_rounds_zero_disables_initial_phase(self):
        result = self._run(
            SolverSpec(mode="sde", steps=8, churn=0.4),
            RtsConfig(search_init=SearchConfig(n_neighbors=3, rounds=0), k_keysteps=3),
        )
        assert result.nfe_breakdown["init_search"] == 0
        assert result.nfe_breakdown["record"] == 16
        assert result.round_history["init"] == []

    def test_ode_mode_skips_intermediate_phase(self):
        result = self._run(
            SolverSpec(mode="ode", steps=8),
            RtsConfig(search_init=SearchConfig(n_neighbors=2, rounds=2), k_keysteps=6),
        )
        assert result.key_steps is None
        assert result.nfe_breakdown["inter_search"] == 0
        assert result.nfe_breakdown["final"] == 0

    def test_k_clamped_to_interior_steps(self):
        result = self._run(
            SolverSpec(mode="sde", steps=4, churn=0.4),
            RtsConfig(search_init=SearchConfig(n_neighbors=2, rounds=2), k_keysteps=6),
        )
        assert result.key_steps is not None
        assert len(result.key_steps.indices) == 3


class TestReplayCorrectness:
    def test_final_sample_is_exact_replay(self, monkeypatch):
        # Capture the pipeline's final denoise call and replay it through an
        # untouched solver: the reported sample must match bitwise.
        calls = []
        real_denoise = rts.pipeline.denoise

        def spy(model, spec, z_init, injected=None, stream=None):
            result = real_denoise(model, spec, z_init, injected=injected, stream=stream)
            calls.append((np.array(z_init, copy=True), injected))
            return result

        monkeypatch.setattr(rts.pipeline, "denoise", spy)
        model = four_corner_model()
        spec = SolverSpec(mode="sde", steps=10, churn=0.5)
        reward = ModePreferenceReward(model=model, preferred=0, sharpness=2.0)
        cfg = RtsConfig(
            search_init=SearchConfig(n_neighbors=2, rounds=2, tau=0.7),
            search_inter=SearchConfig(n_neighbors=3, rounds=2),
            k_keysteps=4,
            eval_steps_init=2,
        )
        result = run_rts(model, spec, reward, cfg, RngStream(6))
        replays = [(z, inj) for z, inj in calls if inj is not None and len(inj) > 0]
        assert len(replays) == 1
        # the pipeline replays its block of one seed; replay that seed alone
        z_init, injected = replays[-1]
        assert z_init.shape == (1, model.dim)
        fresh, _ = denoise(model, spec, z_init[0], injected=injected[0])
        np.testing.assert_array_equal(fresh[-1], result.final_sample)
        np.testing.assert_allclose(
            result.final_reward, reward.evaluate(fresh[-1]), rtol=0, atol=0
        )


class TestKeyStepOrdering:
    def test_intermediate_phase_visits_descending_time(self, monkeypatch):
        # Key-step searches derive their streams as child(3).child(position);
        # record the positions in call order and check they ascend in step
        # index, i.e. descend in time.
        seen = []
        real_run_search = rts.pipeline.run_search
        # the run hands run_search a block of its one stream; tell the positions apart by their Philox keys
        positions = {tuple(RngStream(7).child(3).child(p)._pool.keys().tolist()): p for p in range(1, 12)}

        def spy(z0, cfg, evaluate, stream, **kwargs):
            key = tuple(stream.keys()[0].tolist())
            if key in positions:
                seen.append(positions[key])
            return real_run_search(z0, cfg, evaluate, stream, **kwargs)

        monkeypatch.setattr(rts.pipeline, "run_search", spy)
        model = four_corner_model()
        spec = SolverSpec(mode="sde", steps=12, churn=0.5)
        reward = ModePreferenceReward(model=model, preferred=0, sharpness=2.0)
        cfg = RtsConfig(
            search_init=SearchConfig(n_neighbors=2, rounds=2, tau=0.7),
            search_inter=SearchConfig(n_neighbors=2, rounds=2),
            k_keysteps=5,
        )
        result = run_rts(model, spec, reward, cfg, RngStream(7))
        assert seen == sorted(result.key_steps.indices)
        times = spec.time_grid[np.array(seen)]
        assert np.all(np.diff(times) < 0)


class TestDeterminism:
    def test_identical_seed_identical_result(self):
        model = four_corner_model()
        spec = SolverSpec(mode="sde", steps=10, churn=0.4)
        reward = ModePreferenceReward(model=model, preferred=0, sharpness=2.0)
        cfg = RtsConfig(
            search_init=SearchConfig(n_neighbors=2, rounds=4, tau=0.7),
            search_inter=SearchConfig(n_neighbors=3, rounds=2),
            k_keysteps=4,
            eval_steps_init=2,
        )
        a = run_rts(model, spec, reward, cfg, RngStream(11))
        b = run_rts(model, spec, reward, cfg, RngStream(11))
        np.testing.assert_array_equal(a.final_sample, b.final_sample)
        assert a.final_reward == b.final_reward
        assert a.nfe_used == b.nfe_used
        assert a.key_steps.indices == b.key_steps.indices
        assert a.round_history == b.round_history
        assert a.nfe_breakdown == b.nfe_breakdown

    def test_different_seeds_differ(self):
        model = four_corner_model()
        spec = SolverSpec(mode="sde", steps=10, churn=0.4)
        reward = ModePreferenceReward(model=model, preferred=0, sharpness=2.0)
        cfg = RtsConfig(search_init=SearchConfig(n_neighbors=2, rounds=2), k_keysteps=0)
        a = run_rts(model, spec, reward, cfg, RngStream(1))
        b = run_rts(model, spec, reward, cfg, RngStream(2))
        assert not np.array_equal(a.final_sample, b.final_sample)


class TestRewardProtocol:
    def test_run_rts_scores_an_outside_reward_as_the_built_in_one(self):
        # RowReward is defined in the tests; scoring the quadratic row by row
        # gives the bits of QuadraticReward, so the two runs match exactly
        model = four_corner_model()
        spec = SolverSpec(mode="sde", steps=8, churn=0.4)
        target = np.array([1.5, 1.5])
        outside = RowReward(lambda x: -((x - target) @ (x - target)), dim=2)
        cfg = RtsConfig(search_init=SearchConfig(n_neighbors=2, rounds=2), k_keysteps=3)
        a = run_rts(model, spec, QuadraticReward(target=target), cfg, RngStream(3))
        b = run_rts(model, spec, outside, cfg, RngStream(3))
        np.testing.assert_array_equal(a.final_sample, b.final_sample)
        assert (a.final_reward, a.nfe_used, a.round_history) == (b.final_reward, b.nfe_used, b.round_history)
        assert a.key_steps == b.key_steps and len(a.key_steps.indices) == 3

    @pytest.mark.parametrize("scores", [lambda n: np.zeros(n + 1), lambda n: 0.5], ids=["n+1", "scalar"])
    def test_a_reward_without_one_score_per_row_is_refused(self, scores):
        class Miscounted:
            dim = 2

            def evaluate(self, x):
                return scores(x.shape[0])

        model, reward, spec = four_corner_model(), Miscounted(), SolverSpec(mode="sde", steps=4, churn=0.4)
        runs = {
            "one latent": lambda: evaluate_reward(reward, np.ones(2)),
            "batch": lambda: evaluate_reward(reward, np.ones((3, 2))),
            "bon": lambda: run_bon(model, spec, reward, 24, RngStream(0)),
            "zo": lambda: run_zo(model, spec, reward, 24, 0.9, RngStream(0)),
            "free": lambda: run_free(model, spec, reward, RngStream(0)),
            "rts": lambda: run_rts(model, spec, reward, RtsConfig(), RngStream(0)),
        }
        for run in runs.values():
            with pytest.raises(DimensionError, match="reward must return"):
                run()


class TestRunBon:
    def _setup(self, steps=8, mode="sde", churn=0.4):
        model = four_corner_model()
        spec = SolverSpec(mode=mode, steps=steps, churn=churn)
        reward = ModePreferenceReward(model=model, preferred=0, sharpness=2.0)
        return model, spec, reward

    def test_single_candidate_budget(self):
        model, spec, reward = self._setup()
        result = run_bon(model, spec, reward, 16, RngStream(0))
        assert len(result.round_history["candidates"]) == 1
        assert result.nfe_used == 16

    def test_candidate_count_is_integer_division(self):
        model = four_corner_model()
        spec = SolverSpec(mode="ode", steps=50)
        reward = QuadraticReward(target=np.zeros(2))
        result = run_bon(model, spec, reward, 1000, RngStream(0))
        assert len(result.round_history["candidates"]) == 10
        assert result.nfe_used == 1000

    def test_doubling_budget_never_decreases_reward(self):
        # Candidate i always comes from the same stream children, so a
        # larger budget evaluates a superset of the candidates.
        model, spec, reward = self._setup()
        for seed in range(10):
            small = run_bon(model, spec, reward, 64, RngStream(seed))
            large = run_bon(model, spec, reward, 128, RngStream(seed))
            assert large.final_reward >= small.final_reward

    def test_final_reward_is_max_of_candidates(self):
        model, spec, reward = self._setup()
        result = run_bon(model, spec, reward, 160, RngStream(3))
        assert result.final_reward == max(result.round_history["candidates"])

    def test_budget_below_one_denoise_errors(self):
        model, spec, reward = self._setup()
        with pytest.raises(BudgetError):
            run_bon(model, spec, reward, 15, RngStream(0))

    def test_absurd_budget_is_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a candidate before refusing the budget")

        monkeypatch.setattr(rts.pipeline, "sample_gaussian", no_draw)
        model, spec, reward = self._setup()
        with pytest.raises(PreconditionError, match="10000"):
            run_bon(model, spec, reward, 10**30, RngStream(0))
        with pytest.raises(PreconditionError):
            run_bon(model, spec, reward, 16 * 10_001, RngStream(0))


class TestRunZo:
    def test_constant_reward_never_relocates(self):
        # No strict improvement can occur, so the final sample equals the
        # very first (base) trajectory's output, reconstructed here from the
        # same stream derivations.
        model = four_corner_model()
        spec = SolverSpec(mode="sde", steps=8, churn=0.4)
        stream = RngStream(5)
        result = run_zo(model, spec, RowReward(lambda x: 1.0), 96, 0.9, stream)
        base = sample_gaussian(stream.child(0), model.dim)
        latents, _ = denoise(model, spec, base, stream=stream.child(1).child(0))
        np.testing.assert_array_equal(result.final_sample, latents[-1])

    def test_final_reward_is_running_max(self):
        model = four_corner_model()
        spec = SolverSpec(mode="sde", steps=8, churn=0.4)
        reward = QuadraticReward(target=np.array([1.5, 1.5]))
        result = run_zo(model, spec, reward, 160, 0.9, RngStream(2))
        evaluations = result.round_history["evaluations"]
        assert result.final_reward == max(evaluations)
        # Record highs are exactly the accepted moves; they strictly increase.
        highs = [evaluations[0]]
        for value in evaluations[1:]:
            if value > highs[-1]:
                highs.append(value)
        assert all(b > a for a, b in zip(highs, highs[1:]))

    def test_budget_below_two_denoises_errors(self):
        model = four_corner_model()
        spec = SolverSpec(mode="sde", steps=8, churn=0.4)
        with pytest.raises(BudgetError):
            run_zo(model, spec, QuadraticReward(target=np.zeros(2)), 31, 0.9, RngStream(0))

    def test_absurd_budget_is_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a noise before refusing the budget")

        monkeypatch.setattr(rts.pipeline, "sample_gaussian", no_draw)
        model = four_corner_model()
        spec = SolverSpec(mode="sde", steps=8, churn=0.4)
        reward = QuadraticReward(target=np.zeros(2))
        with pytest.raises(PreconditionError, match="10000"):
            run_zo(model, spec, reward, 10**30, 0.9, RngStream(0))
        with pytest.raises(PreconditionError):
            run_zo(model, spec, reward, 16 * 10_001, 0.9, RngStream(0))

    def test_zo_beats_bon_on_quadratic(self):
        # Hill climbing on a smooth unimodal landscape outruns blind draws
        # once the budget allows real refinement. Measured at these settings:
        # ZO -2.50 vs BoN -5.02, Wilcoxon p ~ 2e-14 over the first 100 seeds.
        d = 8
        model = MixtureModel(weights=[1.0], means=[np.zeros(d)], stddevs=[1.0])
        spec = SolverSpec(mode="ode", steps=8)
        target = np.zeros(d)
        target[0] = np.sqrt(d)
        reward = QuadraticReward(target=target)
        budget = 30 * 16
        zo_scores, bon_scores = [], []
        for seed in range(200):
            zo_scores.append(run_zo(model, spec, reward, budget, 0.9, RngStream(seed)).final_reward)
            bon_scores.append(run_bon(model, spec, reward, budget, RngStream(seed)).final_reward)
        zo_scores, bon_scores = np.array(zo_scores), np.array(bon_scores)
        assert zo_scores.mean() >= bon_scores.mean()
        p = stats.wilcoxon(
            zo_scores - bon_scores, zero_method="zsplit", alternative="greater"
        ).pvalue
        assert p < 0.05


class TestRunFree:
    def test_nfe_is_one_denoise(self):
        model = four_corner_model()
        spec = SolverSpec(mode="sde", steps=12, churn=0.4)
        reward = QuadraticReward(target=np.zeros(2))
        result = run_free(model, spec, reward, RngStream(0))
        assert result.nfe_used == 24
        assert result.method == "free"

    def test_determinism(self):
        model = four_corner_model()
        spec = SolverSpec(mode="sde", steps=8, churn=0.4)
        reward = QuadraticReward(target=np.zeros(2))
        a = run_free(model, spec, reward, RngStream(9))
        b = run_free(model, spec, reward, RngStream(9))
        np.testing.assert_array_equal(a.final_sample, b.final_sample)


class TestHitRateComparison:
    def test_rts_hit_rate_beats_bon_two_mode(self):
        # Two-mode preference testbed with a rare preferred mode: the
        # searched pipeline reaches it more often than Best-of-N at the same
        # budget. Measured: RTS 0.535 vs BoN 0.345 hit rate, discordant
        # pairs 72/34, exact one-sided McNemar p ~ 1.4e-4 over 200 seeds.
        steps, k = 16, 6
        model = MixtureModel(
            weights=[0.1, 0.9], means=[[1.5, 1.5], [-1.5, -1.5]], stddevs=[0.6, 0.6]
        )
        spec = SolverSpec(mode="sde", steps=steps, churn=0.4)
        reward = ModePreferenceReward(model=model, preferred=0, sharpness=2.0)
        cfg = RtsConfig(
            search_init=SearchConfig(n_neighbors=2, rounds=6, tau=0.7),
            search_inter=SearchConfig(n_neighbors=4, rounds=3, tau=0.8),
            k_keysteps=k,
            eval_steps_init=2,
        )
        budget = expected_rts_nfe(
            cfg, spec, key_positions=worst_case_positions(steps, k)
        )["total"]
        rts_hits, bon_hits = [], []
        for seed in range(200):
            r = run_rts(model, spec, reward, cfg, RngStream(seed))
            assert r.nfe_used <= budget
            b = run_bon(model, spec, reward, budget, RngStream(seed))
            rts_hits.append(nearest_mode(model, r.final_sample) == 0)
            bon_hits.append(nearest_mode(model, b.final_sample) == 0)
        rts_hits, bon_hits = np.array(rts_hits), np.array(bon_hits)
        assert rts_hits.mean() >= bon_hits.mean()
        only_rts = int(np.sum(rts_hits & ~bon_hits))
        only_bon = int(np.sum(~rts_hits & bon_hits))
        p = stats.binomtest(only_rts, only_rts + only_bon, 0.5, alternative="greater").pvalue
        assert p < 0.05


def criterion7_setup():
    """The criterion-7/8 testbed: four corners, 16-step SDE, full RTS config."""
    model = four_corner_model()
    spec = SolverSpec(mode="sde", steps=16, churn=0.4)
    reward = ModePreferenceReward(model=model, preferred=0, sharpness=2.0)
    cfg = RtsConfig(
        search_init=SearchConfig(n_neighbors=2, rounds=6, tau=0.7),
        search_inter=SearchConfig(n_neighbors=4, rounds=3, tau=0.8),
        k_keysteps=6,
        eval_steps_init=2,
        eval_steps_inter=1,
    )
    return model, spec, reward, cfg


def fingerprint(result):
    keys = None if result.key_steps is None else tuple(int(i) for i in result.key_steps.indices)
    digest = hashlib.sha256(np.asarray(result.final_sample).tobytes()).hexdigest()[:16]
    return repr(result.final_reward), result.nfe_breakdown, keys, result.truncated, digest


class TestGoldenRecords:
    """Byte-for-byte results of the criterion-7 testbed.

    The values were recorded from the centered mixture kernel and equal
    what it gives when every model call and reward scores one latent at a
    time; the batched path has to reproduce them exactly, including where a
    budget cuts a batch short.
    """

    RTS = {
        0: ("0.545917036417808", {"init_search": 60, "record": 32, "inter_search": 110, "final": 32},
            (4, 1, 9, 8, 3, 13), False, "fb739dd57fd5afed"),
        1: ("0.47876072062768993", {"init_search": 60, "record": 32, "inter_search": 112, "final": 32},
            (11, 6, 10, 1, 12, 14), False, "346ea876cfc81652"),
        7: ("0.635432771180779", {"init_search": 60, "record": 32, "inter_search": 96, "final": 32},
            (4, 2, 6, 5, 3, 1), False, "f1eae1972d4cae43"),
    }
    BON = {
        0: ("0.6032531472538555", {"denoise": 224}, None, False, "635f14805b345b66"),
        1: ("0.6063215060863596", {"denoise": 224}, None, False, "c0ee4aec797a114e"),
        7: ("0.6282673339349765", {"denoise": 224}, None, False, "46ab1877ce5217e2"),
    }
    TRUNCATED = {
        45: ("0.6585186021225549", {"init_search": 12, "record": 32, "inter_search": 0, "final": 0},
             None, True, "6af45d7274713766"),
        150: ("0.6039492604027924", {"init_search": 60, "record": 32, "inter_search": 26, "final": 32},
              (1, 2, 6, 10, 11, 12), True, "6dec05a3e6a6b9ad"),
    }

    @pytest.mark.parametrize("seed", sorted(RTS))
    def test_rts(self, seed):
        model, spec, reward, cfg = criterion7_setup()
        assert fingerprint(run_rts(model, spec, reward, cfg, RngStream(seed))) == self.RTS[seed]

    @pytest.mark.parametrize("seed", sorted(BON))
    def test_bon(self, seed):
        model, spec, reward, _ = criterion7_setup()
        assert fingerprint(run_bon(model, spec, reward, 238, RngStream(seed))) == self.BON[seed]

    @pytest.mark.parametrize("budget", sorted(TRUNCATED))
    def test_truncated_rts(self, budget):
        model, spec, reward, cfg = criterion7_setup()
        cfg = dataclasses.replace(cfg, budget_nfe=budget)
        assert fingerprint(run_rts(model, spec, reward, cfg, RngStream(3))) == self.TRUNCATED[budget]

    def test_budget_sweep_digest(self):
        model, spec, reward, cfg = criterion7_setup()
        lines = hashlib.sha256()
        for budget in range(36, 240, 3):
            r = run_rts(model, spec, reward, dataclasses.replace(cfg, budget_nfe=budget), RngStream(3))
            keys = None if r.key_steps is None else tuple(int(i) for i in r.key_steps.indices)
            lines.update(
                f"{budget}|{r.final_reward!r}|{r.nfe_used}|{sorted(r.nfe_breakdown.items())}|{keys}"
                f"|{r.truncated}|{r.final_sample.tobytes().hex()}\n".encode()
            )
        assert lines.hexdigest()[:16] == "c83d55c9df23e24d"

    def test_bon_ode(self):
        model, _, reward, _ = criterion7_setup()
        result = run_bon(model, SolverSpec(mode="ode", steps=8), reward, 100, RngStream(5))
        assert fingerprint(result) == (
            "0.6442761284979024", {"denoise": 96}, None, False, "f5ea25532c18a7cd"
        )


def criterion7_variants(budget_nfe=None):
    """The six criterion-7/8 variants as (block call, one-seed call) pairs; the rts family capped at ``budget_nfe``."""
    model, spec, reward, full = criterion7_setup()
    off = SearchConfig(rounds=0)
    configs = {
        "rts": full,
        "init": dataclasses.replace(full, search_inter=off, k_keysteps=0),
        "inter": dataclasses.replace(full, search_init=off, eval_steps_init=None),
    }
    matched = 238
    variants = {
        name: (lambda streams, cfg=dataclasses.replace(cfg, budget_nfe=budget_nfe): run_rts_block(
            model, spec, reward, cfg, streams),
               lambda stream, cfg=dataclasses.replace(cfg, budget_nfe=budget_nfe): run_rts(
            model, spec, reward, cfg, stream))
        for name, cfg in configs.items()
    }
    variants["bon"] = (lambda streams: run_bon_block(model, spec, reward, matched, streams),
                       lambda stream: run_bon(model, spec, reward, matched, stream))
    variants["zo"] = (lambda streams: run_zo_block(model, spec, reward, matched, 0.9, streams),
                      lambda stream: run_zo(model, spec, reward, matched, 0.9, stream))
    variants["free"] = (lambda streams: run_free_block(model, spec, reward, streams),
                        lambda stream: run_free(model, spec, reward, stream))
    return variants


def assert_same_result(block, alone):
    """Every RunResult field equal, the final sample bit for bit."""
    assert block.final_sample.shape == alone.final_sample.shape
    assert block.final_sample.tobytes() == alone.final_sample.tobytes()
    assert dataclasses.replace(block, final_sample=None) == dataclasses.replace(alone, final_sample=None)


class TestLockstep:
    """One block call over the 200 criterion-7 seeds gives each seed's one-seed result, field for field."""

    STREAMS = [RngStream(seed) for seed in range(200)]

    @pytest.mark.parametrize("variant", ["rts", "init", "inter", "bon", "zo", "free"])
    def test_block_equals_one_seed_calls(self, variant):
        block, alone = criterion7_variants()[variant]
        results = block(self.STREAMS)
        assert len(results) == len(self.STREAMS)
        for stream, result in zip(self.STREAMS, results):
            assert_same_result(result, alone(stream))

    @pytest.mark.parametrize("budget", sorted(TestGoldenRecords.TRUNCATED))
    def test_truncated_block_equals_one_seed_calls(self, budget):
        block, alone = criterion7_variants(budget)["rts"]
        results = block(self.STREAMS)
        assert any(result.truncated for result in results)
        for stream, result in zip(self.STREAMS, results):
            assert_same_result(result, alone(stream))

    def test_budget_sweep_block_equals_one_seed_calls(self):
        # a block over all 200 seeds at each budget of the sweep digest; the
        # one-seed reference runs seed 3 (the digest's seed) and three seeds
        # that rotate, so every seed is checked at some budget
        cut_before_key_steps = set()
        for k, budget in enumerate(range(36, 240, 3)):
            block, alone = criterion7_variants(budget)["rts"]
            results = block(self.STREAMS)
            assert all(result.nfe_used <= budget for result in results)
            for seed in {3} | {(3 * k + j) % 200 for j in range(3)}:
                assert_same_result(results[seed], alone(self.STREAMS[seed]))
            cut_before_key_steps |= {result.key_steps is None for result in results if result.truncated}
        # the budget cuts some seeds before their key-step search and others during it
        assert cut_before_key_steps == {True, False}


class TestLedgerAudit:
    """``nfe_used`` equals the model rows a run evaluates, counted outside the code under test by ``model_rows``."""

    @pytest.mark.parametrize("budget", [None, 150])
    def test_a_one_seed_run_spends_what_its_ledger_says(self, model_rows, budget):
        for name, (_, alone) in criterion7_variants(budget).items():
            for seed in range(10):
                model_rows.count = 0
                assert alone(RngStream(seed)).nfe_used == model_rows.count, (name, seed)

    # the rts family unbudgeted, at both truncated golden budgets and at a few of the budget sweep's; the baselines
    @pytest.mark.parametrize("variant,budget", [
        *((variant, budget) for variant in ("rts", "init", "inter")
          for budget in (None, *sorted(TestGoldenRecords.TRUNCATED), 36, 99, 171, 237)),
        *((variant, None) for variant in ("bon", "zo", "free")),
    ])
    def test_a_block_spends_what_its_ledgers_say(self, model_rows, variant, budget):
        block, _ = criterion7_variants(budget)[variant]
        results = block(TestLockstep.STREAMS)
        assert sum(result.nfe_used for result in results) == model_rows.count


BLOCK_METHODS = ["rts", "bon", "zo", "free"]


class TestBlockInputs:
    """The four block entry points agree on an empty block and refuse what is not a sequence of streams."""

    @pytest.mark.parametrize("variant", BLOCK_METHODS)
    def test_empty_block_gives_no_results(self, variant):
        block, _ = criterion7_variants()[variant]
        assert block([]) == []

    @pytest.mark.parametrize("variant", BLOCK_METHODS)
    @pytest.mark.parametrize("streams", [lambda: [1, 2], lambda: (RngStream(seed) for seed in range(2))],
                             ids=["ints", "generator"])
    def test_what_is_not_a_sequence_of_streams_is_refused(self, variant, streams):
        block, _ = criterion7_variants()[variant]
        with pytest.raises(PreconditionError):
            block(streams())

    @pytest.mark.parametrize("variant", BLOCK_METHODS)
    @pytest.mark.parametrize("streams", [lambda: StreamBlock.of([RngStream(1), RngStream(2)]), lambda: RngStream(1)],
                             ids=["stream-block", "lone-stream"])
    def test_a_stream_block_or_a_lone_stream_is_refused_by_name(self, variant, streams):
        # each result takes its stream's root_seed, which a StreamBlock does not keep
        block, _ = criterion7_variants()[variant]
        given = streams()
        with pytest.raises(PreconditionError, match=f"got {type(given).__name__}$"):
            block(given)

    @pytest.mark.parametrize("variant", BLOCK_METHODS)
    def test_a_one_seed_call_names_the_stream_block_it_refuses(self, variant):
        _, alone = criterion7_variants()[variant]
        with pytest.raises(PreconditionError, match="holding StreamBlock"):
            alone(StreamBlock.of([RngStream(1)]))


class TestInitSearchMemo:
    def test_no_batch_of_an_earlier_round_stays_alive(self, monkeypatch):
        # full-length scoring and no key-step phase, so every denoise is an
        # initial-search round; when a round is scored, the memo must hold
        # copies of the best rows, not views that keep an earlier batch alive
        model, spec, reward, cfg = criterion7_setup()
        cfg = dataclasses.replace(cfg, eval_steps_init=None, search_inter=SearchConfig(rounds=0), k_keysteps=0)
        batches, alive = [], []

        def tracking_denoise(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in batches))
            paths, noises = denoise(*args, **kwargs)
            batches.extend([weakref.ref(paths), weakref.ref(noises)])
            return paths, noises

        monkeypatch.setattr(rts.pipeline, "denoise", tracking_denoise)
        streams = [RngStream(seed) for seed in range(8)]
        results = run_rts_block(model, spec, reward, cfg, streams)
        assert alive == [0] * cfg.search_init.rounds
        monkeypatch.undo()
        for stream, result in zip(streams, results):
            assert_same_result(result, run_rts(model, spec, reward, cfg, stream))
