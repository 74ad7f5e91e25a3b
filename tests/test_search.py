"""Tests for the coarse-to-fine alternating search loop."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rts import (
    DimensionError,
    MixtureModel,
    ModePreferenceReward,
    NeighborSet,
    NonFiniteError,
    PreconditionError,
    RngStream,
    SearchConfig,
    StreamBlock,
    estimate_gradient,
    guided_spherical_sample,
    random_spherical_sample,
    run_search,
    sample_gaussian,
)
from rts.search import SearchState, _fold_best, coarse_round, fine_round, row_count


def counting(fn):
    """Wrap a reward function with a call counter."""

    def wrapped(x):
        wrapped.calls += 1
        return fn(x)

    wrapped.calls = 0
    return wrapped


def rows(fn):
    """Lift a per-latent reward to the evaluator protocol: an (n, d) batch to n rewards."""
    return lambda batch: np.array([fn(x) for x in batch])


def scored(candidates, rewards):
    """The last round's scored neighbors as relocation reads them: candidates and rewards, with a leading seed axis
    for a block; the base and perturbations, which relocation does not read, are zeros."""
    candidates = np.asarray(candidates, dtype=np.float64)
    return NeighborSet(np.zeros_like(candidates[..., 0, :]), candidates, np.zeros_like(candidates),
                       np.asarray(rewards, dtype=np.float64))


def quadratic_reward(target):
    target = np.asarray(target, dtype=np.float64)
    return lambda x: -float(np.sum((x - target) ** 2))


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.n_neighbors == 3
        assert cfg.tau == 0.9
        assert cfg.alpha == 0.7

    def test_track_global_best_is_no_field(self):
        # every search returns its best row of all rounds; no option picks the last round's argmax
        assert "track_global_best" not in {field.name for field in dataclasses.fields(SearchConfig)}
        with pytest.raises(TypeError):
            SearchConfig(track_global_best=False)

    def test_rounds_zero_allowed_on_config(self):
        # Pipelines use rounds=0 to switch a phase off entirely.
        assert SearchConfig(rounds=0).rounds == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_neighbors": 0},
            {"rounds": -1},
            {"tau": -0.1},
            {"tau": 1.1},
            {"alpha": -0.1},
            {"alpha": 1.1},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(PreconditionError):
            SearchConfig(**kwargs)


class TestGreedyRelocation:
    """Branch cases of the base update at the start of a coarse round."""

    def _state_at_round_3(self, base_reward, last_rewards):
        rng = np.random.default_rng(42)
        candidates = rng.standard_normal((len(last_rewards), 6))
        return SearchState(
            dim=6,
            round=3,
            base=rng.standard_normal(6),
            base_reward=base_reward,
            last=scored(candidates, last_rewards),
        )

    def test_better_neighbor_adopted(self):
        state = self._state_at_round_3(0.5, [0.1, 0.9, 0.3])
        out = coarse_round(state, SearchConfig(), rows(lambda x: 0.0), RngStream(1))
        np.testing.assert_array_equal(out.base, state.last.candidates[1])

    def test_worse_neighbor_triggers_fresh_resample(self):
        state = self._state_at_round_3(0.5, [0.4, 0.2, 0.1])
        stream = RngStream(1)
        out = coarse_round(state, SearchConfig(), rows(lambda x: 0.0), stream)
        expected = sample_gaussian(stream.child(0), 6)
        np.testing.assert_array_equal(out.base, expected)

    def test_exact_tie_resamples(self):
        # Relocation requires a strict improvement, so a tie resamples.
        state = self._state_at_round_3(0.5, [0.5, 0.5, 0.5])
        stream = RngStream(1)
        out = coarse_round(state, SearchConfig(), rows(lambda x: 0.0), stream)
        expected = sample_gaussian(stream.child(0), 6)
        np.testing.assert_array_equal(out.base, expected)

    def test_seed_base_used_in_round_1(self):
        seed = np.full(6, -1.5)
        state = SearchState(dim=6, seed_base=seed)
        out = coarse_round(state, SearchConfig(), rows(lambda x: 0.0), RngStream(1))
        np.testing.assert_array_equal(out.base, seed)

    def test_round_1_without_seed_samples_fresh(self):
        state = SearchState(dim=6)
        stream = RngStream(1)
        out = coarse_round(state, SearchConfig(), rows(lambda x: 0.0), stream)
        expected = sample_gaussian(stream.child(0), 6)
        np.testing.assert_array_equal(out.base, expected)

    @staticmethod
    def _block_and_alone(streams, round_, last=(), **fields):
        """The bases of one block ``coarse_round`` from ``fields`` and the ``last`` round's candidates and rewards,
        each with a leading seed axis, and of each seed's one-seed ``coarse_round`` from its rows."""
        def flat(batch):
            return np.zeros(batch.shape[:-1])

        def state(pick):
            return SearchState(dim=6, round=round_, last=scored(*map(pick, last)) if last else None,
                               **{name: pick(value) for name, value in fields.items()})

        block = coarse_round(state(lambda value: value), SearchConfig(), flat, StreamBlock.of(streams))
        alone = [coarse_round(state(lambda value: value[s]), SearchConfig(), flat, stream).base
                 for s, stream in enumerate(streams)]
        return block.base, np.array(alone)

    def test_block_seeds_that_relocate_tie_and_fall_short_each_take_their_base_alone(self):
        # seed 0's best candidate beats its base reward, seed 1's ties it and seed 2's falls short
        rng = np.random.default_rng(7)
        candidates = rng.standard_normal((3, 3, 6))
        streams = [RngStream(seed) for seed in (1, 2, 3)]
        block, alone = self._block_and_alone(
            streams, 3, base=rng.standard_normal((3, 6)), base_reward=np.full(3, 0.5),
            last=(candidates, np.array([[0.1, 0.9, 0.3], [0.5, 0.5, 0.5], [0.4, 0.2, 0.1]])))
        np.testing.assert_array_equal(block, alone)
        np.testing.assert_array_equal(block[0], candidates[0, 1])
        for s in (1, 2):
            np.testing.assert_array_equal(block[s], sample_gaussian(streams[s].child(0), 6))

    def test_block_seed_base_is_each_seeds_base_in_round_1(self):
        seed_base = np.random.default_rng(8).standard_normal((3, 6))
        block, alone = self._block_and_alone([RngStream(seed) for seed in (1, 2, 3)], 1, seed_base=seed_base)
        np.testing.assert_array_equal(block, alone)
        np.testing.assert_array_equal(block, seed_base)


class TestRoundParity:
    def test_coarse_rejects_even_round(self):
        state = SearchState(dim=4, round=2)
        with pytest.raises(PreconditionError):
            coarse_round(state, SearchConfig(), rows(lambda x: 0.0), RngStream(1))

    def test_fine_rejects_odd_round(self):
        state = SearchState(dim=4, round=3)
        with pytest.raises(PreconditionError):
            fine_round(state, SearchConfig(), rows(lambda x: 0.0), RngStream(1))

    def test_fine_requires_stored_gradient(self):
        state = SearchState(dim=4, round=2, base=np.ones(4), base_reward=0.0)
        with pytest.raises(PreconditionError):
            fine_round(state, SearchConfig(), rows(lambda x: 0.0), RngStream(1))

    def test_history_alternates_coarse_fine(self):
        reward = quadratic_reward(np.zeros(5))
        _, _, history = run_search(
            np.zeros(5), SearchConfig(rounds=5), rows(reward), RngStream(3)
        )
        assert [h.kind for h in history] == ["coarse", "fine", "coarse", "fine", "coarse"]
        assert [h.round for h in history] == [1, 2, 3, 4, 5]


class TestFineRound:
    def _after_coarse(self, reward, cfg, stream):
        state = SearchState(dim=6)
        return coarse_round(state, cfg, rows(reward), stream.child(1))

    def test_alpha_zero_reproduces_coarse_candidates(self):
        # With alpha=0 the guided blend returns the stored perturbations, so
        # the fine round re-evaluates exactly the coarse round's candidates.
        reward = quadratic_reward(np.full(6, 0.3))
        cfg = SearchConfig(n_neighbors=4, alpha=0.0)
        stream = RngStream(9)
        state = self._after_coarse(reward, cfg, stream)
        out = fine_round(state, cfg, rows(reward), stream.child(2))
        np.testing.assert_allclose(out.last.candidates, state.last.candidates, atol=1e-12)

    def test_alpha_one_collapses_candidates(self):
        reward = quadratic_reward(np.full(6, 0.3))
        cfg = SearchConfig(n_neighbors=5, alpha=1.0)
        stream = RngStream(9)
        state = self._after_coarse(reward, cfg, stream)
        out = fine_round(state, cfg, rows(reward), stream.child(2))
        for i in range(1, 5):
            np.testing.assert_allclose(
                out.last.candidates[i], out.last.candidates[0], atol=1e-12
            )

    def test_base_unchanged_by_fine_round(self):
        reward = quadratic_reward(np.full(6, 0.3))
        cfg = SearchConfig(n_neighbors=3)
        stream = RngStream(9)
        state = self._after_coarse(reward, cfg, stream)
        out = fine_round(state, cfg, rows(reward), stream.child(2))
        np.testing.assert_array_equal(out.base, state.base)
        assert out.base_reward == state.base_reward

    def test_constant_reward_falls_back_to_random(self):
        # All coarse rewards equal gives a zero gradient; the fine round must
        # fall back to random sampling and still produce distinct candidates.
        cfg = SearchConfig(n_neighbors=3)
        stream = RngStream(9)
        state = self._after_coarse(lambda x: 1.0, cfg, stream)
        out = fine_round(state, cfg, rows(lambda x: 1.0), stream.child(2))
        assert out.history[-1].guided_fallback
        cands = out.last.candidates
        assert not np.allclose(cands[0], cands[1])
        assert not np.allclose(cands[1], cands[2])

    def test_fallback_is_the_random_sample(self):
        cfg = SearchConfig(n_neighbors=3)
        stream = RngStream(9)
        state = self._after_coarse(lambda x: 1.0, cfg, stream)
        out = fine_round(state, cfg, rows(lambda x: 1.0), stream.child(2))
        expected = random_spherical_sample(state.base, cfg.n_neighbors, cfg.tau, stream.child(2).child(1))
        np.testing.assert_array_equal(out.last.candidates, expected.candidates)
        np.testing.assert_array_equal(out.last.perturbations, expected.perturbations)

    def test_block_falls_back_only_for_the_degenerate_seed(self):
        # seed 0 scores every latent alike; seeds 1 and 2 are guided as they would be alone
        rewards = (lambda x: 1.0, quadratic_reward(np.full(6, 0.3)), quadratic_reward(np.linspace(-1.0, 1.0, 6)))
        cfg = SearchConfig(n_neighbors=3)
        streams = [RngStream(seed) for seed in (3, 4, 5)]
        block = StreamBlock.of(streams)

        def evaluate(batch):
            return np.array([[reward(x) for x in seed_rows] for reward, seed_rows in zip(rewards, batch)])

        state = coarse_round(SearchState(dim=6), cfg, evaluate, block.child(1))
        out = fine_round(state, cfg, evaluate, block.child(2))
        assert out.history[-1].guided_fallback == 1
        fallback = random_spherical_sample(state.base[0], cfg.n_neighbors, cfg.tau, streams[0].child(2).child(1))
        np.testing.assert_array_equal(out.last.candidates[0], fallback.candidates)
        np.testing.assert_array_equal(out.last.perturbations[0], fallback.perturbations)
        gradient = estimate_gradient(state.base_reward, state.last)
        for s in (1, 2):
            guided = guided_spherical_sample(state.base[s], cfg.n_neighbors, cfg.tau, cfg.alpha, gradient[s],
                                             state.last.perturbations[s], streams[s].child(2).child(1))
            np.testing.assert_array_equal(out.last.candidates[s], guided.candidates)
            np.testing.assert_array_equal(out.last.perturbations[s], guided.perturbations)

    def test_gradient_comes_from_the_preceding_coarse_round(self, monkeypatch):
        # the coarse round estimates nothing; the fine round estimates once, from the coarse round's scored neighbors
        calls = []

        def spy(base_reward, neighbors):
            calls.append((base_reward, neighbors))
            return estimate_gradient(base_reward, neighbors)

        monkeypatch.setattr("rts.search.estimate_gradient", spy)
        reward = quadratic_reward(np.full(6, 0.3))
        cfg = SearchConfig(n_neighbors=3)
        stream = RngStream(9)
        state = self._after_coarse(reward, cfg, stream)
        assert calls == []
        fine_round(state, cfg, rows(reward), stream.child(2))
        assert len(calls) == 1
        assert calls[0][0] == state.base_reward and calls[0][1] is state.last


class TestRunSearch:
    def test_rounds_zero_rejected(self):
        with pytest.raises(PreconditionError):
            run_search(np.zeros(4), SearchConfig(rounds=0), rows(lambda x: 0.0), RngStream(1))

    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_constant_reward_returns_the_round_1_base(self, rounds):
        # Under a constant reward no row beats the first one scored, the
        # round-1 base: not its neighbor, nor any row of a later round.
        cfg = SearchConfig(n_neighbors=1, rounds=rounds)
        latent, reward, history = run_search(np.zeros(4), cfg, rows(lambda x: 0.7), RngStream(5))
        assert reward == 0.7
        assert len(history) == rounds
        np.testing.assert_array_equal(latent, sample_gaussian(RngStream(5).child(1).child(0), 4))

    def test_returns_first_best_row_of_all_rounds(self):
        # A reward that counts positive coordinates ties often, across rounds
        # too; the search returns the first row, in scoring order, of the
        # highest reward of any round.
        scored, scores = [], []

        def evaluate(batch):
            values = np.sum(batch[:, :2] > 0, axis=1).astype(np.float64)
            scored.extend(batch)
            scores.extend(values)
            return values

        latent, score, history = run_search(np.zeros(8), SearchConfig(n_neighbors=4, rounds=4), evaluate,
                                            RngStream(13))
        top = int(np.argmax(scores))
        assert scores.count(scores[top]) > 1
        assert score == scores[top] == history[-1].best_so_far
        np.testing.assert_array_equal(latent, scored[top])

    def test_a_gradient_is_estimated_only_for_a_fine_round(self, monkeypatch):
        # rounds 1 to 5 are coarse, fine, coarse, fine, coarse: the last coarse round's neighbors feed no gradient
        calls = []

        def spy(base_reward, neighbors):
            calls.append(len(calls))
            return estimate_gradient(base_reward, neighbors)

        monkeypatch.setattr("rts.search.estimate_gradient", spy)
        run_search(np.zeros(5), SearchConfig(rounds=5), rows(quadratic_reward(np.ones(5))), RngStream(3))
        assert len(calls) == 2

    def test_evaluation_count(self):
        # T*N candidate evaluations plus one base evaluation per coarse round.
        for rounds, n in [(1, 1), (4, 3), (6, 4), (5, 2)]:
            reward = counting(quadratic_reward(np.zeros(5)))
            cfg = SearchConfig(n_neighbors=n, rounds=rounds)
            run_search(np.zeros(5), cfg, rows(reward), RngStream(2))
            assert reward.calls == rounds * n + (rounds + 1) // 2

    def test_best_so_far_non_decreasing(self):
        reward = quadratic_reward(np.full(8, 0.5))
        cfg = SearchConfig(n_neighbors=8, rounds=6)
        _, final_reward, history = run_search(np.zeros(8), cfg, rows(reward), RngStream(11))
        best = [h.best_so_far for h in history]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
        assert final_reward == best[-1]

    def test_engineering_reward_dominates_history(self):
        reward = quadratic_reward(np.full(8, 0.5))
        cfg = SearchConfig(n_neighbors=4, rounds=5)
        _, final_reward, history = run_search(np.zeros(8), cfg, rows(reward), RngStream(12))
        for h in history:
            assert final_reward >= h.best_candidate_reward
            assert final_reward >= h.base_reward

    def test_determinism(self):
        reward = quadratic_reward(np.full(6, 0.2))
        cfg = SearchConfig(n_neighbors=3, rounds=4)
        out1 = run_search(np.zeros(6), cfg, rows(reward), RngStream(21))
        out2 = run_search(np.zeros(6), cfg, rows(reward), RngStream(21))
        np.testing.assert_array_equal(out1[0], out2[0])
        assert out1[1] == out2[1]
        assert out1[2] == out2[2]

    def test_start_from_z0_adopts_seed(self):
        z0 = np.full(6, 1.25)
        reward = quadratic_reward(np.zeros(6))
        cfg = SearchConfig(n_neighbors=2, rounds=1)
        _, _, history = run_search(z0, cfg, rows(reward), RngStream(3), start_from_z0=True)
        assert history[0].base_reward == reward(z0)

    def test_later_no_relocation_branches_resample_fresh(self):
        # A constant reward never strictly improves, so relocation never fires;
        # after the round-1 start at z0, each coarse round t bases on
        # stream.child(t).child(0). A coarse batch is [base; 3 neighbors].
        z0 = np.array([1.0, -2.0, 0.5, 0.25])
        bases = []

        def evaluate(batch):
            if len(batch) == 4:
                bases.append(batch[0])
            return np.zeros(len(batch))

        stream = RngStream(17)
        run_search(z0, SearchConfig(n_neighbors=3, rounds=5), evaluate, stream, start_from_z0=True)
        np.testing.assert_array_equal(bases, [z0] + [sample_gaussian(stream.child(t).child(0), 4) for t in (3, 5)])


class TestBatchedEvaluation:
    def test_one_evaluator_call_per_round(self):
        shapes = []

        def evaluate(batch):
            shapes.append(batch.shape)
            return -np.sum(batch * batch, axis=1)

        run_search(np.zeros(5), SearchConfig(n_neighbors=3, rounds=4), evaluate, RngStream(4))
        assert shapes == [(4, 5), (3, 5), (4, 5), (3, 5)]

    def test_evaluator_must_return_one_reward_per_row(self):
        with pytest.raises(DimensionError):
            coarse_round(SearchState(dim=4), SearchConfig(), lambda batch: 0.0, RngStream(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_fine_round_reward_rejected(self, bad):
        # round 1 (coarse) scores finite rewards; round 2 (fine) is the first
        # whose rewards feed no gradient check
        calls = []

        def evaluate(batch):
            calls.append(batch.shape)
            rewards = -np.sum(batch * batch, axis=1)
            if len(calls) == 2:
                rewards[1] = bad
            return rewards

        with pytest.raises(NonFiniteError):
            run_search(np.zeros(4), SearchConfig(n_neighbors=3, rounds=2), evaluate, RngStream(6))
        assert len(calls) == 2


class TestRowCount:
    """``row_count`` states the rows a search scores, a seed's first ``row_count(cfg, r)`` in its first r rounds."""

    @pytest.mark.parametrize("seeds", [None, 3])
    def test_each_round_ends_where_row_count_says(self, seeds):
        for n, rounds in itertools.product(range(1, 5), range(1, 8)):
            cfg = SearchConfig(n_neighbors=n, rounds=rounds)
            ends = [0]

            def evaluate(batch):
                ends.append(ends[-1] + batch.shape[-2])
                return -np.sum(batch * batch, axis=-1)

            if seeds is None:
                run_search(np.zeros(4), cfg, evaluate, RngStream(n))
            else:
                run_search(np.zeros((seeds, 4)), cfg, evaluate, StreamBlock.of([RngStream(s) for s in range(seeds)]))
            assert ends == [row_count(cfg, r) for r in range(rounds + 1)], (n, rounds)
            assert ends[-1] == row_count(cfg)


class TestFoldBest:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(rewards=st.lists(st.integers(-2, 2), min_size=1, max_size=8), state_reward=st.integers(-3, 3))
    def test_matches_sequential_strict_fold(self, rewards, state_reward):
        # small integer rewards make ties common; the first strict maximum wins
        latents = np.arange(len(rewards), dtype=np.float64)[:, None]
        state_best = np.array([-1.0])
        best, best_reward = state_best, float(state_reward)
        for latent, reward in zip(latents, rewards):
            if reward > best_reward:
                best, best_reward = latent, float(reward)
        got, got_reward = _fold_best(state_best, float(state_reward), latents, np.array(rewards, dtype=np.float64))
        assert got_reward == best_reward
        np.testing.assert_array_equal(got, best)


class TestImprovementOverBlindSearch:
    """Matched-evaluation-budget comparison against Best-of-N draws."""

    def test_beats_best_of_n_on_multimodal_reward(self):
        # Four Gaussian bumps at radius sqrt(d) with one upweighted; the
        # search hill-climbs the smooth landscape while Best-of-N relies on
        # lucky draws. Measured at these settings: search 0.474 vs BoN 0.419,
        # one-sided Wilcoxon p ~ 2.6e-10 over 200 seeds.
        d = 8
        rng = np.random.default_rng(7)
        dirs = rng.standard_normal((4, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        model = MixtureModel(
            weights=[0.1, 0.3, 0.3, 0.3], means=dirs * np.sqrt(d), stddevs=[0.6] * 4
        )
        reward = ModePreferenceReward(model=model, preferred=0, sharpness=2.0)
        cfg = SearchConfig(n_neighbors=4, rounds=6, tau=0.7)
        evals = cfg.rounds * cfg.n_neighbors + (cfg.rounds + 1) // 2

        search_scores, bon_scores = [], []
        for seed in range(200):
            stream = RngStream(seed)
            _, score, _ = run_search(np.zeros(d), cfg, reward.evaluate, stream.child(0))
            search_scores.append(score)
            draws = [
                reward.evaluate(sample_gaussian(stream.child(1).child(i), d))
                for i in range(evals)
            ]
            bon_scores.append(max(draws))

        search_scores = np.array(search_scores)
        bon_scores = np.array(bon_scores)
        assert search_scores.mean() >= bon_scores.mean()
        p = stats.wilcoxon(
            search_scores - bon_scores, zero_method="zsplit", alternative="greater"
        ).pvalue
        assert p < 0.05


class TestLockstepBlock:
    """A block of seeds searches in lockstep, each seed bit for bit as it searches alone."""

    # seed 0 scores every latent alike, so each of its fine rounds falls back to random sampling
    REWARDS = (lambda x: 1.0, quadratic_reward(np.full(4, 0.3)), quadratic_reward([1.0, -0.5, 0.0, 2.0]))

    @pytest.mark.parametrize("start_from_z0", [False, True])
    def test_block_follows_each_seed_alone(self, start_from_z0):
        streams = [RngStream(seed) for seed in (3, 4, 5)]
        z0 = np.random.default_rng(8).standard_normal((3, 4))
        calls = []

        def evaluate(batch):
            calls.append(batch.shape)
            return np.array([[reward(x) for x in rows] for reward, rows in zip(self.REWARDS, batch)])

        cfg = SearchConfig(n_neighbors=3, rounds=5)
        best, score, history = run_search(z0, cfg, evaluate, StreamBlock.of(streams), start_from_z0=start_from_z0)
        assert calls == [(3, 4, 4), (3, 3, 4), (3, 4, 4), (3, 3, 4), (3, 4, 4)]
        assert [h.guided_fallback for h in history if h.kind == "fine"] == [1, 1]
        for s, (stream, reward) in enumerate(zip(streams, self.REWARDS)):
            alone_best, alone_score, alone_history = run_search(z0[s], cfg, rows(reward), stream,
                                                                start_from_z0=start_from_z0)
            np.testing.assert_array_equal(best[s], alone_best)
            assert score[s] == alone_score
            for block_round, alone_round in zip(history, alone_history, strict=True):
                assert (block_round.base_reward[s], block_round.best_candidate_reward[s], block_round.best_so_far[s]) \
                    == (alone_round.base_reward, alone_round.best_candidate_reward, alone_round.best_so_far)

    def test_streams_must_match_the_starts(self):
        with pytest.raises(PreconditionError):
            run_search(np.ones((2, 4)), SearchConfig(rounds=1), rows(lambda x: 0.0), StreamBlock.of([RngStream(1)]))

