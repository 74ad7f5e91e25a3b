"""Tests for norm-preserving spherical neighborhood sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tangent_part
from rts import (
    DegeneratePerturbationError,
    DimensionError,
    NeighborSet,
    NonFiniteError,
    PreconditionError,
    RngStream,
    StreamBlock,
    estimate_gradient,
    guided_spherical_sample,
    random_spherical_sample,
    sample_gaussian,
)
from rts.core import row_norm


class TestNeighborSet:
    def test_rewards_must_align(self):
        # the set itself is not checked; estimate_gradient, which reads the rewards, is
        ns = NeighborSet(base=[1.0, 0.0], candidates=np.zeros((2, 2)), perturbations=np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            estimate_gradient(1.0, ns.with_rewards([1.0]))

    def test_with_rewards_round_trip(self):
        ns = NeighborSet(base=[1.0, 0.0], candidates=np.eye(2), perturbations=np.eye(2))
        scored = ns.with_rewards([0.5, 0.25])
        np.testing.assert_array_equal(scored.rewards, [0.5, 0.25])
        assert ns.rewards is None


class TestRandomSphericalSample:
    def test_tau_one_reproduces_base(self):
        ns = random_spherical_sample([3.0, 0.0], n=5, tau=1.0, stream=RngStream(0))
        np.testing.assert_allclose(ns.candidates, np.tile([3.0, 0.0], (5, 1)), atol=1e-12)

    def test_tau_zero_lands_on_the_tangent_sphere(self):
        base = np.array([2.0, 0.0])
        ns = random_spherical_sample(base, n=8, tau=0.0, stream=RngStream(1))
        # fully tangential: each candidate is radius * w_hat, orthogonal to base
        np.testing.assert_allclose(ns.candidates, 2.0 * ns.perturbations, atol=1e-12)
        np.testing.assert_allclose(ns.candidates @ base, 0.0, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(ns.candidates, axis=1), 2.0)

    def test_cone_geometry_at_intermediate_tau(self):
        # m = r*(tau*u + sqrt(1-tau^2)*w_hat), so tau=0.6 pairs with 0.8
        u = np.array([1.0, 0.0, 0.0])
        ns = random_spherical_sample(u, n=4, tau=0.6, stream=RngStream(2))
        np.testing.assert_allclose(ns.candidates, 0.6 * u + 0.8 * ns.perturbations, atol=1e-12)

    def test_norm_and_angle_randomized(self):
        rng = np.random.default_rng(42)
        stream = RngStream(77)
        case = 0
        for d in (2, 8, 64, 512):
            for _ in range(25):
                base = rng.standard_normal(d) * rng.uniform(0.2, 50.0)
                tau = rng.uniform(0.0, 1.0)
                ns = random_spherical_sample(base, n=3, tau=tau, stream=stream.child(case))
                case += 1
                radius = np.linalg.norm(base)
                norms = np.linalg.norm(ns.candidates, axis=1)
                assert np.max(np.abs(norms - radius) / radius) < 1e-9
                cosines = ns.candidates @ (base / radius) / norms
                assert np.max(np.abs(cosines - tau)) < 1e-9
                u = base / radius
                assert np.max(np.abs(ns.perturbations @ u)) < 1e-12
                np.testing.assert_allclose(np.linalg.norm(ns.perturbations, axis=1), 1.0, rtol=1e-12)

    def test_same_stream_is_reproducible(self):
        a = random_spherical_sample([1.0, 2.0, 3.0], n=4, tau=0.5, stream=RngStream(9, (3,)))
        b = random_spherical_sample([1.0, 2.0, 3.0], n=4, tau=0.5, stream=RngStream(9, (3,)))
        np.testing.assert_array_equal(a.candidates, b.candidates)

    def test_distinct_streams_differ(self):
        a = random_spherical_sample([1.0, 2.0], n=1, tau=0.5, stream=RngStream(9).child(0))
        b = random_spherical_sample([1.0, 2.0], n=1, tau=0.5, stream=RngStream(9).child(1))
        assert not np.array_equal(a.candidates, b.candidates)

    def test_tangent_isotropy(self):
        # mean unit tangent over n draws should shrink like 1/sqrt(n)
        n = 4096
        ns = random_spherical_sample(np.ones(16), n=n, tau=0.9, stream=RngStream(4))
        assert np.linalg.norm(ns.perturbations.mean(axis=0)) < 3.0 / np.sqrt(n)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            random_spherical_sample([1.0, 0.0], n=0, tau=0.5, stream=RngStream(0))
        with pytest.raises(PreconditionError):
            random_spherical_sample([1.0, 0.0], n=1, tau=1.5, stream=RngStream(0))
        with pytest.raises(PreconditionError):
            random_spherical_sample([0.0, 0.0], n=1, tau=0.5, stream=RngStream(0))


def redraw_loop_sample(base, n, tau, stream):
    """``random_spherical_sample`` as one redraw loop: all-zero rows, each redrawn from attempt 0 on.

    A copy of the rule the sampler followed before it drew its first attempt
    at once, and the reference it must equal bit for bit.
    """
    base, streams = np.asarray(base, dtype=np.float64), StreamBlock.of(stream)
    radius = row_norm(base)[..., None]
    u = base / radius
    rows = np.zeros(base.shape[:-1] + (n, base.shape[-1]))
    norms = row_norm(rows)
    for attempt in range(9):
        collapsed = norms < 1e-12
        if not collapsed.any():
            break
        redraw = collapsed.nonzero()
        w = streams[redraw[:-1]].child(redraw[-1]).child(attempt).normal(base.shape[-1])
        rows[redraw] = w = tangent_part(w, u[redraw[:-1]])
        norms[redraw] = row_norm(w)
    w_hat = rows / norms[..., None]
    return radius[..., None] * (tau * u[..., None, :] + math.sqrt(1.0 - tau * tau) * w_hat), w_hat


class TestFirstDrawAtOnce:
    @pytest.mark.parametrize("n", [1, 4, 7])
    @pytest.mark.parametrize("d", [2, 3, 64])
    @pytest.mark.parametrize("seeds", [None, 3], ids=["one base", "block of bases"])
    def test_equals_the_redraw_loop_bit_for_bit(self, seeds, d, n):
        rng = np.random.default_rng(100 * d + n)
        shape = (d,) if seeds is None else (seeds, d)
        for trial in range(5):
            base = rng.standard_normal(shape) * rng.uniform(0.1, 10.0)
            roots = [RngStream(1000 * trial + s, (2, n)) for s in range(seeds or 1)]
            stream = roots[0] if seeds is None else StreamBlock.of(roots)
            sample = random_spherical_sample(base, n, 0.7, stream)
            candidates, perturbations = redraw_loop_sample(base, n, 0.7, stream)
            np.testing.assert_array_equal(sample.candidates, candidates)
            np.testing.assert_array_equal(sample.perturbations, perturbations)


class TestDegenerateRedraw:
    """A draw parallel to the base is redrawn from the next attempt, for that candidate only."""

    @staticmethod
    def parallel_draws(monkeypatch, stream, collapsing, drawn=None):
        # the block draws of the streams whose (candidate, attempt) path is in ``collapsing`` point along u;
        # ``drawn`` collects the key of every stream drawn from
        targets = {tuple(stream.child(i).child(a)._pool.keys().tolist()) for i, a in collapsing}
        normal = StreamBlock.normal

        def draw(block, dim):
            rows = normal(block, dim).reshape(-1, dim)
            for row, key in zip(rows, block.keys().reshape(-1, 2).tolist()):
                if drawn is not None:
                    drawn.append(tuple(key))
                if tuple(key) in targets:
                    row[:] = 2.0
            return rows.reshape(block.shape + (dim,))

        monkeypatch.setattr(StreamBlock, "normal", draw)

    def test_only_the_collapsed_candidate_is_redrawn(self, monkeypatch):
        base, stream = np.ones(3), RngStream(21)
        clean = random_spherical_sample(base, 3, 0.6, stream)
        self.parallel_draws(monkeypatch, stream, {(1, 0), (1, 1)})
        redrawn = random_spherical_sample(base, 3, 0.6, stream)
        np.testing.assert_array_equal(redrawn.candidates[[0, 2]], clean.candidates[[0, 2]])
        u = base / np.linalg.norm(base)
        expected = tangent_part(sample_gaussian(stream.child(1).child(2), 3), u)
        np.testing.assert_array_equal(redrawn.perturbations[1], expected / np.linalg.norm(expected))

    @pytest.mark.parametrize("block", [False, True], ids=["one base", "block of bases"])
    def test_a_collapsed_first_draw_is_redrawn_once_from_attempt_one(self, monkeypatch, block):
        # candidate 2 of ``stream`` collapses at attempt 0; in a block, its base is the second of two
        base, stream = np.ones(3), RngStream(23)
        owners = [RngStream(24), stream] if block else [stream]
        bases = np.stack([2.0 * base, base]) if block else base
        drawn = []
        self.parallel_draws(monkeypatch, stream, {(2, 0)}, drawn)
        redrawn = random_spherical_sample(bases, 4, 0.6, StreamBlock.of(owners) if block else stream)
        # every candidate's attempt 0 is drawn once, and only the collapsed one draws again
        first = [owner.child(i).child(0) for owner in owners for i in range(4)]
        expected_draws = [tuple(s._pool.keys().tolist()) for s in first + [stream.child(2).child(1)]]
        assert sorted(drawn) == sorted(expected_draws)
        expected = tangent_part(sample_gaussian(stream.child(2).child(1), 3), base / np.linalg.norm(base))
        np.testing.assert_array_equal(redrawn.perturbations[..., 2, :].reshape(-1, 3)[-1],
                                      expected / np.linalg.norm(expected))

    def test_exhausted_redraws_raise(self, monkeypatch):
        stream = RngStream(22)
        self.parallel_draws(monkeypatch, stream, {(0, attempt) for attempt in range(9)})
        with pytest.raises(DegeneratePerturbationError):
            random_spherical_sample(np.ones(3), 2, 0.6, stream)

    @pytest.mark.parametrize("block", [False, True], ids=["one base", "block of bases"])
    def test_exhausted_rows_are_marked(self, monkeypatch, block):
        # candidate 1 of ``stream`` collapses at every attempt; in a block, its base is the second of two
        base, stream = np.ones(3), RngStream(25)
        owners = [RngStream(26), stream] if block else [stream]
        self.parallel_draws(monkeypatch, stream, {(1, attempt) for attempt in range(9)})
        with pytest.raises(DegeneratePerturbationError) as caught:
            random_spherical_sample(np.stack([2.0 * base, base]) if block else base, 3, 0.6,
                                    StreamBlock.of(owners) if block else stream)
        marked = [[False, False, False], [False, True, False]] if block else [False, True, False]
        np.testing.assert_array_equal(caught.value.rows, marked)


class TestTangentStep:
    """The samplers' own projection onto the tangent space of the base: exact, orthogonal, and checked."""

    @staticmethod
    def guided_tangent(base, g):
        prev = np.eye(len(base))[[1]]
        return guided_spherical_sample(base, n=1, tau=0.5, alpha=1.0, g=g, prev_perturbations=prev,
                                       stream=RngStream(0)).perturbations[0]

    def test_hand_case(self):
        np.testing.assert_allclose(self.guided_tangent([1.0, 0.0], [1.0, 1.0]), [0.0, 1.0])

    def test_already_tangential_guidance_is_unchanged(self):
        np.testing.assert_array_equal(self.guided_tangent([2.0, 0.0, 0.0], [0.0, 3.0, 0.0]), [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("base", [[np.nan, 1.0], [np.inf, 0.0]], ids=["nan", "inf"])
    def test_non_finite_base_rejected(self, base):
        with pytest.raises(NonFiniteError):
            random_spherical_sample(base, n=1, tau=0.5, stream=RngStream(0))

    def test_non_finite_guidance_rejected(self):
        with pytest.raises(NonFiniteError):
            self.guided_tangent([1.0, 0.0, 0.0], [0.0, np.nan, 1.0])

    @pytest.mark.parametrize("g", [[0.0, 1.0], [0.0, 1.0, 0.0, 0.0]], ids=["narrower", "wider"])
    def test_guidance_of_another_width_rejected(self, g):
        with pytest.raises(DimensionError):
            self.guided_tangent([1.0, 0.0, 0.0], g)

    def test_orthogonality_at_machine_precision(self):
        rng = np.random.default_rng(42)
        stream = RngStream(27)
        for d in (2, 8, 64, 512):
            for trial in range(20):
                base = rng.standard_normal(d) * rng.uniform(0.1, 100.0)
                g = rng.standard_normal(d) * rng.uniform(0.1, 100.0)
                u, case = base / np.linalg.norm(base), stream.child(d).child(trial)
                ns = random_spherical_sample(base, 2, 0.5, case.child(0))
                guided = guided_spherical_sample(base, 2, 0.5, 0.8, g, ns.perturbations, case.child(1))
                assert np.max(np.abs(ns.perturbations @ u)) < 1e-12
                assert np.max(np.abs(guided.perturbations @ u)) < 1e-12


class TestGuidedSphericalSample:
    def test_alpha_one_collapses_to_the_guidance_direction(self):
        prev = random_spherical_sample([0.0, 0.0, 2.0], n=3, tau=0.7, stream=RngStream(5))
        ns = guided_spherical_sample(
            [0.0, 0.0, 2.0], n=3, tau=0.7, alpha=1.0, g=[1.0, 1.0, 0.3],
            prev_perturbations=prev.perturbations, stream=RngStream(6),
        )
        np.testing.assert_allclose(ns.candidates[0], ns.candidates[1], atol=1e-12)
        np.testing.assert_allclose(ns.candidates[1], ns.candidates[2], atol=1e-12)

    def test_alpha_zero_reuses_previous_perturbations(self):
        base = np.array([1.0, -2.0, 0.5, 3.0])
        prev = random_spherical_sample(base, n=4, tau=0.9, stream=RngStream(7))
        ns = guided_spherical_sample(
            base, n=4, tau=0.9, alpha=0.0, g=[1.0, 0.0, 0.0, 0.0],
            prev_perturbations=prev.perturbations, stream=RngStream(8),
        )
        np.testing.assert_allclose(ns.candidates, prev.candidates, atol=1e-12)

    def test_blended_hand_case(self):
        # w' = (0,1,0) and unit tangential guidance (0,0,1) blended at 0.7:
        # direction (0, 0.3, 0.7) normalized, placed on the tau = 0.9 cone
        ns = guided_spherical_sample(
            [1.0, 0.0, 0.0], n=1, tau=0.9, alpha=0.7, g=[0.0, 0.0, 1.0],
            prev_perturbations=np.array([[0.0, 1.0, 0.0]]), stream=RngStream(9),
        )
        np.testing.assert_allclose(
            ns.candidates[0], [0.9, 0.17170544, 0.40064603], atol=1e-8
        )
        assert abs(np.linalg.norm(ns.candidates[0]) - 1.0) < 1e-12

    def test_norm_and_angle_invariants_hold(self):
        rng = np.random.default_rng(42)
        stream = RngStream(11)
        for case in range(50):
            d = int(rng.choice([2, 8, 64]))
            base = rng.standard_normal(d) * rng.uniform(0.5, 20.0)
            tau = rng.uniform(0.0, 1.0)
            alpha = rng.uniform(0.0, 1.0)
            prev = random_spherical_sample(base, n=3, tau=tau, stream=stream.child(2 * case))
            g = rng.standard_normal(d)
            ns = guided_spherical_sample(
                base, n=3, tau=tau, alpha=alpha, g=g,
                prev_perturbations=prev.perturbations, stream=stream.child(2 * case + 1),
            )
            radius = np.linalg.norm(base)
            norms = np.linalg.norm(ns.candidates, axis=1)
            assert np.max(np.abs(norms - radius) / radius) < 1e-9
            cosines = ns.candidates @ (base / radius) / norms
            assert np.max(np.abs(cosines - tau)) < 1e-9
            assert np.max(np.abs(ns.perturbations @ (base / radius))) < 1e-12

    def test_gradient_parallel_to_base_is_degenerate(self):
        # no tangential guidance: the base falls back to random sampling on its stream
        # (at d = 2 the random tangent of this stream is prev itself, so d = 3 tells them apart)
        base = np.array([2.0, 0.0, 0.0])
        prev = np.array([[0.0, 1.0, 0.0]])
        ns = guided_spherical_sample(
            base, n=1, tau=0.9, alpha=0.5, g=[5.0, 0.0, 0.0],
            prev_perturbations=prev, stream=RngStream(12),
        )
        expected = random_spherical_sample(base, 1, 0.9, RngStream(12))
        np.testing.assert_array_equal(ns.candidates, expected.candidates)
        np.testing.assert_array_equal(ns.perturbations, expected.perturbations)
        assert ns.fallback

    def test_non_finite_previous_perturbation_rejected(self):
        prev = np.array([[0.0, 1.0, 0.0], [np.nan, 0.0, 1.0]])
        with pytest.raises(NonFiniteError):
            guided_spherical_sample(
                [1.0, 0.0, 0.0], n=2, tau=0.9, alpha=0.5, g=[0.0, 1.0, 1.0],
                prev_perturbations=prev, stream=RngStream(3),
            )

    def test_cancelling_blend_falls_back_to_fresh_tangent(self):
        # w' exactly opposing the guidance at alpha = 0.5 cancels; a fresh
        # random tangent must take its place instead of an error
        base = np.array([1.0, 0.0, 0.0])
        ns = guided_spherical_sample(
            base, n=1, tau=0.5, alpha=0.5, g=[0.0, 0.0, 1.0],
            prev_perturbations=np.array([[0.0, 0.0, -1.0]]), stream=RngStream(13),
        )
        assert abs(np.linalg.norm(ns.perturbations[0]) - 1.0) < 1e-12
        assert abs(np.linalg.norm(ns.candidates[0]) - 1.0) < 1e-9

    def test_preconditions(self):
        prev = np.array([[0.0, 1.0]])
        with pytest.raises(PreconditionError):
            guided_spherical_sample(
                [1.0, 0.0], n=1, tau=0.9, alpha=1.5, g=[0.0, 1.0],
                prev_perturbations=prev, stream=RngStream(0),
            )
        with pytest.raises(PreconditionError):
            guided_spherical_sample(
                [1.0, 0.0], n=2, tau=0.9, alpha=0.5, g=[0.0, 1.0],
                prev_perturbations=prev, stream=RngStream(0),
            )

    def test_previous_perturbations_of_another_width_are_a_dimension_error(self):
        with pytest.raises(DimensionError):
            guided_spherical_sample(
                [1.0, 0.0, 0.0], n=1, tau=0.9, alpha=0.5, g=[0.0, 1.0, 0.0],
                prev_perturbations=np.array([[0.0, 1.0]]), stream=RngStream(0),
            )

    @pytest.mark.parametrize("g", [np.ones((2, 3)), np.ones((1, 3))], ids=["two-rows", "one-row"])
    def test_guidance_of_another_shape_than_the_base_is_a_dimension_error(self, g):
        with pytest.raises(DimensionError, match=r"guidance of shape \(\d, 3\) for bases of shape \(3,\)"):
            guided_spherical_sample([1.0, 0.0, 0.0], n=1, tau=0.9, alpha=0.5, g=g,
                                    prev_perturbations=np.array([[0.0, 1.0, 0.0]]), stream=RngStream(0))

    def test_reproducible_for_fixed_stream(self):
        base = np.array([0.3, 1.7, -2.2])
        prev = random_spherical_sample(base, n=2, tau=0.8, stream=RngStream(14))
        kwargs = dict(
            base=base, n=2, tau=0.8, alpha=0.6, g=np.array([1.0, -1.0, 0.5]),
            prev_perturbations=prev.perturbations,
        )
        a = guided_spherical_sample(**kwargs, stream=RngStream(15))
        b = guided_spherical_sample(**kwargs, stream=RngStream(15))
        np.testing.assert_array_equal(a.candidates, b.candidates)


class TestSphereInvariantProperty:
    """Every candidate keeps ||base|| and cos(candidate, base) = tau; perturbations are unit tangents."""

    @staticmethod
    def assert_invariants(ns, base, tau):
        radius = np.linalg.norm(base)
        u = base / radius
        norms = np.linalg.norm(ns.candidates, axis=1)
        assert np.max(np.abs(norms - radius) / radius) < 1e-9
        assert np.max(np.abs(ns.candidates @ u / norms - tau)) < 1e-9
        assert np.max(np.abs(np.linalg.norm(ns.perturbations, axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(ns.perturbations @ u)) < 1e-12

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        d=st.integers(2, 64),
        n=st.integers(1, 6),
        tau=st.floats(0.0, 1.0),
        alpha=st.floats(0.0, 1.0),
        scale=st.floats(1e-3, 1e3),
        data_seed=st.integers(0, 2**32 - 1),
        root=st.integers(0, 2**64 - 1),
        label=st.integers(0, 2**32 - 1),
    )
    def test_random_and_guided_samples_keep_norm_and_angle(self, d, n, tau, alpha, scale, data_seed, root, label):
        rng = np.random.default_rng(data_seed)
        base = rng.standard_normal(d) * scale
        stream = RngStream(root).child(label)
        ns = random_spherical_sample(base, n, tau, stream.child(0))
        self.assert_invariants(ns, base, tau)
        g = rng.standard_normal(d)
        guided = guided_spherical_sample(base, n, tau, alpha, g, ns.perturbations, stream.child(1))
        self.assert_invariants(guided, base, tau)


class TestBlockOfBases:
    def test_a_block_of_bases_draws_as_each_base_alone(self):
        bases = np.random.default_rng(3).standard_normal((3, 5))
        streams = [RngStream(seed) for seed in (4, 5, 6)]
        block = random_spherical_sample(bases, 4, 0.7, StreamBlock.of(streams))
        for base, stream, candidates in zip(bases, streams, block.candidates):
            np.testing.assert_array_equal(candidates, random_spherical_sample(base, 4, 0.7, stream).candidates)

    def test_a_block_of_bases_needs_one_stream_each(self):
        bases = np.ones((3, 5))
        with pytest.raises(PreconditionError):
            random_spherical_sample(bases, 2, 0.7, RngStream(1))
        with pytest.raises(PreconditionError):
            guided_spherical_sample(bases, 2, 0.7, 0.5, np.eye(3, 5), np.zeros((3, 2, 5)), RngStream(1))

