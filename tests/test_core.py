"""Tests for shared value types, RNG discipline, and NFE accounting."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rts import (
    ODE,
    SDE,
    DimensionError,
    MixtureModel,
    NonFiniteError,
    PreconditionError,
    RngStream,
    SolverSpec,
    StreamBlock,
    as_latent,
    denoise,
    sample_gaussian,
)
from rts.core import LATENT_BOUND, _fold_terms, _table_fold_terms


class TestAsLatent:
    def test_accepts_lists_and_returns_float64(self):
        arr = as_latent([1, 2, 3])
        assert arr.dtype == np.float64
        np.testing.assert_array_equal(arr, [1.0, 2.0, 3.0])

    def test_rejects_scalars_and_matrices(self):
        with pytest.raises(DimensionError):
            as_latent(3.0)
        with pytest.raises(DimensionError):
            as_latent(np.zeros((2, 2)))

    def test_rejects_dimension_below_two(self):
        with pytest.raises(DimensionError):
            as_latent([1.0])

    def test_enforces_expected_dimension(self):
        with pytest.raises(DimensionError):
            as_latent([1.0, 2.0, 3.0], dim=2)

    def test_nan_and_inf_are_hard_errors(self):
        with pytest.raises(NonFiniteError):
            as_latent([1.0, np.nan])
        with pytest.raises(NonFiniteError):
            as_latent([np.inf, 0.0])
        with pytest.raises(NonFiniteError, match="NaN or infinite"):
            as_latent([0.0, -np.inf])

    def test_entries_at_the_bound_are_refused(self):
        for entry in (LATENT_BOUND, -LATENT_BOUND, 1e300):
            with pytest.raises(NonFiniteError, match="magnitude"):
                as_latent([entry, 0.0])
        with pytest.raises(NonFiniteError, match="NaN or infinite"):
            as_latent([[1e160, 0.0], [np.nan, 0.0]], batch=True)
        below = np.nextafter(LATENT_BOUND, 0.0)
        np.testing.assert_array_equal(as_latent([below, -below]), [below, -below])
        # an empty batch has no entry at the bound: the check's maximum starts from 0
        assert as_latent(np.empty((0, 3)), batch=True).shape == (0, 3)


class TestRngStream:
    """The (root_seed, path) pair fully determines every draw."""

    def test_child_appends_label(self):
        stream = RngStream(root_seed=7, path=())
        assert stream.child(0).path == (0,)
        assert stream.child(3).child(1).path == (3, 1)

    def test_same_path_same_draws(self):
        a = RngStream(11, (4, 2)).generator().standard_normal(64)
        b = RngStream(11, (4, 2)).generator().standard_normal(64)
        np.testing.assert_array_equal(a, b)

    def test_deriving_same_label_twice_is_identical(self):
        parent = RngStream(7)
        a = sample_gaussian(parent.child(0), 8)
        b = sample_gaussian(parent.child(0), 8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_labels_give_distinct_draws(self):
        parent = RngStream(7)
        a = sample_gaussian(parent.child(0), 8)
        b = sample_gaussian(parent.child(1), 8)
        assert not np.array_equal(a, b)

    def test_sibling_streams_uncorrelated(self):
        # paths [0,1] and [1,0] must behave as independent sources
        root = RngStream(123)
        x = root.child(0).child(1).generator().standard_normal(10_000)
        y = root.child(1).child(0).generator().standard_normal(10_000)
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 0.05

    def test_draws_are_value_semantics_not_cursor(self):
        stream = RngStream(5, (2,))
        first = stream.generator().standard_normal(16)
        second = stream.generator().standard_normal(16)
        np.testing.assert_array_equal(first, second)

    def test_rejects_bad_seeds_and_labels(self):
        with pytest.raises(PreconditionError):
            RngStream(-1)
        with pytest.raises(PreconditionError):
            RngStream(2**64)
        with pytest.raises(PreconditionError):
            RngStream(0).child(-3)

    @pytest.mark.parametrize("label", [2.7, 2.0, "3", None, np.float64(1.0), True, False, np.bool_(True)])
    def test_non_integer_labels_rejected_everywhere(self, label):
        # int() would truncate 2.7 to 2 and parse "3", operator.index reads True as 1; every label is checked one way
        with pytest.raises(PreconditionError, match="must be an integer"):
            RngStream(0).child(label)
        with pytest.raises(PreconditionError, match="must be an integer"):
            RngStream(0, (1, label))
        with pytest.raises(PreconditionError, match="must be an integer"):
            RngStream(label)

    def test_numpy_integer_labels_equal_python_ones(self):
        stream = RngStream(np.uint64(5), [np.int64(2)]).child(np.uint32(3))
        assert stream == RngStream(5).child(2).child(3)
        assert type(stream.root_seed) is int and all(type(label) is int for label in stream.path)
        np.testing.assert_array_equal(sample_gaussian(stream, 4), sample_gaussian(RngStream(5, (2, 3)), 4))

    @pytest.mark.parametrize("label", [2**32, 2**63 + 17, 2**80])
    def test_labels_of_more_than_one_word_are_refused(self, label):
        # every label is one 32-bit word, for a stream, its path and a block alike
        with pytest.raises(PreconditionError, match="lie in"):
            RngStream(0).child(label)
        with pytest.raises(PreconditionError, match="lie in"):
            RngStream(0, (1, label))
        with pytest.raises(PreconditionError, match="lie in"):
            StreamBlock.of([RngStream(0), RngStream(1)]).child(label)
        assert RngStream(0).child(2**32 - 1).path == (2**32 - 1,)


def numpy_stream(root, path):
    """The generator numpy keys from ``SeedSequence(root, spawn_key=path)``: the reference."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(root, spawn_key=path)))


# every label is one 32-bit word
LABELS = st.integers(0, 2**32 - 1)
# the ends of the label range and of the table of array labels
EDGE_LABELS = (0, 255, 256, 2**32 - 1)


class TestIncrementalDerivation:
    """A stream draws exactly what numpy's SeedSequence-keyed Philox draws."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        root=st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 1, 2**32, 2**64 - 1])),
        path=st.lists(LABELS, max_size=8).map(tuple),
        dim=st.integers(2, 9),
    )
    def test_matches_numpy_seed_sequence(self, root, path, dim):
        expected = numpy_stream(root, path).standard_normal(dim)
        chained = RngStream(root)
        for label in path:
            chained = chained.child(label)
        direct = RngStream(root, path)
        assert chained == direct
        for stream in (direct, chained):
            np.testing.assert_array_equal(sample_gaussian(stream, dim), expected)
            np.testing.assert_array_equal(stream.generator().standard_normal(dim), expected)

    def test_interleaved_threads_draw_the_serial_values(self):
        # more threads than cores and a short switch interval, so threads
        # switch between rewinding the generator and drawing from it
        streams = [RngStream(3, (thread,)) for thread in range(4)]
        serial = [np.array([sample_gaussian(s.child(i), 5) for i in range(500)]) for s in streams]
        results = [None] * len(streams)
        barrier = threading.Barrier(len(streams))

        def draw(thread):
            barrier.wait()
            results[thread] = np.array([sample_gaussian(streams[thread].child(i), 5) for i in range(500)])

        workers = [threading.Thread(target=draw, args=(thread,)) for thread in range(len(streams))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for thread, drawn in enumerate(results):
            np.testing.assert_array_equal(drawn, serial[thread])

    def test_equality_hash_and_repr_ignore_the_pool(self):
        direct = RngStream(7, (1, 2**31))
        chained = RngStream(7).child(1).child(2**31)
        assert direct == chained and hash(direct) == hash(chained)
        assert repr(direct) == "RngStream(root_seed=7, path=(1, 2147483648))"
        assert len({direct, chained, RngStream(7, (1, 2**31 + 1))}) == 2
        other_pool = RngStream(7, (1, 2**31))
        object.__setattr__(other_pool, "_pool", ((0, 0, 0, 0), 0))
        assert other_pool == direct and hash(other_pool) == hash(direct)

    def test_negative_label_in_a_given_path_is_refused(self):
        with pytest.raises(PreconditionError):
            RngStream(5, (1, -2))


# one derivation step of a block: one label for every stream, or one label per stream
BLOCK_STEPS = st.one_of(
    st.tuples(st.just("all"), LABELS),
    st.tuples(st.just("each"), st.lists(LABELS, min_size=5, max_size=5)),
)


class TestStreamBlock:
    """A block derives, keys and draws each stream bit for bit as its RngStream and numpy's SeedSequence do."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        roots=st.lists(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**32, 2**64 - 1])),
                       min_size=5, max_size=5),
        steps=st.lists(BLOCK_STEPS, max_size=6),
        dim=st.integers(2, 5),
    )
    def test_matches_rng_stream_and_seed_sequence(self, roots, steps, dim):
        block = StreamBlock.of([RngStream(root) for root in roots])
        paths = [() for _ in roots]
        for kind, labels in steps:
            block = block.child(labels if kind == "all" else np.array(labels, dtype=np.uint64))
            paths = [path + ((labels if kind == "all" else labels[e]),) for e, path in enumerate(paths)]
        assert block.shape == (len(roots),)
        keys, draws = block.keys(), block.normal(dim)
        for e, (root, path) in enumerate(zip(roots, paths)):
            expected = np.random.SeedSequence(root, spawn_key=path).generate_state(2, np.uint64)
            np.testing.assert_array_equal(keys[e], expected)
            np.testing.assert_array_equal(draws[e], numpy_stream(root, path).standard_normal(dim))
            np.testing.assert_array_equal(draws[e], sample_gaussian(RngStream(root, path), dim))

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        roots=st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=3),
        prefix=st.lists(LABELS, max_size=3).map(tuple),
        labels=st.lists(st.one_of(st.integers(2**32, 2**64 - 1), st.sampled_from([2**32, 2**64 - 1])),
                        min_size=3, max_size=3),
    )
    def test_a_two_word_label_folds_as_two_one_word_children(self, roots, prefix, labels):
        # numpy folds a label's 32-bit words least significant first, so for labels in [2**32, 2**64) the
        # children of its low and then its high word are the child of the label
        wide = np.array(labels, dtype=np.uint64)
        block = StreamBlock.of([RngStream(root, prefix) for root in roots]).child(wide & 0xFFFF_FFFF).child(wide >> 32)
        for e, (root, label) in enumerate(zip(roots, labels)):
            expected = np.random.SeedSequence(root, spawn_key=prefix + (label,)).generate_state(2, np.uint64)
            np.testing.assert_array_equal(block.keys()[e], expected)

    def test_labels_broadcast_against_the_leading_axes(self):
        streams = [RngStream(seed, (3,)) for seed in range(4)]
        block = StreamBlock.of(streams)[:, None].child(np.arange(6)).child(2)
        assert block.shape == (4, 6)
        draws = sample_gaussian(block, 3)
        for s, stream in enumerate(streams):
            for i in range(6):
                np.testing.assert_array_equal(draws[s, i], sample_gaussian(stream.child(i).child(2), 3))
        np.testing.assert_array_equal(sample_gaussian(block[1:3][:, 4], 3), draws[1:3, 4])

    # an array label is one 32-bit word per stream, so that every stream folds as many
    @pytest.mark.parametrize("labels", [np.array([1, -2]), np.array([0.0, 1.0]), np.array(["1"]),
                                        np.array([1, 2**32]), np.array([0, 2**64 - 1], dtype=np.uint64),
                                        np.array([300, -1])])
    def test_labels_that_are_not_non_negative_integers_are_refused(self, labels):
        with pytest.raises(PreconditionError):
            StreamBlock.of([RngStream(1), RngStream(2)]).child(labels)

    @pytest.mark.parametrize("paths", [[(2**31, 0), (1,)], [(), (0,)], [(1, 2), (2**32 - 1,), (0, 5)]])
    def test_streams_of_paths_of_different_lengths_are_refused(self, paths):
        with pytest.raises(PreconditionError, match="paths of one length"):
            StreamBlock.of([RngStream(seed, path) for seed, path in enumerate(paths)])

    def test_streams_of_paths_of_one_length_share_a_block(self):
        # (2**31, 0) and (1, 2) both fold two labels; an empty block has no streams to disagree
        streams = [RngStream(1, (2**31, 0)), RngStream(2, (1, 2))]
        draws = sample_gaussian(StreamBlock.of(streams).child(np.array([3, 4])), 3)
        for stream, label, draw in zip(streams, (3, 4), draws):
            np.testing.assert_array_equal(draw, sample_gaussian(stream.child(label), 3))
        assert sample_gaussian(StreamBlock.of([]).child(np.arange(0)), 3).shape == (0, 3)

    @pytest.mark.parametrize(
        "streams",
        [lambda: [1, 2], lambda: [RngStream(1), 2], lambda: (RngStream(seed) for seed in range(2)), lambda: 3],
        ids=["ints", "a stream and an int", "generator", "int"],
    )
    def test_what_is_not_a_sequence_of_streams_is_refused(self, streams):
        with pytest.raises(PreconditionError):
            StreamBlock.of(streams())

    def test_repeated_derivations_equal_seed_sequence(self):
        # the later passes fold by the memoized tables the first one built
        paths = [(1,), (1, 2), (4, 0, 4), (2**31 + 5, 1), (7, 2**32 - 1, 0, 3)]
        for _ in range(3):
            for root in (0, 9, 2**63):
                for path in paths:
                    stream, block = RngStream(root), StreamBlock.of([RngStream(root)])
                    for label in path:
                        stream, block = stream.child(label), block.child(label)
                    expected = np.random.SeedSequence(root, spawn_key=path).generate_state(2, np.uint64)
                    np.testing.assert_array_equal(stream._pool.keys(), expected)
                    np.testing.assert_array_equal(block.keys()[0], expected)


    def test_array_label_derivations_equal_seed_sequence_at_every_depth(self):
        # array labels between integer labels, folded twice
        roots = (0, 9, 2**63)
        depths = [np.array([1, 4, 0]), 2**31 + 3, np.array([7, 7, 7]), np.array([5, 3, 2**32 - 1]), 6,
                  np.array([2, 2**32 - 2, 6], dtype=np.uint64), np.array([0, 5, 2**31])]
        for _ in range(2):
            block, paths = StreamBlock.of([RngStream(root) for root in roots]), [() for _ in roots]
            for labels in depths:
                block = block.child(labels)
                paths = [path + (int(np.broadcast_to(labels, len(roots))[e]),) for e, path in enumerate(paths)]
                for e, (root, path) in enumerate(zip(roots, paths)):
                    expected = np.random.SeedSequence(root, spawn_key=path).generate_state(2, np.uint64)
                    np.testing.assert_array_equal(block.keys()[e], expected)

    @pytest.mark.parametrize("form", ["int", "array"])
    def test_edge_labels_fold_as_seed_sequence_at_every_depth(self, form):
        # 0 and 255 fold by the table, 256 and 2**32 - 1 by array arithmetic; each is the last of 1 to 6 labels
        root = 7
        for depth in range(1, 7):
            prefix = tuple(EDGE_LABELS[(3 * k + 1) % 4] for k in range(depth - 1))
            for label in EDGE_LABELS:
                path = prefix + (label,)
                for block in (RngStream(root, prefix)._pool, StreamBlock.of([RngStream(root, prefix)])):
                    folded = block.child(label if form == "int" else np.full(block.shape, label))
                    expected = np.random.SeedSequence(root, spawn_key=path).generate_state(2, np.uint64)
                    np.testing.assert_array_equal(folded.keys().reshape(2), expected)

    @pytest.mark.parametrize("columns", [EDGE_LABELS, (255, 0, 255)], ids=["computed", "table"])
    def test_edge_labels_broadcast_into_a_block_of_seeds_by_candidates(self, columns):
        # an (S, n) block folds a label per column, then one per element, then an int: depths 1 to 6 in all
        roots = (0, 7, 2**64 - 1)
        for depth in range(1, 5):
            prefix = tuple(EDGE_LABELS[(k + 2) % 4] for k in range(depth - 1))
            block = StreamBlock.of([RngStream(root, prefix) for root in roots])[:, None].child(np.array(columns))
            each = np.array(columns)[(np.arange(3)[:, None] + np.arange(len(columns))) % len(columns)]
            block = block.child(each).child(EDGE_LABELS[depth % 4])
            assert block.shape == (3, len(columns))
            keys = block.keys()
            for s, root in enumerate(roots):
                for j, column in enumerate(columns):
                    path = prefix + (column, int(each[s, j]), EDGE_LABELS[depth % 4])
                    expected = np.random.SeedSequence(root, spawn_key=path).generate_state(2, np.uint64)
                    np.testing.assert_array_equal(keys[s, j], expected)

    def test_table_rows_equal_the_computed_fold_terms_at_every_depth(self):
        block = StreamBlock.of([RngStream(11)])
        for depth in range(6):
            table, next_hash = _table_fold_terms(block._hash)
            assert table.shape == (256, 4) and table.dtype == np.uint32
            for word in range(256):
                terms, expected_hash = _fold_terms(word, block._hash)
                np.testing.assert_array_equal(table[word], terms)
            assert next_hash == int(expected_hash[0])
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0
            block = block.child(depth)

    def test_pools_are_uint32_words_and_keys_contiguous_uint64_pairs(self):
        stream = RngStream(3, (1, 2))
        pair = StreamBlock.of([stream, RngStream(4, (5, 6))])
        grid = pair[:, None].child(np.arange(5))
        for block in (stream._pool, pair, grid, grid[:, 1::2], grid.child(300)):
            assert block._pool.dtype == np.uint32
            keys = block.keys()
            assert keys.dtype == np.uint64 and keys.shape == block.shape + (2,) and keys.flags.c_contiguous


class TestSampleGaussian:
    def test_shape_and_finiteness(self):
        z = sample_gaussian(RngStream(42), 4)
        assert z.shape == (4,)
        assert np.all(np.isfinite(z))

    def test_rejects_dimension_below_two(self):
        with pytest.raises(DimensionError):
            sample_gaussian(RngStream(42), 1)

    @pytest.mark.parametrize("dim", [2.5, "3", 3.0, None])
    def test_rejects_a_count_that_is_not_an_integer(self, dim):
        with pytest.raises(PreconditionError):
            sample_gaussian(RngStream(42), dim)

    def test_accepts_a_numpy_integer_count(self):
        np.testing.assert_array_equal(sample_gaussian(RngStream(42), np.int64(3)), sample_gaussian(RngStream(42), 3))

    def test_moments_over_many_draws(self):
        # law-of-large-numbers sanity: 10^5 scalar draws per coordinate
        stream = RngStream(2024)
        draws = stream.generator().standard_normal((25_000, 4))
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.03

    def test_moments_of_per_draw_streams(self):
        # fresh child stream per draw, the way call sites consume them;
        # 40000 values put the 0.02/0.03 thresholds at 4 standard errors
        parent = RngStream(9)
        values = np.concatenate([sample_gaussian(parent.child(i), 16) for i in range(2500)])
        assert abs(values.mean()) < 0.02
        assert abs(values.var() - 1.0) < 0.03


class TestNoiseTrajectory:
    """A noise trajectory is the (latents, injected) pair that denoise returns."""

    model = MixtureModel(
        weights=[0.5, 0.5], means=[[1.0, 0.0, -1.0], [-1.0, 0.5, 1.0]], stddevs=[0.6, 0.9]
    )

    def test_deterministic_run_shape(self):
        latents, injected = denoise(self.model, SolverSpec(mode=ODE, steps=4), np.zeros(3))
        assert latents.shape == (5, 3)
        assert injected.shape == (0, 3)

    def test_stochastic_run_carries_steps_minus_one_noises(self):
        spec = SolverSpec(mode=SDE, steps=4, churn=0.5)
        latents, injected = denoise(self.model, spec, np.zeros(3), injected=np.ones((3, 3)))
        assert latents.shape == (5, 3)
        np.testing.assert_array_equal(injected, np.ones((3, 3)))

    def test_rejects_wrong_injected_count(self, model_rows):
        spec = SolverSpec(mode=SDE, steps=4, churn=0.5)
        with pytest.raises(DimensionError):
            denoise(self.model, spec, np.zeros(3), injected=np.ones((2, 3)))
        assert model_rows.count == 0
