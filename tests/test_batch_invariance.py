"""Batched row reductions equal the per-row expressions they replace, bit for bit.

``row_norm``, the cone point, ``curvature``, both samplers and
``QuadraticReward`` reduce all rows at once with ``np.vecdot``.
Each is checked here against the per-row ``w @ u``, ``np.linalg.norm`` and
per-triple Menger expressions on ``(d,)``, ``(n, d)`` and ``(S, n, d)``
inputs. The mixture kernel (``_velocity``, ``_clean``) and
``ModePreferenceReward`` are checked against their own calls on one row
each. A numpy whose ``vecdot`` sums a batch in another order than a single
row then fails here instead of silently moving the golden records.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import tangent_part
from rts import (
    MixtureModel,
    ModePreferenceReward,
    QuadraticReward,
    RngStream,
    curvature,
    evaluate_reward,
    guided_spherical_sample,
    random_spherical_sample,
    sample_gaussian,
)
from rts.core import row_norm
from rts.sim import _clean, _velocity
from rts.sphere import _DEGENERATE_TOL, _cone_point

DIMS = (2, 3, 64, 1024)
PROPERTY = settings(max_examples=120, derandomize=True, database=None, deadline=None)
# (), (n,) or (S, n): the leading axes of (d,), (n, d) and (S, n, d) inputs
LEADING = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 8)),
    st.tuples(st.integers(1, 4), st.integers(1, 8)),
)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def rows_and_unit(seed, leading, d):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(leading + (d,)) * rng.uniform(0.1, 100.0, leading + (1,))
    u = rng.standard_normal(d)
    return w, u / np.linalg.norm(u)


def project_row(w, u):
    out = w - (w @ u) * u
    return out - (out @ u) * u


def cone_row(radius, u, tau, w_hat):
    return radius * (tau * u + math.sqrt(max(0.0, 1.0 - tau * tau)) * w_hat)


def menger(a, b, c):
    d_ab, d_bc, d_ac = np.linalg.norm(b - a), np.linalg.norm(c - b), np.linalg.norm(c - a)
    if min(d_ab, d_bc, d_ac) < 1e-12:
        return 0.0
    area = 0.5 * np.linalg.norm(np.cross(b - a, c - a))
    return float(4.0 * area / (d_ab * d_bc * d_ac))


def draw_unit_tangent_row(u, stream):
    w = project_row(sample_gaussian(stream.child(0), u.shape[0]), u)
    return w / np.linalg.norm(w)


def serial_random_sample(base, n, tau, stream):
    radius = np.linalg.norm(base)
    u = base / radius
    tangents = [draw_unit_tangent_row(u, stream.child(i)) for i in range(n)]
    return np.array([cone_row(radius, u, tau, t) for t in tangents]), np.array(tangents)


def serial_guided_sample(base, n, tau, alpha, g, prev, stream):
    radius = np.linalg.norm(base)
    u = base / radius
    g_tan = project_row(g, u)
    g_hat = g_tan / np.linalg.norm(g_tan)
    tangents = []
    for i in range(n):
        blend = (1.0 - alpha) * prev[i] + alpha * g_hat
        blend = blend - (blend @ u) * u
        norm = np.linalg.norm(blend)
        # a blend that cancels (alpha = 0.5, prev[i] opposing g_hat) is redrawn as a random sample's row is
        tangents.append(blend / norm if norm >= _DEGENERATE_TOL else draw_unit_tangent_row(u, stream.child(i)))
    return np.array([cone_row(radius, u, tau, t) for t in tangents]), np.array(tangents)


class TestRowReductions:
    @PROPERTY
    @given(d=st.sampled_from(DIMS), leading=LEADING, seed=st.integers(0, 2**32 - 1))
    def test_row_norm(self, d, leading, seed):
        w, _ = rows_and_unit(seed, leading, d)
        norms = row_norm(w)
        assert norms.shape == leading
        for index in np.ndindex(leading):
            assert same_bits(norms[index], np.linalg.norm(w[index]))

    @PROPERTY
    @given(
        d=st.sampled_from(DIMS),
        leading=LEADING,
        seed=st.integers(0, 2**32 - 1),
        tau=st.floats(0.0, 1.0),
        radius=st.floats(1e-3, 1e3),
    )
    def test_cone_point(self, d, leading, seed, tau, radius):
        w, u = rows_and_unit(seed, leading, d)
        w_hat = tangent_part(w, u)
        w_hat = w_hat / row_norm(w_hat)[..., None]
        points = _cone_point(radius, u, tau, w_hat)
        for index in np.ndindex(leading):
            assert same_bits(points[index], cone_row(radius, u, tau, w_hat[index]))

    @PROPERTY
    @given(
        leading=st.one_of(st.just(()), st.tuples(st.integers(1, 4))),
        length=st.integers(3, 12),
        seed=st.integers(0, 2**32 - 1),
        repeat=st.booleans(),
    )
    def test_curvature(self, leading, length, seed, repeat):
        points = np.random.default_rng(seed).standard_normal(leading + (length, 3))
        if repeat:  # a coincident pair exercises the zero branch
            points[..., 1, :] = points[..., 0, :]
        scores = curvature(points)
        assert scores.shape == leading + (length,)
        for index in np.ndindex(leading):
            line = points[index]
            expected = [0.0] + [menger(*line[i - 1:i + 2]) for i in range(1, length - 1)] + [0.0]
            assert same_bits(scores[index], expected)

    @PROPERTY
    @given(d=st.sampled_from(DIMS), leading=LEADING, seed=st.integers(0, 2**32 - 1))
    def test_quadratic_reward(self, d, leading, seed):
        w, target = rows_and_unit(seed, leading, d)
        reward = QuadraticReward(target)
        flat = w.reshape(-1, d)
        scores = evaluate_reward(reward, flat if leading else w)
        expected = [-((row - target) @ (row - target)) for row in flat]
        assert same_bits(scores, expected if leading else expected[0])


class TestSamplersMatchSerialLoop:
    @PROPERTY
    @given(
        d=st.sampled_from(DIMS),
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        tau=st.floats(0.0, 1.0),
        alpha=st.floats(0.0, 1.0),
        root=st.integers(0, 2**64 - 1),
    )
    @example(d=2, n=1, seed=0, tau=1.0, alpha=0.5, root=0)  # the blend cancels and is redrawn
    def test_random_and_guided_samples(self, d, n, seed, tau, alpha, root):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal(d) * rng.uniform(0.2, 50.0)
        g = rng.standard_normal(d)
        stream = RngStream(root)

        ns = random_spherical_sample(base, n, tau, stream.child(0))
        candidates, tangents = serial_random_sample(base, n, tau, stream.child(0))
        assert same_bits(ns.candidates, candidates)
        assert same_bits(ns.perturbations, tangents)

        guided = guided_spherical_sample(base, n, tau, alpha, g, ns.perturbations, stream.child(1))
        candidates, tangents = serial_guided_sample(base, n, tau, alpha, g, ns.perturbations, stream.child(1))
        assert same_bits(guided.candidates, candidates)
        assert same_bits(guided.perturbations, tangents)


def random_mixture(seed, k, d):
    rng = np.random.default_rng(seed)
    return MixtureModel(
        weights=rng.dirichlet(np.ones(k)),
        means=rng.normal(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 2.0), (k, d)),
        stddevs=rng.uniform(0.05, 1.5, k),
    )


class TestMixtureKernelRows:
    """The model calls and the mode-preference reward, on 1, 4 and 64 components."""

    @PROPERTY
    @given(
        d=st.sampled_from(DIMS),
        k=st.sampled_from((1, 4, 64)),
        leading=LEADING,
        seed=st.integers(0, 2**32 - 1),
        t=st.floats(0.0, 1.0),
    )
    def test_kernel_and_reward_equal_single_rows(self, d, k, leading, seed, t):
        model = random_mixture(seed, k, d)
        x = np.random.default_rng(seed + 1).standard_normal(leading + (d,)) * 2.0
        reward = ModePreferenceReward(model=model, preferred=k - 1, sharpness=float(np.sqrt(d)))
        calls = (lambda z: _velocity(model, z, t), lambda z: _clean(model, z, t), reward.evaluate)
        for call in calls:
            out = call(x)
            assert out.shape == x.shape or out.shape == leading
            for index in np.ndindex(leading):
                assert same_bits(out[index], call(x[index]))
