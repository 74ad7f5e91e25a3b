"""Norm-preserving neighborhoods on the sphere of radius ``‖base‖``.

Candidates around a base latent ``z`` are formed as

    m = ‖z‖ · (τ·u + √(1−τ²)·ŵ),   u = z/‖z‖,

where ``ŵ`` is a unit direction tangent to ``u``. τ controls the angular
deviation from the base direction: every candidate keeps the base norm
exactly and satisfies cos∠(m, z) = τ. Coarse search draws ``ŵ`` isotropically
on the tangent sphere; fine search blends the previous perturbations with a
guidance direction before renormalizing, and a base whose guidance has no
tangential part samples as coarse search does. Candidate i's isotropic draws
come from ``stream.child(i)``: a random sample draws all its rows at once
from attempt 0, ``child(i).child(0)``. One rule redraws every row that is
below tolerance (``_unit_tangents``), from the next attempt on: a random
sample's collapsed row from attempt 1, a cancelled blend and a fallback
base's rows from attempt 0.

All candidates are formed at once, one per row, reduced with ``np.vecdot``: it sums
each row of a batch as the 1-D ``w @ u`` does, while ``W @ u``, ``einsum`` and
``(W * u).sum(-1)`` sum in another order and change the low bits of rows.

The samplers take one base ``(d,)`` with an ``RngStream``, or a block of
bases ``(S, d)``, one per seed of a lockstep block, with a ``StreamBlock``
of S streams, as ``StreamBlock.of`` checks; a block gives each seed, bit for
bit, the neighborhood of its own call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Latent,
    RngStream,
    StreamBlock,
    as_integer,
    as_latent,
    check_scalar,
    row_norm,
)
from .errors import DegeneratePerturbationError, DimensionError, PreconditionError

_DEGENERATE_TOL = 1e-12
# Draw attempts 0 to 8 per tangent; a draw collapses under tangential
# projection with probability 0 for d >= 2, so a redraw is defensive only.
_MAX_DRAWS = 9


@dataclass
class NeighborSet:
    """N spherical candidates around a base latent, with their perturbations.

    ``candidates[..., i, :]`` was formed from the unit tangent ``perturbations[..., i, :]``;
    a block of bases ``(S, d)`` has ``(S, n, d)`` of each.
    ``rewards`` stays None until scored; ``estimate_gradient`` checks the rewards it reads.
    ``fallback`` marks the bases a guided sample drew at random, their guidance having
    no tangential part (a bool, or ``(S,)`` for a block); a random sample leaves it False.
    """

    base: Latent
    candidates: np.ndarray
    perturbations: np.ndarray
    rewards: np.ndarray | None = None
    fallback: np.ndarray | bool = False

    def with_rewards(self, rewards) -> "NeighborSet":
        return NeighborSet(self.base, self.candidates, self.perturbations, rewards, self.fallback)


def _reject(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each row of ``w`` minus its component along ``u``."""
    return w - np.vecdot(w, u)[..., None] * u


def _base_frame(base: Latent) -> tuple[Latent, np.ndarray, Latent]:
    """The base ``(..., d)``, its radius ``(..., 1)`` and its direction."""
    base = as_latent(base, batch=True)
    radius = row_norm(base)[..., None]
    if not (radius > 0.0).all():
        raise PreconditionError("base must have positive norm")
    return base, radius, base / radius


# Tangents are drawn with StreamBlock.normal, not sample_gaussian: the
# benchmark's tracer reads the path of every stream this module hands to
# sample_gaussian, and a block has no path.
def _unit_tangents(rows: np.ndarray, u: Latent, stream: StreamBlock, first_attempt: int) -> np.ndarray:
    """Normalize tangent rows ``(..., n, d)``, first redrawing each row that is below tolerance.

    The only code that redraws a tangent. ``u`` and ``stream`` have the
    leading shape of the rows. Row i, while below tolerance, takes at attempt
    a = ``first_attempt``, ..., 8 an isotropic draw from its stream's
    ``child(i).child(a)``, projected off ``u`` twice; the draws of one attempt
    are made at once.
    """
    norms = row_norm(rows)
    collapsed = norms < _DEGENERATE_TOL
    for attempt in range(first_attempt, _MAX_DRAWS):
        if not collapsed.any():
            break
        redraw = collapsed.nonzero()
        seeds, row = redraw[:-1], redraw[-1]
        w = stream[seeds].child(row).child(attempt).normal(u.shape[-1])
        w = _reject(_reject(w, u[seeds]), u[seeds])
        rows[redraw] = w
        norms[redraw] = row_norm(w)
        collapsed = norms < _DEGENERATE_TOL
    if collapsed.any():
        raise DegeneratePerturbationError(f"no usable tangent direction after {_MAX_DRAWS} draws", collapsed)
    return rows / norms[..., None]


def _cone_point(radius, u, tau: float, w_hat: np.ndarray) -> np.ndarray:
    return radius * (tau * u + math.sqrt(max(0.0, 1.0 - tau * tau)) * w_hat)


def random_spherical_sample(base: Latent, n: int, tau: float, stream: RngStream | StreamBlock) -> NeighborSet:
    """Draw ``n`` isotropic candidates at angle arccos(τ) from ``base``, one ``(d,)`` or a block ``(S, d)``.

    Candidate i consumes the sub-stream ``stream.child(i)``, so each candidate is the same whatever ``n`` is.
    Its first draw, from ``child(i).child(0)``, is made with every other candidate's at once; a draw that
    collapses onto the base direction is redrawn from attempt 1. ``StreamBlock.of`` checks one stream per base.
    """
    n = as_integer(n, "n", 1)
    check_scalar(tau, "tau", 0, 1)
    base, radius, u = _base_frame(base)
    streams, u_rows = StreamBlock.of(stream, base.shape[:-1]), u[..., None, :]
    w = streams[..., None].child(np.arange(n)).child(0).normal(base.shape[-1])
    perturbations = _unit_tangents(_reject(_reject(w, u_rows), u_rows), u, streams, 1)
    return NeighborSet(base, _cone_point(radius[..., None], u_rows, tau, perturbations), perturbations)


def guided_spherical_sample(
    base: Latent,
    n: int,
    tau: float,
    alpha: float,
    g: Latent,
    prev_perturbations: np.ndarray,
    stream: RngStream | StreamBlock,
) -> NeighborSet:
    """Re-form the neighborhood by blending guidance into the perturbations.

    Each previous unit tangent ŵ′_i becomes (1−α)·ŵ′_i + α·ĝ⊥, renormalized,
    where ĝ⊥ is the unit tangential part of the guidance direction ``g``, of
    the shape of ``base``. Raises ``NonFiniteError`` for non-finite ``g`` or
    previous perturbations. A base whose ``g`` has no tangential part (below
    1e-12) samples at random, bit for bit as ``random_spherical_sample`` on its
    stream, and ``fallback`` marks it; a blend that cancels below tolerance
    (possible only at α = 0.5 with ŵ′ opposing ĝ⊥) is redrawn alone.
    ``StreamBlock.of`` checks one stream per base.
    """
    n = as_integer(n, "n", 1)
    check_scalar(tau, "tau", 0, 1)
    check_scalar(alpha, "alpha", 0, 1)
    base, radius, u = _base_frame(base)
    dim = base.shape[-1]
    g = as_latent(g, dim, batch=True)
    if g.shape != base.shape:
        raise DimensionError(f"guidance of shape {g.shape} for bases of shape {base.shape}")
    prev = np.asarray(prev_perturbations, dtype=np.float64)
    if prev.shape[-1:] != (dim,):
        raise DimensionError(f"expected previous perturbations of dim {dim}, got shape {prev.shape}")
    as_latent(prev.reshape(-1, dim), batch=True)
    if prev.shape != base.shape[:-1] + (n, dim):
        raise PreconditionError(f"expected {n} previous perturbations of dim {dim} per base, got {prev.shape}")
    g_tan = _reject(_reject(g, u), u)
    g_norm = row_norm(g_tan)
    fallback = g_norm < _DEGENERATE_TOL
    g_hat = g_tan / np.where(fallback, 1.0, g_norm)[..., None]

    # One cleanup projection: renormalizing a small blend would otherwise
    # amplify the parents' rounding residue along u.
    blend = _reject((1.0 - alpha) * prev + alpha * g_hat[..., None, :], u[..., None, :])
    blend[fallback] = 0.0
    perturbations = _unit_tangents(blend, u, StreamBlock.of(stream, base.shape[:-1]), 0)
    return NeighborSet(base, _cone_point(radius[..., None], u[..., None, :], tau, perturbations), perturbations,
                       fallback=fallback)
