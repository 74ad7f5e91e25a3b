"""Norm-preserving neighborhoods on the sphere of radius ``‖base‖``.

Candidates around a base latent ``z`` are formed as

    m = ‖z‖ · (τ·u + √(1−τ²)·ŵ),   u = z/‖z‖,

where ``ŵ`` is a unit direction tangent to ``u``. τ controls the angular
deviation from the base direction: every candidate keeps the base norm
exactly and satisfies cos∠(m, z) = τ. Coarse search draws ``ŵ`` isotropically
on the tangent sphere; fine search blends the previous perturbations with a
guidance direction before renormalizing.

All candidates are formed at once, one per row, reduced with ``np.vecdot``: it sums
each row of a batch as the 1-D ``w @ u`` does, while ``W @ u``, ``einsum`` and
``(W * u).sum(-1)`` sum in another order and change the low bits of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DegenerateGradientError,
    DegeneratePerturbationError,
    DimensionError,
    Latent,
    NonFiniteError,
    PreconditionError,
    RngStream,
    as_integer,
    as_latent,
    check_scalar,
    row_norm,
    sample_gaussian,
)

_UNIT_TOL = 1e-9
_DEGENERATE_TOL = 1e-12
# One initial draw plus up to 8 redraws for perturbations that collapse
# under tangential projection (measure-zero for d >= 2, defensive only).
_MAX_DRAWS = 9


@dataclass
class NeighborSet:
    """N spherical candidates around a base latent, with their perturbations.

    ``candidates[i]`` was formed from the unit tangent ``perturbations[i]``.
    ``rewards`` stays None until scored; ``estimate_gradient`` checks the rewards it reads.
    """

    base: Latent
    candidates: np.ndarray
    perturbations: np.ndarray
    rewards: np.ndarray | None = None

    def with_rewards(self, rewards) -> "NeighborSet":
        return replace(self, rewards=rewards)


def _reject(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each row of ``w`` minus its component along ``u``."""
    return w - np.vecdot(w, u)[..., None] * u


def tangent_project(w, u) -> np.ndarray:
    """Remove from each row of ``w`` its component along the unit direction ``u``.

    ``w`` is ``(d,)``, ``(n, d)`` or ``(S, n, d)``. Two Gram-Schmidt passes keep
    the residual orthogonality at machine precision even for large d. Raises
    ``NonFiniteError`` for non-finite input, ``DimensionError`` when ``w`` and
    ``u`` differ in their last dimension and ``DegeneratePerturbationError``
    when a row is parallel to ``u`` (projection below 1e-12).
    """
    w = np.asarray(w, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if w.shape[-1:] != u.shape[-1:]:
        raise DimensionError(f"w of shape {w.shape} and u of shape {u.shape} differ in dimension")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(u))):
        raise NonFiniteError("tangent_project needs finite w and u")
    if np.any(np.abs(row_norm(u) - 1.0) > _UNIT_TOL):
        raise PreconditionError("u must be unit norm within 1e-9")
    out = _reject(_reject(w, u), u)
    if np.any(row_norm(out) < _DEGENERATE_TOL):
        raise DegeneratePerturbationError("perturbation is parallel to the base direction")
    return out


def _base_frame(base: Latent) -> tuple[Latent, float, Latent]:
    base = as_latent(base)
    radius = float(row_norm(base))
    if radius <= 0.0:
        raise PreconditionError("base must have positive norm")
    return base, radius, base / radius


def _unit_tangents(rows: np.ndarray, u: Latent, stream: RngStream) -> np.ndarray:
    """Normalize tangent rows, first redrawing each row that collapsed below tolerance.

    A collapsed row i takes an isotropic draw from ``stream.child(i).child(a)``
    at attempt a = 0, 1, ...; the draws of one attempt are projected at once.
    """
    norms = row_norm(rows)
    for attempt in range(_MAX_DRAWS):
        redraw = np.flatnonzero(norms < _DEGENERATE_TOL)
        if redraw.size == 0:
            break
        w = np.array([sample_gaussian(stream.child(i).child(attempt), u.shape[0]) for i in redraw])
        rows[redraw] = _reject(_reject(w, u), u)
        norms[redraw] = row_norm(rows[redraw])
    if np.any(norms < _DEGENERATE_TOL):
        raise DegeneratePerturbationError(f"no usable tangent direction after {_MAX_DRAWS} draws")
    return rows / norms[:, None]


def _cone_point(radius, u, tau: float, w_hat: np.ndarray) -> np.ndarray:
    return radius * (tau * u + math.sqrt(max(0.0, 1.0 - tau * tau)) * w_hat)


def random_spherical_sample(base: Latent, n: int, tau: float, stream: RngStream) -> NeighborSet:
    """Draw ``n`` isotropic candidates at angle arccos(τ) from ``base``.

    Candidate i consumes the sub-stream ``stream.child(i)``, so each
    candidate is the same whatever ``n`` is.
    """
    n = as_integer(n, "n", 1)
    check_scalar(tau, "tau", 0, 1)
    base, radius, u = _base_frame(base)
    # every row starts collapsed, so each candidate draws its tangent
    perturbations = _unit_tangents(np.zeros((n, base.shape[0])), u, stream)
    return NeighborSet(base, _cone_point(radius, u, tau, perturbations), perturbations)


def guided_spherical_sample(
    base: Latent,
    n: int,
    tau: float,
    alpha: float,
    g: Latent,
    prev_perturbations: np.ndarray,
    stream: RngStream,
) -> NeighborSet:
    """Re-form the neighborhood by blending guidance into the perturbations.

    Each previous unit tangent ŵ′_i becomes (1−α)·ŵ′_i + α·ĝ⊥, renormalized,
    where ĝ⊥ is the unit tangential part of the guidance direction ``g``.
    Raises ``NonFiniteError`` for non-finite ``g`` or previous perturbations
    and ``DegenerateGradientError`` when ``g`` has no tangential component
    (callers fall back to random sampling). A blend that cancels below
    tolerance (possible only at α = 0.5 with ŵ′ opposing ĝ⊥) is replaced by a
    fresh random tangent drawn from ``stream``.
    """
    n = as_integer(n, "n", 1)
    check_scalar(tau, "tau", 0, 1)
    check_scalar(alpha, "alpha", 0, 1)
    base, radius, u = _base_frame(base)
    g = as_latent(g, base.shape[0])
    prev = as_latent(prev_perturbations, base.shape[0], batch=True)
    if prev.shape != (n, base.shape[0]):
        raise PreconditionError(f"expected {n} previous perturbations of dim {base.shape[0]}, got {prev.shape}")
    try:
        g_tan = tangent_project(g, u)
    except DegeneratePerturbationError:
        raise DegenerateGradientError("guidance direction has no tangential component") from None
    g_hat = g_tan / row_norm(g_tan)

    # One cleanup projection: renormalizing a small blend would otherwise
    # amplify the parents' rounding residue along u.
    blend = _reject((1.0 - alpha) * prev + alpha * g_hat, u)
    perturbations = _unit_tangents(blend, u, stream)
    return NeighborSet(base, _cone_point(radius, u, tau, perturbations), perturbations)
