"""Sparse key-step selection from the geometry of a denoising trajectory.

The ``(L, d)`` per-step latents of a solve (the first array ``denoise``
returns) are centered and factored with an SVD; projecting onto
the top three right-singular directions gives a 3D polyline whose sharp turns
mark the steps where the trajectory changes course. ``project_trajectory``
returns that polyline as an ``(L, 3)`` array of points and
``select_key_steps`` takes it, or an ``(S, L, 3)`` stack of S polylines, one
per seed of a lockstep block. Each interior step is scored by the Menger
curvature of its consecutive point triple (four times the triangle area over
the product of pairwise distances, the reciprocal circumradius), and the
Top-k steps by curvature become the key steps.

All triples are scored at once with ``row_norm``, whose ``np.vecdot`` sums each
row as the per-triple ``np.linalg.norm`` does; ``einsum`` or ``.sum(-1)`` would not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_integer, as_latent, row_norm
from .errors import DimensionError, NonFiniteError, PreconditionError

_DISTANCE_TOL = 1e-12


@dataclass
class KeyStepSet:
    """Top-k step indices, sorted descending by curvature (ties: smaller index)."""

    indices: tuple[int, ...]
    curvatures: tuple[float, ...]


def project_trajectory(latents: np.ndarray) -> np.ndarray:
    """The ``(L, 3)`` points of the centered ``(L, d)`` per-step latents on the top-3 SVD basis.

    The projection is an isometry on the spanned subspace, and the projected
    energy Σ‖p_l‖² equals the sum of the top-3 squared singular values.
    """
    latents = as_latent(latents, batch=True)
    if latents.ndim != 2:
        raise DimensionError(f"latents must be (L, d), got shape {latents.shape}")
    if latents.shape[0] < 4:
        raise PreconditionError(f"need at least 4 latents, got {latents.shape[0]}")
    centered = latents - latents.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    # LAPACK returns a full orthonormal V even for deficient input, so rows
    # beyond the rank already are an orthonormal completion. Only a latent
    # dimension below 3 leaves nothing to complete with; those columns (and
    # the corresponding point coordinates) stay zero.
    available = min(3, latents.shape[1])
    components = np.zeros((latents.shape[1], 3))
    components[:, :available] = vt[:available].T
    points = np.zeros((latents.shape[0], 3))
    points[:, :available] = centered @ components[:, :available]
    return points


def _checked_points(points) -> np.ndarray:
    """Finite float64 ``(..., L, 3)`` points, at least three to a polyline; anything else raises an ``RtsError``."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim < 2 or points.shape[-1] != 3:
        raise DimensionError(f"points must be (L, 3) polylines, got shape {points.shape}")
    as_latent(points.reshape(-1, 3), batch=True)
    if points.shape[-2] < 3:
        raise PreconditionError(f"curvature needs at least 3 points, got shape {points.shape}")
    return points


def _menger(points: np.ndarray) -> np.ndarray:
    """``curvature`` of points ``_checked_points`` has checked."""
    a, b, c = points[..., :-2, :], points[..., 1:-1, :], points[..., 2:, :]
    with np.errstate(over="ignore", invalid="ignore"):
        d_ab, d_bc, d_ac = row_norm(b - a), row_norm(c - b), row_norm(c - a)
        area, product = 0.5 * row_norm(np.cross(b - a, c - a)), d_ab * d_bc * d_ac
    if not np.isfinite((area, product)).all():
        raise NonFiniteError(f"curvature overflows float64 on points of shape {points.shape}")
    near = np.minimum(np.minimum(d_ab, d_bc), d_ac) < _DISTANCE_TOL
    out = np.zeros(points.shape[:-1])
    np.divide(4.0 * area, product, out=out[..., 1:-1], where=~near)
    return out


def curvature(points: np.ndarray) -> np.ndarray:
    """Menger curvature ``(..., L)`` at each point of ``(..., L, 3)`` polylines; 0 at ends and coincident triples."""
    return _menger(_checked_points(points))


def select_key_steps(points: np.ndarray, k: int) -> KeyStepSet | list[KeyStepSet]:
    """Pick the Top-k interior steps of ``(L, 3)`` projected points by Menger curvature, deterministically.

    Endpoints are never eligible. Ties break toward the smaller step index.
    An ``(S, L, 3)`` stack gives a list of S sets, each the set of its own polyline.
    """
    points = _checked_points(points)
    if points.ndim > 3:
        raise DimensionError(f"points must be (L, 3) or (S, L, 3), got shape {points.shape}")
    n_interior = points.shape[-2] - 2
    k = as_integer(k, "k", 1)
    if k > n_interior:
        raise PreconditionError(f"k={k} exceeds the {n_interior} interior steps")
    scores = _menger(points)
    top = np.argsort(-scores[..., 1:-1], axis=-1, kind="stable")[..., :k] + 1
    sets = [KeyStepSet(indices=tuple(row.tolist()), curvatures=tuple(score[row].tolist()))
            for row, score in zip(top.reshape(-1, k), scores.reshape(-1, points.shape[-2]))]
    return sets[0] if points.ndim == 2 else sets
