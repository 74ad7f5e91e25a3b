"""Sparse key-step selection from the geometry of a denoising trajectory.

The per-step latents are centered and factored with an SVD; projecting onto
the top three right-singular directions gives a 3D polyline whose sharp turns
mark the steps where the trajectory changes course. Each interior step is
scored by the Menger curvature of its consecutive point triple (four times
the triangle area over the product of pairwise distances, the reciprocal
circumradius), and the Top-k steps by curvature become the key steps.

All triples are scored at once with ``row_norm``, whose ``np.vecdot`` sums each
row as the per-triple ``np.linalg.norm`` does; ``einsum`` or ``.sum(-1)`` would not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NoiseTrajectory, PreconditionError, row_norm

_DISTANCE_TOL = 1e-12


@dataclass
class ProjectedTrajectory:
    """3D projection of a trajectory plus the factor that produced it.

    ``low_rank`` is set when the centered data matrix has rank < 3.
    Rank-deficient directions carry the factorization's orthonormal
    completion; when the latent dimension itself is below 3, the absent
    columns and point coordinates are zero instead.
    """

    points: np.ndarray
    components: np.ndarray
    singular_values: np.ndarray
    mean: np.ndarray
    low_rank: bool = False


@dataclass
class KeyStepSet:
    """Top-k step indices, sorted descending by curvature (ties: smaller index)."""

    indices: tuple[int, ...]
    curvatures: tuple[float, ...]


def project_trajectory(traj: NoiseTrajectory) -> ProjectedTrajectory:
    """Center the per-step latents and project them onto the top-3 SVD basis.

    The projection is an isometry on the spanned subspace, and the projected
    energy Σ‖p_l‖² equals the sum of the top-3 squared singular values.
    """
    latents = traj.latents
    if latents.shape[0] < 4:
        raise PreconditionError(f"need at least 4 latents, got {latents.shape[0]}")
    mean = latents.mean(axis=0)
    centered = latents - mean
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    # LAPACK returns a full orthonormal V even for deficient input, so rows
    # beyond the rank already are an orthonormal completion. Only a latent
    # dimension below 3 leaves nothing to complete with; those columns (and
    # the corresponding point coordinates) stay zero.
    cutoff = singular[0] * max(centered.shape) * np.finfo(np.float64).eps
    rank = int(np.sum(singular > cutoff))
    available = min(3, latents.shape[1])
    components = np.zeros((latents.shape[1], 3))
    components[:, :available] = vt[:available].T
    points = np.zeros((latents.shape[0], 3))
    points[:, :available] = centered @ components[:, :available]
    padded_singular = np.zeros(3)
    padded_singular[:available] = singular[:available]
    return ProjectedTrajectory(
        points=points,
        components=components,
        singular_values=padded_singular,
        mean=mean,
        low_rank=rank < 3,
    )


def curvature(points: np.ndarray) -> np.ndarray:
    """Menger curvature ``(..., L)`` at each point of ``(..., L, 3)`` polylines; 0 at ends and coincident triples."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim < 2 or points.shape[-2] < 3:
        raise PreconditionError(f"curvature needs at least 3 points, got shape {points.shape}")
    a, b, c = points[..., :-2, :], points[..., 1:-1, :], points[..., 2:, :]
    d_ab, d_bc, d_ac = row_norm(b - a), row_norm(c - b), row_norm(c - a)
    area = 0.5 * row_norm(np.cross(b - a, c - a))
    near = np.minimum(np.minimum(d_ab, d_bc), d_ac) < _DISTANCE_TOL
    out = np.zeros(points.shape[:-1])
    np.divide(4.0 * area, d_ab * d_bc * d_ac, out=out[..., 1:-1], where=~near)
    return out


def select_key_steps(proj: ProjectedTrajectory, k: int) -> KeyStepSet:
    """Pick the Top-k interior steps by Menger curvature, deterministically.

    Endpoints are never eligible. Ties break toward the smaller step index.
    """
    n_interior = proj.points.shape[0] - 2
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if k > n_interior:
        raise PreconditionError(f"k={k} exceeds the {n_interior} interior steps")
    scores = curvature(proj.points)
    top = np.argsort(-scores[1:-1], kind="stable")[:k] + 1
    return KeyStepSet(indices=tuple(top.tolist()), curvatures=tuple(scores[top].tolist()))
