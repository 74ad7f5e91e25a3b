"""Sparse key-step selection from the geometry of a denoising trajectory.

The per-step latents are centered and factored with an SVD; projecting onto
the top three right-singular directions gives a 3D polyline whose sharp turns
mark the steps where the trajectory changes course. Each interior step is
scored by the Menger curvature of its consecutive point triple (four times
the triangle area over the product of pairwise distances, the reciprocal
circumradius), and the Top-k steps by curvature become the key steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NoiseTrajectory, PreconditionError

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


def curvature(points: np.ndarray, index: int) -> float:
    """Menger curvature of the triple around ``index``; 0 for near-coincident points."""
    points = np.asarray(points, dtype=np.float64)
    if not (1 <= index <= points.shape[0] - 2):
        raise PreconditionError(f"curvature needs an interior index, got {index} of {points.shape[0]} points")
    a, b, c = points[index - 1], points[index], points[index + 1]
    d_ab = np.linalg.norm(b - a)
    d_bc = np.linalg.norm(c - b)
    d_ac = np.linalg.norm(c - a)
    if min(d_ab, d_bc, d_ac) < _DISTANCE_TOL:
        return 0.0
    area = 0.5 * np.linalg.norm(np.cross(b - a, c - a))
    return float(4.0 * area / (d_ab * d_bc * d_ac))


def select_key_steps(proj: ProjectedTrajectory, k: int) -> KeyStepSet:
    """Pick the Top-k interior steps by Menger curvature, deterministically.

    Endpoints are never eligible. Ties break toward the smaller step index.
    """
    n_interior = proj.points.shape[0] - 2
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if k > n_interior:
        raise PreconditionError(f"k={k} exceeds the {n_interior} interior steps")
    scored = [(curvature(proj.points, l), l) for l in range(1, n_interior + 1)]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    top = scored[:k]
    return KeyStepSet(
        indices=tuple(l for _, l in top),
        curvatures=tuple(value for value, _ in top),
    )
