"""Extremality of finite measurements via injectivity of a sandwich map.

A measurement {P_i} is extreme in the convex set of measurements exactly when
the linear map

    T: (A_1, ..., A_k) -> sum_i S_i A_i S_i^dag,   S_i = sqrt(P_i) restricted
                                                    to the range of P_i,

is injective, where A_i acts on the r_i-dimensional range of P_i. The map is
assembled as a d^2 x (sum_i r_i^2) matrix whose column (i; j, k) is the
row-major vectorization of S_i E_jk S_i^dag, and injectivity is decided by
its smallest singular value against a relative threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PSD_TOL, RANK_TOL
from .model import LABEL_TOL, FinitePOVM, PovmError, prune_and_merge

# Verdict threshold: non-extreme when the smallest singular value is at or
# below MARGIN_FACTOR * sigma_max * max(d^2, sum r_i^2).
MARGIN_FACTOR = 1e-10


@dataclass(frozen=True)
class TpMap:
    """The assembled sandwich map of a measurement.

    frames is one (n, d, t) stack, t the largest rank: S_i (d x r_i) fills
    the trailing r_i columns of frames[i] and the t - r_i columns in front
    are zero. matrix is d^2 x sum r_i^2 with block columns in outcome order
    and (j, k) running row-major within each block.
    """

    dim: int
    labels: tuple
    frames: np.ndarray
    ranks: tuple
    matrix: np.ndarray

    @property
    def domain_dim(self) -> int:
        return int(sum(r * r for r in self.ranks))


@dataclass(frozen=True)
class ExtremalityVerdict:
    """Outcome of the injectivity test.

    margin is the smallest singular value over the domain (0 when the domain
    dimension already exceeds d^2 and the test short-circuits); threshold is
    the cutoff the margin was compared against. is_extreme iff kernel_dim
    is zero.
    """

    is_extreme: bool
    margin: float
    kernel_dim: int
    domain_dim: int
    threshold: float


@dataclass(frozen=True)
class BlockHermitian:
    """A Hermitian element of the map's block-diagonal domain."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "blocks",
            tuple(np.asarray(b, dtype=np.complex128) for b in self.blocks),
        )

    @property
    def ranks(self) -> tuple:
        return tuple(b.shape[0] for b in self.blocks)

    def to_vector(self) -> np.ndarray:
        if not self.blocks:
            return np.zeros(0, dtype=np.complex128)
        return np.concatenate([b.reshape(-1) for b in self.blocks])


def frame_columns(frames: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Columns vec(S_i E_jk S_i^dag) of a padded frame stack (n, d, t).

    kept (n, t) marks each frame's live columns. The result is d^2 x
    sum_i |kept_i|^2: blocks in stack order, (j, k) row-major over each
    block's kept pairs.
    """
    i, j, k = np.nonzero(kept[:, :, None] & kept[:, None, :])
    cols = np.einsum("ca,cb->abc", frames[i, :, j], frames[i, :, k].conj())
    return cols.reshape(frames.shape[1] ** 2, i.size)


def build_tp_map(povm: FinitePOVM, rank_tol: float = RANK_TOL) -> TpMap:
    """Assemble the sandwich map of a measurement.

    Each frame S_i is sqrt(P_i) restricted to the numerical range of P_i,
    computed directly from the eigendecomposition (eigenvectors above the
    relative rank cutoff, scaled by sqrt of their eigenvalues). Eigenvalues
    come ascending, so the kept ones are a suffix: the frame stack is the
    trailing t eigenvectors, the dropped ones scaled to zero columns in
    front. The matrix is the stack's frame columns over the kept ones; zero
    effects contribute none.
    """
    w, v = np.linalg.eigh(
        (povm.effects + povm.effects.conj().transpose(0, 2, 1)) / 2.0
    )
    scale = 1.0 + float(np.max(np.abs(w)))
    if float(w.min()) < -PSD_TOL * scale:
        raise PovmError(
            f"effect is not PSD: min eigenvalue {w.min():.3e}"
        )
    d = povm.dim
    kept = w > (rank_tol * np.maximum(w[:, -1], 1.0))[:, None]
    ranks = tuple(int(r) for r in np.count_nonzero(kept, axis=1))
    t = max(ranks, default=0)
    kept = kept[:, d - t :]
    frames = v[:, :, d - t :] * np.sqrt(np.where(kept, w[:, d - t :], 0.0))[:, None, :]
    return TpMap(d, povm.labels, frames, ranks, frame_columns(frames, kept))


def apply_tp(tp: TpMap, element: BlockHermitian) -> np.ndarray:
    """Evaluate the map on a block element, returning a d x d matrix."""
    if element.ranks != tp.ranks:
        raise ValueError(f"block ranks {element.ranks} do not match map ranks {tp.ranks}")
    return (tp.matrix @ element.to_vector()).reshape(tp.dim, tp.dim)


def verdict_from_tp(tp: TpMap, margin_factor: float = MARGIN_FACTOR) -> ExtremalityVerdict:
    """Injectivity verdict for an assembled map.

    When the domain dimension exceeds d^2 the map cannot be injective and the
    SVD is skipped; the reported kernel dimension is then the guaranteed
    lower bound domain_dim - d^2.
    """
    n = tp.domain_dim
    d2 = tp.dim * tp.dim
    if n == 0:
        raise PovmError("map has an empty domain (all effects are zero)")
    if n > d2:
        return ExtremalityVerdict(False, 0.0, n - d2, n, 0.0)
    s = np.linalg.svd(tp.matrix, compute_uv=False)
    sigma_max = float(s[0])
    threshold = margin_factor * sigma_max * max(d2, n)
    margin = float(s[-1])
    kernel_dim = int(np.count_nonzero(s <= threshold))
    return ExtremalityVerdict(kernel_dim == 0, margin, kernel_dim, n, threshold)


def is_extreme(
    povm: FinitePOVM,
    margin_factor: float = MARGIN_FACTOR,
    rank_tol: float = RANK_TOL,
    label_tol: float = LABEL_TOL,
) -> ExtremalityVerdict:
    """Decide extremality of a measurement.

    Zero effects and labels that coincide within label_tol are cleaned up
    first, so the verdict refers to the measurement's nonzero outcomes.
    """
    pruned = prune_and_merge(povm, label_tol=label_tol)
    return verdict_from_tp(build_tp_map(pruned, rank_tol), margin_factor)
