"""Extremality of finite measurements via injectivity of a sandwich map.

A measurement {P_i} is extreme in the convex set of measurements exactly when
the linear map

    T: (A_1, ..., A_k) -> sum_i S_i A_i S_i^dag,   S_i = sqrt(P_i) restricted
                                                    to the range of P_i,

is injective on Hermitian A_i acting on the r_i-dimensional range of P_i.
The map is assembled as a real d^2 x (sum_i r_i^2) matrix in Hermitian
coordinates (see frame_columns), and injectivity is decided by its
smallest singular value against a relative threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PSD_TOL, RANK_TOL, herm_basis
from .model import LABEL_TOL, FinitePOVM, PovmError, prune_and_merge

# Verdict threshold: non-extreme when the smallest singular value is at or
# below MARGIN_FACTOR * sigma_max * max(d^2, sum r_i^2).
MARGIN_FACTOR = 1e-10


@dataclass(frozen=True)
class TpMap:
    """The assembled sandwich map of a measurement.

    frames is one (n, d, t) stack, t the largest rank: S_i (d x r_i) fills
    the trailing r_i columns of frames[i] and the t - r_i columns in front
    are zero. Its real d^2 x sum r_i^2 matrix is frame_columns(frames, kept).

    An element of the domain is a Hermitian (n, t, t) stack in the frames'
    coordinates, block i in the window pair_mask(kept)[i], zeros elsewhere.
    """

    dim: int
    labels: tuple
    frames: np.ndarray
    ranks: tuple

    @property
    def domain_dim(self) -> int:
        return int(np.dot(self.ranks, self.ranks))

    @property
    def kept(self) -> np.ndarray:
        """(n, t) mask of each frame's trailing r_i columns."""
        t = self.frames.shape[2]
        return np.arange(t) >= t - np.array(self.ranks, dtype=int)[:, None]


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


def pair_mask(kept: np.ndarray) -> np.ndarray:
    """(n, t, t) mask of the pairs (j, k) with both columns kept, per block."""
    return kept[:, :, None] & kept[:, None, :]


def frame_columns(frames: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Real map columns of a padded frame stack (n, d, t): the Hermitian
    coordinates of S_i B_jk S_i^dag, B the basis of linalg.herm_basis (Q).
    Block i is Q_d M_i Q_t^dag, M_i its complex map, with M_i's singular values.

    kept (n, t) marks each frame's live columns. The result is d^2 x
    sum_i |kept_i|^2: blocks in stack order, (j, k) row-major over each
    block's kept pairs.
    """
    n, d, t = frames.shape
    sandwich = np.einsum("iap,ibq->abipq", frames, frames.conj()).reshape(d * d * n, t * t)
    blocks = (sandwich @ herm_basis(t).conj().T).reshape(d * d, n * t * t)
    return (herm_basis(d) @ blocks).real[:, pair_mask(kept).reshape(-1)]


def build_tp_map(povm: FinitePOVM, rank_tol: float = RANK_TOL) -> TpMap:
    """Assemble the sandwich map of a measurement.

    Each frame S_i is sqrt(P_i) restricted to the numerical range of P_i,
    computed directly from the eigendecomposition (eigenvectors above the
    relative rank cutoff, scaled by sqrt of their eigenvalues). Eigenvalues
    come ascending, so the kept ones are a suffix: the frame stack is the
    trailing t eigenvectors, the dropped ones scaled to zero columns in
    front; zero effects contribute none.
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
    counts = np.count_nonzero(kept, axis=1)
    t = int(counts.max(initial=0))
    kept = kept[:, d - t :]
    frames = v[:, :, d - t :] * np.sqrt(np.where(kept, w[:, d - t :], 0.0))[:, None, :]
    return TpMap(d, povm.labels, frames, tuple(counts.tolist()))


def apply_tp(tp: TpMap, element: np.ndarray) -> np.ndarray:
    """Evaluate the map on an (n, t, t) element's windows, returning a d x d matrix."""
    n, _, t = tp.frames.shape
    if np.shape(element) != (n, t, t):
        raise ValueError(f"element shape {np.shape(element)} does not match stack {(n, t, t)}")
    return (tp.frames @ element @ tp.frames.conj().transpose(0, 2, 1)).sum(axis=0)


def verdict_from_tp(tp: TpMap, margin_factor: float = MARGIN_FACTOR) -> ExtremalityVerdict:
    """Injectivity verdict for an assembled map.

    When the domain dimension exceeds d^2 the map cannot be injective and the
    real matrix is neither built nor factored; the reported kernel dimension
    is then the guaranteed lower bound domain_dim - d^2.
    """
    n = tp.domain_dim
    d2 = tp.dim * tp.dim
    if n == 0:
        raise PovmError("map has an empty domain (all effects are zero)")
    if n > d2:
        return ExtremalityVerdict(False, 0.0, n - d2, n, 0.0)
    s = np.linalg.svd(frame_columns(tp.frames, tp.kept), compute_uv=False)
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
