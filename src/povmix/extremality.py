"""Extremality of finite measurements via injectivity of a sandwich map.

A measurement {P_i} is extreme in the convex set of measurements exactly when
the linear map

    T: (A_1, ..., A_k) -> sum_i S_i A_i S_i^dag,   S_i S_i^dag = P_i,

is injective on Hermitian r_i x r_i blocks A_i, for any d x r_i factors S_i
of full column rank r_i = rank(P_i). Two such factors of one effect differ
by a unitary, which the map's domain absorbs, so the verdict does not
depend on the factors chosen.
The map is assembled as a real d^2 x (sum_i r_i^2) matrix in Hermitian
coordinates (see frame_columns), and injectivity is decided by its
smallest singular value against a relative threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import PSD_TOL, RANK_TOL, herm_coords, psd_ok, rank_ok
from .model import LABEL_TOL, FinitePOVM, PovmError, prune_and_merge

# Verdict threshold: non-extreme when the smallest singular value is at or
# below MARGIN_FACTOR * sigma_max * max(d^2, sum r_i^2).
MARGIN_FACTOR = 1e-10


@dataclass(frozen=True, eq=False)
class TpMap:
    """The assembled sandwich map of a measurement.

    frames is one (n, d, t) stack and kept its (n, t) mask: the kept
    columns of frames[i] are a full-rank factor S_i (d x r_i) of
    P_i = S_i S_i^dag, in any positions, and every other column is zero.
    build_tp_map takes the eigenframe of sqrt(P_i), which fills the
    trailing r_i columns; a split's children carry other factors, each
    column written in place (decompose.split_once). Its real map matrix is
    frame_columns(frames, pair_mask(kept)). ranks, an int array, and
    domain_dim = sum r_i^2 are computed once from kept, on construction.

    An element of the domain is a Hermitian (n, t, t) stack in the frames'
    coordinates, block i on the pairs pair_mask(kept)[i], zeros elsewhere.
    """

    dim: int
    labels: tuple
    frames: np.ndarray
    kept: np.ndarray = field(repr=False)
    ranks: np.ndarray = field(init=False)
    domain_dim: int = field(init=False)

    def __post_init__(self):
        ranks = np.count_nonzero(self.kept, axis=1)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "domain_dim", int(ranks @ ranks))

    @cached_property
    def roots(self) -> np.ndarray:
        """Real columns (d^2, n t) of the roots s_ij s_ij^dag, slot (i, j) at
        column i t + j: the diagonal pairs of every slot, zero where dead.
        A remainder's map comes with them (split_once)."""
        n, _, t = self.frames.shape
        return frame_columns(self.frames, np.broadcast_to(np.eye(t, dtype=bool), (n, t, t)))

    def to_povm(self) -> FinitePOVM:
        """The measurement with effects S_i S_i^dag, formed from the frames."""
        e = self.frames @ self.frames.conj().swapaxes(1, 2)
        e = (e + e.conj().swapaxes(1, 2)) / 2.0
        return FinitePOVM._with_normal_labels(self.dim, self.labels, e)


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


def frame_columns(frames: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Real map columns of a padded frame stack (n, d, t) over the pairs in use.

    One column per pair (i, p, q) that pairs (n, t, t) marks, row-major: the
    Hermitian coordinates of S_i B_pq S_i^dag (B of linalg.herm_basis), the
    Hermitian part of c_pq s_ip s_iq^dag with c = 1, sqrt(2) and -i sqrt(2)
    for p = q, p < q and p > q. The result is d^2 x count(pairs).
    """
    i, p, q = np.nonzero(pairs)
    left = frames[i, :, p]
    off = p != q
    if off.any():  # diagonal pairs, such as the scalar walk's, skip the scaling
        left[off] *= np.where(p[off] < q[off], np.sqrt(2.0), -1j * np.sqrt(2.0))[:, None]
    return herm_coords(left[:, :, None] @ frames[i, None, :, q].conj()).T


def build_tp_map(povm: FinitePOVM, rank_tol: float = RANK_TOL, psd_tol: float = PSD_TOL) -> TpMap:
    """Assemble the sandwich map of a measurement: one eigh of every effect.

    Each frame S_i is sqrt(P_i) restricted to the numerical range of P_i:
    the eigenvectors with eigenvalue above rank_tol * max(w_max, 1), scaled
    by the square roots of their eigenvalues. Eigenvalues come ascending, so
    the kept ones are a suffix: the frame stack is the trailing t
    eigenvectors, t the largest rank, the dropped ones scaled to zero
    columns in front; zero effects contribute none. An effect whose
    spectrum fails psd_ok at psd_tol raises PovmError.
    """
    effects = povm.effects
    w, v = np.linalg.eigh((effects + effects.conj().transpose(0, 2, 1)) / 2.0)
    off = np.flatnonzero(~psd_ok(w, psd_tol))
    if off.size:
        raise PovmError(f"effect is not PSD: min eigenvalue {w[off[0], 0]:.3e}")
    d = povm.dim
    kept = rank_ok(w, rank_tol)
    t = int(np.count_nonzero(kept, axis=1).max(initial=0))
    kept = kept[:, d - t :]
    frames = v[:, :, d - t :] * np.sqrt(np.where(kept, w[:, d - t :], 0.0))[:, None, :]
    return TpMap(d, povm.labels, frames, kept)


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
    s = np.linalg.svd(frame_columns(tp.frames, pair_mask(tp.kept)), compute_uv=False)
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
    psd_tol: float = PSD_TOL,
) -> ExtremalityVerdict:
    """Decide extremality of a measurement.

    Zero effects and labels that coincide within label_tol are cleaned up
    first, so the verdict refers to the measurement's nonzero outcomes.
    """
    pruned = prune_and_merge(povm, label_tol=label_tol)
    return verdict_from_tp(build_tp_map(pruned, rank_tol, psd_tol), margin_factor)
