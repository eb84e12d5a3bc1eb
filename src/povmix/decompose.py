"""Decomposition of measurements into finite mixtures of extreme ones.

A non-extreme measurement P with frames S_i (S_i S_i^dag = P_i) is a peel
chain node. A deterministic walk takes P to an extreme point of its face,
E_i = S_i B_i S_i^dag with B_i >= 0 and sum_i S_i B_i S_i^dag = I, and
lambda = lambda_max(B) > 1. The split peels that point off:

    P = (1/lambda) E + (1 - 1/lambda) R,
    R_i = S_i (lambda I - B_i) S_i^dag / (lambda - 1),

a valid measurement on a proper face of P: its rank drops where B_i attains
lambda. B_i = 0 off the walk's at most d^2 live blocks, so there R_i is
P_i lambda / (lambda - 1), one common scale. The chain is Caratheodory on
the face F of the input: peel one extreme point off, continue on the
remainder, and stop once the remainder is extreme, after at most dim F + 1
leaves. The chain carries the remainder as its map, and the remainder's
walk normally starts from the point just peeled (see split_once and
_extremal_direction).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .extremality import (
    MARGIN_FACTOR,
    ExtremalityVerdict,
    TpMap,
    build_tp_map,
    frame_columns,
    pair_mask,
    verdict_from_tp,
)
from .linalg import (
    PSD_TOL,
    RANK_TOL,
    herm_coords,
    herm_matrices,
    kernel_basis,
    rank_ok,
    window_kernel,
)
from .model import (
    LABEL_TOL,
    FinitePOVM,
    PovmError,
    _born_stack,
    _check_densities,
    align_label_universe,
    prune_and_merge,
)
from .outcomes import _densities, _state_factor

# A split is rejected when max(1, 1/(lambda - 1)) * ||T(B) - I|| exceeds
# this; the children would then miss exact normalization.
RESIDUAL_TOL = 1e-9

# _saturate writes values at or below this, relative to their scale, as
# exact zeros, forcing the rank drop the step is designed for.
_CLAMP = 1e-12

# Elimination pivots on an entry above this fraction of its column's
# largest; smaller entries count as rounding and are cleared.
_PIVOT_TOL = 1e-8

DEFAULT_MAX_LEAVES = 4096

# verify_barycenter evaluates its trials in stacks whose (trials, outcomes)
# arrays hold at most this many entries (at least one trial per stack).
_CHUNK_ENTRIES = 2**13


class SplitError(RuntimeError):
    """A proposed split point is unusable (off the face, or its top
    eigenvalue not above 1)."""


@dataclass(frozen=True)
class WarmStart:
    """A parent's extreme point written on its remainder's roots.

    weights (n t), one per slot of the remainder's roots, is
    lambda_k / sigma_k on each root the split kept and 0 elsewhere; each
    root with lambda_k > 0 that the split's rank rule dropped (every root
    with sigma_k = 0 among them) comes along as one column of peeled
    (d^2, m) with weight peeled_weights[k] = lambda_k, so the weighted
    columns of both still sum to the identity's coordinates.
    """

    weights: np.ndarray
    peeled: np.ndarray
    peeled_weights: np.ndarray


@dataclass(frozen=True)
class SplitResult:
    """One peel of a measurement: P = weight_plus E + weight_minus R.

    plus_map is the leaf E's map over the live blocks of positive rank, and
    child_plus is E, formed from it; child_minus is the remainder's map, and
    warm the parent's point written on its roots."""

    weight_plus: float
    weight_minus: float
    child_plus: FinitePOVM
    plus_map: TpMap
    child_minus: TpMap
    warm: WarmStart


@dataclass(frozen=True)
class MixtureComponent:
    weight: float
    povm: FinitePOVM
    verdict: ExtremalityVerdict | None = None


@dataclass(frozen=True)
class ExtremalMixture:
    """A convex mixture over measurements, with a completeness flag.

    When complete, every component passed the extremality test; when the
    leaf budget was exhausted, the unfinished remainder is the last component,
    with its non-extreme verdict, so the mixture still reconstructs the input
    exactly. Weights are finite, non-negative and sum to 1.
    """

    dim: int
    components: tuple
    complete: bool

    def __post_init__(self):
        for i, c in enumerate(self.components):
            if not (math.isfinite(c.weight) and c.weight >= 0.0):
                raise PovmError(f"component {i} has weight {c.weight!r}, not finite and >= 0")
        total = sum(c.weight for c in self.components)
        if not abs(total - 1.0) <= 1e-12:
            raise PovmError(f"component weights sum to {total!r}, not 1 within 1e-12")
        if any(c.povm.dim != self.dim for c in self.components):
            raise PovmError("component dimension mismatch")

    @property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])


def _saturate(vals: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Values that must not go negative, clamped in place: the saturated
    factors 1 + tau*lambda, or basic weights with scale their largest.

    Entries at or below _CLAMP * scale become exact zeros; an entry below
    -_CLAMP * scale means an overshoot and raises SplitError.
    """
    low = vals.min(initial=0.0)
    if low < -_CLAMP * scale:
        raise SplitError(f"saturated value {low:.3e} is negative")
    vals[vals <= _CLAMP * scale] = 0.0
    return vals


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _live_eigh(h: np.ndarray, kept: np.ndarray):
    """eigh of a stack of Hermitian t x t blocks, live on the coordinates kept.

    h must be zero off kept. Its dead diagonal gets a value below every live
    eigenvalue (below the stack's Gershgorin bound), so the dead eigenpairs
    sort first; live marks each block's trailing count(kept) positions.
    """
    t = h.shape[-1]
    pos = np.arange(t)
    floor = -1.0 - 2.0 * float(np.abs(h).sum(axis=-1).max(initial=0.0))
    h[:, pos, pos] = np.where(kept, h[:, pos, pos], floor)
    w, u = np.linalg.eigh(h)
    return w, u, pos >= t - np.count_nonzero(kept, axis=1)[:, None]


def split_once(
    tp: TpMap, live: np.ndarray, point: tuple, rank_tol: float = RANK_TOL
) -> SplitResult:
    """Peel a point B of the face off a measurement's map: P = (1/lam) E + (1 - 1/lam) R.

    live lists the blocks where B may be nonzero, in increasing order, and
    point is B in spectral form, (u, lam) of shapes (live, t, t) and
    (live, t): B_i = u_i diag(lam_i) u_i^dag in the map's t x t blocks, its
    eigenpairs on the positions tp.kept[live] marks. u is read only on the
    kept pairs and lam on the kept positions; a point of other shapes
    raises SplitError. With v = S u and lam = max lam_ik, the leaf E,
    weight 1/lam, has frames v_k sqrt(lam_k) on the live blocks; the
    remainder R, weight 1 - 1/lam, has frames v_k sqrt(sigma_k),
    sigma_k = (lam - lam_k) / (lam - 1), on the live blocks and
    S_i sqrt(lam / (lam - 1)) on every other block. It makes no eigh, and
    no PSD decision: R is PSD by construction.

    Both children come back as maps. Column k of a live block stays in
    place, kept by the rank rule on |v_k|^2 lam_k in the leaf and on
    |v_k|^2 sigma_k in the remainder; a block whose rank falls to zero
    leaves its child, dropped by index, and columns dead in every block of
    the remainder are trimmed. The leaf's effects are formed once, from its
    map. The split raises SplitError unless lam exceeds 1 and T(B) - I, the
    leaf's effect sum minus I, is within RESIDUAL_TOL after scaling by
    max(1, 1/(lam - 1)); checking against I, not the carried T(I), also
    sees the drift of a long chain. The remainder's map carries its root
    columns: the parent's scaled by lam / (lam - 1) on every other block,
    and those of v_k scaled by sigma_k on the live ones. The warm start
    writes B on the remainder's roots.
    """
    n, d, t = tp.frames.shape
    live = np.asarray(live)
    index = live.tolist()
    if live.ndim != 1 or live.size == 0 or live.dtype.kind not in "iu" or not (
        0 <= index[0] and index[-1] < n and all(map(int.__lt__, index, index[1:]))
    ):
        raise SplitError(f"live blocks {live!r} are not increasing block indices below {n}")
    u, lam = point
    if np.shape(u) != (live.size, t, t) or np.shape(lam) != (live.size, t):
        raise SplitError(
            f"point shapes {np.shape(u)}, {np.shape(lam)} do not fit {live.size} blocks of {t}"
        )
    kept = tp.kept[live]
    v = tp.frames[live] @ np.where(pair_mask(kept), u, 0.0)
    lam = np.where(kept, lam, 0.0)
    top = float(lam.max())
    if top - 1.0 <= 1e-12 * top:
        raise SplitError(f"point's top eigenvalue {top:.3e} is not above 1")
    # Leaf and remainder eigenvalues of the live blocks, saturated.
    lam, sigma = _saturate(np.stack([lam, np.where(kept, (top - lam) / (top - 1.0), 0.0)]))
    norms = np.einsum("kdj,kdj->kj", v.conj(), v).real
    keep = rank_ok(norms * lam, rank_tol)
    leaf = keep.any(axis=1)
    labels = tuple(tp.labels[i] for i in live[leaf].tolist())
    frames = v[leaf] * np.sqrt(np.where(keep, lam, 0.0)[leaf])[:, None, :]
    plus_map = TpMap(d, labels, frames, keep[leaf])
    plus = plus_map.to_povm()
    residual = float(np.linalg.norm(plus.effects.sum(axis=0) - np.eye(d)))
    amplification = max(1.0, 1.0 / (top - 1.0))
    if amplification * residual > RESIDUAL_TOL:
        raise SplitError(
            f"point is off the face: ||T(B) - I|| = {residual:.3e} "
            f"with amplification {amplification:.3e}"
        )
    minus, warm = _remainder(tp, live, v, norms, lam, sigma, top, rank_tol)
    return SplitResult(
        weight_plus=1.0 / top,
        weight_minus=1.0 - 1.0 / top,
        child_plus=plus,
        plus_map=plus_map,
        child_minus=minus,
        warm=warm,
    )


def _remainder(tp, live, v, norms, lam, sigma, top, rank_tol):
    """The remainder's map and warm start, as split_once describes them.

    v (live, d, t) stacks the columns v_k = S_i u_k of the live blocks,
    norms (live, t) their squared norms, and lam and sigma (live, t) their
    saturated leaf and remainder eigenvalues, zero off each block's kept
    positions. Every array is written in place on the live blocks, then
    restricted to the surviving blocks and the columns some surviving block
    keeps."""
    n, d, t = tp.frames.shape
    scale = top / (top - 1.0)
    keep = rank_ok(norms * sigma, rank_tol)
    kept_sigma = np.where(keep, sigma, 0.0)
    frames = tp.frames * np.sqrt(scale)
    frames[live] = v * np.sqrt(kept_sigma)[:, None, :]
    kept = tp.kept.copy()
    kept[live] = keep
    alive = np.ones(n, dtype=bool)
    alive[live] = keep.any(axis=1)
    used = kept[alive].any(axis=0)
    labels = tp.labels if alive.all() else tuple(itertools.compress(tp.labels, alive.tolist()))
    child = TpMap(d, labels, frames[alive][:, :, used], kept[alive][:, used])
    # The roots, carried, fill the cache that TpMap.roots would compute.
    cols = frame_columns(v, np.eye(t, dtype=bool)[None].repeat(live.size, axis=0))
    cols = cols.reshape(-1, live.size, t)
    roots = tp.roots.reshape(-1, n, t) * scale
    roots[:, live] = cols * kept_sigma
    object.__setattr__(child, "roots", roots[:, alive][:, :, used].reshape(len(roots), -1))
    weights = np.zeros((n, t))
    weights[live] = np.where(keep, lam / np.where(keep, sigma, 1.0), 0.0)
    peeled = ~keep & (lam > 0.0)
    return child, WarmStart(weights[alive][:, used].reshape(-1), cols[:, peeled], lam[peeled])


def _saturating_step(h: np.ndarray, live: np.ndarray | None = None) -> np.ndarray:
    """The saturated factors 1 + tau*h of a walk direction h, zero off live.

    |tau| = 1/radius of h on live (all of h when live is None), the least
    step that zeroes a factor, and its sign puts the dominant eigenvalue on
    the negative side. That keeps each step's kernel-residual amplification
    at machine level even when h is nearly one-sided.
    """
    # min and max of a Python list: cheaper than two numpy reductions on
    # the short spectra a walk step sees
    values = (h if live is None else h[live]).tolist()
    lam_min, lam_max = min(values), max(values)
    radius = max(abs(lam_min), abs(lam_max))
    if radius <= 0.0:
        raise SplitError("kernel direction is zero")
    tau = (-1.0 if lam_max > -lam_min else 1.0) / radius
    return _saturate(1.0 + tau * h if live is None else np.where(live, 1.0 + tau * h, 0.0))


def _scalar_walk(columns: np.ndarray, scale: np.ndarray, stop: int, margin_factor: float):
    """Saturating walk on scalar coordinates: columns[:, j] carries weight scale[j].

    Each step moves along a kernel vector of the first d^2 + 1 active
    weighted columns (d^2 = rows), padded with zeros a kernel element of them
    all, and saturates it, which zeroes at least one weight and keeps the
    weighted column sum. Stops once at most stop weights are nonzero or the
    active columns are injective; returns the new weights.

    A pass makes one window_kernel call on the active weighted columns W,
    which are real: one SVD of the window, cut by margin_factor, gives z,
    the window's kernel basis followed by one kernel vector [-W^+ a_o; e_o]
    per later column a_o, all real.
    A step saturates along z's first column, h = z / c with c the weights
    relative to the pass's start. Gaussian elimination (_eliminate) then
    clears the zeroed coordinates from the other columns, so the next first
    column is supported on the next window: where windows have
    one-dimensional kernels, the steps are the per-window kernel directions.
    Before each later step, ||W z|| is checked against the pass's cut times
    ||z||, so every step moves along a checked kernel element, and a column
    that drifted past the cut starts a new pass. When z is used up, the walk
    ends if the window had full row rank: z then spanned the kernel of all
    the pass's columns, and elimination kept it spanning the kernel of the
    active ones, so they are injective. Otherwise a new pass decides.
    """
    scale = scale.copy()
    width = columns.shape[0] + 1
    z, spans = np.zeros((0, 0)), False
    for _ in range(columns.shape[1] + 16):
        if np.count_nonzero(scale) <= stop or z.shape[1] == 0 and spans:
            return scale
        if z.shape[1] == 0 or _drifted(window, z[:, 0], cut):
            sub = np.flatnonzero(scale)
            # weights relative to the pass's start; 1 where z is already zero
            rel = np.ones(sub.size)
            window = columns[:, sub] * scale[sub]
            z, cut = window_kernel(window, width, margin_factor)
            if z.shape[1] == 0:
                return scale
            # Every later column lies in the range of a window of full row rank.
            spans = sub.size - z.shape[1] == columns.shape[0]
        f = _saturating_step(z[:, 0] / rel)
        scale[sub] *= f
        zeroed = (f == 0.0).nonzero()[0]
        rel *= f
        rel[zeroed] = 1.0
        z = _eliminate(z, zeroed)
    raise SplitError("walk failed to reach an extreme point")


def _drifted(window: np.ndarray, v: np.ndarray, cut: float) -> bool:
    """Whether ||window v|| exceeds the pass's cut times ||v||."""
    r = window @ v
    return bool(r @ r > cut * cut * (v @ v))


def _eliminate(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Clear the zeroed rows from the kernel columns z after a step along z[:, 0].

    Gaussian elimination: the row where z[:, 0] is largest pivots on that
    column; each further row pivots on the first remaining column whose
    entry there is above _PIVOT_TOL of that column's largest. Pivot columns
    leave z. A pivot's row ends as exact zeros in every remaining column
    (x - (p / p) x = 0); a row with no pivot is written as zeros.
    """
    if rows.size > 1:
        rows = rows[np.argsort(-np.abs(z[rows, 0]), kind="stable")]
    k = 0
    for j in rows:
        if k is None:
            mag = np.abs(z)
            candidates = np.flatnonzero(mag[j] > _PIVOT_TOL * mag.max(axis=0, initial=0.0))
            if candidates.size == 0:
                z[j] = 0.0
                continue
            k = candidates[0]
            z = z[:, np.r_[k, :k, k + 1 : z.shape[1]]]
        z = z[:, 1:] - (z[:, :1] / z[j, 0]) * z[j, 1:]
        k = None
    return z


def _pivot(columns: np.ndarray, warm: WarmStart, d: int):
    """Simplex pivots from a warm start to a basic solution on the roots.

    The basis starts as the warm point's active columns: its roots with
    nonzero weight and its peeled columns. Phase one of the simplex method
    then minimizes the peeled weights over {c >= 0 : sum_j c_j a_j = I}:
    each pivot enters the root column of least reduced cost, and the ratio
    test picks the leaving column, peeled ones first on ties and then the
    lowest index (Bland's rule, which also picks the entering column after
    a degenerate step). Once no peeled column is left, the weights are
    solved again on the final d^2 x d^2 basis and clamped by _saturate,
    relative to the largest. Returns the weights on the columns, or None
    when the warm point is unusable: fewer than d^2 active columns, no
    column improves (or the entering one has no positive step), d^2 + 16
    pivots do not clear the peeled columns, or _saturate rejects a weight.
    """
    d2 = d * d
    m = warm.peeled_weights.size
    roots = np.flatnonzero(warm.weights)
    if roots.size + m != d2:
        return None
    # variables: peeled column k is k, root j is m + j; Bland's order
    var = np.concatenate([np.arange(m), m + roots])
    basis = np.concatenate([warm.peeled, columns[:, roots]], axis=1)
    x = np.concatenate([warm.peeled_weights, warm.weights[roots]])
    norms = np.linalg.norm(columns, axis=0)
    bland = False
    for _ in range(d2 + 16):
        cost = (var < m).astype(np.float64)
        if not cost.any():
            break
        dual = np.linalg.solve(basis.T, cost)
        reduced = -(dual @ columns)
        improving = np.flatnonzero(reduced < -1e-12 * np.linalg.norm(dual) * norms)
        if improving.size == 0:
            return None
        enter = improving[0] if bland else improving[np.argmin(reduced[improving])]
        step = np.linalg.solve(basis, columns[:, enter])
        rows = np.flatnonzero(step > _PIVOT_TOL * np.abs(step).max())
        if rows.size == 0:
            return None
        ratios = x[rows] / step[rows]
        theta = float(ratios.min())
        ties = rows[ratios <= theta + 1e-12 * max(theta, 1.0)]
        leave = ties[np.argmin(var[ties])]
        bland = theta <= 1e-12
        x = np.maximum(x - theta * step, 0.0)
        x[leave] = theta
        var[leave] = m + enter
        basis[:, leave] = columns[:, enter]
    else:
        return None
    x = np.linalg.solve(basis, herm_coords(np.eye(d)))
    try:
        _saturate(x, x.max())  # degenerate basic weights become exact zeros
    except SplitError:
        return None
    weights = np.zeros(columns.shape[1])
    weights[var - m] = x
    return weights


def _extremal_direction(
    tp: TpMap, margin_factor: float = MARGIN_FACTOR, warm: WarmStart | None = None
):
    """Walk to an extreme point of the measurement's face and return it.

    The walk runs over roots: column j of frame i, written s_ij s_ij^dag
    with weight c_ij, so that B_i = diag(c_ij) in the frame's columns.
    Starting from the measurement itself (every c_ij = 1, B_i = identity),
    it moves along kernel directions, zeroing at least one root per step,
    until the current point is extreme. It returns (live, B): the blocks
    with a live root, in increasing order, and their B_i in spectral form
    (u, lam), B_i = u_i diag(lam_i) u_i^dag, each block's eigenpairs on the
    positions tp.kept[live] marks, u zero and lam 0 elsewhere; every other
    block ends at B_i = 0. T(B) = I, so split_once peels S B S^dag off as
    one extreme component.

    Below the root the walk normally starts warm: warm, from the split that
    made this map, is the parent's extreme point written on this node's
    roots, and simplex pivots (_pivot) move it to a basic solution on the
    roots alone, one pivot per peeled root in the usual case. That replaces
    recombination and the scalar walk. The fresh walk below runs at the root
    and wherever _pivot returns None (fewer than d^2 active roots, no
    improving column, the pivot cap, or a re-solved weight below -1e-12
    relative).

    Recombination runs while more than 2(d^2 + 1) roots are active: it cuts
    them, in stack order, into 2(d^2 + 1) contiguous groups, walks the
    groups' summed columns down to at most d^2 groups and scales each root
    by its group's weight, so each round drops more than half the roots. A
    round's walk is one pass unless a kernel vector drifts: one SVD of its
    window, then elimination along the kernel (see _scalar_walk). The same
    scalar walk then runs over single roots until their columns are
    injective, which leaves at most d^2 live roots. Either start ends here,
    with injective live roots: B_i = diag(c_ij), so u = I and lam = c. If
    every live block has one live root, the point is extreme (a rank-one
    block's map column is its scalar column), and the walk ends. Otherwise
    the general walk refines the live blocks, held as one stack of t x t
    blocks: their frames, and factors G_i = diag(sqrt(c_ij)) with
    B_i = G_i G_i^dag. A step takes one SVD of the
    real map on the kept pairs of S_i G_i's live columns, sum_i |kept_i|^2
    columns, and one eigh of its first kernel vector's Hermitian stack, and
    updates G_i <- G_i U_i sqrt(1 + tau lambda_i); saturated roots become
    zero columns, dropped from the next step by mask where they stand. Each
    step kills a root, so a general walk makes at most d^2 + 1 kernel SVDs.
    A walk that stepped drops the blocks with no live root left and ends
    with one eigh of G G^dag, its live eigenpairs put back on the kept
    positions; one whose first SVD finds no kernel keeps u = I and lam = c.
    """
    n, d, t = tp.frames.shape
    d2 = d * d
    columns = tp.roots
    scale = None if warm is None else _pivot(columns, warm, d)  # c_ij
    if scale is None:
        scale = tp.kept.reshape(-1).astype(np.float64)
        while np.count_nonzero(scale) > 2 * (d2 + 1):
            active = np.flatnonzero(scale)
            bounds = np.arange(2 * d2 + 3) * active.size // (2 * (d2 + 1))
            summed = np.add.reduceat(columns[:, active] * scale[active], bounds[:-1], axis=1)
            gamma = _scalar_walk(summed, np.ones(2 * (d2 + 1)), d2, margin_factor)
            scale[active] *= np.repeat(gamma, np.diff(bounds))
        scale = _scalar_walk(columns, scale, 0, margin_factor)
    scale = scale.reshape(n, t)
    live = np.flatnonzero(scale.any(axis=1))
    weights = scale[live]
    kept = weights > 0.0
    u = np.eye(t)[None].repeat(live.size, axis=0)
    # With one live root per block the point is already extreme.
    if np.count_nonzero(kept, axis=1).max() > 1:
        # Factors G (B = G G^dag) of the live blocks, t x t. kept marks G's
        # live columns, anywhere in the block.
        pos = np.arange(t)
        factors = np.zeros((live.size, t, t), dtype=np.complex128)
        factors[:, pos, pos] = np.sqrt(weights)
        frames = tp.frames[live]
        for steps in range(tp.domain_dim + 16):
            pairs = pair_mask(kept)
            basis = kernel_basis(frame_columns(frames @ factors, pairs), margin_factor)
            if basis.shape[1] == 0:
                break
            y = np.zeros((live.size, t * t))
            y[pairs.reshape(live.size, -1)] = basis[:, 0]
            w, u, live_eig = _live_eigh(herm_matrices(y, t), kept)
            sat = _saturating_step(w, live_eig)
            factors = factors @ (u * np.sqrt(sat)[:, None, :])
            kept = sat > 0.0
        else:
            raise SplitError("walk failed to reach an extreme point")
        if steps:
            # B in spectral form on the blocks with a live root left, the
            # live eigenpairs back on the kept positions
            alive = kept.any(axis=1)
            live, factors = live[alive], factors[alive]
            b, at = factors @ _dagger(factors), tp.kept[live]
            w, vecs, on = _live_eigh((b + _dagger(b)) / 2.0, at)
            weights, u = np.zeros((live.size, t)), np.zeros_like(vecs)
            weights[at], u.swapaxes(1, 2)[at] = w[on], vecs.swapaxes(1, 2)[on]
    return live, (u, weights)


def decompose_extremal(
    povm: FinitePOVM,
    max_leaves: int = DEFAULT_MAX_LEAVES,
    margin_factor: float = MARGIN_FACTOR,
    rank_tol: float = RANK_TOL,
    label_tol: float = LABEL_TOL,
    psd_tol: float = PSD_TOL,
) -> ExtremalMixture:
    """Decompose a measurement into a finite mixture of extreme ones.

    A peel chain: while the remainder R_k (at first the input, weight 1) is
    not extreme, walk to an extreme point E_k of its face, emit E_k as a
    leaf with weight w / lambda, and continue on the remainder R_(k+1) with
    weight w (1 - 1/lambda) (see split_once). A leaf (the + child) that is
    not extreme raises SplitError. E_k has weight on the direction where
    R_(k+1) drops rank, so it lies outside the face of R_(k+1), which holds
    every later leaf: no two leaves coincide, and the chain has at most
    dim F + 1 leaves. Labels are merged and zero effects pruned once, at the
    root: children carry the root's merged labels, which are pairwise
    distinct. Only the root gets a map built from effects, with psd_tol as
    its PSD rule: each split hands back the leaf's map, which gives the +
    verdict, the leaf formed from it, emitted as it comes, the remainder's
    map, and the warm start of its walk; a remainder's effects are formed
    once it is the last leaf. Once
    max_leaves - 1 leaves are peeled, the remainder is emitted with its
    non-extreme verdict and the mixture is flagged incomplete; the convex
    reconstruction identity holds either way.
    """
    leaves = []
    weight = 1.0
    node = prune_and_merge(povm, label_tol)
    tp, warm = build_tp_map(node, rank_tol, psd_tol), None
    while True:
        verdict = verdict_from_tp(tp, margin_factor)
        if verdict.is_extreme or len(leaves) >= max_leaves - 1:
            break
        try:
            live, point = _extremal_direction(tp, margin_factor, warm)
            split = split_once(tp, live, point, rank_tol)
        except SplitError as exc:
            raise SplitError(f"split failed at leaf {len(leaves)}: {exc}") from exc
        plus_verdict = verdict_from_tp(split.plus_map, margin_factor)
        if not plus_verdict.is_extreme:
            raise SplitError(
                f"split failed at leaf {len(leaves)}: the + child is not extreme "
                f"(margin {plus_verdict.margin:.3e}, threshold {plus_verdict.threshold:.3e})"
            )
        leaves.append(MixtureComponent(weight * split.weight_plus, split.child_plus, plus_verdict))
        weight *= split.weight_minus
        tp, warm = split.child_minus, split.warm
    # a remainder's effects are formed once, as the last leaf
    leaves.append(MixtureComponent(weight, tp.to_povm() if leaves else node, verdict))
    return ExtremalMixture(povm.dim, tuple(leaves), verdict.is_extreme)


@dataclass(frozen=True)
class BarycenterReport:
    """Agreement between a measurement and a mixture claiming to realize it."""

    trials: int
    max_functional_residual: float
    effect_residual: float
    weight_sum: float

    def within(self, tol: float = 1e-8) -> bool:
        return (
            self.max_functional_residual < tol and self.effect_residual < tol
        )


def verify_barycenter(
    povm: FinitePOVM,
    mixture: ExtremalMixture,
    trials: int = 64,
    seed: int = 0,
    label_tol: float = LABEL_TOL,
) -> BarycenterReport:
    """Check that the mixture reproduces the measurement's statistics.

    Draws random (state, outcome function) pairs, alternating pure and mixed
    states, and compares the expectation functional of the measurement with
    the weighted sum over components; also reports the effect-wise max-norm
    residual of the convex recombination. The labels of the measurement and
    of every leaf are aligned once, and both checks read that alignment.
    """
    if trials < 1:
        raise PovmError(f"trials must be >= 1, got {trials}")
    if mixture.dim != povm.dim:
        raise PovmError(f"mixture dim {mixture.dim} != measurement dim {povm.dim}")
    pairs = [(c.weight, c.povm) for c in mixture.components]
    label_lists = [povm.labels] + [p.labels for _, p in pairs]
    universe, (own_map, *leaf_maps) = align_label_universe(label_lists, label_tol)
    # All leaf effects as one stack, so each chunk of trials takes one Born
    # evaluation that still clamps or rejects every entry.
    effects = np.concatenate([p.effects for _, p in pairs])
    stacked_map = np.concatenate(leaf_maps)
    stacked_weight = np.concatenate([np.full(p.n_outcomes, w) for w, p in pairs])
    # One signed sum over the labelled stack (-w_k E_k) u P, leaves first, so
    # each entry rounds as the recombination minus the measurement.
    residual = np.zeros((len(universe), povm.dim, povm.dim), dtype=np.complex128)
    np.add.at(
        residual,
        np.concatenate([stacked_map, own_map]),
        np.concatenate([-stacked_weight[:, None, None] * effects, povm.effects]),
    )
    effect_residual = float(np.max(np.abs(residual)))
    rng = np.random.default_rng(seed)
    worst = 0.0
    chunk = max(1, _CHUNK_ENTRIES // len(effects))
    for start in range(0, trials, chunk):
        # gen_random_state's draw, then the outcome values, trial by trial
        factors, values = [], []
        for t in range(start, min(start + chunk, trials)):
            factors.append(_state_factor(rng, povm.dim, pure=(t % 2 == 0)))
            values.append(rng.standard_normal(len(universe)))
        states = _densities(np.array(factors))
        _check_densities(states)
        values = np.array(values)
        lhs = np.einsum("tk,tk->t", values[:, own_map], _born_stack(states, povm.effects))
        leaf_values = values[:, stacked_map] * stacked_weight
        rhs = np.einsum("tk,tk->t", leaf_values, _born_stack(states, effects))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return BarycenterReport(
        trials=trials,
        max_functional_residual=worst,
        effect_residual=effect_residual,
        weight_sum=float(sum(w for w, _ in pairs)),
    )
