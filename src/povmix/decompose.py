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
leaves.
"""

from __future__ import annotations

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
from .linalg import RANK_TOL, herm_coords, herm_matrices, kernel_basis, window_kernel
from .model import (
    LABEL_TOL,
    PRUNE_TOL,
    FinitePOVM,
    PovmError,
    _born_stack,
    _check_densities,
    _prune,
    align_label_universe,
    prune_and_merge,
)
from .outcomes import _densities, _state_factor

# A split is rejected when max(1, 1/(lambda - 1)) * ||T(B) - T(I)|| exceeds
# this; the children would then miss exact normalization.
RESIDUAL_TOL = 1e-9

# Eigenvalues of the saturated block factors with |x| at or below this are
# written as exact zeros, forcing the rank drop the step is designed for.
_CLAMP = 1e-12

# Elimination pivots on an entry above this fraction of its column's
# largest; smaller entries count as rounding and are cleared.
_PIVOT_TOL = 1e-8

DEFAULT_MAX_LEAVES = 4096

# verify_barycenter evaluates its trials in stacks of at most this many, so
# its (trials, outcomes) arrays stay small.
_TRIAL_CHUNK = 8


class SplitError(RuntimeError):
    """A proposed split point is unusable (off the face, or its top
    eigenvalue not above 1)."""


@dataclass(frozen=True)
class SplitResult:
    """One peel of a measurement: P = weight_plus E + weight_minus R.

    child_plus is the leaf E, over the split's live blocks only; child_minus
    is the remainder R, over every block of the parent."""

    weight_plus: float
    weight_minus: float
    child_plus: FinitePOVM
    child_minus: FinitePOVM


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


def _saturate(vals: np.ndarray) -> np.ndarray:
    """Saturated factor eigenvalues, such as 1 + tau*lambda, clamped in place.

    Entries at or below _CLAMP become exact zeros; an entry below -_CLAMP
    means the step overshot and raises SplitError.
    """
    low = vals.min(initial=0.0)
    if low < -_CLAMP:
        raise SplitError(f"saturated factor has negative eigenvalue {low:.3e}")
    vals[vals <= _CLAMP] = 0.0
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
    povm: FinitePOVM, live: np.ndarray, point: np.ndarray, tp: TpMap | None = None
) -> SplitResult:
    """Peel a point B of the face off: P = (1/lam) E + (1 - 1/lam) R.

    live lists the blocks where B may be nonzero, in increasing order, and
    point stacks their B_i, each in the trailing r_i x r_i window of an s x s
    block (s the largest rank of a live block), read only on that window; a
    point of another shape raises SplitError. With lam = lambda_max(B), the
    leaf E = S B S^dag over the live blocks has weight 1/lam, and the
    remainder R, weight 1 - 1/lam, is S (lam I - B) S^dag / (lam - 1) on the
    live blocks and P_i lam / (lam - 1) on every other block. The split
    raises SplitError unless lam exceeds 1 and T(B) = T(I) up to
    RESIDUAL_TOL after scaling by max(1, 1/(lam - 1)). It takes one eigh,
    of the live blocks.
    """
    if tp is None:
        tp = build_tp_map(povm)
    n, d, t = tp.frames.shape
    live = np.asarray(live)
    if live.ndim != 1 or live.size == 0 or live.dtype.kind not in "iu" or not (
        0 <= live[0] and live[-1] < n and np.all(np.diff(live) > 0)
    ):
        raise SplitError(f"live blocks {live!r} are not increasing block indices below {n}")
    s = int(np.array(tp.ranks)[live].max())
    if np.shape(point) != (live.size, s, s):
        raise SplitError(
            f"point shape {np.shape(point)} does not match live stack {(live.size, s, s)}"
        )
    kept = tp.kept[live, t - s :]
    frames = tp.frames[live, :, t - s :]
    x = np.where(pair_mask(kept), point, 0j)
    x = (x + _dagger(x)) / 2.0
    # T(B) - T(I), with T(I) = sum_i S_i S_i^dag over every block
    offset = (frames @ x @ _dagger(frames)).sum(axis=0) - np.tensordot(
        tp.frames, tp.frames.conj(), axes=([0, 2], [0, 2])
    )
    lam, u, on = _live_eigh(x, kept)
    top = float(lam[on].max(initial=0.0))
    if top - 1.0 <= 1e-12 * top:
        raise SplitError(f"point's top eigenvalue {top:.3e} is not above 1")
    residual = float(np.linalg.norm(offset))
    amplification = max(1.0, 1.0 / (top - 1.0))
    if amplification * residual > RESIDUAL_TOL:
        raise SplitError(
            f"point is off the face: ||T(B) - T(I)|| = {residual:.3e} "
            f"with amplification {amplification:.3e}"
        )
    # Leaf and remainder factors U diag(.) U^dag of the live blocks, stacked.
    sat = np.stack([np.where(on, lam, 0.0), np.where(on, (top - lam) / (top - 1.0), 0.0)])
    m = (u * _saturate(sat)[:, :, None, :]) @ _dagger(u)
    e = frames @ ((m + _dagger(m)) / 2.0) @ _dagger(frames)
    leaf, near = (e + _dagger(e)) / 2.0
    far = povm.effects * (top / (top - 1.0))
    far[live] = near
    labels = tuple(tp.labels[i] for i in live.tolist())
    return SplitResult(
        weight_plus=1.0 / top,
        weight_minus=1.0 - 1.0 / top,
        child_plus=FinitePOVM._with_normal_labels(d, labels, leaf),
        child_minus=FinitePOVM._with_normal_labels(d, tp.labels, far),
    )


def _saturating_step(lam: np.ndarray):
    """Step length tau and whether to flip a walk direction with spectrum lam.

    The flip puts the dominant eigenvalue on the negative side. The
    saturating step is then tau = 1/radius, the smallest possible, which
    keeps each step's kernel-residual amplification at machine level even
    when the direction is nearly one-sided.
    """
    # min and max of a Python list: cheaper than two numpy reductions on
    # the short spectra a walk step sees
    values = lam.tolist()
    lam_min, lam_max = min(values), max(values)
    radius = max(abs(lam_min), abs(lam_max))
    if radius <= 0.0:
        raise SplitError("kernel direction is zero")
    return 1.0 / radius, lam_max > -lam_min


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
        h = z[:, 0] / rel
        tau, flip = _saturating_step(h)
        f = _saturate(1.0 - tau * h if flip else 1.0 + tau * h)
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


def _extremal_direction(tp: TpMap, margin_factor: float = MARGIN_FACTOR):
    """Walk to an extreme point of the measurement's face and return it.

    The walk runs over roots: column j of frame i, written s_ij s_ij^dag
    with weight c_ij, so that B_i = diag(c_ij) in the frame's eigenbasis.
    Starting from the measurement itself (every c_ij = 1, B_i = identity),
    it moves along kernel directions, zeroing at least one root per step,
    until the current point is extreme. It returns (live, B): the blocks
    with a live root, in increasing order, and their B_i, each in the
    trailing r_i x r_i window of one s x s block (s the largest live rank);
    every other block ends at B_i = 0. T(B) = T(I), so split_once peels
    S B S^dag off as one extreme component.

    Recombination runs while more than 2(d^2 + 1) roots are active: it cuts
    them, in stack order, into 2(d^2 + 1) contiguous groups, walks the
    groups' summed columns down to at most d^2 groups and scales each root
    by its group's weight, so each round drops more than half the roots. A
    round's walk is one pass unless a kernel vector drifts: one SVD of its
    window, then elimination along the kernel (see _scalar_walk). The same
    scalar walk then runs over single roots until their columns are
    injective, which leaves at most d^2 live roots. The live blocks are held
    as one stack of s x s blocks: the trailing s columns of the map's frame
    stack, and factors G_i = diag(sqrt(c_ij)) with B_i = G_i G_i^dag. If
    every live block has one live root, the point is extreme (a rank-one
    block's map column is its scalar column), and the walk ends. Otherwise
    the general walk refines the live blocks. A step takes one SVD of the
    real map with the live columns of S_i G_i and one eigh of its first
    kernel vector's Hermitian stack, and updates
    G_i <- G_i U_i sqrt(1 + tau lambda_i); saturated roots become zero
    columns, dropped from the next step by mask where they stand. Each step
    kills a root, so a general walk makes at most d^2 + 1 kernel SVDs.
    """
    n, d, t = tp.frames.shape
    d2 = d * d
    # Root s_ij as an (n t, d, 1) stack, dead slots as zero columns.
    roots = tp.frames.swapaxes(1, 2).reshape(n * t, d, 1)
    columns = herm_coords(roots @ _dagger(roots)).T
    scale = tp.kept.reshape(-1).astype(np.float64)  # c_ij
    while np.count_nonzero(scale) > 2 * (d2 + 1):
        active = np.flatnonzero(scale)
        bounds = np.arange(2 * d2 + 3) * active.size // (2 * (d2 + 1))
        summed = np.add.reduceat(columns[:, active] * scale[active], bounds[:-1], axis=1)
        gamma = _scalar_walk(summed, np.ones(2 * (d2 + 1)), d2, margin_factor)
        scale[active] *= np.repeat(gamma, np.diff(bounds))
    scale = _scalar_walk(columns, scale, 0, margin_factor).reshape(n, t)
    live = np.flatnonzero(scale.any(axis=1))
    s = int(np.array(tp.ranks)[live].max())
    # Factors G (B = G G^dag) of the live blocks, s x s. kept marks G's live
    # columns, anywhere in the block.
    weights = scale[live, t - s :]
    kept = weights > 0.0
    pos = np.arange(s)
    factors = np.zeros((live.size, s, s), dtype=np.complex128)
    factors[:, pos, pos] = np.sqrt(weights)
    # With one live root per block the point is already extreme.
    if np.count_nonzero(kept, axis=1).max() > 1:
        frames = tp.frames[live, :, t - s :]
        for _ in range(tp.domain_dim + 16):
            basis = kernel_basis(frame_columns(frames @ factors, kept), margin_factor)
            if basis.shape[1] == 0:
                break
            y = np.zeros((live.size, s * s))
            y[pair_mask(kept).reshape(live.size, -1)] = basis[:, 0]
            w, u, live_eig = _live_eigh(herm_matrices(y, s), kept)
            tau, flip = _saturating_step(w[live_eig])
            if flip:
                w = -w
            sat = _saturate(np.where(live_eig, 1.0 + tau * w, 0.0))
            factors = factors @ (u * np.sqrt(sat)[:, None, :])
            kept = sat > 0.0
        else:
            raise SplitError("walk failed to reach an extreme point")
    return live, factors @ _dagger(factors)


def decompose_extremal(
    povm: FinitePOVM,
    max_leaves: int = DEFAULT_MAX_LEAVES,
    margin_factor: float = MARGIN_FACTOR,
    rank_tol: float = RANK_TOL,
    label_tol: float = LABEL_TOL,
) -> ExtremalMixture:
    """Decompose a measurement into a finite mixture of extreme ones.

    A peel chain: while the remainder R_k (at first the input, weight 1) is
    not extreme, walk to an extreme point E_k of its face, emit E_k as a
    leaf with weight w / lambda, and continue on the remainder R_(k+1) with
    weight w (1 - 1/lambda) (see split_once). A leaf (the + child) that is
    not extreme raises SplitError. E_k has weight on the direction where
    R_(k+1) drops rank, so it lies outside the face of R_(k+1), which holds
    every later leaf: no two leaves coincide, and the chain has at most
    dim F + 1 leaves. Labels are merged once, at the root: children carry the root's
    merged labels, which are pairwise distinct, so below the root only
    effects with trace at or below PRUNE_TOL are dropped. Once
    max_leaves - 1 leaves are peeled, the remainder is emitted with its
    non-extreme verdict and the mixture is flagged incomplete; the convex
    reconstruction identity holds either way.
    """
    leaves = []
    weight = 1.0
    node = prune_and_merge(povm, label_tol)
    while True:
        tp = build_tp_map(node, rank_tol)
        verdict = verdict_from_tp(tp, margin_factor)
        if verdict.is_extreme or len(leaves) >= max_leaves - 1:
            break
        try:
            split = split_once(node, *_extremal_direction(tp, margin_factor), tp)
        except SplitError as exc:
            raise SplitError(f"split failed at leaf {len(leaves)}: {exc}") from exc
        plus = split.child_plus
        plus = _prune(plus.dim, plus.labels, plus.effects, PRUNE_TOL)
        plus_verdict = verdict_from_tp(build_tp_map(plus, rank_tol), margin_factor)
        if not plus_verdict.is_extreme:
            raise SplitError(
                f"split failed at leaf {len(leaves)}: the + child is not extreme "
                f"(margin {plus_verdict.margin:.3e}, threshold {plus_verdict.threshold:.3e})"
            )
        leaves.append(MixtureComponent(weight * split.weight_plus, plus, plus_verdict))
        weight *= split.weight_minus
        minus = split.child_minus
        node = _prune(minus.dim, minus.labels, minus.effects, PRUNE_TOL)
    leaves.append(MixtureComponent(weight, node, verdict))
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
    own = np.zeros((len(universe), povm.dim, povm.dim), dtype=np.complex128)
    recombined = np.zeros_like(own)
    np.add.at(own, own_map, povm.effects)
    np.add.at(recombined, stacked_map, stacked_weight[:, None, None] * effects)
    effect_residual = float(np.max(np.abs(own - recombined)))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for start in range(0, trials, _TRIAL_CHUNK):
        # gen_random_state's draw, then the outcome values, trial by trial
        factors, values = [], []
        for t in range(start, min(start + _TRIAL_CHUNK, trials)):
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
