"""Decomposition of measurements into finite mixtures of extreme ones.

A non-extreme measurement P is split along a Hermitian kernel element D of
its sandwich map: the children P(+-)_i = S_i (1 +- tau_(+-) D_i) S_i^dag with
tau_+ = 1/|lambda_min(D)| and tau_- = 1/lambda_max(D) are valid measurements,
each with strictly smaller rank profile, and

    P = w_+ P_+ + w_- P_-,   w_+ = tau_- / (tau_+ + tau_-),
                             w_- = tau_+ / (tau_+ + tau_-).

The kernel element fed to each split comes from a deterministic walk to an
extreme point of the current face, so the + child is that extreme point and
the - child lies on a proper face of P. The decomposition is therefore a
peel chain, Caratheodory on the face F of the input: peel one extreme point
off, continue on the remainder, and stop once the remainder is extreme,
after at most dim F + 1 leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extremality import (
    MARGIN_FACTOR,
    BlockHermitian,
    ExtremalityVerdict,
    TpMap,
    apply_tp,
    build_tp_map,
    frame_columns,
    verdict_from_tp,
)
from .linalg import RANK_TOL, kernel_basis
from .model import (
    LABEL_TOL,
    PRUNE_TOL,
    FinitePOVM,
    PovmError,
    _prune,
    align_label_universe,
    born_probabilities,
    prune_and_merge,
)
from .outcomes import gen_random_state

# A split is rejected when max(tau) * ||T_P(D)|| exceeds this; the children
# would then miss exact normalization.
RESIDUAL_TOL = 1e-9

# Eigenvalues of the saturated block factors with |x| at or below this are
# written as exact zeros, forcing the rank drop the step is designed for.
_CLAMP = 1e-12

# When picking the Hermitian part of a kernel vector, fall back to the
# anti-Hermitian part once the Hermitian part's norm drops below this.
_HERM_PREFERENCE = 1e-6

DEFAULT_MAX_LEAVES = 4096


class SplitError(RuntimeError):
    """A proposed split direction is unusable (not a kernel element, or
    one-sided spectrum)."""


@dataclass(frozen=True)
class SplitResult:
    """One convex split of a measurement along a kernel element."""

    weight_plus: float
    weight_minus: float
    tau_plus: float
    tau_minus: float
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
    """Saturated factor eigenvalues 1 + tau*lambda, clamped in place.

    Entries with |x| <= _CLAMP become exact zeros; a negative entry means
    the step overshot and raises SplitError.
    """
    vals[np.abs(vals) <= _CLAMP] = 0.0
    if np.any(vals < 0.0):
        raise SplitError(f"saturated factor has negative eigenvalue {vals.min():.3e}")
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
    povm: FinitePOVM,
    element: BlockHermitian,
    tp: TpMap | None = None,
    rank_tol: float = RANK_TOL,
    residual_tol: float = RESIDUAL_TOL,
) -> SplitResult:
    """Split a measurement along a Hermitian kernel element of its map.

    The element must have both positive and negative eigenvalues and must
    actually annihilate under the map (up to residual_tol after scaling by
    the saturation parameters); either failure raises SplitError. The
    blocks are padded into one stack, each in the trailing window of its
    map frame, and split with one eigh of that stack.
    """
    if tp is None:
        tp = build_tp_map(povm, rank_tol)
    if element.ranks != tp.ranks:
        raise SplitError(
            f"element ranks {element.ranks} do not match map ranks {tp.ranks}"
        )
    if tp.domain_dim == 0:
        raise SplitError("element is empty")
    n, d, t = tp.frames.shape
    kept = np.arange(t) >= t - np.array(tp.ranks)[:, None]
    x = np.zeros((n, t, t), dtype=np.complex128)
    x[kept[:, :, None] & kept[:, None, :]] = element.to_vector()
    lam, u, live = _live_eigh((x + _dagger(x)) / 2.0, kept)
    lam_min = float(lam[live].min())
    lam_max = float(lam[live].max())
    radius = max(abs(lam_min), abs(lam_max))
    if radius <= 0.0:
        raise SplitError("element is zero")
    side_tol = 1e-12 * radius
    if lam_max <= side_tol or lam_min >= -side_tol:
        raise SplitError(
            f"element spectrum is one-sided (min {lam_min:.3e}, max {lam_max:.3e}); "
            "kernel elements of a normalized measurement have both signs"
        )
    tau_plus = 1.0 / abs(lam_min)
    tau_minus = 1.0 / lam_max
    residual = float(np.linalg.norm(apply_tp(tp, element)))
    if max(tau_plus, tau_minus) * residual > residual_tol:
        raise SplitError(
            f"element is not in the kernel: ||T(D)|| = {residual:.3e} "
            f"with tau = {max(tau_plus, tau_minus):.3e}"
        )
    children = []
    for tau, sign in ((tau_plus, 1.0), (tau_minus, -1.0)):
        # Child effects S_i U_i diag(1 + sign*tau*lambda_i) U_i^dag S_i^dag.
        sat = _saturate(np.where(live, 1.0 + sign * tau * lam, 0.0))
        m = (u * sat[:, None, :]) @ _dagger(u)
        e = tp.frames @ ((m + _dagger(m)) / 2.0) @ _dagger(tp.frames)
        children.append(FinitePOVM._with_normal_labels(d, tp.labels, (e + _dagger(e)) / 2.0))
    total = tau_plus + tau_minus
    return SplitResult(
        weight_plus=tau_minus / total,
        weight_minus=tau_plus / total,
        tau_plus=tau_plus,
        tau_minus=tau_minus,
        child_plus=children[0],
        child_minus=children[1],
    )


def _kernel_vector(matrix: np.ndarray, margin_factor: float):
    """First kernel vector of one walk step's map, cut by the verdict's own
    rule (margin_factor); None when the map is injective."""
    if matrix.shape[1] == 0:
        raise SplitError("walk emptied the measurement")
    basis = kernel_basis(matrix, margin_factor)
    return basis[:, 0] if basis.shape[1] else None


def _saturating_step(lam: np.ndarray):
    """Step length tau and whether to flip a walk direction with spectrum lam.

    The flip puts the dominant eigenvalue on the negative side. The
    saturating step is then tau = 1/radius, the smallest possible, which
    keeps each step's kernel-residual amplification at machine level even
    when the direction is nearly one-sided.
    """
    lam_min, lam_max = float(lam.min()), float(lam.max())
    radius = max(abs(lam_min), abs(lam_max))
    if radius <= 0.0:
        raise SplitError("kernel direction is zero")
    return 1.0 / radius, lam_max > -lam_min


def _hermitian_part(x: np.ndarray) -> np.ndarray:
    """(x + x^dag)/2 of a stack of kernel blocks, else (x - x^dag)/2i; the
    kernel is closed under ^dag, so both lie in it (on 1 x 1 blocks: Re, Im)."""
    h = (x + _dagger(x)) / 2.0
    if np.linalg.norm(h) <= _HERM_PREFERENCE:
        h = (x - _dagger(x)) / 2.0j
    return h


def _scalar_walk(columns: np.ndarray, scale: np.ndarray, stop: int, margin_factor: float):
    """Saturating walk on scalar coordinates: columns[:, j] carries weight scale[j].

    Each step takes a kernel vector of the first d^2 + 1 active weighted
    columns (d^2 = rows), padded with zeros a kernel element of them all,
    and saturates it, which zeroes at least one weight and keeps the
    weighted column sum. Stops once at most stop weights are nonzero or the
    active columns are injective; returns the new weights.
    """
    scale = scale.copy()
    width = columns.shape[0] + 1
    for _ in range(columns.shape[1] + 16):
        active = np.flatnonzero(scale > 0.0)
        if active.size <= stop:
            return scale
        sub = active[:width]
        v = _kernel_vector(columns[:, sub] * scale[sub], margin_factor)
        if v is None:
            return scale
        h = _hermitian_part(v[:, None, None]).real.ravel()
        tau, flip = _saturating_step(h)
        if flip:
            h = -h
        scale[sub] *= _saturate(1.0 + tau * h)
    raise SplitError("walk failed to reach an extreme point")


def _extremal_direction(tp: TpMap, margin_factor: float = MARGIN_FACTOR) -> BlockHermitian:
    """Kernel element pointing at an extreme point of the measurement's face.

    Starting from the measurement itself (block coordinates B_i = identity),
    the walk moves along kernel directions, zeroing at least one block
    eigenvalue per step, until the current point is extreme. The returned
    direction D = (B_final - identity), spectrally normalized, is a kernel
    element of the original map whose + saturation lands exactly on that
    extreme point, so the caller's split peels one extreme component off.

    Recombination runs while more than 2(d^2 + 1) effects are active: it
    cuts them, in outcome order, into 2(d^2 + 1) contiguous groups, walks
    the groups' summed effects c_i vec(S_i S_i^dag) down to at most d^2
    groups and scales each effect by its group's weight, so every block
    stays B_i = c_i I and each round drops more than half the effects. The
    same scalar walk then runs over single effects until their columns are
    injective. If every live block has rank one, the point is extreme (a
    rank-one block's map column is its scalar column), and the walk ends.
    Otherwise the general walk refines the at most d^2 live blocks, held as
    one stack of t x t blocks (t the largest live rank): the trailing t
    columns of the map's frame stack, and factors G_i with B_i = G_i G_i^dag.
    A step takes one SVD of the map with the live columns of S_i G_i, one
    eigh of the whole stack, and updates G_i <- G_i U_i sqrt(1 + tau
    lambda_i); saturated roots become zero columns, dropped from the next
    step by mask where they stand.
    """
    ranks = np.array(tp.ranks)
    d2 = tp.dim * tp.dim
    # vec(S_i S_i^dag) of each block.
    columns = np.einsum("iaj,ibj->abi", tp.frames, tp.frames.conj()).reshape(d2, -1)
    scale = (ranks > 0).astype(np.float64)  # c_i
    while np.count_nonzero(scale) > 2 * (d2 + 1):
        active = np.flatnonzero(scale)
        starts = np.arange(2 * (d2 + 1)) * active.size // (2 * (d2 + 1))
        summed = np.add.reduceat(columns[:, active] * scale[active], starts, axis=1)
        gamma = _scalar_walk(summed, np.ones(starts.size), d2, margin_factor)
        scale[active] *= np.repeat(gamma, np.diff(starts, append=active.size))
    scale = _scalar_walk(columns, scale, 0, margin_factor)
    live = np.flatnonzero(scale)
    t = int(ranks[live].max())
    if t == 1:
        return _unit_direction(ranks, live, scale[live, None, None].astype(np.complex128))
    # Frames S and factors G (B = G G^dag) of the live blocks, t x t. kept
    # marks G's live columns; saturation may zero any of them, not only the first.
    frames = tp.frames[live, :, tp.frames.shape[2] - t :]
    pos = np.arange(t)
    kept = pos >= t - ranks[live, None]
    factors = np.zeros((live.size, t, t), dtype=np.complex128)
    factors[:, pos, pos] = np.sqrt(scale[live, None]) * kept
    for _ in range(tp.domain_dim + 16):
        vec = _kernel_vector(frame_columns(frames @ factors, kept), margin_factor)
        if vec is None:
            break
        x = np.zeros_like(factors)
        x[kept[:, :, None] & kept[:, None, :]] = vec
        w, u, live_eig = _live_eigh(_hermitian_part(x), kept)
        tau, flip = _saturating_step(w[live_eig])
        if flip:
            w = -w
        sat = _saturate(np.where(live_eig, 1.0 + tau * w, 0.0))
        factors = factors @ (u * np.sqrt(sat)[:, None, :])
        kept = sat > 0.0
    else:
        raise SplitError("walk failed to reach an extreme point")
    return _unit_direction(ranks, live, factors @ _dagger(factors))


def _unit_direction(ranks, live, coords) -> BlockHermitian:
    """Walk direction B_final - I, scaled to spectral radius 1.

    coords stacks the final B_i of the live blocks, each in the trailing
    r_i x r_i window of one t x t block; every other block ends at B_i = 0.
    """
    t = coords.shape[-1]
    pos = np.arange(t)
    coords[:, pos, pos] -= pos >= t - ranks[live, None]
    radius = float(np.max(np.abs(np.linalg.eigvalsh(coords))))
    if live.size < np.count_nonzero(ranks):
        radius = max(radius, 1.0)
    if radius <= 0.0:
        raise SplitError("walk produced a zero direction (node was extreme?)")
    # Blocks of one rank share their dead direction; blocks are never written.
    dead = [(-1.0 / radius) * np.eye(r, dtype=np.complex128) for r in range(ranks.max() + 1)]
    blocks = [dead[r] for r in ranks]
    for i, b in zip(live, coords):
        blocks[i] = (1.0 / radius) * b[t - ranks[i] :, t - ranks[i] :]
    return BlockHermitian(tuple(blocks))


def decompose_extremal(
    povm: FinitePOVM,
    max_leaves: int = DEFAULT_MAX_LEAVES,
    margin_factor: float = MARGIN_FACTOR,
    rank_tol: float = RANK_TOL,
    prune_tol: float = PRUNE_TOL,
    label_tol: float = LABEL_TOL,
    residual_tol: float = RESIDUAL_TOL,
) -> ExtremalMixture:
    """Decompose a measurement into a finite mixture of extreme ones.

    A peel chain: while the remainder R_k (at first the input, weight 1) is
    not extreme, split it along the walk-derived kernel element, emit the +
    child E_k as a leaf with weight w * w_+, and continue on the - child
    R_(k+1) with weight w * w_-. A + child that is not extreme raises
    SplitError. E_k has weight on the direction the - saturation zeroes, so
    it lies outside the face of R_(k+1), which holds every later leaf: no two
    leaves coincide, and the chain has at most dim F + 1 leaves. Labels are
    merged once, at the root: children carry the root's merged labels,
    which are pairwise distinct, so below the root only effects with trace
    at or below prune_tol are dropped. Once max_leaves - 1 leaves are
    peeled, the remainder is emitted with its non-extreme verdict and the
    mixture is flagged incomplete; the convex reconstruction identity holds
    either way.
    """
    leaves = []
    weight = 1.0
    node = prune_and_merge(povm, prune_tol, label_tol)
    while True:
        tp = build_tp_map(node, rank_tol)
        verdict = verdict_from_tp(tp, margin_factor)
        if verdict.is_extreme or len(leaves) >= max_leaves - 1:
            break
        try:
            direction = _extremal_direction(tp, margin_factor)
            split = split_once(node, direction, tp, rank_tol, residual_tol)
        except SplitError as exc:
            raise SplitError(f"split failed at leaf {len(leaves)}: {exc}") from exc
        plus = split.child_plus
        plus = _prune(plus.dim, plus.labels, plus.effects, prune_tol)
        plus_verdict = verdict_from_tp(build_tp_map(plus, rank_tol), margin_factor)
        if not plus_verdict.is_extreme:
            raise SplitError(
                f"split failed at leaf {len(leaves)}: the + child is not extreme "
                f"(margin {plus_verdict.margin:.3e}, threshold {plus_verdict.threshold:.3e})"
            )
        leaves.append(MixtureComponent(weight * split.weight_plus, plus, plus_verdict))
        weight *= split.weight_minus
        minus = split.child_minus
        node = _prune(minus.dim, minus.labels, minus.effects, prune_tol)
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
    # All leaf effects as one stack, so each trial takes one Born call that
    # still clamps or rejects every entry.
    stacked = FinitePOVM._with_normal_labels(
        povm.dim,
        tuple(label for _, p in pairs for label in p.labels),
        np.concatenate([p.effects for _, p in pairs]),
    )
    stacked_map = np.concatenate(leaf_maps)
    stacked_weight = np.concatenate([np.full(p.n_outcomes, w) for w, p in pairs])
    own = np.zeros((len(universe), povm.dim, povm.dim), dtype=np.complex128)
    recombined = np.zeros_like(own)
    np.add.at(own, own_map, povm.effects)
    np.add.at(recombined, stacked_map, stacked_weight[:, None, None] * stacked.effects)
    effect_residual = float(np.max(np.abs(own - recombined)))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in range(trials):
        state = gen_random_state(povm.dim, rng=rng, pure=(t % 2 == 0))
        values = rng.standard_normal(len(universe))
        lhs = float(values[own_map] @ born_probabilities(povm, state))
        rhs = float((stacked_weight * values[stacked_map]) @ born_probabilities(stacked, state))
        worst = max(worst, abs(lhs - rhs))
    return BarycenterReport(
        trials=trials,
        max_functional_residual=worst,
        effect_residual=effect_residual,
        weight_sum=float(sum(w for w, _ in pairs)),
    )
