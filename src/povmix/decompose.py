"""Decomposition of measurements into finite mixtures of extreme ones.

A non-extreme measurement P is split along a Hermitian kernel element D of
its sandwich map: the children P(+-)_i = S_i (1 +- tau_(+-) D_i) S_i^dag with
tau_+ = 1/|lambda_min(D)| and tau_- = 1/lambda_max(D) are valid measurements,
each with strictly smaller rank profile, and

    P = w_+ P_+ + w_- P_-,   w_+ = tau_- / (tau_+ + tau_-),
                             w_- = tau_+ / (tau_+ + tau_-).

Recursing on both children terminates because the integer sum of squared
effect ranks strictly decreases along every branch. The kernel element fed
to each split is derived from a deterministic walk to an extreme point of
the current face, which keeps the recursion tree linear in the rank profile
instead of exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extremality import (
    MARGIN_FACTOR,
    BlockHermitian,
    ExtremalityVerdict,
    TpMap,
    adjoint_index,
    apply_tp,
    assemble_map,
    build_tp_map,
    rank_groups,
    split_hermitian,
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
    convex_combine,
    effects_distance,
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
    leaf budget was exhausted, unfinished branches are carried as components
    with their (non-extreme) verdicts so the mixture still reconstructs the
    input exactly.
    """

    dim: int
    components: tuple
    complete: bool

    def __post_init__(self):
        total = sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-12:
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
    the saturation parameters); either failure raises SplitError.
    """
    if tp is None:
        tp = build_tp_map(povm, rank_tol)
    if element.ranks != tp.ranks:
        raise SplitError(
            f"element ranks {element.ranks} do not match map ranks {tp.ranks}"
        )
    # Blocks and frames of equal rank are stacked: one eigh per rank.
    groups = []
    for idx in rank_groups(tp.ranks).values():
        blocks = np.stack([element.blocks[i] for i in idx])
        lam, u = np.linalg.eigh((blocks + _dagger(blocks)) / 2.0)
        groups.append((idx, np.stack([tp.frames[i] for i in idx]), lam, u))
    if not groups:
        raise SplitError("element is empty")
    lam_min = min(float(lam.min()) for _, _, lam, _ in groups)
    lam_max = max(float(lam.max()) for _, _, lam, _ in groups)
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
    d = tp.dim
    children = []
    for tau, sign in ((tau_plus, 1.0), (tau_minus, -1.0)):
        # Child effects S_i U_i diag(1 + sign*tau*lambda_i) U_i^dag S_i^dag.
        effects = np.zeros((len(tp.frames), d, d), dtype=np.complex128)
        for idx, frames, lam, u in groups:
            m = (u * _saturate(1.0 + sign * tau * lam)[:, None, :]) @ _dagger(u)
            e = frames @ ((m + _dagger(m)) / 2.0) @ _dagger(frames)
            effects[idx] = (e + _dagger(e)) / 2.0
        children.append(FinitePOVM._with_normal_labels(d, tp.labels, effects))
    total = tau_plus + tau_minus
    return SplitResult(
        weight_plus=tau_minus / total,
        weight_minus=tau_plus / total,
        tau_plus=tau_plus,
        tau_minus=tau_minus,
        child_plus=children[0],
        child_minus=children[1],
    )


def _hermitian_kernel_vector(matrix: np.ndarray, adjoint, margin_factor: float):
    """First kernel vector of one walk step, made Hermitian block by block.

    The kernel is cut by the verdict's own rule (margin_factor). Keeps the
    Hermitian part of the first kernel vector unless it is negligible, in
    which case the anti-Hermitian part (times -i) is used; the kernel is
    closed under the adjoint, so both are kernel elements. Returns None
    when the matrix is injective.
    """
    if matrix.shape[1] == 0:
        raise SplitError("walk emptied the measurement")
    basis = kernel_basis(matrix, margin_factor)
    if basis.shape[1] == 0:
        return None
    herm, anti = split_hermitian(basis[:, 0], adjoint)
    return herm if np.linalg.norm(herm) > _HERM_PREFERENCE else anti


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
        h = _hermitian_kernel_vector(columns[:, sub] * scale[sub], slice(None), margin_factor)
        if h is None:
            return scale
        h = h.real
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
    Otherwise the stacked general walk refines the blocks. It holds only
    frames and factors G_i with B_i = G_i G_i^dag; a step takes one SVD of
    the map with columns of S_i G_i and one eigh per current sub-rank, and
    updates G_i <- G_i U_i sqrt(1 + tau lambda_i), dropping saturated roots.
    """
    ranks = np.array(tp.ranks)
    groups = rank_groups(ranks)
    d2 = tp.dim * tp.dim
    sq = ranks * ranks
    offsets = np.cumsum(sq) - sq
    # vec(S_i S_i^dag) of each block: the sum of its diagonal columns.
    columns = np.zeros((d2, len(ranks)), dtype=np.complex128)
    for r, idx in groups.items():
        columns[:, idx] = tp.matrix[:, offsets[idx, None] + np.arange(r) * (r + 1)].sum(axis=2)
    scale = (sq > 0).astype(np.float64)  # c_i
    while np.count_nonzero(scale) > 2 * (d2 + 1):
        active = np.flatnonzero(scale)
        starts = np.arange(2 * (d2 + 1)) * active.size // (2 * (d2 + 1))
        summed = np.add.reduceat(columns[:, active] * scale[active], starts, axis=1)
        gamma = _scalar_walk(summed, np.ones(starts.size), d2, margin_factor)
        scale[active] *= np.repeat(gamma, np.diff(starts, append=active.size))
    scale = _scalar_walk(columns, scale, 0, margin_factor)
    live = scale > 0.0
    if np.all(ranks[live] == 1):
        return _unit_direction(
            ranks,
            [(idx, (scale[idx, None, None] - 1.0) * np.eye(r, dtype=np.complex128))
             for r, idx in groups.items()],
        )
    # Per rank r, stacked over its n_r blocks: frames S (n_r, d, r) and
    # factors G (n_r, r, r) with B = G G^dag. Saturated roots come first, so
    # G's kept columns are a suffix: a block of sub-rank s uses G[..., r-s:].
    state = [
        (r, idx, np.stack([tp.frames[i] for i in idx]),
         np.sqrt(scale[idx, None, None]) * np.eye(r, dtype=np.complex128))
        for r, idx in groups.items()
    ]
    sub = np.where(live, ranks, 0)  # current sub-rank of each block
    top = ranks.max()
    matrix = (tp.matrix * np.repeat(scale, sq))[:, np.repeat(live, sq)]
    for _ in range(tp.domain_dim + 16):
        vec = _hermitian_kernel_vector(matrix, adjoint_index(sub), margin_factor)
        if vec is None:
            break
        sq = sub * sub
        offsets = np.cumsum(sq) - sq
        directions = []  # one eigh of the direction blocks per sub-rank
        for s, sel in rank_groups(sub).items():
            blk = vec[offsets[sel, None] + np.arange(s * s)].reshape(-1, s, s)
            directions.append((sel, *np.linalg.eigh((blk + _dagger(blk)) / 2.0)))
        tau, flip = _saturating_step(np.concatenate([w.ravel() for _, w, _ in directions]))
        # U sqrt(1 + tau*lambda) of each block's direction, padded to top.
        roots = np.zeros((len(ranks), top, top), dtype=np.complex128)
        new_sub = sub.copy()
        for sel, w, v in directions:
            if flip:
                w, v = -w[:, ::-1], v[:, :, ::-1]
            sat = _saturate(1.0 + tau * w)
            roots[sel, : w.shape[1], : w.shape[1]] = v * np.sqrt(sat)[:, None, :]
            new_sub[sel] = np.count_nonzero(sat, axis=1)
        stacks = []
        for r, idx, frames, factors in state:
            for s, pos in rank_groups(sub[idx]).items():
                factors[pos, :, r - s :] = factors[pos, :, r - s :] @ roots[idx[pos], :s, :s]
            for s, pos in rank_groups(new_sub[idx]).items():
                stacks.append((idx[pos], frames[pos] @ factors[pos, :, r - s :]))
        sub = new_sub
        matrix = assemble_map(tp.dim, sub, stacks)
    else:
        raise SplitError("walk failed to reach an extreme point")
    stacks = []
    for r, idx, _, factors in state:
        coords = np.zeros((idx.size, r, r), dtype=np.complex128)
        for s, pos in rank_groups(sub[idx]).items():
            g = factors[pos, :, r - s :]
            coords[pos] = g @ _dagger(g)
        stacks.append((idx, coords - np.eye(r, dtype=np.complex128)))
    return _unit_direction(ranks, stacks)


def _unit_direction(ranks, stacks) -> BlockHermitian:
    """Walk direction blocks, stacked by rank, scaled to spectral radius 1.

    stacks holds (positions, blocks) pairs; rank-0 blocks stay empty.
    """
    radius = max(float(np.max(np.abs(np.linalg.eigvalsh(b)))) for _, b in stacks)
    if radius <= 0.0:
        raise SplitError("walk produced a zero direction (node was extreme?)")
    blocks = [np.zeros((0, 0), dtype=np.complex128)] * len(ranks)
    for idx, b in stacks:
        for i, block in zip(idx, (1.0 / radius) * b):
            blocks[i] = block
    return BlockHermitian(tuple(blocks))


def decompose_extremal(
    povm: FinitePOVM,
    max_leaves: int = DEFAULT_MAX_LEAVES,
    merge_leaves: bool = False,
    margin_factor: float = MARGIN_FACTOR,
    rank_tol: float = RANK_TOL,
    prune_tol: float = PRUNE_TOL,
    label_tol: float = LABEL_TOL,
    residual_tol: float = RESIDUAL_TOL,
) -> ExtremalMixture:
    """Decompose a measurement into a finite mixture of extreme ones.

    Depth-first: test extremality, emit a leaf or split along the
    walk-derived kernel element and recurse on both children with multiplied
    weights. Labels are merged once, at the root: children carry the root's
    merged labels, which are pairwise distinct, so below the root only
    effects with trace at or below prune_tol are dropped. When emitting
    another pair of children would exceed max_leaves, the remaining branches
    are emitted unsplit with their non-extreme verdicts and the mixture is
    flagged incomplete; the convex reconstruction identity holds either way.
    """
    stack = [(1.0, prune_and_merge(povm, prune_tol, label_tol), "")]
    leaves = []
    complete = True
    while stack:
        weight, node, path = stack.pop()
        if path:  # below the root the labels are already merged
            node = _prune(node.dim, node.labels, node.effects, prune_tol)
        tp = build_tp_map(node, rank_tol)
        verdict = verdict_from_tp(tp, margin_factor)
        if verdict.is_extreme:
            leaves.append(MixtureComponent(weight, node, verdict))
            continue
        if len(leaves) + len(stack) + 2 > max_leaves:
            complete = False
            leaves.append(MixtureComponent(weight, node, verdict))
            continue
        try:
            direction = _extremal_direction(tp, margin_factor)
            split = split_once(node, direction, tp, rank_tol, residual_tol)
        except SplitError as exc:
            raise SplitError(f"split failed at branch '{path or 'root'}': {exc}") from exc
        stack.append((weight * split.weight_minus, split.child_minus, path + "-"))
        stack.append((weight * split.weight_plus, split.child_plus, path + "+"))
    if merge_leaves:
        leaves = _merge_identical_leaves(leaves, label_tol)
    return ExtremalMixture(povm.dim, tuple(leaves), complete)


def _merge_identical_leaves(leaves, label_tol: float, atol: float = 1e-8):
    merged = []
    for leaf in leaves:
        for i, kept in enumerate(merged):
            if (
                kept.povm.n_outcomes == leaf.povm.n_outcomes
                and effects_distance(kept.povm, leaf.povm, label_tol) <= atol
            ):
                merged[i] = MixtureComponent(
                    kept.weight + leaf.weight, kept.povm, kept.verdict
                )
                break
        else:
            merged.append(leaf)
    return merged


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
    residual of the convex recombination.
    """
    if mixture.dim != povm.dim:
        raise PovmError(f"mixture dim {mixture.dim} != measurement dim {povm.dim}")
    pairs = [(c.weight, c.povm) for c in mixture.components]
    recombined = convex_combine(pairs, label_tol)
    effect_residual = effects_distance(povm, recombined, label_tol)
    label_lists = [povm.labels] + [p.labels for _, p in pairs]
    universe, (own_map, *leaf_maps) = align_label_universe(label_lists, label_tol)
    # All leaf effects as one stack, so each trial takes one Born call that
    # still clamps or rejects every entry.
    stacked = FinitePOVM(
        povm.dim,
        tuple(label for _, p in pairs for label in p.labels),
        np.concatenate([p.effects for _, p in pairs]),
    )
    stacked_map = np.concatenate(leaf_maps)
    stacked_weight = np.concatenate([np.full(p.n_outcomes, w) for w, p in pairs])
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
