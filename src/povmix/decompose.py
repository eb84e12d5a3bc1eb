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
    blocks_from_vector,
    build_tp_map,
    frame_columns,
    split_hermitian,
    verdict_from_tp,
)
from .linalg import RANK_TOL, kernel_basis
from .model import (
    LABEL_TOL,
    PRUNE_TOL,
    FinitePOVM,
    PovmError,
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


def _block_eigh(blocks):
    """Ascending eigenvalues and eigenvectors of the Hermitian part of each block."""
    eigs, vecs = [], []
    for b in blocks:
        if b.size == 0:
            eigs.append(np.zeros(0))
            vecs.append(np.zeros((0, 0), dtype=np.complex128))
        else:
            w, v = np.linalg.eigh((b + b.conj().T) / 2.0)
            eigs.append(w)
            vecs.append(v)
    return eigs, vecs


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
    eigs, vecs = _block_eigh(element.blocks)
    all_eigs = np.concatenate(eigs)
    if all_eigs.size == 0:
        raise SplitError("element is empty")
    lam_min = float(all_eigs.min())
    lam_max = float(all_eigs.max())
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
        for i, (frame, lam, u) in enumerate(zip(tp.frames, eigs, vecs)):
            if lam.size:
                m = (u * _saturate(1.0 + sign * tau * lam)) @ u.conj().T
                e = frame @ ((m + m.conj().T) / 2.0) @ frame.conj().T
                effects[i] = (e + e.conj().T) / 2.0
        children.append(FinitePOVM(d, tp.labels, effects))
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


def _extremal_direction(tp: TpMap, margin_factor: float = MARGIN_FACTOR) -> BlockHermitian:
    """Kernel element pointing at an extreme point of the measurement's face.

    Starting from the measurement itself (block coordinates B_i = identity),
    repeatedly take the Hermitian kernel vector of the current point and
    saturate one-sidedly toward its dominant eigenvalue, which zeroes at
    least one block eigenvalue per step, until the current point is extreme.
    The returned direction D = (B_final - identity), spectrally normalized,
    is a kernel element of the original map whose + saturation lands exactly
    on that extreme point, so the caller's split peels one extreme component
    off. Each step takes one SVD.
    """
    ranks = tp.ranks
    if all(r <= 1 for r in ranks):
        # Blocks are scalars; the map's columns just get rescaled each step.
        beta = np.ones(tp.matrix.shape[1])
        while True:
            active = beta > 0.0
            h = _hermitian_kernel_vector(
                tp.matrix[:, active] * beta[active], slice(None), margin_factor
            )
            if h is None:
                break
            h = h.real
            tau, flip = _saturating_step(h)
            if flip:
                h = -h
            beta[active] *= _saturate(1.0 + tau * h)
        delta = beta - 1.0
        blocks = []
        j = 0
        for r in ranks:
            if r == 0:
                blocks.append(np.zeros((0, 0), dtype=np.complex128))
            else:
                blocks.append(np.array([[delta[j]]], dtype=np.complex128))
                j += 1
        element = BlockHermitian(tuple(blocks))
    else:
        blocks_b = [np.eye(r, dtype=np.complex128) for r in ranks]
        factors = list(blocks_b)
        sub_ranks = ranks
        matrix = tp.matrix
        for _ in range(tp.domain_dim + 16):
            vec = _hermitian_kernel_vector(matrix, adjoint_index(sub_ranks), margin_factor)
            if vec is None:
                break
            eigs, vecs = _block_eigh(blocks_from_vector(vec, sub_ranks))
            tau, flip = _saturating_step(np.concatenate(eigs))
            if flip:
                eigs = [-w[::-1] for w in eigs]
                vecs = [v[:, ::-1] for v in vecs]
            for i, g in enumerate(factors):
                if g.shape[1] == 0:
                    continue
                mfac = (vecs[i] * _saturate(1.0 + tau * eigs[i])) @ vecs[i].conj().T
                nb = g @ mfac @ g.conj().T
                blocks_b[i] = (nb + nb.conj().T) / 2.0
            # Factor each block as B = g g^dag; the next walk frame is S g.
            factors = []
            cols = []
            for S, w, v in zip(tp.frames, *_block_eigh(blocks_b)):
                keep = w > 1e-12 * max(float(w.max(initial=0.0)), 1.0)
                g = v[:, keep] * np.sqrt(w[keep])
                factors.append(g)
                cols.append(frame_columns(S @ g))
            sub_ranks = tuple(g.shape[1] for g in factors)
            matrix = np.hstack(cols)
        else:
            raise SplitError("walk failed to reach an extreme point")
        element = BlockHermitian(
            tuple(
                b - np.eye(r, dtype=np.complex128) if r else b
                for b, r in zip(blocks_b, ranks)
            )
        )
    radius = float(np.max(np.abs(element.eigenvalues())))
    if radius <= 0.0:
        raise SplitError("walk produced a zero direction (node was extreme?)")
    return element.scaled(1.0 / radius)


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

    Depth-first: prune and merge, test extremality, emit a leaf or split
    along the walk-derived kernel element and recurse on both children with
    multiplied weights. When emitting another pair of children would exceed
    max_leaves, the remaining branches are emitted unsplit with their
    non-extreme verdicts and the mixture is flagged incomplete; the convex
    reconstruction identity holds either way.
    """
    stack = [(1.0, povm, "")]
    leaves = []
    complete = True
    while stack:
        weight, node, path = stack.pop()
        node = prune_and_merge(node, prune_tol, label_tol)
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
