"""The decomposition path on one padded block stack, against per-block code.

The map holds every block in one stack of t x t blocks (t the largest
rank), each block's frame in the columns its kept mask marks, wherever they
stand; the general walk and the split hold the walk's live blocks as the
same t x t blocks. The reference functions below evaluate each of them one
block at a time on the same padded blocks. Stacking changes no arithmetic
inside a block, so every output must be equal bit for bit, not just close.
The one exception is the change to real Hermitian coordinates: a BLAS
product over the whole stack need not match per-block products in the last
bit, so the references apply that shared conversion, linalg.herm_coords,
once to their stacked per-block matrices.
From coordinates back to Hermitian blocks every entry is a single product,
so that conversion runs block by block.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from povmix import decompose, extremality
from povmix.decompose import (
    SplitError,
    _extremal_direction,
    _saturate,
    _saturating_step,
    split_once,
)
from povmix.extremality import (
    MARGIN_FACTOR,
    TpMap,
    build_tp_map,
    frame_columns,
    pair_mask,
    verdict_from_tp,
)
from povmix.linalg import RANK_TOL, herm_coords, herm_matrices, kernel_basis
from povmix.model import PRUNE_TOL, FinitePOVM, _prune, prune_and_merge
from povmix.outcomes import gen_covariant_sphere, gen_random_povm

from oracles import apply_tp


def ref_frame_columns(frame, kept):
    """Per kept pair (p, q) of one padded d x t frame, row-major: the
    matrix c_pq s_p s_q^dag, whose Hermitian part is S B_pq S^dag, with
    c = 1, sqrt(2) and -i sqrt(2) for p = q, p < q and p > q."""
    out = []
    for p, q in zip(*np.nonzero(np.outer(kept, kept))):
        c = np.sqrt(2.0) if p < q else -1j * np.sqrt(2.0)
        left = frame[:, p] if p == q else frame[:, p] * c
        out.append(left[:, None] @ frame[:, q].conj()[None, :])
    return out


def ref_map_matrix(frames, kepts):
    """Real map of padded frames: each block's kept-pair matrices, one block
    at a time, put into Hermitian coordinates by one shared conversion."""
    blocks = [m for frame, kept in zip(frames, kepts) for m in ref_frame_columns(frame, kept)]
    return herm_coords(np.array(blocks)).T


def ref_build_tp_map(povm, rank_tol=RANK_TOL):
    w, v = np.linalg.eigh((povm.effects + povm.effects.conj().transpose(0, 2, 1)) / 2.0)
    frames = []
    for i in range(povm.n_outcomes):
        cutoff = rank_tol * max(float(w[i, -1]), 1.0)
        keep = w[i] > cutoff
        frames.append(np.ascontiguousarray(v[i][:, keep] * np.sqrt(w[i, keep])))
    ranks = tuple(f.shape[1] for f in frames)
    d = povm.dim
    t = max(ranks)
    padded = np.zeros((len(frames), d, t), dtype=np.complex128)
    for i, f in enumerate(frames):
        padded[i, :, t - f.shape[1] :] = f
    kept = np.array([np.arange(t) >= t - r for r in ranks])
    return TpMap(d, povm.labels, padded, kept)


def ref_floor(hs):
    """The dead-diagonal value: below every eigenvalue of every block."""
    return -1.0 - 2.0 * max(float(np.abs(h).sum(axis=-1).max()) for h in hs)


def ref_live_eigh(hs, kepts):
    """Per block: the floor on the dead diagonal, eigh, and the live
    eigenpairs as the trailing count(kept) positions."""
    floor = ref_floor(hs)
    out = []
    for h, kept in zip(hs, kepts):
        dead = np.flatnonzero(~kept)
        h[dead, dead] = floor
        w, u = np.linalg.eigh(h)
        out.append((w, u, np.arange(len(kept)) >= len(kept) - np.count_nonzero(kept)))
    return out


def ref_general_walk(tp, weights, margin_factor=MARGIN_FACTOR):
    """The general-rank walk, one eigh, matmul and frame per padded block.

    weights (n, t) are the root weights c_ij that the scalar walk returns,
    root j of block i at column j of its frame. A block is live while one of
    its roots is; each live block keeps its whole d x t frame, a factor
    g = diag(sqrt(c_ij)) with coordinates B = g g^dag, and a mask of g's
    live columns, the roots with c_ij > 0. When every live block has one
    live root, the point is extreme as it stands. Otherwise a step reads each block's part of the real
    kernel vector as the Hermitian coordinates of its kept pairs, writes the
    floor on each block's dead diagonal, so the dead eigenvalues sort first,
    negates the spectrum on a flip, maps g to g U sqrt(1 + tau*lambda) and
    drops the saturated columns from the mask wherever they stand. Returns
    the live blocks and their points in spectral form (u, lam): u = I and
    lam = c on the diagonal, and after a general walk the eigh of
    B = g g^dag with the floor on the dead diagonal, its live eigenpairs
    put back on the block's kept positions, u zero and lam 0 elsewhere.
    """
    t = tp.frames.shape[2]
    live = [i for i in range(len(tp.ranks)) if np.any(weights[i] > 0.0)]
    frames, factors, kepts = [], [], []
    for i in live:
        c = weights[i]
        frames.append(tp.frames[i])
        factors.append(np.diag(np.sqrt(c)).astype(np.complex128))
        kepts.append(c > 0.0)
    if max(np.count_nonzero(kept) for kept in kepts) > 1:
        for _ in range(tp.domain_dim + 16):
            matrix = ref_map_matrix([f @ g for f, g in zip(frames, factors)], kepts)
            basis = kernel_basis(matrix, margin_factor)
            if basis.shape[1] == 0:
                break
            vec = basis[:, 0]
            assert vec.dtype == np.float64
            hs = []
            offset = 0
            for kept in kepts:
                k = np.count_nonzero(kept)
                y = np.zeros(t * t)
                y[np.outer(kept, kept).reshape(-1)] = vec[offset : offset + k * k]
                hs.append(herm_matrices(y, t))
                offset += k * k
            eighs = ref_live_eigh(hs, kepts)
            tau, flip = _saturating_step(np.concatenate([w[lv] for w, _, lv in eighs]))
            for k, (w, u, lv) in enumerate(eighs):
                if flip:
                    w = -w
                sat = _saturate(np.where(lv, 1.0 + tau * w, 0.0))
                factors[k] = factors[k] @ (u * np.sqrt(sat))
                kepts[k] = sat > 0.0
        else:
            raise AssertionError("reference walk did not end")
        kepts = [tp.kept[i] for i in live]
        hs = [(b + b.conj().T) / 2.0 for b in (g @ g.conj().T for g in factors)]
        us, lams = [], []
        for kept, (w, u, lv) in zip(kepts, ref_live_eigh(hs, kepts)):
            us.append(np.zeros((t, t), dtype=np.complex128))
            us[-1][:, kept] = u[:, lv]
            lams.append(np.zeros(t))
            lams[-1][kept] = w[lv]
        return np.array(live), (np.array(us), np.array(lams))
    return np.array(live), (np.array([np.eye(t)] * len(live)), weights[live])


def walk_with_root_weights(tp, monkeypatch):
    """The walk's (live, (u, lam)) and the (n, t) root weights that its last
    scalar walk, the one over single roots, returns."""
    weights = []
    walk = decompose._scalar_walk

    def recorded(*args):
        weights.append(walk(*args))
        return weights[-1]

    with monkeypatch.context() as m:
        m.setattr(decompose, "_scalar_walk", recorded)
        peak = _extremal_direction(tp)
    return peak, weights[-1].reshape(tp.frames.shape[0], -1)


def ref_peel(live, point, tp):
    """lambda and each live block's (u, lam) of a split's spectral point,
    one padded block at a time, u read on the block's kept pairs and lam on
    its kept positions."""
    blocks = []
    for u, lam, i in zip(*point, live):
        kept = tp.kept[i]
        blocks.append((np.where(np.outer(kept, kept), u, 0.0), np.where(kept, lam, 0.0)))
    return float(max(lam.max() for _, lam in blocks)), blocks


def ref_rank_rule(eig, rank_tol):
    return eig > rank_tol * max(float(eig.max()), 1.0)


def ref_split_once(live, point, tp, rank_tol=RANK_TOL):
    """(weights, leaf effects, leaf kept masks and frames, remainder labels,
    kept masks and frames) of a split, one padded block at a time. Each
    live block's columns v_k = S u_k give its leaf effect
    V diag(lambda_k) V^dag and its leaf frame, column k v_k sqrt(lambda_k)
    kept when |v_k|^2 lambda_k passes the rank rule. With
    sigma_k = (lambda - lambda_k) / (lambda - 1), the remainder keeps each
    column v_k whose |v_k|^2 sigma_k passes the rank rule, scaled by
    sqrt(sigma_k), in its own position k; its frame is
    S_i sqrt(lambda / (lambda - 1)) on every other block. Blocks of rank
    zero are dropped from the remainder, and so are the columns that no
    remaining block keeps."""
    top, blocks = ref_peel(live, point, tp)
    scale = top / (top - 1.0)
    t = tp.frames.shape[2]
    leaf = np.zeros((len(live), tp.dim, tp.dim), dtype=np.complex128)
    leaf_frames = np.zeros((len(live), tp.dim, t), dtype=np.complex128)
    leaf_kept = np.zeros((len(live), t), dtype=bool)
    frames = [f * np.sqrt(scale) for f in tp.frames]
    kepts = list(tp.kept)
    for k, (i, (u, lam)) in enumerate(zip(live, blocks)):
        kept = tp.kept[i]
        sigma = _saturate(np.where(kept, (top - lam) / (top - 1.0), 0.0))
        lam = _saturate(lam)
        v = tp.frames[i] @ u
        e = (v * lam) @ v.conj().T
        leaf[k] = (e + e.conj().T) / 2.0
        norms = np.sum(v.conj() * v, axis=0).real
        leaf_kept[k] = ref_rank_rule(norms * lam, rank_tol)
        leaf_frames[k] = v * np.sqrt(np.where(leaf_kept[k], lam, 0.0))
        keep = ref_rank_rule(norms * sigma, rank_tol)
        frames[i] = np.zeros_like(frames[i])
        frames[i][:, keep] = v[:, keep] * np.sqrt(sigma[keep])
        kepts[i] = keep
    alive = [i for i, kept in enumerate(kepts) if kept.any() or i not in live]
    used = np.any([kepts[i] for i in alive], axis=0)
    return (
        (1.0 / top, 1.0 - 1.0 / top),
        leaf,
        leaf_kept,
        leaf_frames,
        tuple(tp.labels[i] for i in alive),
        np.array([kepts[i][used] for i in alive]),
        np.array([frames[i][:, used] for i in alive]),
    )


def mixed_rank_povm(seed):
    """d = 3 with effect ranks 1, 2, 0, 3, 2, 1: one zero effect."""
    rng = np.random.default_rng(seed)
    raw = []
    for r in (1, 2, 0, 3, 2, 1):
        a = rng.standard_normal((3, r)) + 1j * rng.standard_normal((3, r))
        raw.append(a @ a.conj().T)
    raw = np.array(raw)
    w, v = np.linalg.eigh(raw.sum(axis=0))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    effects = inv_sqrt @ raw @ inv_sqrt
    return FinitePOVM(3, tuple(range(len(raw))), (effects + effects.conj().transpose(0, 2, 1)) / 2)


def inputs():
    yield "mixed ranks", mixed_rank_povm(0)
    for d, k, cap in ((3, 6, 2), (3, 5, 3), (4, 8, 2), (4, 6, 3)):
        yield f"d={d} k={k} cap={cap}", gen_random_povm(d, k, rank_cap=cap, seed=10 * d + cap)
    # more effects than d^2: its splits leave nonzero blocks off live
    yield "d=3 k=12 cap=2", gen_random_povm(3, 12, rank_cap=2, seed=1)


def nodes(povm, depth=2):
    """The input and, below it, the minus child of each split, its effects
    formed from the remainder's map."""
    yield povm
    for _ in range(depth):
        tp = build_tp_map(povm)
        povm = split_once(tp, *_extremal_direction(tp)).child_minus.to_povm()
        yield povm


def assert_same_map(tp, ref):
    assert np.array_equal(tp.kept, ref.kept)
    assert tp.frames.shape == ref.frames.shape
    assert np.array_equal(tp.frames, ref.frames)
    assert np.array_equal(
        frame_columns(tp.frames, pair_mask(tp.kept)), ref_map_matrix(ref.frames, ref.kept)
    )


def assert_same_split(live, point, tp):
    got = split_once(tp, live, point)
    weights, leaf, leaf_kept, leaf_frames, labels, kept, frames = ref_split_once(live, point, tp)
    assert (got.weight_plus, got.weight_minus) == weights
    assert got.child_plus.labels == got.plus_map.labels == tuple(tp.labels[i] for i in live)
    assert np.array_equal(got.child_plus.effects, leaf)
    assert np.array_equal(got.plus_map.kept, leaf_kept)
    assert np.array_equal(got.plus_map.frames, leaf_frames)
    rest = got.child_minus
    assert rest.labels == labels
    assert np.array_equal(rest.kept, kept)
    assert np.array_equal(rest.frames, frames)
    # the carried roots are the scaled parent roots: equal to the rebuilt
    # ones up to rounding
    n, _, t = frames.shape
    rebuilt = frame_columns(frames, np.broadcast_to(np.eye(t, dtype=bool), (n, t, t)))
    assert np.max(np.abs(rest.roots - rebuilt)) <= 1e-14 * np.max(np.abs(rebuilt))


@pytest.mark.parametrize("name, povm", list(inputs()), ids=[n for n, _ in inputs()])
def test_stacked_walk_split_and_map_are_bit_identical(name, povm, monkeypatch):
    ragged = False
    general = 0
    dead = False
    for node in nodes(povm):
        tp = build_tp_map(node)
        assert_same_map(tp, ref_build_tp_map(node))
        assert max(tp.ranks) > 1
        ragged |= len(set(tp.ranks) - {0}) > 1
        (live, point), weights = walk_with_root_weights(tp, monkeypatch)
        general += np.count_nonzero(weights, axis=1).max() > 1
        ref_live, ref_point = ref_general_walk(tp, weights)
        assert np.array_equal(live, ref_live)
        assert np.array_equal(point[0], ref_point[0])
        assert np.array_equal(point[1], ref_point[1])
        assert_same_split(live, point, tp)
        dead |= np.count_nonzero(tp.ranks) > len(live)
    # two splits down, blocks of one original rank have different ranks
    assert ragged
    # some block keeps two live roots: the general-rank walk runs
    assert general > 0
    # a split scales a nonzero block that is not live
    if povm.n_outcomes > povm.dim**2:
        assert dead


def test_map_frames_are_one_stack_padded_in_front():
    povm = mixed_rank_povm(0)
    tp = build_tp_map(povm)
    assert tuple(tp.ranks) == (1, 2, 0, 3, 2, 1)
    assert tp.frames.shape == (6, 3, 3)
    for frame, effect, r in zip(tp.frames, povm.effects, tp.ranks):
        assert np.all(frame[:, : 3 - r] == 0)
        assert np.allclose(frame @ frame.conj().T, effect, rtol=0, atol=1e-12)
    assert np.all(tp.frames[2] == 0)


def test_split_and_map_read_only_the_windows():
    """The point contract: entries of u off the live blocks' kept pairs and
    of lam off their kept positions are ignored, and the caller's point is
    not written; a point not shaped like the live stacks of t x t blocks
    and of t eigenvalues is rejected. The apply_tp oracle reads the map's
    whole stack the way the split reads u."""
    povm = mixed_rank_povm(0)
    tp = build_tp_map(povm)
    live, (u, lam) = _extremal_direction(tp)
    t = tp.frames.shape[2]
    assert u.shape == (len(live), t, t) and lam.shape == (len(live), t)
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
    off = np.where(pair_mask(tp.kept[live]), 0.0, noise)
    off_lam = np.where(tp.kept[live], 0.0, rng.standard_normal(lam.shape))
    assert np.count_nonzero(off) > 0 and np.count_nonzero(off_lam) > 0
    noisy = (u + off, lam + off_lam)
    unwritten = (noisy[0].copy(), noisy[1].copy())
    clean, dirty = split_once(tp, live, (u, lam)), split_once(tp, live, noisy)
    assert np.array_equal(noisy[0], unwritten[0]) and np.array_equal(noisy[1], unwritten[1])
    for name in ("weight_plus", "weight_minus"):
        assert getattr(clean, name) == getattr(dirty, name)
    a, b = clean.child_plus, dirty.child_plus
    assert a.labels == b.labels and a.effects.tobytes() == b.effects.tobytes()
    a, b = clean.plus_map, dirty.plus_map
    assert a.kept.tobytes() == b.kept.tobytes() and a.frames.tobytes() == b.frames.tobytes()
    a, b = clean.child_minus, dirty.child_minus
    assert a.labels == b.labels and a.kept.tobytes() == b.kept.tobytes()
    assert a.frames.tobytes() == b.frames.tobytes() and a.roots.tobytes() == b.roots.tobytes()
    a, b = clean.warm, dirty.warm
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.peeled.tobytes() == b.peeled.tobytes()
    assert a.peeled_weights.tobytes() == b.peeled_weights.tobytes()
    for bad in (
        (u[:-1], lam[:-1]),
        (u[:, 1:, 1:], lam[:, 1:]),
        (u.reshape(len(u), -1), lam),
        (u, lam[:, 1:]),
        (u, lam.reshape(-1)),
    ):
        with pytest.raises(SplitError):
            split_once(tp, live, bad)
    element = np.zeros((len(tp.ranks), t, t), dtype=np.complex128)
    element[live] = u
    noise = rng.standard_normal(element.shape) + 1j * rng.standard_normal(element.shape)
    off = np.where(pair_mask(tp.kept), 0.0, noise)
    assert np.array_equal(apply_tp(tp, element), apply_tp(tp, element + off))
    for bad in (element[:-1], element[:, 1:, 1:], element.reshape(len(element), -1)):
        with pytest.raises(ValueError):
            apply_tp(tp, bad)


def test_split_checks_the_point_against_the_identity():
    """A map whose frames are scaled by 1 + 1e-8 is not a measurement's:
    T(I) = (1 + 1e-8)^2 I. The walk on it reaches a point with T(B) = T(I),
    and the split rejects that point, since T(B) is 2e-8 sqrt(d) off I."""
    povms = [povm for _, povm in inputs()] + [gen_covariant_sphere(50, seed=7)]
    for povm in povms:
        tp = build_tp_map(prune_and_merge(povm))
        scaled = TpMap(tp.dim, tp.labels, tp.frames * (1.0 + 1e-8), tp.kept)
        live, point = _extremal_direction(scaled)
        split_once(tp, *_extremal_direction(tp))
        with pytest.raises(SplitError, match="off the face"):
            split_once(scaled, live, point)


def test_kept_columns_may_stand_anywhere_in_their_block():
    """Any full-column-rank factors give the same map up to a unitary per
    block, so permuting each block's columns, kept mask with them, leaves
    the domain, the kernel dimension and the margin as they were, and the
    split accepts the (live, t, t) point the walk reaches on it."""
    rng = np.random.default_rng(11)
    moved = 0
    for _, povm in inputs():
        povm = prune_and_merge(povm)
        tp = build_tp_map(povm)
        n, d, t = tp.frames.shape
        perm = np.argsort(rng.random((n, t)), axis=1)
        moved += np.count_nonzero(perm != np.arange(t))
        permuted = TpMap(
            d,
            tp.labels,
            np.take_along_axis(tp.frames, perm[:, None, :], axis=2),
            np.take_along_axis(tp.kept, perm, axis=1),
        )
        assert permuted.domain_dim == tp.domain_dim
        a, b = verdict_from_tp(tp), verdict_from_tp(permuted)
        assert a.kernel_dim == b.kernel_dim > 0
        assert abs(a.margin - b.margin) <= 1e-12
        live, (u, lam) = _extremal_direction(permuted)
        assert u.shape == (len(live), t, t) and lam.shape == (len(live), t)
        split = split_once(permuted, live, (u, lam))
        rest = split.child_minus.to_povm()
        mixed = np.zeros_like(povm.effects)
        mixed[[povm.labels.index(label) for label in rest.labels]] = (
            split.weight_minus * rest.effects
        )
        mixed[live] += split.weight_plus * split.child_plus.effects
        assert np.max(np.abs(mixed - povm.effects)) <= 1e-12
    assert moved > 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(2, 4).flatmap(
        lambda d: st.tuples(
            st.just(d), st.integers(d + 1, 3 * d * d), st.integers(1, d), st.integers(0, 2**32 - 1)
        )
    )
)
def test_root_split_peels_an_extreme_point(case):
    """One split at a decomposition root: P = w+ E + w- R within 1e-12, E is
    extreme, R is PSD with a strictly smaller rank profile, and the frame of
    every block off the live ones is S_i sqrt(lambda / (lambda - 1)) bit for
    bit."""
    d, k, cap, seed = case
    povm = prune_and_merge(gen_random_povm(d, k, rank_cap=cap, seed=seed))
    tp = build_tp_map(povm)
    assume(not verdict_from_tp(tp).is_extreme)
    live, point = _extremal_direction(tp)
    split = split_once(tp, live, point)
    leaf, rest = split.child_plus, split.child_minus.to_povm()
    index = [povm.labels.index(label) for label in rest.labels]
    mixed = np.zeros_like(povm.effects)
    mixed[index] = split.weight_minus * rest.effects
    mixed[live] += split.weight_plus * leaf.effects
    assert np.max(np.abs(mixed - povm.effects)) <= 1e-12
    pruned = _prune(d, leaf.labels, leaf.effects, PRUNE_TOL)
    assert verdict_from_tp(build_tp_map(pruned)).is_extreme
    assert np.linalg.eigvalsh(rest.effects).min() >= -1e-12
    ranks = np.array(build_tp_map(rest).ranks)
    assert np.all(ranks <= tp.ranks[index]) and ranks.sum() < sum(tp.ranks)
    top, _ = ref_peel(live, point, tp)
    dead = np.setdiff1d(np.arange(len(tp.ranks)), live)
    child = split.child_minus
    rows = np.searchsorted(index, dead)
    assert np.array_equal(child.ranks[rows], tp.ranks[dead])
    carried = child.frames[rows].swapaxes(1, 2)
    assert not np.any(carried[~child.kept[rows]])
    scaled = tp.frames[dead].swapaxes(1, 2)[tp.kept[dead]] * np.sqrt(top / (top - 1.0))
    assert np.array_equal(carried[child.kept[rows]], scaled)


def test_rank_one_split_is_bit_identical():
    for seed in range(4):
        for node in nodes(gen_random_povm(3, 12, rank_cap=1, seed=seed)):
            tp = build_tp_map(node)
            assert_same_map(tp, ref_build_tp_map(node))
            assert set(tp.ranks) <= {0, 1}
            assert_same_split(*_extremal_direction(tp), tp)


def test_walk_and_split_make_a_bounded_number_of_eigh_calls(monkeypatch):
    """Complexity guard: a general walk step makes one eigh of the whole
    live stack, not one per outcome or sub-rank, and the general walk ends
    with one more, of the walk's live blocks only: at most d^2 of them,
    however many blocks the measurement has. The scalar walk makes none, and
    neither does the split: both children's maps come from the walk's
    spectral point, also for blocks the general walk left off the diagonal.
    Only the general walk calls kernel_basis, once per step."""
    d = 4
    povm = gen_random_povm(d, 12, rank_cap=4, seed=1)
    tp = build_tp_map(povm)
    counts = Counter()
    blocks = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            if name == "eigh":
                blocks.append(len(args[0]))
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigh", np.linalg.eigvalsh))
    monkeypatch.setattr(decompose, "kernel_basis", counting("steps", decompose.kernel_basis))
    live, point = _extremal_direction(tp)
    # one kernel SVD per general step, plus the last one, which finds none
    # and is followed by the eigh of the point
    general_steps = counts["steps"]
    assert general_steps > d
    assert counts["eigh"] == general_steps
    assert blocks[-1] == len(live) <= d * d
    counts.clear()
    split_once(tp, live, point)
    assert counts["eigh"] == 0
    # the general walk left a live block off the diagonal
    u, lam = point
    b = (u * lam[:, None, :]) @ u.conj().swapaxes(1, 2)
    assert np.any(np.abs(b[:, ~np.eye(b.shape[-1], dtype=bool)]) > 1e-3)
    # a sphere has many more blocks than d^2 = 4; its walk and split make no eigh
    sphere = gen_covariant_sphere(50, seed=7)
    sphere_tp = build_tp_map(sphere)
    counts.clear()
    live, point = _extremal_direction(sphere_tp)
    split_once(sphere_tp, live, point)
    assert counts["eigh"] == 0
    assert len(live) <= 4 < len(sphere_tp.ranks)


def corpus_povms(per_d=(7, 7, 6)):
    """The leading draws of the criterion-2 corpus for d = 2, 3, 4."""
    for (d, master), count in zip(((2, 1002), (3, 1003), (4, 1004)), per_d):
        rng = np.random.default_rng(master)
        for _ in range(count):
            k = int(rng.integers(2, 3 * d * d + 1))
            cap = min(d, max(1, int((100 / k) ** 0.5)))
            yield gen_random_povm(d, k, rank_cap=cap, seed=int(rng.integers(2**32)))


def split_chain(povm, max_splits=256):
    """The splits of a decomposition's peel chain: split each node at the
    point its walk reaches, warm-started from the split before, and go on
    with the remainder's map until it is extreme."""
    tp, warm = build_tp_map(prune_and_merge(povm)), None
    for _ in range(max_splits):
        if verdict_from_tp(tp).is_extreme:
            return
        split = split_once(tp, *_extremal_direction(tp, MARGIN_FACTOR, warm))
        yield split
        tp, warm = split.child_minus, split.warm
    raise AssertionError("peel chain did not end")


def test_walk_lands_on_an_extreme_point():
    """Every + child of a walk-directed split is extreme: the walk ends at an
    extreme point of the face, and the + saturation lands on it."""
    povms = [povm for _, povm in inputs()] + list(corpus_povms())
    assert len(povms) == 26
    splits = 0
    for povm in povms:
        for split in split_chain(povm):
            plus = split.child_plus
            child = _prune(plus.dim, plus.labels, plus.effects, PRUNE_TOL)
            assert verdict_from_tp(build_tp_map(child)).is_extreme
            splits += 1
    assert splits > len(povms)


def test_general_walk_starts_from_at_most_d2_live_roots(monkeypatch):
    """Complexity guard: the scalar walk runs over roots s_ij s_ij^dag and
    leaves their columns injective, so at most d^2 roots stay live. Each
    general step kills at least one root, so a general walk makes at most
    d^2 + 1 kernel SVDs, the last of which finds no kernel. Checked at every
    node of the peel chains of the leading criterion-2 draws and of
    full-rank inputs at d = 2, 3 and 4."""
    povms = list(corpus_povms())
    povms += [gen_random_povm(d, 3 * d * d, rank_cap=d, seed=7) for d in (3, 4)]
    # a d = 2 chain with a two-step general walk: they are rare at d = 2
    povms.append(gen_random_povm(2, 12, rank_cap=2, seed=1))
    calls = Counter()
    kernel = decompose.kernel_basis

    def counted(*args):
        calls["kernel"] += 1
        return kernel(*args)

    monkeypatch.setattr(decompose, "kernel_basis", counted)
    general = Counter()
    for povm in povms:
        d2 = povm.dim**2
        node = prune_and_merge(povm)
        while not verdict_from_tp(tp := build_tp_map(node)).is_extreme:
            calls.clear()
            (live, point), weights = walk_with_root_weights(tp, monkeypatch)
            assert np.count_nonzero(weights) <= d2
            assert calls["kernel"] <= d2 + 1
            if calls["kernel"]:
                general[povm.dim] = max(general[povm.dim], calls["kernel"])
            node = split_once(tp, live, point).child_minus.to_povm()
    # the general walk runs, and takes more than one step, at every d
    assert min(general[d] for d in (2, 3, 4)) > 2


def test_walk_converts_only_the_pairs_in_use(monkeypatch):
    """Complexity guard: the map-column builder converts one matrix per pair
    it is given. The scalar walk gives it the diagonal of every slot; each
    general-walk step gives it the kept pairs of its live roots, so a step
    converts sum_i |kept_i|^2 matrices, not live * s^2. Checked at every node
    of the peel chains of the leading criterion-2 draws and of full-rank
    inputs at d = 3 and 4."""
    povms = list(corpus_povms())
    povms += [gen_random_povm(d, 3 * d * d, rank_cap=d, seed=7) for d in (3, 4)]
    rows, calls = [], []
    convert, build = extremality.herm_coords, decompose.frame_columns

    def converted(x):
        rows.append(x.shape[0])
        return convert(x)

    def built(frames, pairs):
        rows.clear()
        out = build(frames, pairs)
        calls.append((pairs.copy(), sum(rows)))
        return out

    monkeypatch.setattr(extremality, "herm_coords", converted)
    monkeypatch.setattr(extremality, "frame_columns", built)
    monkeypatch.setattr(decompose, "frame_columns", built)
    steps = padded = 0
    for povm in povms:
        node = prune_and_merge(povm)
        while not verdict_from_tp(tp := build_tp_map(node)).is_extreme:
            calls.clear()
            live, point = _extremal_direction(tp)
            n, _, t = tp.frames.shape
            (roots, converted_rows), *general = calls
            assert np.array_equal(roots, np.broadcast_to(np.eye(t, dtype=bool), (n, t, t)))
            assert converted_rows == n * t
            for pairs, converted_rows in general:
                kept = np.diagonal(pairs, axis1=1, axis2=2)
                assert np.array_equal(pairs, pair_mask(kept))
                assert converted_rows == np.sum(np.count_nonzero(kept, axis=1) ** 2)
                padded += converted_rows < pairs.size
            steps += len(general)
            node = split_once(tp, live, point).child_minus.to_povm()
    # the general walk runs, and most steps skip dead roots of the live stack
    assert steps > 0 and padded > steps // 2
