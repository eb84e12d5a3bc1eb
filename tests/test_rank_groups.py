"""The decomposition path on one padded block stack, against per-block code.

The map holds every block in one stack of t x t blocks (t the largest
rank), each block's frame in its trailing columns; the general walk and the
split hold the walk's live blocks in one stack of s x s blocks the same way
(s the largest live rank). The reference functions below evaluate each of them one block at a
time on the same padded blocks. Stacking changes no arithmetic inside a
block, so every output must be equal bit for bit, not just close. The one
exception is the change to real Hermitian coordinates: a BLAS product over
the whole stack need not match per-block products in the last bit, so the
references apply that shared conversion, the products with the basis
matrices of linalg.herm_basis, once to their stacked per-block columns.
From coordinates back to Hermitian blocks every entry is a single product,
so that conversion runs block by block.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from povmix import decompose
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
    apply_tp,
    build_tp_map,
    frame_columns,
    pair_mask,
    verdict_from_tp,
)
from povmix.linalg import RANK_TOL, herm_basis, herm_matrices, kernel_basis
from povmix.model import PRUNE_TOL, FinitePOVM, _prune, prune_and_merge
from povmix.outcomes import gen_covariant_sphere, gen_random_povm


def ref_frame_columns(frame):
    """Complex columns vec(S E_jk S^dag) of one padded d x t frame, all t^2 pairs."""
    d, t = frame.shape
    return np.einsum("aj,bk->abjk", frame, frame.conj()).reshape(d * d, t * t)


def ref_map_matrix(frames, kepts):
    """Real map of padded frames: each block's complex columns, stacked and
    put into Hermitian coordinates by one shared conversion, then each
    block's kept pairs (j, k) row-major."""
    d, t = frames[0].shape
    stacked = np.stack([ref_frame_columns(f) for f in frames], axis=1).reshape(-1, t * t)
    blocks = (stacked @ herm_basis(t).conj().T).reshape(d * d, -1)
    pairs = np.concatenate([np.outer(kept, kept).reshape(-1) for kept in kepts])
    return (herm_basis(d) @ blocks).real[:, pairs]


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
    return TpMap(d, povm.labels, padded, ranks)


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
    its roots is; each live block keeps the trailing s columns of its frame
    (s the largest live rank), a factor g = diag(sqrt(c_ij)) with
    coordinates B = g g^dag, and a mask of g's live columns, the roots with
    c_ij > 0. When every live block has one live root, the point is extreme
    as it stands. Otherwise a step reads each block's part of the real
    kernel vector as the Hermitian coordinates of its kept pairs, writes the
    floor on each block's dead diagonal, so the dead eigenvalues sort first,
    negates the spectrum on a flip, maps g to g U sqrt(1 + tau*lambda) and
    drops the saturated columns from the mask wherever they stand. Returns
    the live blocks and their points B = g g^dag.
    """
    t = tp.frames.shape[2]
    live = [i for i in range(len(tp.ranks)) if np.any(weights[i] > 0.0)]
    s = max(tp.ranks[i] for i in live)
    frames, factors, kepts = [], [], []
    for i in live:
        c = weights[i, t - s :]
        frames.append(tp.frames[i][:, t - s :])
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
                y = np.zeros(s * s)
                y[np.outer(kept, kept).reshape(-1)] = vec[offset : offset + k * k]
                hs.append(herm_matrices(y, s))
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
    return np.array(live), np.array([g @ g.conj().T for g in factors])


def walk_with_root_weights(tp, monkeypatch):
    """The walk's (live, point) and the (n, t) root weights that its last
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
    """lambda and the per-block eigenpairs of a split, one padded block at a
    time, each block read from the trailing r x r window of its point."""
    s = point.shape[-1]
    hs, kepts = [], []
    for b, i in zip(point, live):
        r = tp.ranks[i]
        x = np.zeros((s, s), dtype=np.complex128)
        x[s - r :, s - r :] = b[s - r :, s - r :]
        hs.append((x + x.conj().T) / 2.0)
        kepts.append(np.arange(s) >= s - r)
    eighs = ref_live_eigh(hs, kepts)
    return float(max(w[lv].max() for w, _, lv in eighs)), eighs


def ref_split_once(povm, live, point, tp):
    """(weights, leaf effects, remainder effects) of a split, one padded
    block at a time: the leaf S B S^dag and the remainder
    S (lambda I - B) S^dag / (lambda - 1) of each live block from its own
    eigh, and every other block P_i lambda / (lambda - 1)."""
    t, s = tp.frames.shape[2], point.shape[-1]
    top, eighs = ref_peel(live, point, tp)
    leaf = np.zeros((len(live), tp.dim, tp.dim), dtype=np.complex128)
    rest = np.array([p * (top / (top - 1.0)) for p in povm.effects])
    for k, (i, (lam, u, lv)) in enumerate(zip(live, eighs)):
        frame = tp.frames[i][:, t - s :]
        for out, j, vals in ((leaf, k, lam), (rest, i, (top - lam) / (top - 1.0))):
            m = (u * _saturate(np.where(lv, vals, 0.0))) @ u.conj().T
            e = frame @ ((m + m.conj().T) / 2.0) @ frame.conj().T
            out[j] = (e + e.conj().T) / 2.0
    return (1.0 / top, 1.0 - 1.0 / top), leaf, rest


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


def nodes(povm, depth=2):
    """The input and, below it, the minus child of each split, pruned."""
    yield povm
    for _ in range(depth):
        tp = build_tp_map(povm)
        child = split_once(povm, *_extremal_direction(tp), tp).child_minus
        povm = _prune(child.dim, child.labels, child.effects, PRUNE_TOL)
        yield povm


def assert_same_map(tp, ref):
    assert tp.ranks == ref.ranks
    assert tp.frames.shape == ref.frames.shape
    assert np.array_equal(tp.frames, ref.frames)
    t = ref.frames.shape[2]
    kepts = [np.arange(t) >= t - r for r in ref.ranks]
    assert np.array_equal(frame_columns(tp.frames, tp.kept), ref_map_matrix(ref.frames, kepts))


def assert_same_split(povm, live, point, tp):
    got = split_once(povm, live, point, tp)
    weights, leaf, rest = ref_split_once(povm, live, point, tp)
    assert (got.weight_plus, got.weight_minus) == weights
    assert got.child_plus.labels == tuple(povm.labels[i] for i in live)
    assert got.child_minus.labels == povm.labels
    assert np.array_equal(got.child_plus.effects, leaf)
    assert np.array_equal(got.child_minus.effects, rest)


@pytest.mark.parametrize("name, povm", list(inputs()), ids=[n for n, _ in inputs()])
def test_stacked_walk_split_and_map_are_bit_identical(name, povm, monkeypatch):
    ragged = False
    general = 0
    for node in nodes(povm):
        tp = build_tp_map(node)
        assert_same_map(tp, ref_build_tp_map(node))
        assert max(tp.ranks) > 1
        ragged |= len(set(tp.ranks) - {0}) > 1
        (live, point), weights = walk_with_root_weights(tp, monkeypatch)
        general += np.count_nonzero(weights, axis=1).max() > 1
        ref_live, ref_point = ref_general_walk(tp, weights)
        assert np.array_equal(live, ref_live)
        assert np.array_equal(point, ref_point)
        assert_same_split(node, live, point, tp)
    # two splits down, blocks of one original rank have different ranks
    assert ragged
    # some block keeps two live roots: the general-rank walk runs
    assert general > 0


def test_map_frames_are_one_stack_padded_in_front():
    povm = mixed_rank_povm(0)
    tp = build_tp_map(povm)
    assert tp.ranks == (1, 2, 0, 3, 2, 1)
    assert tp.frames.shape == (6, 3, 3)
    for frame, effect, r in zip(tp.frames, povm.effects, tp.ranks):
        assert np.all(frame[:, : 3 - r] == 0)
        assert np.allclose(frame @ frame.conj().T, effect, rtol=0, atol=1e-12)
    assert np.all(tp.frames[2] == 0)


def test_split_and_map_read_only_the_windows():
    """The point contract: entries off the live blocks' windows are ignored
    and the caller's point is not written; a point not shaped like the live
    stack is rejected. apply_tp reads the map's whole stack the same way."""
    povm = mixed_rank_povm(0)
    tp = build_tp_map(povm)
    live, point = _extremal_direction(tp)
    t, s = tp.frames.shape[2], point.shape[-1]
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(point.shape) + 1j * rng.standard_normal(point.shape)
    off = np.where(pair_mask(tp.kept[live, t - s :]), 0.0, noise)
    assert np.count_nonzero(off) > 0
    noisy = point + off
    unwritten = noisy.copy()
    clean, dirty = split_once(povm, live, point, tp), split_once(povm, live, noisy, tp)
    assert np.array_equal(noisy, unwritten)
    for name in ("weight_plus", "weight_minus"):
        assert getattr(clean, name) == getattr(dirty, name)
    for name in ("child_plus", "child_minus"):
        a, b = getattr(clean, name), getattr(dirty, name)
        assert a.labels == b.labels and a.effects.tobytes() == b.effects.tobytes()
    for bad in (point[:-1], point[:, 1:, 1:], point.reshape(len(point), -1)):
        with pytest.raises(SplitError):
            split_once(povm, live, bad, tp)
    element = np.zeros((len(tp.ranks), t, t), dtype=np.complex128)
    element[live, t - s :, t - s :] = point
    noise = rng.standard_normal(element.shape) + 1j * rng.standard_normal(element.shape)
    off = np.where(pair_mask(tp.kept), 0.0, noise)
    assert np.array_equal(apply_tp(tp, element), apply_tp(tp, element + off))
    for bad in (element[:-1], element[:, 1:, 1:], element.reshape(len(element), -1)):
        with pytest.raises(ValueError):
            apply_tp(tp, bad)


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
    extreme, R is PSD with a strictly smaller rank profile, and every block
    off the live ones is P_i lambda / (lambda - 1) bit for bit."""
    d, k, cap, seed = case
    povm = prune_and_merge(gen_random_povm(d, k, rank_cap=cap, seed=seed))
    tp = build_tp_map(povm)
    assume(not verdict_from_tp(tp).is_extreme)
    live, point = _extremal_direction(tp)
    split = split_once(povm, live, point, tp)
    leaf, rest = split.child_plus, split.child_minus
    mixed = split.weight_minus * rest.effects
    mixed[live] += split.weight_plus * leaf.effects
    assert np.max(np.abs(mixed - povm.effects)) <= 1e-12
    pruned = _prune(d, leaf.labels, leaf.effects, PRUNE_TOL)
    assert verdict_from_tp(build_tp_map(pruned)).is_extreme
    assert np.linalg.eigvalsh(rest.effects).min() >= -1e-12
    ranks = np.array(build_tp_map(rest).ranks)
    assert np.all(ranks <= tp.ranks) and ranks.sum() < sum(tp.ranks)
    top, _ = ref_peel(live, point, tp)
    dead = np.setdiff1d(np.arange(len(tp.ranks)), live)
    assert np.array_equal(rest.effects[dead], povm.effects[dead] * (top / (top - 1.0)))


def test_rank_one_split_is_bit_identical():
    for seed in range(4):
        for node in nodes(gen_random_povm(3, 12, rank_cap=1, seed=seed)):
            tp = build_tp_map(node)
            assert_same_map(tp, ref_build_tp_map(node))
            assert set(tp.ranks) <= {0, 1}
            assert_same_split(node, *_extremal_direction(tp), tp)


def test_walk_and_split_make_a_bounded_number_of_eigh_calls(monkeypatch):
    """Complexity guard: a general walk step makes one eigh of the whole
    live stack, not one per outcome or sub-rank; the scalar walk makes none.
    A split makes one eigh, of the walk's live blocks only: at most d^2 of
    them, however many blocks the measurement has. Only the general walk
    calls kernel_basis, once per step."""
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
    general_steps = counts["steps"]
    assert general_steps > d
    assert counts["eigh"] <= general_steps
    counts.clear()
    split_once(povm, live, point, tp)
    assert counts["eigh"] == 1
    assert blocks[-1] == len(live) <= d * d
    # a sphere has many more blocks than d^2 = 4; the split's eigh sees the live ones
    sphere = gen_covariant_sphere(50, seed=7)
    sphere_tp = build_tp_map(sphere)
    live, point = _extremal_direction(sphere_tp)
    counts.clear()
    split_once(sphere, live, point, sphere_tp)
    assert counts["eigh"] == 1
    assert blocks[-1] == len(live) <= 4 < len(sphere_tp.ranks)


def corpus_povms(per_d=(7, 7, 6)):
    """The leading draws of the criterion-2 corpus for d = 2, 3, 4."""
    for (d, master), count in zip(((2, 1002), (3, 1003), (4, 1004)), per_d):
        rng = np.random.default_rng(master)
        for _ in range(count):
            k = int(rng.integers(2, 3 * d * d + 1))
            cap = min(d, max(1, int((100 / k) ** 0.5)))
            yield gen_random_povm(d, k, rank_cap=cap, seed=int(rng.integers(2**32)))


def split_chain(povm, max_splits=256):
    """The splits of a decomposition's peel chain: split each node along its
    walk direction and go on with the pruned minus child until it is extreme."""
    node = prune_and_merge(povm)
    for _ in range(max_splits):
        tp = build_tp_map(node)
        if verdict_from_tp(tp).is_extreme:
            return
        split = split_once(node, *_extremal_direction(tp), tp)
        yield split
        child = split.child_minus
        node = _prune(child.dim, child.labels, child.effects, PRUNE_TOL)
    raise AssertionError("peel chain did not end")


def test_walk_lands_on_an_extreme_point():
    """Every + child of a walk-directed split is extreme: the walk ends at an
    extreme point of the face, and the + saturation lands on it."""
    povms = [povm for _, povm in inputs()] + list(corpus_povms())
    assert len(povms) == 25
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
            child = split_once(node, live, point, tp).child_minus
            node = _prune(child.dim, child.labels, child.effects, PRUNE_TOL)
    # the general walk runs, and takes more than one step, at every d
    assert min(general[d] for d in (2, 3, 4)) > 2
