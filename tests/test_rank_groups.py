"""The decomposition path on one padded block stack, against per-block code.

The map, the general walk and the split hold every block in one stack of
t x t blocks (t the largest rank), each block's frame in its trailing
columns. The reference functions below evaluate each of them one block at a
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
    pair_mask,
    verdict_from_tp,
)
from povmix.linalg import RANK_TOL, herm_basis, herm_matrices, kernel_basis
from povmix.model import PRUNE_TOL, FinitePOVM, _prune, prune_and_merge
from povmix.outcomes import gen_random_povm


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
    matrix = ref_map_matrix(padded, [np.arange(t) >= t - r for r in ranks])
    return TpMap(d, povm.labels, padded, ranks, matrix)


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
    and B = diag(c_ij) as it stands. Otherwise a step reads each block's
    part of the real kernel vector as the Hermitian coordinates of its kept
    pairs, writes the floor on each block's dead diagonal, so the dead
    eigenvalues sort first, negates the spectrum on a flip, maps g to
    g U sqrt(1 + tau*lambda) and drops the saturated columns from the mask
    wherever they stand. The direction B - I comes back as the map's padded
    (n, t, t) stack, each block in its trailing r x r window, dead blocks
    at B = 0.
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
    if max(np.count_nonzero(kept) for kept in kepts) == 1:
        coords = [np.diag(weights[i, t - s :]).astype(np.complex128) for i in live]
    else:
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
        coords = [g @ g.conj().T for g in factors]
    blocks = []
    for b, i in zip(coords, live):
        r = tp.ranks[i]
        b[np.arange(s - r, s), np.arange(s - r, s)] -= 1.0
        blocks.append(b)
    radius = max(float(np.max(np.abs(np.linalg.eigvalsh(b)))) for b in blocks)
    if len(live) < np.count_nonzero(tp.ranks):
        radius = max(radius, 1.0)
    out = np.zeros((len(tp.ranks), t, t), dtype=np.complex128)
    for i, r in enumerate(tp.ranks):
        out[i, t - r :, t - r :] = (-1.0 / radius) * np.eye(r)
    for b, i in zip(blocks, live):
        r = tp.ranks[i]
        out[i, t - r :, t - r :] = (1.0 / radius) * b[s - r :, s - r :]
    return out


def walk_with_root_weights(tp, monkeypatch):
    """The walk's direction and the (n, t) root weights that its last
    scalar walk, the one over single roots, returns."""
    weights = []
    walk = decompose._scalar_walk

    def recorded(*args):
        weights.append(walk(*args))
        return weights[-1]

    with monkeypatch.context() as m:
        m.setattr(decompose, "_scalar_walk", recorded)
        element = _extremal_direction(tp)
    return element, weights[-1].reshape(tp.frames.shape[0], -1)


def ref_split_once(element, tp):
    """(weights, taus, child effects) of a split, one padded block at a time,
    each read from its trailing r x r window of the element."""
    t = tp.frames.shape[2]
    hs, kepts = [], []
    for b, r in zip(element, tp.ranks):
        x = np.zeros((t, t), dtype=np.complex128)
        x[t - r :, t - r :] = b[t - r :, t - r :]
        hs.append((x + x.conj().T) / 2.0)
        kepts.append(np.arange(t) >= t - r)
    eighs = ref_live_eigh(hs, kepts)
    all_eigs = np.concatenate([w[lv] for w, _, lv in eighs])
    tau_plus = 1.0 / abs(float(all_eigs.min()))
    tau_minus = 1.0 / float(all_eigs.max())
    d = tp.dim
    children = []
    for tau, sign in ((tau_plus, 1.0), (tau_minus, -1.0)):
        effects = np.zeros((len(tp.frames), d, d), dtype=np.complex128)
        for i, (frame, (lam, u, lv)) in enumerate(zip(tp.frames, eighs)):
            m = (u * _saturate(np.where(lv, 1.0 + sign * tau * lam, 0.0))) @ u.conj().T
            e = frame @ ((m + m.conj().T) / 2.0) @ frame.conj().T
            effects[i] = (e + e.conj().T) / 2.0
        children.append(effects)
    total = tau_plus + tau_minus
    return (tau_minus / total, tau_plus / total), (tau_plus, tau_minus), children


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
        child = split_once(povm, _extremal_direction(tp), tp).child_minus
        povm = _prune(child.dim, child.labels, child.effects, PRUNE_TOL)
        yield povm


def assert_same_map(tp, ref):
    assert tp.ranks == ref.ranks
    assert tp.frames.shape == ref.frames.shape
    assert np.array_equal(tp.frames, ref.frames)
    assert np.array_equal(tp.matrix, ref.matrix)


def assert_same_split(povm, element, tp):
    got = split_once(povm, element, tp)
    weights, taus, children = ref_split_once(element, tp)
    assert (got.weight_plus, got.weight_minus) == weights
    assert (got.tau_plus, got.tau_minus) == taus
    assert np.array_equal(got.child_plus.effects, children[0])
    assert np.array_equal(got.child_minus.effects, children[1])


@pytest.mark.parametrize("name, povm", list(inputs()), ids=[n for n, _ in inputs()])
def test_stacked_walk_split_and_map_are_bit_identical(name, povm, monkeypatch):
    ragged = False
    general = 0
    for node in nodes(povm):
        tp = build_tp_map(node)
        assert_same_map(tp, ref_build_tp_map(node))
        assert max(tp.ranks) > 1
        ragged |= len(set(tp.ranks) - {0}) > 1
        element, weights = walk_with_root_weights(tp, monkeypatch)
        general += np.count_nonzero(weights, axis=1).max() > 1
        assert np.array_equal(element, ref_general_walk(tp, weights))
        assert_same_split(node, element, tp)
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
    """The element contract: entries off the blocks' windows are ignored,
    and an element not shaped like the map's stack is rejected."""
    povm = mixed_rank_povm(0)
    tp = build_tp_map(povm)
    element = _extremal_direction(tp)
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(element.shape) + 1j * rng.standard_normal(element.shape)
    off = np.where(pair_mask(tp.kept), 0.0, noise)
    assert np.count_nonzero(off) > 0
    clean, noisy = split_once(povm, element, tp), split_once(povm, element + off, tp)
    for name in ("weight_plus", "weight_minus", "tau_plus", "tau_minus"):
        assert getattr(clean, name) == getattr(noisy, name)
    for name in ("child_plus", "child_minus"):
        a, b = getattr(clean, name), getattr(noisy, name)
        assert a.labels == b.labels and a.effects.tobytes() == b.effects.tobytes()
    assert np.array_equal(apply_tp(tp, element), apply_tp(tp, element + off))
    for bad in (element[:-1], element[:, 1:, 1:], element.reshape(len(element), -1)):
        with pytest.raises(SplitError):
            split_once(povm, bad, tp)
        with pytest.raises(ValueError):
            apply_tp(tp, bad)


def test_rank_one_split_is_bit_identical():
    for seed in range(4):
        for node in nodes(gen_random_povm(3, 12, rank_cap=1, seed=seed)):
            tp = build_tp_map(node)
            assert_same_map(tp, ref_build_tp_map(node))
            assert set(tp.ranks) <= {0, 1}
            assert_same_split(node, _extremal_direction(tp), tp)


def test_walk_and_split_make_a_bounded_number_of_eigh_calls(monkeypatch):
    """Complexity guard: a general walk step makes one eigh of the whole
    stack, not one per outcome or sub-rank, and the walk ends with one
    eigvalsh; the scalar walk makes none, and a split makes one. Only the
    general walk calls kernel_basis, once per step."""
    d = 4
    povm = gen_random_povm(d, 12, rank_cap=4, seed=1)
    tp = build_tp_map(povm)
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigh", np.linalg.eigvalsh))
    monkeypatch.setattr(decompose, "kernel_basis", counting("steps", decompose.kernel_basis))
    element = _extremal_direction(tp)
    # one kernel SVD per general step, plus the last one, which finds none
    general_steps = counts["steps"]
    assert general_steps > d
    assert counts["eigh"] <= general_steps
    counts.clear()
    split_once(povm, element, tp)
    assert counts["eigh"] == 1


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
        split = split_once(node, _extremal_direction(tp), tp)
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
    full-rank inputs at d = 3 and 4."""
    povms = list(corpus_povms())
    povms += [gen_random_povm(d, 3 * d * d, rank_cap=d, seed=7) for d in (3, 4)]
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
            element, weights = walk_with_root_weights(tp, monkeypatch)
            assert np.count_nonzero(weights) <= d2
            assert calls["kernel"] <= d2 + 1
            if calls["kernel"]:
                general[povm.dim] = max(general[povm.dim], calls["kernel"])
            child = split_once(node, element, tp).child_minus
            node = _prune(child.dim, child.labels, child.effects, PRUNE_TOL)
    # the general walk runs, and takes more than one step, at every d
    assert min(general[d] for d in (2, 3, 4)) > 2
