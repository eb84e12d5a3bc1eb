"""The decomposition path on one padded block stack, against per-block code.

The map, the general walk and the split hold every block in one stack of
t x t blocks (t the largest rank), each block's frame in its trailing
columns. The reference functions below evaluate each of them one block at a
time on the same padded blocks. Stacking changes no arithmetic inside a
block, so every output must be equal bit for bit, not just close.
"""

from collections import Counter

import numpy as np
import pytest

from povmix import decompose
from povmix.decompose import (
    _extremal_direction,
    _kernel_vector,
    _saturate,
    _saturating_step,
    split_once,
)
from povmix.extremality import (
    MARGIN_FACTOR,
    BlockHermitian,
    TpMap,
    build_tp_map,
    verdict_from_tp,
)
from povmix.linalg import RANK_TOL
from povmix.model import PRUNE_TOL, FinitePOVM, _prune, prune_and_merge
from povmix.outcomes import gen_random_povm


def ref_frame_columns(frame):
    d, r = frame.shape
    if r == 0:
        return np.zeros((d * d, 0), dtype=np.complex128)
    return np.einsum("aj,bk->abjk", frame, frame.conj()).reshape(d * d, r * r)


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
    if any(ranks):
        matrix = np.hstack([ref_frame_columns(f) for f in frames])
    else:
        matrix = np.zeros((d * d, 0), dtype=np.complex128)
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


def ref_general_walk(tp, margin_factor=MARGIN_FACTOR):
    """The general-rank walk, one eigh, matmul and frame per padded block.

    On these inputs the scalar walk keeps every block at B = I, so the walk
    starts there. Each block of nonzero rank r keeps its t x t frame and a
    factor g with coordinates B = g g^dag, and a mask of g's live columns,
    at first the trailing r. A step writes the floor on each block's dead
    diagonal, so the dead eigenvalues sort first, negates the spectrum on a
    flip, maps g to g U sqrt(1 + tau*lambda) and drops the saturated columns
    from the mask wherever they stand.
    """
    d = tp.dim
    live = [i for i, r in enumerate(tp.ranks) if r]
    t = max(tp.ranks)
    frames, factors, kepts = [], [], []
    for i in live:
        r = tp.ranks[i]
        g = np.zeros((t, t), dtype=np.complex128)
        g[t - r :, t - r :] = np.eye(r)
        frames.append(tp.frames[i])
        factors.append(g)
        kepts.append(np.arange(t) >= t - r)
    for _ in range(tp.domain_dim + 16):
        cols = [
            ref_frame_columns(f @ g).reshape(d * d, t, t)[:, kept][:, :, kept].reshape(d * d, -1)
            for f, g, kept in zip(frames, factors, kepts)
        ]
        vec = _kernel_vector(np.hstack(cols), margin_factor)
        if vec is None:
            break
        xs = []
        offset = 0
        for kept in kepts:
            s = np.count_nonzero(kept)
            x = np.zeros((t, t), dtype=np.complex128)
            x[np.ix_(kept, kept)] = vec[offset : offset + s * s].reshape(s, s)
            xs.append(x)
            offset += s * s
        hs = [(x + x.conj().T) / 2.0 for x in xs]
        if np.sqrt(sum(np.linalg.norm(h) ** 2 for h in hs)) <= decompose._HERM_PREFERENCE:
            hs = [(x - x.conj().T) / 2.0j for x in xs]
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
    blocks = []
    for g, i in zip(factors, live):
        b = g @ g.conj().T
        b[np.arange(t - tp.ranks[i], t), np.arange(t - tp.ranks[i], t)] -= 1.0
        blocks.append(b)
    radius = max(float(np.max(np.abs(np.linalg.eigvalsh(b)))) for b in blocks)
    out = [np.zeros((0, 0), dtype=np.complex128)] * len(tp.ranks)
    for b, i in zip(blocks, live):
        r = tp.ranks[i]
        out[i] = (1.0 / radius) * b[t - r :, t - r :]
    return BlockHermitian(tuple(out))


def ref_split_once(element, tp):
    """(weights, taus, child effects) of a split, one padded block at a time."""
    t = tp.frames.shape[2]
    hs, kepts = [], []
    for b, r in zip(element.blocks, tp.ranks):
        x = np.zeros((t, t), dtype=np.complex128)
        x[t - r :, t - r :] = b
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
def test_stacked_walk_split_and_map_are_bit_identical(name, povm):
    ragged = False
    for node in nodes(povm):
        tp = build_tp_map(node)
        assert_same_map(tp, ref_build_tp_map(node))
        assert max(tp.ranks) > 1  # the general-rank walk
        ragged |= len(set(tp.ranks) - {0}) > 1
        element = _extremal_direction(tp)
        ref = ref_general_walk(tp)
        assert element.ranks == ref.ranks
        assert all(np.array_equal(a, b) for a, b in zip(element.blocks, ref.blocks))
        assert_same_split(node, element, tp)
    # two splits down, blocks of one original rank have different ranks
    assert ragged


def test_map_frames_are_one_stack_padded_in_front():
    povm = mixed_rank_povm(0)
    tp = build_tp_map(povm)
    assert tp.ranks == (1, 2, 0, 3, 2, 1)
    assert tp.frames.shape == (6, 3, 3)
    for frame, effect, r in zip(tp.frames, povm.effects, tp.ranks):
        assert np.all(frame[:, : 3 - r] == 0)
        assert np.allclose(frame @ frame.conj().T, effect, rtol=0, atol=1e-12)
    assert np.all(tp.frames[2] == 0)


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
    eigvalsh; the scalar walk makes none, and a split makes one."""
    d, k = 4, 24
    povm = gen_random_povm(d, k, rank_cap=2, seed=3)
    tp = build_tp_map(povm)
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    scalar_walk = decompose._scalar_walk

    def counting_scalar_steps(*args):
        before = counts["steps"]
        try:
            return scalar_walk(*args)
        finally:
            counts["scalar steps"] += counts["steps"] - before

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigh", np.linalg.eigvalsh))
    monkeypatch.setattr(decompose, "kernel_basis", counting("steps", decompose.kernel_basis))
    monkeypatch.setattr(decompose, "_scalar_walk", counting_scalar_steps)
    element = _extremal_direction(tp)
    # one kernel SVD per general step, plus the last one, which finds none
    general_steps = counts["steps"] - counts["scalar steps"]
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
