"""The decomposition path on blocks stacked by rank, against per-block code.

The reference functions below evaluate the walk, the split and the map one
block at a time. Stacking changes no arithmetic inside a block, so every
output must be equal bit for bit, not just close.
"""

from collections import Counter

import numpy as np
import pytest

from povmix import decompose
from povmix.decompose import (
    _extremal_direction,
    _hermitian_kernel_vector,
    _saturate,
    _saturating_step,
    split_once,
)
from povmix.extremality import (
    MARGIN_FACTOR,
    BlockHermitian,
    TpMap,
    adjoint_index,
    build_tp_map,
)
from povmix.linalg import RANK_TOL
from povmix.model import PRUNE_TOL, FinitePOVM, _prune
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
    if any(ranks):
        matrix = np.hstack([ref_frame_columns(f) for f in frames])
    else:
        matrix = np.zeros((d * d, 0), dtype=np.complex128)
    return TpMap(d, povm.labels, tuple(frames), ranks, matrix)


def ref_adjoint_index(ranks):
    parts = []
    offset = 0
    for r in ranks:
        parts.append(offset + np.arange(r * r).reshape(r, r).T.reshape(-1))
        offset += r * r
    return np.concatenate(parts)


def ref_blocks_from_vector(vector, ranks):
    """Cut a stacked coefficient vector into row-major r_i x r_i blocks."""
    blocks = []
    offset = 0
    for r in ranks:
        blocks.append(vector[offset : offset + r * r].reshape(r, r))
        offset += r * r
    return tuple(blocks)


def ref_block_eigh(blocks):
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


def ref_general_walk(tp, margin_factor=MARGIN_FACTOR):
    """The general-rank walk, one eigh, matmul and frame per block.

    Each block keeps a factor g with coordinates B = g g^dag; a step maps
    g to g U sqrt(1 + tau*lambda) and drops the columns that saturate to zero.
    """
    ranks = tp.ranks
    factors = [np.eye(r, dtype=np.complex128) for r in ranks]
    matrix = tp.matrix
    for _ in range(tp.domain_dim + 16):
        sub_ranks = tuple(g.shape[1] for g in factors)
        vec = _hermitian_kernel_vector(matrix, ref_adjoint_index(sub_ranks), margin_factor)
        if vec is None:
            break
        eigs, vecs = ref_block_eigh(ref_blocks_from_vector(vec, sub_ranks))
        tau, flip = _saturating_step(np.concatenate(eigs))
        if flip:
            eigs = [-w[::-1] for w in eigs]
            vecs = [v[:, ::-1] for v in vecs]
        for i, g in enumerate(factors):
            if g.shape[1]:
                sat = _saturate(1.0 + tau * eigs[i])
                factors[i] = (g @ (vecs[i] * np.sqrt(sat)))[:, sat > 0.0]
        matrix = np.hstack([ref_frame_columns(S @ g) for S, g in zip(tp.frames, factors)])
    else:
        raise AssertionError("reference walk did not end")
    blocks = [g @ g.conj().T - np.eye(r, dtype=np.complex128) for g, r in zip(factors, ranks)]
    radius = max(float(np.max(np.abs(np.linalg.eigvalsh(b)))) for b in blocks if b.size)
    return BlockHermitian(tuple((1.0 / radius) * b for b in blocks))


def ref_split_once(element, tp):
    """(weights, taus, child effects) of a split, one block at a time."""
    eigs, vecs = ref_block_eigh(element.blocks)
    all_eigs = np.concatenate(eigs)
    tau_plus = 1.0 / abs(float(all_eigs.min()))
    tau_minus = 1.0 / float(all_eigs.max())
    d = tp.dim
    children = []
    for tau, sign in ((tau_plus, 1.0), (tau_minus, -1.0)):
        effects = np.zeros((len(tp.frames), d, d), dtype=np.complex128)
        for i, (frame, lam, u) in enumerate(zip(tp.frames, eigs, vecs)):
            if lam.size:
                m = (u * _saturate(1.0 + sign * tau * lam)) @ u.conj().T
                e = frame @ ((m + m.conj().T) / 2.0) @ frame.conj().T
                effects[i] = (e + e.conj().T) / 2.0
        children.append(effects)
    total = tau_plus + tau_minus
    return (tau_minus / total, tau_plus / total), (tau_plus, tau_minus), children


def mixed_rank_povm(seed):
    """d = 3 with effect ranks 1, 2, 3, 2, 1 and one zero effect."""
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
    assert all(np.array_equal(a, b) for a, b in zip(tp.frames, ref.frames))
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


def test_rank_one_split_is_bit_identical():
    for seed in range(4):
        for node in nodes(gen_random_povm(3, 12, rank_cap=1, seed=seed)):
            tp = build_tp_map(node)
            assert_same_map(tp, ref_build_tp_map(node))
            assert set(tp.ranks) <= {0, 1}
            assert_same_split(node, _extremal_direction(tp), tp)


def test_adjoint_index_matches_per_block_reference():
    for ranks in [(2, 0, 1, 3, 3, 1), (1,), (0, 4), (2, 2, 2)]:
        assert np.array_equal(adjoint_index(ranks), ref_adjoint_index(ranks))
        assert np.array_equal(adjoint_index(np.array(ranks)), ref_adjoint_index(ranks))


def test_walk_and_split_make_a_bounded_number_of_eigh_calls(monkeypatch):
    """Complexity guard: a walk step makes one eigh per sub-rank group, not
    one per outcome (per-block code makes about k per step), and no eigh of
    block coordinates."""
    d, k = 4, 24
    povm = gen_random_povm(d, k, rank_cap=2, seed=3)
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
    steps = counts["steps"]
    assert steps > d
    assert counts["eigh"] <= 2 * steps
    counts.clear()
    split_once(povm, element, tp)
    assert 0 < counts["eigh"] <= d
