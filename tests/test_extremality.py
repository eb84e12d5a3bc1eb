import numpy as np
import pytest

from povmix.decompose import SplitError, _extremal_direction, split_once
from povmix.extremality import (
    build_tp_map,
    frame_columns,
    is_extreme,
    pair_mask,
    verdict_from_tp,
)
from povmix.linalg import herm_coords
from povmix.model import FinitePOVM
from povmix.outcomes import (
    gen_ea_family,
    gen_pvm,
    gen_random_povm,
    gen_sic_qubit,
    gen_trine,
)

from oracles import apply_tp, gram_extremality_oracle

I2 = np.eye(2, dtype=np.complex128)


def coin():
    return FinitePOVM(2, (0, 1), np.array([I2 / 2, I2 / 2]))


def haar_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitian_basis(t):
    """E_pp, (E_pq + E_qp)/sqrt(2) for p < q, i(E_qp - E_pq)/sqrt(2) for
    p > q, (p, q) row-major, built one element at a time."""
    out = []
    for p in range(t):
        for q in range(t):
            b = np.zeros((t, t), dtype=np.complex128)
            if p == q:
                b[p, p] = 1.0
            elif p < q:
                b[p, q] = b[q, p] = 1.0 / np.sqrt(2.0)
            else:
                b[q, p], b[p, q] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
            out.append(b)
    return out


def test_frame_columns_convention():
    # column (j,k) must be the real coordinates tr(B_ab X) of X = S B_jk S^dag,
    # S the kept columns of a padded frame, B the Hermitian basis
    rng = np.random.default_rng(0)
    s = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    padded = np.zeros((1, 3, 3), dtype=np.complex128)
    padded[0, :, 1:] = s
    cols = frame_columns(padded, pair_mask(np.array([[False, True, True]])))
    assert cols.shape == (9, 4)
    assert cols.dtype == np.float64
    for m, b in enumerate(hermitian_basis(2)):
        x = s @ b @ s.conj().T
        expected = [np.trace(c @ x) for c in hermitian_basis(3)]
        assert np.max(np.abs(np.imag(expected))) < 1e-14
        assert np.allclose(cols[:, m], np.real(expected), rtol=0, atol=1e-14)


def test_diagonal_pairs_are_the_root_columns():
    """The scalar walk's columns: on the diagonal pair of every slot the
    builder gives herm_coords(s s^dag) of each root s, bit for bit, and a
    dead slot (a zero column of a padded frame) gives a zero column."""
    povms = [gen_random_povm(d, 3 * d, rank_cap=d - 1, seed=d) for d in (2, 3, 4)]
    povms.append(gen_random_povm(3, 20, rank_cap=1, seed=5))
    # ranks 2, 1, 1, 2: the rank-one frames carry a dead slot
    e = gen_random_povm(3, 6, rank_cap=1, seed=6).effects
    povms.append(FinitePOVM(3, (0, 1, 2, 3), np.array([e[0] + e[1], e[2], e[3], e[4] + e[5]])))
    dead = 0
    for povm in povms:
        tp = build_tp_map(povm)
        n, d, t = tp.frames.shape
        roots = tp.frames.swapaxes(1, 2).reshape(n * t, d, 1)
        expected = herm_coords(roots @ roots.conj().swapaxes(1, 2)).T
        cols = frame_columns(tp.frames, np.broadcast_to(np.eye(t, dtype=bool), (n, t, t)))
        assert cols.tobytes() == expected.tobytes()
        assert np.all(cols[:, ~tp.kept.reshape(-1)] == 0.0)
        dead += np.count_nonzero(~tp.kept)
    assert dead > 0


def test_a_sub_mask_selects_columns_of_the_full_mask():
    """frame_columns(f, m) is frame_columns(f, all pairs) restricted to m's
    pairs, in order. Each column comes from its own product, but a BLAS
    product over another stack may round differently, hence the 1e-15."""
    rng = np.random.default_rng(4)
    for seed in range(12):
        d = 2 + seed % 3
        tp = build_tp_map(gen_random_povm(d, d + 2 + seed % 5, rank_cap=1 + seed % d, seed=seed))
        n, _, t = tp.frames.shape
        full = frame_columns(tp.frames, np.ones((n, t, t), dtype=bool))
        assert full.shape == (d * d, n * t * t)
        mask = rng.random((n, t, t)) < 0.4
        sub = frame_columns(tp.frames, mask)
        assert sub.shape == (d * d, np.count_nonzero(mask))
        assert np.max(np.abs(sub - full[:, mask.reshape(-1)]), initial=0.0) <= 1e-15


def test_real_map_has_the_complex_maps_singular_values():
    """On maps of mixed rank, d = 2...4, the real map in Hermitian
    coordinates has the singular values of the complex map whose column
    (i; j, k) is vec(S_i E_jk S_i^dag)."""
    for seed in range(12):
        d = 2 + seed % 3
        povm = gen_random_povm(d, d + 1 + seed % 4, rank_cap=1 + seed % d, seed=seed)
        tp = build_tp_map(povm)
        i, j, k = np.nonzero(pair_mask(tp.kept))
        f = tp.frames
        complex_cols = np.einsum("ca,cb->abc", f[i, :, j], f[i, :, k].conj()).reshape(d * d, -1)
        matrix = frame_columns(tp.frames, pair_mask(tp.kept))
        assert matrix.dtype == np.float64 and matrix.shape == complex_cols.shape
        s_real = np.linalg.svd(matrix, compute_uv=False)
        s_complex = np.linalg.svd(complex_cols, compute_uv=False)
        assert np.max(np.abs(s_real - s_complex)) <= 1e-14 * s_complex[0]


def test_build_tp_map_shapes_and_frames():
    tp = build_tp_map(coin())
    assert tuple(tp.ranks) == (2, 2)
    assert tp.domain_dim == 8
    assert frame_columns(tp.frames, pair_mask(tp.kept)).shape == (4, 8)
    assert tp.frames.shape == (2, 2, 2)
    # frames reproduce the effects: S S^dag = P, S the trailing r columns
    for frame, r in zip(tp.frames, tp.ranks):
        s = frame[:, frame.shape[1] - r :]
        assert np.allclose(s @ s.conj().T, I2 / 2, atol=1e-12)


def test_apply_tp_matches_direct_sandwich():
    rng = np.random.default_rng(1)
    povm = gen_random_povm(3, 4, seed=5)
    tp = build_tp_map(povm)
    t = tp.frames.shape[2]
    element = np.zeros((len(tp.ranks), t, t), dtype=np.complex128)
    for block, r in zip(element, tp.ranks):
        a = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        block[t - r :, t - r :] = (a + a.conj().T) / 2
    direct = sum(
        frame[:, t - r :] @ block[t - r :, t - r :] @ frame[:, t - r :].conj().T
        for frame, block, r in zip(tp.frames, element, tp.ranks)
    )
    assert np.allclose(apply_tp(tp, element), direct, atol=1e-12)


def test_coin_flip_verdict():
    # two half-identities: 4x8 matrix of rank 4, so a 4-dimensional kernel
    verdict = is_extreme(coin())
    assert not verdict.is_extreme
    assert verdict.domain_dim == 8
    assert verdict.kernel_dim == 4
    assert verdict.margin == 0.0


def test_trine_verdict():
    verdict = is_extreme(gen_trine())
    assert verdict.is_extreme
    assert verdict.domain_dim == 3
    assert verdict.kernel_dim == 0
    assert verdict.margin > 0.1


def test_label_tol_merges_before_the_verdict():
    # two halves of one projector at labels 1e-7 apart: a coarse-grained
    # mixture at the default label_tol, one PVM outcome at label_tol = 1e-6
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    povm = FinitePOVM(
        2,
        ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0 + 1e-7), (0.0, 0.0, -1.0)),
        np.array([p0 / 2, p0 / 2, p1], dtype=np.complex128),
    )
    assert not is_extreme(povm).is_extreme
    assert is_extreme(povm, label_tol=1e-6).is_extreme


def test_pvms_are_extreme():
    rng = np.random.default_rng(4)
    for d in (2, 3, 5):
        assert is_extreme(gen_pvm(np.eye(d))).is_extreme
        assert is_extreme(gen_pvm(haar_unitary(d, rng))).is_extreme


def test_sic_extreme_and_angle_family():
    assert is_extreme(gen_sic_qubit()).is_extreme
    for a in (np.pi / 4, np.pi / 8, 1e-3):
        assert is_extreme(gen_ea_family(a)).is_extreme
    collapsed = is_extreme(gen_ea_family(0.0))
    assert not collapsed.is_extreme
    assert collapsed.kernel_dim == 2


def test_short_circuit_when_blocks_exceed_capacity():
    # full-rank effects: domain 2*d^2 > d^2, no SVD needed
    povm = coin()
    tp = build_tp_map(povm)
    verdict = verdict_from_tp(tp)
    assert verdict.domain_dim == 8
    assert not verdict.is_extreme
    assert verdict.kernel_dim == 8 - 4
    assert verdict.threshold == 0.0


def test_rank_one_extremality_is_linear_independence():
    # k rank-one effects are extreme iff linearly independent as matrices
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        k = int(rng.integers(d, d * d + 1))
        povm = gen_random_povm(d, k, rank_cap=1, rng=rng)
        flat = povm.effects.reshape(k, -1)
        independent = np.linalg.matrix_rank(flat, tol=1e-10) == k
        assert is_extreme(povm).is_extreme == independent


def test_agrees_with_gram_oracle_on_mixed_corpus():
    rng = np.random.default_rng(6)
    for seed in range(40):
        d = 2 + seed % 3
        k = d + seed % (2 * d)
        povm = gen_random_povm(d, k, rank_cap=1 + seed % d, seed=seed)
        verdict = is_extreme(povm)
        extreme, rank, domain = gram_extremality_oracle(povm)
        assert verdict.is_extreme == extreme
        if verdict.domain_dim <= d * d:
            assert verdict.kernel_dim == domain - rank


def test_unitary_covariance_of_verdict():
    rng = np.random.default_rng(7)
    for seed in range(10):
        d = 2 + seed % 2
        povm = gen_random_povm(d, d + 1 + seed % 3, rank_cap=1, seed=seed)
        u = haar_unitary(d, rng)
        rotated = FinitePOVM(
            d, povm.labels, np.einsum("ab,kbc,dc->kad", u, povm.effects, u.conj())
        )
        v0, v1 = is_extreme(povm), is_extreme(rotated)
        assert v0.is_extreme == v1.is_extreme
        assert v0.domain_dim == v1.domain_dim
        assert v0.kernel_dim == v1.kernel_dim
        assert abs(v0.margin - v1.margin) < 1e-9


def walk_offset(tp):
    """The walk's point minus the measurement, B - I, as the map's (n, t, t)
    stack: B = u diag(lam) u^dag on the live blocks' kept pairs, I on every
    block's kept pairs."""
    live, (u, lam) = _extremal_direction(tp)
    n, _, t = tp.frames.shape
    element = np.zeros((n, t, t), dtype=np.complex128)
    b = (u * lam[:, None, :]) @ u.conj().swapaxes(1, 2)
    element[live] = np.where(pair_mask(tp.kept[live]), b, 0.0)
    pos = np.arange(t)
    element[:, pos, pos] -= tp.kept
    return element


def test_kernel_element_annihilated_by_map():
    povm = coin()
    tp = build_tp_map(povm)
    element = walk_offset(tp)
    # Hermitian blocks; the walk zeroes a root, so B - I has eigenvalue -1
    assert element.shape == (2, 2, 2)
    assert np.allclose(element, element.conj().transpose(0, 2, 1), atol=1e-12)
    assert np.min(np.linalg.eigvalsh(element)) == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(apply_tp(tp, element))) < 1e-10

    nonextreme = gen_random_povm(3, 4, seed=11)
    tp = build_tp_map(nonextreme)
    element = walk_offset(tp)
    assert np.max(np.abs(apply_tp(tp, element))) < 1e-9


def test_kernel_element_raises_on_extreme_input():
    # the walk cannot move off an extreme point: B = I, and the peel refuses it
    trine = gen_trine()
    tp = build_tp_map(trine)
    assert np.max(np.abs(walk_offset(tp))) < 1e-12
    with pytest.raises(SplitError, match="not above 1"):
        split_once(tp, *_extremal_direction(tp))
