import numpy as np
import pytest

from povmix import decompose, model
from povmix.decompose import (
    ExtremalMixture,
    MixtureComponent,
    SplitError,
    _extremal_direction,
    _merge_identical_leaves,
    decompose_extremal,
    split_once,
    verify_barycenter,
)
from povmix.extremality import BlockHermitian, build_tp_map, is_extreme
from povmix.model import FinitePOVM, convex_combine, effects_distance
from povmix.outcomes import gen_covariant_sphere, gen_random_povm, gen_trine

from oracles import frame_oracle

I2 = np.eye(2, dtype=np.complex128)


def coin():
    return FinitePOVM(2, (0, 1), np.array([I2 / 2, I2 / 2]))


def block_dim(povm):
    return sum(frame_oracle(p).shape[1] ** 2 for p in povm.effects)


def reconstruct(mixture):
    return convex_combine([(c.weight, c.povm) for c in mixture.components])


def test_split_coin_with_explicit_kernel_element():
    # D = (I, -I) lies in the kernel; saturation lands on {I} both sides
    povm = coin()
    result = split_once(povm, BlockHermitian((np.eye(2), -np.eye(2))))
    assert result.tau_plus == pytest.approx(1.0)
    assert result.tau_minus == pytest.approx(1.0)
    assert result.weight_plus == pytest.approx(0.5)
    assert result.weight_minus == pytest.approx(0.5)
    assert np.allclose(result.child_plus.effects[0], I2, atol=1e-14)
    assert np.allclose(result.child_plus.effects[1], 0, atol=1e-14)
    assert np.allclose(result.child_minus.effects[0], 0, atol=1e-14)
    assert np.allclose(result.child_minus.effects[1], I2, atol=1e-14)


def test_split_reconstructs_parent():
    povm = gen_random_povm(3, 5, seed=3)
    tp = build_tp_map(povm)
    element = _extremal_direction(tp)
    result = split_once(povm, element, tp=tp)
    mixed = (
        result.weight_plus * result.child_plus.effects
        + result.weight_minus * result.child_minus.effects
    )
    assert np.max(np.abs(mixed - povm.effects)) < 1e-12
    # both children remain valid measurements
    assert np.allclose(result.child_plus.effects.sum(axis=0), np.eye(3), atol=1e-12)
    assert np.allclose(result.child_minus.effects.sum(axis=0), np.eye(3), atol=1e-12)


def test_split_strictly_shrinks_block_dimension():
    for seed in (0, 4, 9):
        povm = gen_random_povm(2, 5, rank_cap=1, seed=seed)
        tp = build_tp_map(povm)
        parent_dim = block_dim(povm)
        result = split_once(povm, _extremal_direction(tp), tp=tp)
        assert block_dim(result.child_plus) < parent_dim
        assert block_dim(result.child_minus) < parent_dim


def test_split_rejects_non_kernel_and_one_sided_elements():
    povm = coin()
    with pytest.raises(SplitError):
        # both blocks positive: no finite tau_plus saturation
        split_once(povm, BlockHermitian((np.eye(2), np.eye(2))))
    with pytest.raises(SplitError):
        # mixed spectrum but not in the kernel: residual check trips
        split_once(povm, BlockHermitian((np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))))


def test_decompose_coin_gives_an_even_projective_mixture():
    mixture = decompose_extremal(coin())
    assert mixture.complete
    assert len(mixture.components) == 2
    assert np.allclose(sorted(c.weight for c in mixture.components), [0.5, 0.5], atol=1e-12)
    for c in mixture.components:
        assert c.verdict.is_extreme
        for e in c.povm.effects:
            # extreme two-outcome qubit measurements are projective
            assert np.linalg.norm(e @ e - e) < 1e-12
    assert effects_distance(coin(), reconstruct(mixture)) < 1e-15


def test_decompose_extreme_input_is_a_single_leaf():
    trine = gen_trine()
    mixture = decompose_extremal(trine)
    assert mixture.complete
    assert len(mixture.components) == 1
    assert mixture.components[0].weight == 1.0
    assert effects_distance(trine, mixture.components[0].povm) < 1e-12


def test_decompose_random_corpus_properties():
    for seed, (d, k, cap) in enumerate([(2, 6, 2), (3, 9, 1), (3, 6, 2), (4, 8, 2)]):
        povm = gen_random_povm(d, k, rank_cap=cap, seed=seed)
        mixture = decompose_extremal(povm)
        assert mixture.complete
        assert abs(sum(mixture.weights) - 1.0) < 1e-12
        assert all(w > 0 for w in mixture.weights)
        for c in mixture.components:
            assert c.verdict.is_extreme
            assert c.povm.n_outcomes <= d * d
            assert block_dim(c.povm) <= d * d
        assert effects_distance(povm, reconstruct(mixture)) < 1e-9


def test_decompose_is_deterministic():
    povm = gen_random_povm(3, 7, rank_cap=2, seed=13)
    m1 = decompose_extremal(povm)
    m2 = decompose_extremal(povm)
    assert len(m1.components) == len(m2.components)
    for a, b in zip(m1.components, m2.components):
        assert a.weight == b.weight
        assert a.povm.labels == b.povm.labels
        assert np.array_equal(a.povm.effects, b.povm.effects)


def test_decompose_budget_marks_incomplete():
    povm = gen_random_povm(2, 6, rank_cap=2, seed=11)
    mixture = decompose_extremal(povm, max_leaves=3)
    assert not mixture.complete
    assert len(mixture.components) <= 3
    assert abs(sum(mixture.weights) - 1.0) < 1e-12
    assert any(not c.verdict.is_extreme for c in mixture.components)
    # the emitted mixture still recombines to the input exactly
    assert effects_distance(povm, reconstruct(mixture)) < 1e-9


def test_merge_identical_leaves():
    z = FinitePOVM(2, (0, 1), np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    v = is_extreme(z)
    leaves = [
        MixtureComponent(0.25, z, v),
        MixtureComponent(0.25, gen_trine(), is_extreme(gen_trine())),
        MixtureComponent(0.5, z, v),
    ]
    merged = _merge_identical_leaves(leaves, 1e-9)
    assert len(merged) == 2
    weights = {c.povm.n_outcomes: c.weight for c in merged}
    assert weights[2] == pytest.approx(0.75)
    assert weights[3] == pytest.approx(0.25)


def test_decompose_with_merge_keeps_identity():
    povm = gen_random_povm(2, 5, rank_cap=1, seed=21)
    plain = decompose_extremal(povm)
    merged = decompose_extremal(povm, merge_leaves=True)
    assert len(merged.components) <= len(plain.components)
    assert abs(sum(merged.weights) - 1.0) < 1e-12
    assert effects_distance(povm, reconstruct(merged)) < 1e-9


def test_mixture_invariants_enforced():
    trine = gen_trine()
    with pytest.raises(Exception):
        ExtremalMixture(2, (MixtureComponent(0.9, trine),), True)  # weights != 1
    with pytest.raises(Exception):
        ExtremalMixture(3, (MixtureComponent(1.0, trine),), True)  # dim mismatch


def test_verify_barycenter_accepts_true_mixture():
    povm = gen_random_povm(3, 6, rank_cap=2, seed=17)
    mixture = decompose_extremal(povm)
    report = verify_barycenter(povm, mixture, trials=32, seed=5)
    assert report.trials == 32
    assert report.within(1e-8)
    assert report.max_functional_residual < 1e-12
    assert report.effect_residual < 1e-12
    assert report.weight_sum == pytest.approx(1.0, abs=1e-12)


def test_verify_barycenter_flags_tampering():
    povm = gen_random_povm(2, 4, rank_cap=1, seed=19)
    mixture = decompose_extremal(povm)
    # perturb one leaf: rotate its effects slightly
    theta = 1e-3
    u = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
        dtype=np.complex128,
    )
    bad_povm = FinitePOVM(
        2,
        mixture.components[0].povm.labels,
        np.einsum("ab,kbc,dc->kad", u, mixture.components[0].povm.effects, u.conj()),
    )
    tampered = ExtremalMixture(
        2,
        (MixtureComponent(mixture.components[0].weight, bad_povm),)
        + mixture.components[1:],
        True,
    )
    report = verify_barycenter(povm, tampered, trials=32, seed=5)
    assert not report.within(1e-8)


def test_sphere_decomposition_leaf_bound():
    sphere = gen_covariant_sphere(40, seed=3)
    mixture = decompose_extremal(sphere)
    assert mixture.complete
    assert all(c.povm.n_outcomes <= 4 for c in mixture.components)
    assert effects_distance(sphere, reconstruct(mixture)) < 1e-9


def test_labels_merge_once_at_the_root(monkeypatch):
    """Children carry the root's merged labels, so a duplicated input gives
    the same leaves as the plain one and only the root is merged."""
    plain = gen_covariant_sphere(50, seed=7)
    jittered = [tuple(c + 1e-12 for c in label) for label in plain.labels]
    doubled = FinitePOVM(
        2,
        plain.labels + tuple(jittered),
        np.concatenate([plain.effects / 2, plain.effects / 2]),
    )
    merges = 0

    def counting_prune_and_merge(*args, **kwargs):
        nonlocal merges
        merges += 1
        return model.prune_and_merge(*args, **kwargs)

    monkeypatch.setattr(decompose, "prune_and_merge", counting_prune_and_merge)
    expected = decompose_extremal(plain)
    assert merges == 1
    got = decompose_extremal(doubled)
    assert merges == 2
    assert len(expected.components) > 1
    assert len(got.components) == len(expected.components)
    for a, b in zip(got.components, expected.components):
        assert a.weight == b.weight
        assert a.povm.labels == b.povm.labels
        assert np.array_equal(a.povm.effects, b.povm.effects)
