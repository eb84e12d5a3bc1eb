import numpy as np
import pytest

from povmix.extremality import is_extreme
from povmix.model import FinitePOVM, PovmError, validate_povm
from povmix.outcomes import (
    PostProcessing,
    apply_postprocessing,
    gen_covariant_sphere,
    gen_ea_family,
    gen_pvm,
    gen_random_povm,
    gen_random_state,
    gen_sic_qubit,
    gen_trine,
    is_injective,
)


def test_postprocessing_table_validation():
    pp = PostProcessing(((0, 5), (1, (0.0, 1.0))))
    assert pp.target(0) == 5
    assert pp.target(1) == (0.0, 1.0)
    with pytest.raises(PovmError):
        PostProcessing(((0, 1), (0, 2)))  # source mapped twice
    with pytest.raises(PovmError):
        PostProcessing((((0.5,), 1),))  # non-integer source
    with pytest.raises(PovmError, match="no mapping for source label 7"):
        pp.target(7)
    # the lookup table is not part of equality, hashing or the repr
    same = PostProcessing(((0, 5), (1, (0.0, 1.0))))
    assert same == pp and hash(same) == hash(pp)
    assert repr(pp) == "PostProcessing(table=((0, 5), (1, (0.0, 1.0))))"


def test_is_injective():
    coin = FinitePOVM(2, (0, 1), np.array([np.eye(2) / 2, np.eye(2) / 2]))
    for table, injective in [
        (((0, 10), (1, 11)), True),
        (((0, 10), (1, 10)), False),
        # point targets closer than the tolerance collide
        (((0, (0.0, 0.0)), (1, (0.0, 1e-12))), False),
    ]:
        pp = PostProcessing(table)
        assert is_injective(pp) == injective
        # injective exactly when relabeling keeps every outcome
        assert (apply_postprocessing(coin, pp).n_outcomes == 2) == injective


def test_apply_postprocessing_merges_and_preserves_sum():
    trine = gen_trine()
    pp = PostProcessing(((0, 7), (1, 7), (2, 9)))
    out = apply_postprocessing(trine, pp)
    assert out.labels == (7, 9)
    assert np.allclose(out.effects[0], trine.effects[0] + trine.effects[1], atol=1e-15)
    assert np.allclose(
        out.effects.sum(axis=0), trine.effects.sum(axis=0), atol=1e-15
    )
    with pytest.raises(PovmError):
        apply_postprocessing(trine, PostProcessing(((0, 1), (1, 2))))  # misses label 2


def test_injective_postprocessing_preserves_extremality():
    rng = np.random.default_rng(8)
    for seed in range(12):
        d = 2 + seed % 2
        povm = gen_random_povm(d, d + seed % 3, rank_cap=1, seed=seed)
        before = is_extreme(povm)
        perm = rng.permutation(povm.n_outcomes)
        targets = [int(1000 + t) for t in perm]
        pp = PostProcessing(
            tuple((int(label), targets[i]) for i, label in enumerate(povm.labels))
        )
        after = is_extreme(apply_postprocessing(povm, pp))
        assert before.is_extreme == after.is_extreme
        assert before.kernel_dim == after.kernel_dim


def test_gen_pvm():
    p = gen_pvm(np.eye(3))
    assert p.labels == (0, 1, 2)
    for effect in p.effects:
        assert np.allclose(effect @ effect, effect, atol=1e-14)  # projector
    with pytest.raises(PovmError):
        gen_pvm(np.array([[1.0, 0.0], [1.0, 0.0]]))  # not unitary


def test_reference_generators_validate():
    for povm in (gen_sic_qubit(), gen_trine(), gen_ea_family(0.3)):
        report = validate_povm(povm)
        assert report.is_valid
        assert report.normalization_residual < 1e-10


def test_sic_traces_and_pairing():
    sic = gen_sic_qubit()
    for effect in sic.effects:
        assert np.trace(effect).real == pytest.approx(0.5, abs=1e-15)
        # rank one: determinant vanishes
        assert abs(np.linalg.det(effect)) < 1e-15


def test_ea_effects_are_rank_one_for_small_angles():
    for a in (1e-3, np.pi / 8, np.pi / 4):
        povm = gen_ea_family(a)
        for effect in povm.effects:
            assert abs(np.linalg.det(effect)) < 1e-15
    collapsed = gen_ea_family(0.0)
    assert np.allclose(collapsed.effects[0], collapsed.effects[1], atol=1e-15)


def test_gen_random_povm_contract():
    povm = gen_random_povm(3, 7, seed=42)
    assert validate_povm(povm).is_valid
    again = gen_random_povm(3, 7, seed=42)
    assert np.array_equal(povm.effects, again.effects)  # bit-for-bit
    other = gen_random_povm(3, 7, seed=43)
    assert not np.array_equal(povm.effects, other.effects)

    single = gen_random_povm(4, 1, seed=0)
    assert np.allclose(single.effects[0], np.eye(4), atol=1e-12)

    capped = gen_random_povm(4, 6, rank_cap=1, seed=1)
    for effect in capped.effects:
        eigs = np.linalg.eigvalsh(effect)
        assert np.sum(eigs > 1e-10) == 1

    with pytest.raises(PovmError):
        gen_random_povm(3, 0)
    with pytest.raises(PovmError):
        gen_random_povm(3, 5, rank_cap=4)
    with pytest.raises(PovmError):
        gen_random_povm(4, 2, rank_cap=1)  # k * cap < d


def test_sphere_two_points_is_projective():
    povm = gen_covariant_sphere(2)
    assert povm.labels == ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0))
    assert np.allclose(povm.effects[0], np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(povm.effects[1], np.diag([0.0, 1.0]), atol=1e-15)


def test_sphere_octahedron_exact():
    povm = gen_covariant_sphere(6)
    assert povm.n_outcomes == 6
    total = povm.effects.sum(axis=0)
    assert np.array_equal(total, np.eye(2, dtype=np.complex128))  # exact sum
    for effect in povm.effects:
        assert np.trace(effect).real == pytest.approx(1 / 3, abs=1e-15)


def test_sphere_lattice_properties():
    povm = gen_covariant_sphere(50, seed=9)
    assert validate_povm(povm).is_valid
    for label in povm.labels:
        assert np.linalg.norm(label) == pytest.approx(1.0, abs=1e-12)
    # seeded jitter: different seeds give different points
    other = gen_covariant_sphere(50, seed=10)
    assert povm.labels != other.labels
    same = gen_covariant_sphere(50, seed=9)
    assert np.array_equal(povm.effects, same.effects)
    with pytest.raises(PovmError):
        gen_covariant_sphere(1)


def test_gen_random_state():
    pure = gen_random_state(3, seed=5, pure=True)
    eigs = np.linalg.eigvalsh(pure.matrix)
    assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(eigs[:-1] < 1e-12)

    mixed = gen_random_state(3, seed=5)
    assert np.trace(mixed.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.linalg.eigvalsh(mixed.matrix) > 0)

    rng = np.random.default_rng(3)
    a = gen_random_state(2, rng=rng)
    b = gen_random_state(2, rng=np.random.default_rng(3))
    assert np.array_equal(a.matrix, b.matrix)
