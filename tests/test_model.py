import numpy as np
import pytest

from povmix.model import (
    DensityState,
    FinitePOVM,
    PovmError,
    as_label,
    born_probabilities,
    convex_combine,
    effects_distance,
    expectation_operator,
    labels_equal,
    prune_and_merge,
    trace_density,
    validate_povm,
)
from povmix.outcomes import gen_random_povm, gen_random_state, gen_sic_qubit

from oracles import born_oracle

I2 = np.eye(2, dtype=np.complex128)


def coin():
    return FinitePOVM(2, (0, 1), np.array([I2 / 2, I2 / 2]))


def z_pvm():
    return FinitePOVM(2, (0, 1), np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))


def test_labels():
    assert as_label(np.int64(3)) == 3
    assert as_label([1.0, 2.0]) == (1.0, 2.0)
    with pytest.raises(ValueError):
        as_label(True)
    assert labels_equal(2, 2)
    assert not labels_equal(2, (2.0,))  # kinds never mix
    assert labels_equal((0.0, 1.0), (0.0, 1.0 + 1e-10))
    assert not labels_equal((0.0, 1.0), (0.0, 1.01))


def test_povm_construction_errors():
    with pytest.raises(PovmError):
        FinitePOVM(2, (0,), np.zeros((2, 2, 2)))  # label count mismatch
    with pytest.raises(PovmError):
        FinitePOVM(3, (0, 1), np.zeros((2, 2, 2)))  # dim mismatch
    with pytest.raises(PovmError):
        FinitePOVM(2, (), np.zeros((0, 2, 2)))
    p = coin()
    with pytest.raises(ValueError):
        p.effects[0, 0, 0] = 5  # effects are read-only


def test_validate_povm_flags_each_violation():
    good = validate_povm(coin())
    assert good.is_valid and good.messages() == []

    bad_herm = FinitePOVM(2, (0, 1), np.array([[[0.5, 1e-3], [0, 0.5]], [[0.5, 0], [0, 0.5]]]))
    report = validate_povm(bad_herm)
    assert report.non_hermitian and not report.is_valid

    bad_psd = FinitePOVM(2, (0, 1), np.array([np.diag([1.2, 0.5]), np.diag([-0.2, 0.5])]))
    report = validate_povm(bad_psd)
    assert report.non_psd and not report.is_valid

    dup = FinitePOVM(2, (0, 0), np.array([I2 / 2, I2 / 2]))
    report = validate_povm(dup)
    assert report.duplicate_labels == [(0, 1)]
    # each repeated label is paired with the first of its group
    trip = FinitePOVM(2, (0, 0, 0), np.array([I2 / 2, I2 / 4, I2 / 4]))
    assert validate_povm(trip).duplicate_labels == [(0, 1), (0, 2)]

    unnorm = FinitePOVM(2, (0, 1), np.array([I2 / 2, I2 / 4]))
    report = validate_povm(unnorm)
    assert not report.normalization_ok
    assert report.normalization_residual == pytest.approx(0.25)


def test_born_rule_on_sic_reference_state():
    # probabilities (1 +- 1/sqrt(3))/4 in pairs for the |0><0| state
    rho = DensityState(2, np.diag([1.0, 0.0]))
    p = born_probabilities(gen_sic_qubit(), rho)
    hi = (1 + 1 / np.sqrt(3)) / 4
    lo = (1 - 1 / np.sqrt(3)) / 4
    assert np.allclose(p, [hi, hi, lo, lo], atol=1e-15)
    assert abs(hi - 0.39433756729740643) < 1e-16
    assert abs(lo - 0.10566243270259354) < 1e-16


def test_born_matches_trace_oracle():
    rng = np.random.default_rng(7)
    for seed in range(5):
        d = 2 + seed % 3
        povm = gen_random_povm(d, d + 2, seed=seed)
        rho = gen_random_state(d, rng=rng)
        expected = born_oracle(povm.effects, rho.matrix)
        assert np.allclose(born_probabilities(povm, rho), expected, atol=1e-13)


def test_born_clamps_rounding_noise_only():
    eps = 1e-13
    povm = FinitePOVM(2, (0, 1), np.array([np.diag([1.0, -eps]), np.diag([0.0, 1 + eps])]))
    rho = DensityState(2, np.diag([0.0, 1.0]))
    p = born_probabilities(povm, rho)
    assert p[0] == 0.0
    strongly_bad = FinitePOVM(2, (0, 1), np.array([np.diag([1.0, -0.1]), np.diag([0.0, 1.1])]))
    with pytest.raises(PovmError):
        born_probabilities(strongly_bad, rho)


def test_expectation_operator():
    povm = z_pvm()
    assert np.allclose(expectation_operator(povm, lambda y: 1.0), I2)
    op = expectation_operator(povm, {0: 2.0, 1: -3.0})
    assert np.allclose(op, np.diag([2.0, -3.0]))
    with pytest.raises(PovmError):
        expectation_operator(povm, {0: 2.0})  # undefined on label 1
    with pytest.raises(PovmError):
        expectation_operator(povm, lambda y: 1j)


def test_trace_density_unit_traces():
    povm = gen_random_povm(3, 5, seed=2)
    td = trace_density(povm)
    assert sum(td.weights) == pytest.approx(3.0, abs=1e-9)
    for mu, dens in zip(td.weights, td.densities):
        assert mu > 0
        assert np.trace(dens).real == pytest.approx(1.0, abs=1e-12)


def test_trace_density_prunes_zero_effect():
    povm = FinitePOVM(2, (0, 1, 2), np.array([I2 / 2, I2 / 2, np.zeros((2, 2))]))
    td = trace_density(povm)
    assert td.weights[2] == 0.0 and td.densities[2] is None


def test_state_validation():
    with pytest.raises(PovmError):
        DensityState(2, np.diag([0.6, 0.6]))  # trace != 1
    with pytest.raises(PovmError):
        DensityState(2, np.diag([1.5, -0.5]))  # not PSD
    rho = gen_random_state(4, seed=0)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_convex_combine_union_and_weights():
    mixed = convex_combine([(0.25, z_pvm()), (0.75, coin())])
    assert mixed.labels == (0, 1)
    assert np.allclose(mixed.effects.sum(axis=0), I2, atol=1e-15)
    assert np.allclose(mixed.effects[0], 0.25 * np.diag([1.0, 0.0]) + 0.75 * I2 / 2)
    with pytest.raises(PovmError):
        convex_combine([(0.5, coin()), (0.4, coin())])  # weights sum != 1
    with pytest.raises(PovmError):
        convex_combine([(-0.1, coin()), (1.1, coin())])


def test_effects_distance():
    assert effects_distance(coin(), coin()) == 0.0
    assert effects_distance(coin(), z_pvm()) == pytest.approx(0.5)


def test_prune_and_merge():
    povm = FinitePOVM(
        2, (0, 0, 1), np.array([I2 / 4, I2 / 4, I2 / 2])
    )
    merged = prune_and_merge(povm)
    assert merged.n_outcomes == 2
    assert np.allclose(merged.effects[0], I2 / 2)
    again = prune_and_merge(merged)
    assert effects_distance(again, merged) == 0.0

    with_zero = FinitePOVM(2, (0, 1), np.array([I2, np.zeros((2, 2))]))
    assert prune_and_merge(with_zero).n_outcomes == 1
    all_zero = FinitePOVM(2, (0,), np.array([np.zeros((2, 2))]))
    with pytest.raises(PovmError):
        prune_and_merge(all_zero)


def test_point_labels_merge_within_tolerance():
    p1 = (0.0, 0.0, 1.0)
    p2 = (0.0, 0.0, 1.0 + 1e-11)
    povm = FinitePOVM(2, (p1, p2), np.array([I2 / 2, I2 / 2]))
    merged = prune_and_merge(povm)
    assert merged.n_outcomes == 1
    assert np.allclose(merged.effects[0], I2)
