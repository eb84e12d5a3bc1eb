import warnings

import numpy as np
import pytest

from povmix import model
from povmix.extremality import is_extreme
from povmix.model import (
    DensityState,
    FinitePOVM,
    PovmError,
    align_label_universe,
    as_label,
    born_probabilities,
    convex_combine,
    effects_distance,
    labels_equal,
    prune_and_merge,
    trace_density,
    validate_povm,
)
from povmix.outcomes import (
    gen_covariant_sphere,
    gen_random_povm,
    gen_random_state,
    gen_sic_qubit,
)

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


def test_as_label_returns_normal_points_unchanged():
    point = (0.5, -1.0, 0.0)
    assert as_label(point) is point
    # everything else is normalized as before: items become Python floats
    for value in [(1, 2.0), [0.5], (np.float64(0.5), 1.0), np.array([0.5, 1.0])]:
        label = as_label(value)
        assert type(label) is tuple and all(type(x) is float for x in label)
        assert label == tuple(float(x) for x in value)
    for bad in [True, (), (float("nan"), 1.0), (1.0, float("inf")), "a", None]:
        with pytest.raises(ValueError):
            as_label(bad)


def test_labels_equal_scales_tiny_and_huge_differences():
    # squared differences would underflow to 0 and overflow to inf
    assert not labels_equal((0.0, 0.0), (1e-170, 0.0), 0.0)
    assert labels_equal((0.0, 0.0), (1e-170, 0.0), 1e-170)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not labels_equal((-1.7e308, 1.0), (1.7e308, 1.0), 0.0)
        assert labels_equal((-1.7e308, 1.0), (-1.7e308, 1.0), 0.0)


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


def test_validate_applies_the_hermitian_rule_to_each_effect():
    # A 1.5e-12 defect exceeds 1e-12 (1 + ||h||_max) on a 1e-3 effect, though
    # not 1e-12 (1 + 1), the bound scaled by the whole stack's largest entry.
    h = np.diag([1e-3, 0.0]).astype(np.complex128)
    h[0, 1] = 1.5e-12
    report = validate_povm(FinitePOVM(2, (0, 1), np.array([h, I2 - h])))
    assert report.non_hermitian == [(0, 1.5e-12)]
    assert report.non_psd == [] and report.normalization_ok
    assert report.messages() == ["effect 0 is not Hermitian (defect 1.500e-12)"]


def test_validate_and_extremality_share_the_psd_rule():
    # -1.5e-10 is below -1e-10 (1 + 1e-3), the bound of its own effect, but
    # not below -1e-10 (1 + 1), the bound of the stack's largest eigenvalue.
    h = np.diag([1e-3, -1.5e-10])
    povm = FinitePOVM(2, (0, 1), np.array([h, I2 - h]))
    report = validate_povm(povm)
    assert report.non_psd == [(0, -1.5e-10)] and report.non_hermitian == []
    with pytest.raises(PovmError, match="effect is not PSD: min eigenvalue -1.500e-10"):
        is_extreme(povm)
    # a tenth of that eigenvalue passes both
    h = np.diag([1e-3, -1.5e-11])
    povm = FinitePOVM(2, (0, 1), np.array([h, I2 - h]))
    assert validate_povm(povm).is_valid
    assert not is_extreme(povm).is_extreme


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
    # Hermiticity within HERM_TOL * (1 + ||rho||_max) is accepted unchanged
    m = np.eye(2, dtype=np.complex128) / 2
    m[0, 1] = 1e-14
    assert np.array_equal(DensityState(2, m).matrix, m)
    m[0, 1] = 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityState(2, m)
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


def pairwise_alignment(label_lists, tol):
    """Reference: every label against every universe entry, first match wins."""
    universe, maps = [], []
    for labels in label_lists:
        idx = []
        for label in labels:
            for u, known in enumerate(universe):
                if labels_equal(label, known, tol):
                    idx.append(u)
                    break
            else:
                universe.append(label)
                idx.append(len(universe) - 1)
        maps.append(idx)
    return tuple(universe), maps


def jittered_points(seed):
    """3-D points with near-duplicates jittered by 1e-11 to 1e-8, shuffled."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, size=(40, 3))
    copies = base[rng.integers(0, len(base), size=80)]
    scale = 10.0 ** rng.uniform(-11.0, -8.0, size=(len(copies), 1))
    direction = rng.standard_normal(copies.shape)
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    points = np.concatenate([base, copies + scale * direction])
    return [tuple(float(c) for c in p) for p in points[rng.permutation(len(points))]]


def alignment_cases():
    tol = 1e-9
    for seed in range(6):
        points = jittered_points(seed)
        yield [points[:50], points[50:]], tol
        yield [points], 3e-9
    # pairs exactly tol apart, on an axis and on a diagonal
    for x in (0.0, 0.25, -3.0, 1e6):
        yield [[(x, 1.0, 0.0), (x + tol, 1.0, 0.0), (x - tol, 1.0, 0.0)]], tol
        yield [[(x, 0.5), (x + 0.75e-9, 0.5 + 0.75e-9)]], 0.75e-9 * np.sqrt(2.0)
    # a query within tol of two entries on both sides of a cell boundary
    # takes the first entry, not the one in the first cell scanned
    yield [[(0.6e-9,), (-0.6e-9,), (0.0,)], [(0.0, 0.6e-9), (0.0, -0.6e-9), (0.0, 0.0)]], tol
    # 2-D and 3-D points sharing coordinates
    yield [[(0.0, 1.0), (0.0, 1.0, 0.0), (0.0, 1.0 + 1e-10), (0.0, 1.0, 1e-10)]], tol
    # ints and points
    yield [[0, (0.0,), 1, (1.0,), 0, (1e-10,), True, (1.0 + 1e-10,)], [1, 0, (0.0,)]], tol
    # exact duplicates at tol = 0, including 0.0 against -0.0
    yield [[(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (1e-300, 0.0), (5e-324, 0.0)]], 0.0
    # differences whose squares underflow in double precision, told apart at tol = 0
    yield [[(0.0, 0.0), (1e-170, 0.0), (1.5e-162, 0.0), (0.0, -1e-200), (1e-150, 0.0)]], 0.0
    yield [[(0.0,), (-0.0,), 3, 3], [(-0.0,), 3]], 0.0
    # coordinates near the top of the float range
    big = [(1e305, 0.0), (1e305, 0.0), (-1.7e308, 1.0), (-1.7e308, 1.0), (1.7e308, 1.0)]
    yield [big, [(1e305 * (1 + 1e-16), 0.0), (-1.7e308, 1.0 + 1e-10)]], tol
    yield [big], 0.0
    # a label that is neither an int nor a tuple is always a new entry
    yield [[1.5, 1.5, "a", "a", (1.5,)]], tol


@pytest.mark.parametrize("lists, tol", list(alignment_cases()))
def test_alignment_matches_pairwise_reference(lists, tol):
    universe, maps = align_label_universe(lists, tol)
    ref_universe, ref_maps = pairwise_alignment(lists, tol)
    assert universe == ref_universe
    assert maps == ref_maps


def test_alignment_jitter_cases_merge():
    # the seeded point lists do exercise merging
    points = jittered_points(0)
    universe, _ = align_label_universe([points], 1e-9)
    assert 40 <= len(universe) < len(points)


@pytest.mark.parametrize("kind", ["points", "ints"])
def test_alignment_compares_a_bounded_number_of_labels(kind, monkeypatch):
    """Complexity guard: aligning n distinct labels makes at most 4n
    equality tests, where the pairwise loop makes about n^2 / 2."""
    n = 2000
    if kind == "points":
        labels = list(gen_covariant_sphere(n, seed=1).labels)
    else:
        labels = list(range(n))
    calls = 0

    def counting_equal(a, b, tol=model.LABEL_TOL):
        nonlocal calls
        calls += 1
        if calls > 4 * n:
            raise AssertionError(f"more than {4 * n} label comparisons for {n} labels")
        return labels_equal(a, b, tol)

    monkeypatch.setattr(model, "labels_equal", counting_equal)
    universe, (idx,) = align_label_universe([labels])
    assert len(universe) == n and idx == list(range(n))
