from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmix.decompose import ExtremalMixture, MixtureComponent, decompose_extremal
from povmix import sampling
from povmix.model import DensityState, FinitePOVM, PovmError, born_probabilities
from povmix.outcomes import (
    gen_covariant_sphere,
    gen_pvm,
    gen_random_povm,
    gen_random_state,
)
from povmix.sampling import (
    OutcomeHistogram,
    _BinTable,
    _uniforms_at,
    sample_direct,
    sample_two_stage,
    tv_distance,
)

from oracles import born_oracle

I2 = np.eye(2, dtype=np.complex128)


def coin():
    return FinitePOVM(2, (0, 1), np.array([I2 / 2, I2 / 2]))


def test_uniform_stream_is_counter_addressed():
    # slice (start, count) must equal the same range of the full stream
    for seed in (0, 7):
        full = np.random.Generator(np.random.Philox(key=seed)).random(64)
        for start, count in [(0, 64), (1, 5), (3, 9), (4, 8), (17, 30), (63, 1)]:
            part = _uniforms_at(seed, start, count)
            assert np.array_equal(part, full[start : start + count]), (start, count)
    assert _uniforms_at(0, 10, 0).shape == (0,)


def test_histogram_invariants():
    h = OutcomeHistogram((0, 1), (3, 5), 8)
    assert h.counts == (3, 5)
    with pytest.raises(PovmError):
        OutcomeHistogram((0, 1), (3, 5), 9)  # wrong total
    with pytest.raises(PovmError):
        OutcomeHistogram((0,), (3, 5), 8)
    with pytest.raises(PovmError):
        OutcomeHistogram((0, 1), (-1, 9), 8)


def test_deterministic_point_mass():
    rho = DensityState(2, np.diag([1.0, 0.0]))
    hist = sample_direct(gen_pvm(np.eye(2)), rho, 1000, seed=3)
    assert hist.counts == (1000, 0)


def test_coin_binomial_bounds():
    rho = DensityState(2, I2 / 2)
    n = 10**6
    hist = sample_direct(coin(), rho, n, seed=12)
    sigma = np.sqrt(n / 4)
    assert abs(hist.counts[0] - n / 2) < 4 * sigma
    assert hist.counts[0] + hist.counts[1] == n


def test_same_seed_same_histogram():
    povm = gen_random_povm(3, 5, seed=1)
    rho = gen_random_state(3, seed=2)
    a = sample_direct(povm, rho, 5000, seed=9)
    b = sample_direct(povm, rho, 5000, seed=9)
    assert a == b
    c = sample_direct(povm, rho, 5000, seed=10)
    assert a != c


def test_shard_count_never_changes_results(monkeypatch):
    # 9973 draws in one piece, then in pieces of at most 1000 and 97
    povm = gen_random_povm(2, 5, seed=4)
    rho = gen_random_state(2, seed=6)
    mixture = decompose_extremal(povm)
    base = sample_direct(povm, rho, 9973, seed=5)
    base2 = sample_two_stage(mixture, rho, 9973, seed=5)
    for piece in (1000, 97):
        monkeypatch.setattr(sampling, "_PIECE", piece)
        assert sample_direct(povm, rho, 9973, seed=5) == base
        assert sample_two_stage(mixture, rho, 9973, seed=5) == base2


def test_long_runs_draw_in_pieces_with_unchanged_counts(monkeypatch):
    povm = gen_random_povm(2, 5, seed=4)
    rho = gen_random_state(2, seed=6)
    n = 3 * 2**17 + 5
    cdf = np.cumsum(born_probabilities(povm, rho))
    u = np.random.Generator(np.random.Philox(key=5)).random(n)
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), povm.n_outcomes - 1)
    pieces = []

    def recording(seed, start, count):
        pieces.append(count)
        return _uniforms_at(seed, start, count)

    monkeypatch.setattr(sampling, "_uniforms_at", recording)
    assert sample_direct(povm, rho, n, seed=5).counts == tuple(np.bincount(idx, minlength=5))
    assert len(pieces) == 4 and max(pieces) <= 2**17
    pieces.clear()
    sample_two_stage(decompose_extremal(povm), rho, n, seed=5)
    assert len(pieces) == 4 and max(pieces) <= 2 * 2**17


def test_two_stage_matches_direct_distribution():
    povm = gen_random_povm(2, 4, rank_cap=1, seed=8)
    mixture = decompose_extremal(povm)
    rho = gen_random_state(2, seed=11)
    n = 200000
    direct = sample_direct(povm, rho, n, seed=21)
    two = sample_two_stage(mixture, rho, n, seed=22)
    assert tv_distance(direct, two) < 0.02


def test_two_stage_histogram_matches_per_draw_reference(monkeypatch):
    # five projective leaves with overlapping labels; draw j uses uniforms
    # 2j (component) and 2j+1 (outcome) of the Philox stream keyed by the seed
    rng = np.random.default_rng(4)
    weights = (0.1, 0.15, 0.2, 0.25, 0.3)
    leaves = []
    for c in range(5):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(g)
        pvm = gen_pvm(q)
        leaves.append(FinitePOVM(2, (c, c + 1), pvm.effects))
    mixture = ExtremalMixture(
        2, tuple(MixtureComponent(w, leaf) for w, leaf in zip(weights, leaves)), True
    )
    rho = gen_random_state(2, seed=9)
    n, seed = 3000, 13
    u = np.random.Generator(np.random.Philox(key=seed)).random(2 * n)
    weight_cdf = np.cumsum(weights)
    expected = {}
    for j in range(n):
        c = min(int(np.searchsorted(weight_cdf, u[2 * j], side="right")), 4)
        cdf = np.cumsum(born_oracle(leaves[c].effects, rho.matrix))
        k = min(int(np.searchsorted(cdf, u[2 * j + 1], side="right")), 1)
        label = leaves[c].labels[k]
        expected[label] = expected.get(label, 0) + 1
    for piece in (n, 1000):
        monkeypatch.setattr(sampling, "_PIECE", piece)
        hist = sample_two_stage(mixture, rho, n, seed=seed)
        got = {label: count for label, count in zip(hist.labels, hist.counts) if count}
        assert got == expected


def test_single_component_mixture_sampling():
    # extreme input: the mixture is a point mass and two-stage sampling
    # draws from exactly the same distribution as direct sampling
    from povmix.outcomes import gen_trine

    trine = gen_trine()
    mixture = decompose_extremal(trine)
    assert len(mixture.components) == 1
    rho = gen_random_state(2, seed=15)
    direct = sample_direct(trine, rho, 100000, seed=30)
    two = sample_two_stage(mixture, rho, 100000, seed=31)
    assert tv_distance(direct, two) < 0.02


def test_tv_distance_properties():
    h1 = OutcomeHistogram((0, 1), (60, 40), 100)
    assert tv_distance(h1, h1) == 0.0
    h2 = OutcomeHistogram((2, 3), (10, 10), 20)
    assert tv_distance(h1, h2) == pytest.approx(1.0)
    h3 = OutcomeHistogram((0, 1), (40, 60), 100)
    assert tv_distance(h1, h3) == pytest.approx(0.2)
    with pytest.raises(PovmError):
        tv_distance(h1, OutcomeHistogram((0,), (0,), 0))


def test_tv_distance_aligns_point_labels():
    h1 = OutcomeHistogram(((0.0, 1.0),), (10,), 10)
    h2 = OutcomeHistogram(((0.0, 1.0 + 1e-12),), (10,), 10)
    assert tv_distance(h1, h2) == 0.0


def test_sampling_rejects_bad_inputs():
    povm = coin()
    rho3 = gen_random_state(3, seed=0)
    with pytest.raises(PovmError):
        sample_direct(povm, rho3, 10)
    rho = DensityState(2, I2 / 2)
    with pytest.raises(PovmError):
        sample_direct(povm, rho, 0)


@st.composite
def cdfs(draw, max_k=12):
    """A nondecreasing CDF: zero weights repeat values, tiny ones put several
    values in one bin, power-of-two totals put values on bin edges (the
    coin's 0.5), and the last value is 1 or 1 +- 1e-10."""
    weights = draw(
        st.lists(st.sampled_from([0, 1, 2, 3, 5, 8, 1e-6]), min_size=1, max_size=max_k)
    )
    weights[-1] += sum(weights) < 1
    total = sum(weights)
    if total == int(total) and draw(st.booleans()):
        weights[-1] += (1 << int(total - 1).bit_length()) - total
    end = draw(st.sampled_from([1.0, 1.0 + 1e-10, 1.0 - 1e-10]))
    return np.cumsum(weights) / sum(weights) * end


def hard_uniforms(cdf_list, seed, n=2000):
    """Uniforms in [0, 1): random ones, every CDF value and bin edge of up to
    2^13 bins, and the floats next to each."""
    points = np.concatenate(
        [*cdf_list, np.arange(8192) / 8192, np.random.default_rng(seed).random(n)]
    )
    points = np.concatenate([points, np.nextafter(points, 0), np.nextafter(points, 1)])
    return points[(points >= 0) & (points < 1)]


def binary_search(cdf, u):
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


@settings(max_examples=200, deadline=None)
@given(cdfs(), st.integers(0, 2**32 - 1))
def test_bin_table_matches_binary_search_draw_by_draw(cdf, seed):
    u = hard_uniforms([cdf], seed)
    assert np.array_equal(_BinTable([cdf])(u), binary_search(cdf, u))


@settings(max_examples=50, deadline=None)
@given(st.lists(cdfs(max_k=4), min_size=1, max_size=8), st.booleans(), st.integers(0, 2**32 - 1))
def test_bin_table_over_many_cdfs_matches_binary_search(cdf_list, wide, seed):
    # one 300-outcome leaf among 4-outcome leaves must not widen the others'
    # tables: they hold O(sum k) entries, not components x the widest table
    rng = np.random.default_rng(seed)
    if wide:
        w = rng.integers(0, 3, size=300).astype(float)
        w[-1] += 1
        cdf_list.insert(int(rng.integers(len(cdf_list) + 1)), np.cumsum(w) / w.sum())
    sizes = [len(c) for c in cdf_list]
    values = rng.permutation(sum(sizes))
    table = _BinTable(cdf_list, values)
    assert table.table.size == table.marked.size < 32 * sum(sizes)

    u = hard_uniforms(cdf_list, seed)
    c = rng.integers(len(cdf_list), size=u.size)
    expected = np.empty(u.size, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    for j, cdf in enumerate(cdf_list):
        sel = c == j
        expected[sel] = values[starts[j] + binary_search(cdf, u[sel])]
    assert np.array_equal(table(u, c), expected)


def test_two_stage_with_one_wide_leaf_matches_binary_search(monkeypatch):
    leaves = [gen_random_povm(2, 4, seed=s) for s in range(5)]
    leaves.insert(2, gen_covariant_sphere(300, seed=1))
    weights = np.array([0.1, 0.2, 0.25, 0.15, 0.2, 0.1])
    mixture = ExtremalMixture(
        2, tuple(MixtureComponent(w, leaf) for w, leaf in zip(weights, leaves)), False
    )
    rho = gen_random_state(2, seed=8)
    n, seed = 50000, 3
    u = np.random.Generator(np.random.Philox(key=seed)).random(2 * n)
    comp = binary_search(np.cumsum(weights), u[0::2])
    expected = Counter()
    for c, leaf in enumerate(leaves):
        idx = binary_search(np.cumsum(born_probabilities(leaf, rho)), u[1::2][comp == c])
        expected.update(leaf.labels[i] for i in idx)
    monkeypatch.setattr(sampling, "_PIECE", n // 2)
    hist = sample_two_stage(mixture, rho, n, seed=seed)
    assert dict(zip(hist.labels, hist.counts)) == expected


def test_two_stage_searches_do_not_grow_with_components(monkeypatch):
    """Complexity guard: two-stage sampling makes a fixed number of binary
    searches per piece, however many components the mixture has, and never
    sorts its draws."""
    rho = gen_random_state(2, seed=6)
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(np, "searchsorted", counting("searchsorted", np.searchsorted))
    monkeypatch.setattr(np, "argsort", counting("argsort", np.argsort))
    pieces = 4
    monkeypatch.setattr(sampling, "_PIECE", 20000 // pieces)
    seen = []
    for povm in (gen_random_povm(2, 5, seed=4), gen_covariant_sphere(100, seed=7)):
        mixture = decompose_extremal(povm)
        counts.clear()
        sample_two_stage(mixture, rho, 20000, seed=5)
        seen.append((len(mixture.components), counts["searchsorted"]))
        assert counts["argsort"] == 0
    (few, calls_few), (many, calls_many) = seen
    assert many > 10 * few
    assert calls_few == calls_many <= 2 * (pieces + 1)
