import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from povmix import decompose, linalg, model
from povmix.decompose import (
    ExtremalMixture,
    MixtureComponent,
    SplitError,
    _extremal_direction,
    decompose_extremal,
    split_once,
    verify_barycenter,
)
from povmix.extremality import (
    MARGIN_FACTOR,
    build_tp_map,
    frame_columns,
    is_extreme,
    pair_mask,
    verdict_from_tp,
)
from povmix.model import FinitePOVM, convex_combine, effects_distance
from povmix.outcomes import gen_covariant_sphere, gen_random_povm, gen_random_state, gen_trine

from oracles import frame_oracle, spectral_point
from test_acceptance import _rank_cap
from test_extremality import haar_unitary

I2 = np.eye(2, dtype=np.complex128)


def coin():
    return FinitePOVM(2, (0, 1), np.array([I2 / 2, I2 / 2]))


def block_dim(povm):
    return sum(frame_oracle(p).shape[1] ** 2 for p in povm.effects)


def reconstruct(mixture):
    return convex_combine([(c.weight, c.povm) for c in mixture.components])


def test_split_coin_with_explicit_kernel_element():
    # B = (2I, 0) is on the face: T(B) = I. lambda = 2 peels the leaf {I}
    # off with weight 1/2 and leaves {0, I}, whose zero block is dropped
    povm = coin()
    tp = build_tp_map(povm)
    live = np.array([0, 1])
    result = split_once(tp, live, spectral_point(tp, live, [2 * I2, 0 * I2]))
    assert result.weight_plus == pytest.approx(0.5)
    assert result.weight_minus == pytest.approx(0.5)
    assert result.child_plus.labels == (0, 1)
    assert np.allclose(result.child_plus.effects[0], I2, atol=1e-14)
    assert np.allclose(result.child_plus.effects[1], 0, atol=1e-14)
    rest = result.child_minus.to_povm()
    assert rest.labels == (1,)
    assert np.allclose(rest.effects, [I2], atol=1e-14)
    # the same point with block 1 dead: the leaf carries block 0 only
    result = split_once(tp, np.array([0]), spectral_point(tp, [0], [2 * I2]))
    assert result.child_plus.labels == (0,)
    assert np.allclose(result.child_plus.effects, [I2], atol=1e-14)
    rest = result.child_minus.to_povm()
    assert rest.labels == (1,)
    assert np.allclose(rest.effects, [I2], atol=1e-14)


def test_leaf_map_drops_a_root_below_the_rank_rule():
    """The leaf's map keeps column k when |v_k|^2 lambda_k passes the rank
    rule, as build_tp_map keeps an eigenvalue: the coin peeled at
    B = (diag(2, 2 - eps), diag(0, eps)) leaves an effect of trace eps / 2,
    above the prune cutoff but below the rank cutoff, and both maps give
    it rank 0 and the same verdict."""
    eps = 5e-11
    tp = build_tp_map(coin())
    live = np.array([0, 1])
    b = [np.diag([2.0, 2.0 - eps]), np.diag([0.0, eps])]
    split = split_once(tp, live, spectral_point(tp, live, b))
    assert split.weight_plus == 0.5
    assert list(split.plus_map.ranks) == [2, 0]
    leaf = model._prune(2, split.child_plus.labels, split.child_plus.effects, model.PRUNE_TOL)
    assert leaf.labels == (0, 1)
    got, want = verdict_from_tp(split.plus_map), verdict_from_tp(build_tp_map(leaf))
    assert got.is_extreme and (got.kernel_dim, got.domain_dim) == (want.kernel_dim, want.domain_dim)


def test_split_reconstructs_parent():
    povm = gen_random_povm(3, 5, seed=3)
    tp = build_tp_map(povm)
    live, point = _extremal_direction(tp)
    result = split_once(tp, live, point)
    rest = result.child_minus.to_povm()
    mixed = np.zeros_like(povm.effects)
    mixed[list(rest.labels)] = result.weight_minus * rest.effects
    mixed[live] += result.weight_plus * result.child_plus.effects
    assert np.max(np.abs(mixed - povm.effects)) < 1e-12
    # both children remain valid measurements
    assert np.allclose(result.child_plus.effects.sum(axis=0), np.eye(3), atol=1e-12)
    assert np.allclose(rest.effects.sum(axis=0), np.eye(3), atol=1e-12)


def test_split_strictly_shrinks_block_dimension():
    for seed in (0, 4, 9):
        povm = gen_random_povm(2, 5, rank_cap=1, seed=seed)
        tp = build_tp_map(povm)
        parent_dim = block_dim(povm)
        result = split_once(tp, *_extremal_direction(tp))
        assert block_dim(result.child_plus) < parent_dim
        assert block_dim(result.child_minus.to_povm()) < parent_dim


def test_split_rejects_non_kernel_and_one_sided_elements():
    povm = coin()
    tp = build_tp_map(povm)
    live = np.array([0, 1])
    with pytest.raises(SplitError, match="not above 1"):
        # B = I is the measurement itself: lambda = 1, nothing to peel
        split_once(tp, live, spectral_point(tp, live, [I2, I2]))
    with pytest.raises(SplitError, match="off the face"):
        # T(B) = 3I/2, not I: the residual check trips
        split_once(tp, live, spectral_point(tp, live, [3 * I2, 0 * I2]))
    u, lam = spectral_point(tp, live, [2 * I2, 0 * I2])
    for bad_live, bad_point in [
        (live, (u[:1], lam[:1])),
        (live, (u, lam[:1])),
        (live, (np.zeros((2, 3, 3)), np.zeros((2, 3)))),
        (live, (u, np.zeros((2, 4)))),
        (live, (u.reshape(2, 4), lam)),
        (np.array([1, 0]), (u, lam)),
        (np.array([0, 0]), (u, lam)),
        (np.array([0, 2]), (u, lam)),
        (np.array([], dtype=int), (np.zeros((0, 2, 2)), np.zeros((0, 2)))),
    ]:
        with pytest.raises(SplitError):
            split_once(tp, bad_live, bad_point)


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
    # A budget below the full count cuts the chain: m - 1 peeled extreme
    # leaves, then the non-extreme remainder, and the same leaves as the
    # full chain up to the cut.
    full = decompose_extremal(povm).components
    assert len(full) > 3
    for m in range(1, len(full)):
        cut = decompose_extremal(povm, max_leaves=m)
        assert not cut.complete
        assert len(cut.components) == m
        assert [c.verdict.is_extreme for c in cut.components] == [True] * (m - 1) + [False]
        for a, b in zip(cut.components[:-1], full):
            assert a.weight == b.weight
            assert np.array_equal(a.povm.effects, b.povm.effects)
        assert effects_distance(povm, reconstruct(cut)) < 1e-9


def test_chain_raises_when_a_peeled_child_is_not_extreme(monkeypatch):
    """The chain invariant is checked: a + child that fails the extremality
    test raises SplitError naming its leaf index instead of being split."""
    povm = gen_random_povm(3, 6, rank_cap=2, seed=5)
    calls = 0

    def bad_second_split(tp, *args, **kwargs):
        nonlocal calls
        calls += 1
        result = split_once(tp, *args, **kwargs)
        # the node itself is not extreme: hand it back as the + child, map and all
        if calls == 2:
            return dataclasses.replace(result, child_plus=tp.to_povm(), plus_map=tp)
        return result

    assert len(decompose_extremal(povm).components) > 2
    monkeypatch.setattr(decompose, "split_once", bad_second_split)
    with pytest.raises(SplitError, match=r"leaf 1: the \+ child is not extreme"):
        decompose_extremal(povm)
    assert calls == 2


def test_mixture_invariants_enforced():
    trine = gen_trine()
    with pytest.raises(Exception):
        ExtremalMixture(2, (MixtureComponent(0.9, trine),), True)  # weights != 1
    with pytest.raises(Exception):
        ExtremalMixture(3, (MixtureComponent(1.0, trine),), True)  # dim mismatch
    # negative or non-finite weights, also when the sum reads 1 or NaN
    for weights in [(0.6, -0.1, 0.5), (math.nan,), (0.5, math.nan, 0.5), (math.inf, 1.0)]:
        with pytest.raises(model.PovmError, match="not finite and >= 0"):
            ExtremalMixture(2, tuple(MixtureComponent(w, trine) for w in weights), True)


def test_verify_barycenter_accepts_true_mixture():
    povm = gen_random_povm(3, 6, rank_cap=2, seed=17)
    mixture = decompose_extremal(povm)
    report = verify_barycenter(povm, mixture, trials=32, seed=5)
    assert report.trials == 32
    assert report.within(1e-8)
    assert report.max_functional_residual < 1e-12
    assert report.effect_residual < 1e-12
    assert report.weight_sum == pytest.approx(1.0, abs=1e-12)


def tampered_mixture():
    """A decomposition of a random qubit measurement with its first leaf
    rotated slightly, so it no longer recombines to the measurement."""
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
    return povm, tampered


def test_verify_barycenter_flags_tampering():
    povm, tampered = tampered_mixture()
    report = verify_barycenter(povm, tampered, trials=32, seed=5)
    assert not report.within(1e-8)


def decomposed(povm):
    return povm, decompose_extremal(povm)


@pytest.mark.parametrize(
    "make",
    [
        lambda: decomposed(gen_covariant_sphere(200, seed=7)),
        lambda: decomposed(list(certificate_corpus())[-1]),
        tampered_mixture,
    ],
    ids=["sphere-200", "corpus", "tampered"],
)
def test_effect_residual_matches_recombination_oracle(make):
    """The residual read off the one alignment equals the distance to the
    convex recombination, computed the long way."""
    povm, mixture = make()
    report = verify_barycenter(povm, mixture, trials=2, seed=3)
    assert report.effect_residual == effects_distance(povm, reconstruct(mixture))


def test_verify_barycenter_aligns_labels_once(monkeypatch):
    sphere = gen_covariant_sphere(50, seed=7)
    mixture = decompose_extremal(sphere)
    original, calls = model.align_label_universe, 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(decompose, "align_label_universe", counted)
    monkeypatch.setattr(model, "align_label_universe", counted)
    assert verify_barycenter(sphere, mixture).within(1e-8)
    assert calls == 1


def test_verify_barycenter_states_are_gen_random_state_draws(monkeypatch):
    """Trials are evaluated in stacks of at most _CHUNK_ENTRIES // K states,
    K the leaves' outcomes, and the report does not depend on the stack
    size. Each state equals gen_random_state's draw bit for bit, from the
    one generator, with each trial's outcome values drawn after its state."""
    povm = gen_random_povm(3, 7, seed=2)
    mixture = decompose_extremal(povm)
    outcomes = sum(c.povm.n_outcomes for c in mixture.components)
    stacks = []
    densities = decompose._densities

    def recorded(a):
        stacks.append(densities(a))
        return stacks[-1]

    monkeypatch.setattr(decompose, "_densities", recorded)
    report = verify_barycenter(povm, mixture, trials=19, seed=4)
    assert report.within(1e-8)
    assert [len(s) for s in stacks] == [19]
    stacks.clear()
    monkeypatch.setattr(decompose, "_CHUNK_ENTRIES", 9 * outcomes - 1)
    assert verify_barycenter(povm, mixture, trials=19, seed=4) == report
    assert [len(s) for s in stacks] == [8, 8, 3]
    universe, _ = model.align_label_universe(
        [povm.labels] + [c.povm.labels for c in mixture.components]
    )
    rng = np.random.default_rng(4)
    for t, state in enumerate(np.concatenate(stacks)):
        assert np.array_equal(state, gen_random_state(3, rng=rng, pure=(t % 2 == 0)).matrix)
        rng.standard_normal(len(universe))


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_barycenter_rejects_trials_below_one(trials):
    povm = gen_random_povm(2, 4, seed=1)
    with pytest.raises(model.PovmError, match="trials must be >= 1"):
        verify_barycenter(povm, decompose_extremal(povm), trials=trials)


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


def criterion_2_draws(per_dim=3):
    """The first per_dim draws of each dimension of criterion 2's corpus."""
    for d, master in ((2, 1002), (3, 1003), (4, 1004)):
        rng = np.random.default_rng(master)
        for _ in range(per_dim):
            k = int(rng.integers(2, 3 * d * d + 1))
            cap = _rank_cap(d, k)
            yield gen_random_povm(d, k, rank_cap=cap, seed=int(rng.integers(2**32)))


def test_chain_builds_one_map_per_decomposition(monkeypatch):
    """Complexity guard: the chain builds the root's map only; each split
    hands back the + leaf's map and the remainder's, so L leaves cost one
    map, not L."""
    built = 0

    def counting_build_tp_map(*args, **kwargs):
        nonlocal built
        built += 1
        return build_tp_map(*args, **kwargs)

    monkeypatch.setattr(decompose, "build_tp_map", counting_build_tp_map)
    peeled = 0
    for povm in [*criterion_2_draws(), gen_covariant_sphere(50, seed=7)]:
        built = 0
        mixture = decompose_extremal(povm)
        assert mixture.complete
        leaves = len(mixture.components)
        peeled += leaves - 1
        assert built == 1
    assert peeled > 50


def test_split_makes_no_eigh(monkeypatch):
    """Complexity guard: the split reads the walk's spectral point, so it
    calls no eigh, and a sphere decomposition, whose walks never leave the
    diagonal, calls it once, for the root's map."""
    calls = Counter()
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    splits = 0
    for povm in [*criterion_2_draws(), gen_random_povm(3, 27, rank_cap=3, seed=7)]:
        tp, warm = build_tp_map(model.prune_and_merge(povm)), None
        while not verdict_from_tp(tp).is_extreme:
            live, point = _extremal_direction(tp, MARGIN_FACTOR, warm)
            calls.clear()
            split = split_once(tp, live, point)
            assert calls["eigh"] == 0
            splits += 1
            tp, warm = split.child_minus, split.warm
    assert splits > 20
    sphere = gen_covariant_sphere(50, seed=7)
    calls.clear()
    mixture = decompose_extremal(sphere)
    assert len(mixture.components) == 47
    assert calls["eigh"] == 1


def face_dim(povm):
    """Real dimension of the Hermitian kernel of the map at the decomposition
    root: domain_dim - rank, with rank cut by the verdict's rule."""
    tp = build_tp_map(model.prune_and_merge(povm))
    return linalg.kernel_basis(frame_columns(tp.frames, pair_mask(tp.kept)), MARGIN_FACTOR).shape[1]


def certificate_corpus():
    """25 seeded random measurements per d in {2, 3, 4}, rank caps as in
    acceptance criterion 2."""
    rng = np.random.default_rng(2012)
    for d in (2, 3, 4):
        for _ in range(25):
            k = int(rng.integers(2, 3 * d * d + 1))
            cap = min(d, max(1, int((100 / k) ** 0.5)))
            while k * cap < d:
                cap += 1
            yield gen_random_povm(d, k, rank_cap=cap, seed=int(rng.integers(2**32)))


@pytest.fixture(scope="module")
def corpus_decompositions():
    """(povm, decomposition) over certificate_corpus(), decomposed once."""
    return [(povm, decompose_extremal(povm)) for povm in certificate_corpus()]


def test_leaf_count_certificate_on_corpus(corpus_decompositions):
    """Each split peels an extreme point off and leaves the rest on a proper
    face, so a decomposition has at most dim F + 1 leaves."""
    tight = 0
    for povm, mixture in corpus_decompositions:
        assert mixture.complete
        bound = face_dim(povm) + 1
        assert len(mixture.components) <= bound
        tight += len(mixture.components) == bound
    assert tight > 0


def assert_leaves_pairwise_distinct(mixture):
    """No two leaves with the same label tuple agree within 1e-8, so summing
    identical leaves would change nothing."""
    by_labels = {}
    for c in mixture.components:
        by_labels.setdefault(c.povm.labels, []).append(c.povm)
    for same in by_labels.values():
        for i, a in enumerate(same):
            for b in same[i + 1 :]:
                assert effects_distance(a, b) > 1e-8


def test_chain_leaves_are_pairwise_distinct(corpus_decompositions):
    """Each peeled leaf lies outside the face that holds every later leaf,
    so merging identical leaves had nothing to merge."""
    assert_leaves_pairwise_distinct(decompose_extremal(gen_covariant_sphere(200, seed=7)))
    for _, mixture in corpus_decompositions:
        assert_leaves_pairwise_distinct(mixture)


@pytest.mark.parametrize("n", [50, 100, 200])
def test_sphere_leaf_count_meets_certificate(n):
    sphere = gen_covariant_sphere(n, seed=7)
    assert face_dim(sphere) == n - 4
    assert len(decompose_extremal(sphere).components) == n - 3


def test_full_rank_d5_decomposition_is_complete_and_exact():
    """Full-rank effects at d = 5: the general walk refines at most d^2 live
    roots, so the decomposition finishes, within its leaf certificate, with
    every leaf extreme and the barycentre reproduced."""
    povm = gen_random_povm(5, 30, rank_cap=5, seed=7)
    assert max(build_tp_map(povm).ranks) == 5
    mixture = decompose_extremal(povm)
    assert mixture.complete
    assert all(is_extreme(c.povm).is_extreme for c in mixture.components)
    assert len(mixture.components) <= face_dim(povm) + 1
    report = verify_barycenter(povm, mixture)
    assert report.within(1e-9)


def test_walk_kernel_svds_grow_with_log_outcomes(monkeypatch):
    """Complexity guard: recombination drops more than half the active
    effects per round, and a round's scalar walk factorizes its window once
    per pass, so a root walk takes O(log N) window SVDs, not one per step."""
    n, d = 400, 2
    sphere = gen_covariant_sphere(n, seed=7)
    tp = build_tp_map(sphere)
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(decompose, "window_kernel", counting("window", linalg.window_kernel))
    monkeypatch.setattr(decompose, "kernel_basis", counting("kernel", linalg.kernel_basis))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    live, point = _extremal_direction(tp)
    assert calls["window"] <= math.ceil(math.log2(n)) + 2
    assert calls["svd"] == calls["window"] + calls["kernel"]
    child = split_once(tp, live, point).child_plus
    assert is_extreme(child).is_extreme
    assert block_dim(child) <= d * d


def test_recombination_walk_on_higher_ranks():
    """More than 2(d^2 + 1) effects of rank 2, and the pruned minus child,
    whose ranks are mixed: the walk runs its recombination phase, then the
    general-rank walk, and its direction peels an extreme point off."""
    d = 3
    povm = gen_random_povm(d, 27, rank_cap=2, seed=5)
    rank_sets = []
    for _ in range(2):
        tp = build_tp_map(povm)
        rank_sets.append(set(tp.ranks))
        assert povm.n_outcomes > 2 * (d * d + 1)
        split = split_once(tp, *_extremal_direction(tp))
        assert is_extreme(split.child_plus).is_extreme
        assert block_dim(split.child_plus) <= d * d
        povm = split.child_minus.to_povm()
    assert rank_sets == [{2}, {1, 2}]


def test_decomposition_takes_only_real_svds(monkeypatch):
    """The verdict and every walk kernel factor the real map in Hermitian
    coordinates: no SVD during a decomposition sees a complex matrix."""
    dtypes = Counter()
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        dtypes[np.asarray(a).dtype] += 1
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    for povm in (
        gen_covariant_sphere(50, seed=7),
        gen_random_povm(3, 12, rank_cap=2, seed=5),
        gen_random_povm(4, 10, rank_cap=3, seed=2),
    ):
        assert decompose_extremal(povm).complete
    assert set(dtypes) == {np.dtype(np.float64)}
    assert dtypes[np.dtype(np.float64)] > 10


def test_rank_one_decomposition_commutes_with_unitary_conjugation():
    """decompose(U P U^dag) = U decompose(P) U^dag leaf for leaf, for
    rank-one inputs. (Higher ranks are not covariant yet: the general walk
    steps along the first vector of a kernel basis that LAPACK picks.)"""
    rng = np.random.default_rng(2021)
    for case in range(20):
        d = 2 + case % 3
        k = int(rng.integers(d + 2, 3 * d * d + 1))
        povm = gen_random_povm(d, k, rank_cap=1, seed=int(rng.integers(2**32)))
        u = haar_unitary(d, rng)
        rotated = FinitePOVM(d, povm.labels, u @ povm.effects @ u.conj().T)
        plain, turned = decompose_extremal(povm), decompose_extremal(rotated)
        assert len(turned.components) == len(plain.components)
        for a, b in zip(plain.components, turned.components):
            assert b.povm.labels == a.povm.labels
            assert abs(b.weight - a.weight) <= 1e-8
            assert np.max(np.abs(b.povm.effects - u @ a.povm.effects @ u.conj().T)) <= 1e-8
