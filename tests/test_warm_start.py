"""The peel chain carries its node's map and warm-starts each walk.

Below the root, a node's map comes from its parent's split, and the walk
starts from the parent's extreme point written on the node's roots,
pivoting the peeled roots out of the basis. These tests check the carried
map against a map rebuilt from the node's effects, the warm-started
weights against the walk's own end conditions, the fallback to the fresh
walk, and what a node may cost.
"""

import hashlib
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from povmix import decompose, linalg
from povmix.decompose import _extremal_direction, decompose_extremal, split_once
from povmix.extremality import MARGIN_FACTOR, build_tp_map, is_extreme, verdict_from_tp
from povmix.model import FinitePOVM, effects_distance, prune_and_merge
from povmix.outcomes import gen_covariant_sphere, gen_random_povm

from test_decompose import criterion_2_draws, reconstruct


def chain(povm):
    """(map, effects, warm start) at every node of the peel chain.

    The effects are not read off the map: they follow from the parent's by
    the barycentric identity P = w+ E + w- R, that is R = (P - w+ E) / w-
    on the live blocks and P / w- on every other block, restricted to the
    labels the remainder keeps."""
    node = prune_and_merge(povm)
    tp, effects, warm = build_tp_map(node), node.effects, None
    while True:
        yield tp, effects, warm
        if verdict_from_tp(tp).is_extreme:
            return
        live, point = _extremal_direction(tp, MARGIN_FACTOR, warm)
        split = split_once(tp, live, point)
        rest = effects / split.weight_minus
        rest[live] -= (split.weight_plus / split.weight_minus) * split.child_plus.effects
        index = {label: i for i, label in enumerate(tp.labels)}
        effects = rest[[index[label] for label in split.child_minus.labels]]
        tp, warm = split.child_minus, split.warm


def ladder():
    return [*criterion_2_draws(), *(gen_covariant_sphere(n, seed=7) for n in (50, 100, 200))]


def test_carried_map_gives_the_verdict_of_a_rebuilt_map(monkeypatch):
    """At every node, the carried map's verdict equals that of build_tp_map
    on the node's effects, and the warm-started weights keep the weighted
    root columns at the identity and end with injective active columns."""
    pivots = []
    pivot = decompose._pivot

    def recorded(columns, warm, d):
        pivots.append((columns, d, pivot(columns, warm, d)))
        return pivots[-1][2]

    monkeypatch.setattr(decompose, "_pivot", recorded)
    nodes = warm_nodes = 0
    for povm in ladder():
        for k, (tp, effects, warm) in enumerate(chain(povm)):
            rebuilt = build_tp_map(FinitePOVM._with_normal_labels(tp.dim, tp.labels, effects))
            got, want = verdict_from_tp(tp), verdict_from_tp(rebuilt)
            assert (got.is_extreme, got.kernel_dim, got.domain_dim) == (
                want.is_extreme, want.kernel_dim, want.domain_dim
            )
            nodes += k > 0
            warm_nodes += warm is not None
    started = 0
    for columns, d, weights in pivots:
        if weights is None:
            continue
        started += 1
        assert np.all(weights >= 0.0)
        identity = linalg.herm_coords(np.eye(d))
        assert np.linalg.norm(columns @ weights - identity) <= 1e-12 * np.linalg.norm(identity)
        active = np.flatnonzero(weights)
        assert active.size <= d * d
        kernel = linalg.kernel_basis(columns[:, active] * weights[active], MARGIN_FACTOR)
        assert kernel.shape[1] == 0
    # most nodes below a root start warm
    assert started > nodes // 2 and warm_nodes >= started


def test_carried_leaf_map_gives_the_verdict_of_a_rebuilt_map(monkeypatch):
    """At every split, the leaf's map from the split gives the verdict of
    build_tp_map on the leaf the chain emits, pruned, and every leaf passes
    a fresh is_extreme: the chain takes its + verdicts from those maps."""
    splits = []
    split = decompose.split_once

    def recorded(*args):
        splits.append(split(*args))
        return splits[-1]

    monkeypatch.setattr(decompose, "split_once", recorded)
    full_rank = [gen_random_povm(d, 3 * d * d, rank_cap=d, seed=7) for d in (3, 4)]
    checked = 0
    for povm in [*ladder(), *full_rank]:
        splits.clear()
        mixture = decompose_extremal(povm)
        assert mixture.complete and len(mixture.components) == len(splits) + 1
        for s, leaf in zip(splits, mixture.components):
            got = verdict_from_tp(s.plus_map)
            want = verdict_from_tp(build_tp_map(leaf.povm))
            assert (got.is_extreme, got.kernel_dim, got.domain_dim) == (
                want.is_extreme, want.kernel_dim, want.domain_dim
            )
            checked += 1
        for c in mixture.components:
            assert is_extreme(c.povm).is_extreme
    assert checked > 700


def test_every_split_writes_its_point_on_the_remainders_roots():
    """Every split, live blocks off the diagonal included, hands the
    remainder a warm start: its weighted root columns plus its weighted
    peeled columns are the identity's coordinates, within 1e-12 relative."""
    for povm in [*criterion_2_draws(), gen_random_povm(3, 27, rank_cap=3, seed=7)]:
        for k, (tp, _, warm) in enumerate(chain(povm)):
            if k == 0:
                continue
            assert isinstance(warm, decompose.WarmStart)
            identity = linalg.herm_coords(np.eye(tp.dim))
            total = tp.roots @ warm.weights + warm.peeled @ warm.peeled_weights
            assert np.linalg.norm(total - identity) <= 1e-12 * np.linalg.norm(identity)
            assert np.all(warm.weights >= 0.0) and np.all(warm.peeled_weights > 0.0)


def unconstrained_draws(count=24):
    """Seeded draws with d = 2, 3, 4, up to 3 d^2 effects and rank caps up
    to d, outside criterion 2's caps: their general walks often leave live
    blocks off the diagonal."""
    rng = np.random.default_rng(2029)
    for j in range(count):
        d = 2 + j % 3
        k = int(rng.integers(d + 1, 3 * d * d + 1))
        cap = int(rng.integers(1, d + 1))
        yield gen_random_povm(d, k, rank_cap=cap, seed=int(rng.integers(2**32)))


def test_unconstrained_draws_give_extreme_leaves_that_recombine(monkeypatch):
    """Every leaf passes a fresh is_extreme, and the mixture recombines to
    the input within 1e-12, on draws where most split points are off the
    diagonal."""
    points = Counter()
    split = decompose.split_once

    def recorded(tp, live, point, *args):
        u, lam = point
        b = (u * lam[:, None, :]) @ u.conj().swapaxes(1, 2)
        points["off"] += bool(np.any(np.abs(b[:, ~np.eye(b.shape[-1], dtype=bool)]) > 1e-12))
        points["all"] += 1
        return split(tp, live, point, *args)

    monkeypatch.setattr(decompose, "split_once", recorded)
    for povm in unconstrained_draws():
        mixture = decompose_extremal(povm)
        assert mixture.complete
        for c in mixture.components:
            assert is_extreme(c.povm).is_extreme
        assert effects_distance(povm, reconstruct(mixture)) <= 1e-12
    assert points["off"] > points["all"] // 2


@pytest.mark.parametrize("n", [50, 100, 200])
def test_every_sphere_node_below_the_root_starts_warm(n, monkeypatch):
    walks = Counter()
    pivot = decompose._pivot

    def recorded(*args):
        weights = pivot(*args)
        walks["warm" if weights is not None else "fallback"] += 1
        return weights

    monkeypatch.setattr(decompose, "_pivot", recorded)
    mixture = decompose_extremal(gen_covariant_sphere(n, seed=7))
    # the root and the last leaf take no warm start
    assert walks == Counter(warm=len(mixture.components) - 2)


def octahedron():
    """The six Pauli eigenprojectors, each over 3: every extreme point of its face
    is a two-outcome projective measurement, two roots where d^2 = 4."""
    eye = np.eye(2, dtype=np.complex128)
    paulis = (
        np.array([[0, 1], [1, 0]], dtype=np.complex128),
        np.array([[0, -1j], [1j, 0]]),
        np.diag([1.0, -1.0]).astype(np.complex128),
    )
    effects = [(eye + s * p) / 6.0 for p in paulis for s in (1, -1)]
    return FinitePOVM(2, tuple(range(6)), np.array(effects))


def calls_by_walk(monkeypatch, name):
    """Counts calls of decompose.<name> by the walk they fall in: walk 1 is
    the root's, walk k the k-th node's."""
    calls = Counter()
    node = 0
    walk, fn = decompose._extremal_direction, getattr(decompose, name)

    def counted_walk(*args):
        nonlocal node
        node += 1
        return walk(*args)

    def counted(*args):
        calls[node] += 1
        return fn(*args)

    monkeypatch.setattr(decompose, "_extremal_direction", counted_walk)
    monkeypatch.setattr(decompose, name, counted)
    return calls


@pytest.mark.parametrize(
    "make",
    [octahedron, lambda: gen_random_povm(3, 12, rank_cap=2, seed=1)],
    ids=["fewer than d^2 roots", "rank-2 live blocks"],
)
def test_an_unusable_warm_start_takes_the_fresh_walk(make, monkeypatch):
    """A warm point with fewer than d^2 active roots falls back to the fresh
    walk, which still peels extreme points off until the chain ends. The
    octahedron's extreme points have two roots; an extreme point with a
    rank-2 block has fewer than d^2 roots, as sum_i rank(B_i)^2 <= d^2.
    Here that is the only reason _pivot gives up."""
    povm = make()
    fresh = calls_by_walk(monkeypatch, "_scalar_walk")
    unusable = []
    pivot = decompose._pivot

    def recorded(columns, warm, d):
        weights = pivot(columns, warm, d)
        if weights is None:
            unusable.append(np.count_nonzero(warm.weights) + warm.peeled_weights.size < d * d)
        return weights

    monkeypatch.setattr(decompose, "_pivot", recorded)
    mixture = decompose_extremal(povm)
    assert mixture.complete
    # a node below the root walked fresh, each for too few active roots
    assert max(fresh) > 1
    assert unusable and all(unusable)
    for c in mixture.components:
        assert is_extreme(c.povm).is_extreme
    assert effects_distance(povm, reconstruct(mixture)) < 1e-12


def test_window_factorizations_run_only_at_the_root(monkeypatch):
    """Complexity guard: on sphere-200 every node below the root starts warm,
    so window_kernel runs only in the root's walk, O(log n) times in all."""
    n = 200
    calls = calls_by_walk(monkeypatch, "window_kernel")
    assert len(decompose_extremal(gen_covariant_sphere(n, seed=7)).components) == n - 3
    assert set(calls) == {1}
    assert calls[1] <= math.ceil(math.log2(n)) + 2


def test_eigh_below_the_root_sees_at_most_d2_blocks(monkeypatch):
    """Complexity guard: after the root's map, every eigh of a decomposition
    (general walk step and the point a general walk ends at)
    sees at most d^2 blocks, however many outcomes the node has."""
    blocks = []

    def counting(fn):
        def counted(a, *args, **kwargs):
            blocks.append(len(a) if np.ndim(a) == 3 else 1)
            return fn(a, *args, **kwargs)

        return counted

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    povms = [gen_covariant_sphere(200, seed=7), *criterion_2_draws()]
    povms += [gen_random_povm(3, 27, rank_cap=3, seed=7)]
    wide = 0
    for povm in povms:
        node = prune_and_merge(povm)
        blocks.clear()
        assert decompose_extremal(povm).complete
        root, *rest = blocks
        assert root == node.n_outcomes
        assert max(rest, default=0) <= povm.dim**2
        wide += node.n_outcomes > povm.dim**2 and len(rest) > 0
    assert wide > 3


# Decomposes criterion-2 draws and sphere-200 and prints one sha256 over
# weight bytes, label reprs and effect bytes of every leaf.
_DIGEST = """
import hashlib
from povmix import decompose_extremal, gen_covariant_sphere
from test_decompose import criterion_2_draws
h = hashlib.sha256()
for povm in [*criterion_2_draws(per_dim=2), gen_covariant_sphere(200, seed=7)]:
    for c in decompose_extremal(povm).components:
        h.update(repr(c.weight).encode())
        h.update(repr(c.povm.labels).encode())
        h.update(c.povm.effects.tobytes())
print(h.hexdigest())
"""


def test_leaves_do_not_depend_on_the_blas_thread_count():
    """The same leaves, bit for bit, with one BLAS thread and with two."""
    here = Path(__file__).resolve().parent
    src = str(here.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, str(here), env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST], capture_output=True, text=True, timeout=300, env=env
        )
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.strip())
    assert len(digests[0]) == len(hashlib.sha256().hexdigest())
    assert digests[0] == digests[1]
