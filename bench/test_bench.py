"""Tests of the benchmark itself: its checks reject broken answers, accept
correct ones, and BENCHMARK.json names exactly the metrics the harness prints.

Run from the repository root: python -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import povmix  # noqa: E402
import povmix.serialize  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def decomposed():
    povm = povmix.gen_random_povm(2, 6, rank_cap=1, seed=3)
    return povm, povmix.decompose_extremal(povm)


def _mixture_problems(povm, weights, mixture):
    leaves = [(c.povm.labels, c.povm.effects) for c in mixture.components]
    return checks.mixture_problems(povm.labels, povm.effects, weights, leaves, mixture.complete)


def test_correct_decomposition_passes(decomposed):
    povm, mixture = decomposed
    assert len(mixture.components) > 1
    assert _mixture_problems(povm, mixture.weights, mixture) == []
    for c in mixture.components:
        assert checks.leaf_problems(c.povm.effects, povm.dim) == []


def test_one_perturbed_weight_is_rejected(decomposed):
    povm, mixture = decomposed
    weights = mixture.weights.copy()
    weights[0] += 1e-7
    problems = _mixture_problems(povm, weights, mixture)
    assert any("weights sum" in p for p in problems)
    assert any("weighted leaf sum misses" in p for p in problems)


def test_non_extreme_leaf_is_rejected():
    # four rank-one effects that coincide pairwise: PSD, normalized, within
    # both size bounds, but linearly dependent, so not extreme
    leaf = povmix.gen_ea_family(0.0)
    assert checks.leaf_problems(leaf.effects, 2) == [
        "leaf is not extreme (its sandwich map is not injective)"
    ]
    assert not checks.map_is_extreme(leaf.effects)
    assert checks.map_is_extreme(povmix.gen_sic_qubit().effects)


def test_leaf_with_more_than_d2_outcomes_is_rejected():
    leaf = povmix.gen_random_povm(2, 5, rank_cap=1, seed=1)
    problems = checks.leaf_problems(leaf.effects, 2)
    assert "5 nonzero outcomes > d^2 = 4" in problems
    assert "sum of squared ranks 5 > d^2 = 4" in problems


def test_histogram_from_the_wrong_state_is_rejected():
    sphere = povmix.gen_covariant_sphere(50, seed=1)
    up, down = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)

    def histogram(rho):
        hist = povmix.sample_direct(sphere, povmix.DensityState(2, rho), 10**5, seed=4)
        return json.loads(povmix.serialize.dumps(povmix.serialize.histogram_to_jsonable(hist)))

    assert checks.histogram_problems(histogram(up), sphere.labels, sphere.effects, up) == []
    problems = checks.histogram_problems(histogram(down), sphere.labels, sphere.effects, up)
    assert len(problems) == 1 and problems[0].startswith("TV ")


def test_histogram_with_a_lost_count_is_rejected():
    povm = povmix.gen_sic_qubit()
    doc = {"n": 10, "counts": [{"label": i, "count": 2} for i in range(4)]}
    assert checks.histogram_problems(doc, povm.labels, povm.effects, np.eye(2) / 2) == [
        "counts sum to 8, not n = 10"
    ]


def test_written_mixture_must_read_back_bit_exact(decomposed):
    _, mixture = decomposed
    ser = povmix.serialize
    doc = json.loads(ser.dumps(ser.mixture_to_jsonable(mixture)))
    assert workloads._read_back_problems(doc, mixture) == []
    entry = doc["components"][0]["povm"]["outcomes"][0]["effect"][0][0]
    entry[0] = float(np.nextafter(entry[0], 2.0))
    assert workloads._read_back_problems(doc, mixture) == [
        "written component 0 does not read back bit-exact"
    ]


def test_manifest_names_every_printed_metric():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    per_layer = {name: unit for name, (_, unit) in spans.Tracer().metrics().items()}
    per_layer["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == per_layer
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
