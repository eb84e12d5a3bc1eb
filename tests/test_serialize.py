import numpy as np
import pytest

from povmix.decompose import decompose_extremal, verify_barycenter
from povmix.extremality import is_extreme
from povmix.model import DensityState, FinitePOVM, effects_distance, trace_density
from povmix.outcomes import (
    PostProcessing,
    gen_covariant_sphere,
    gen_random_povm,
    gen_random_state,
)
from povmix.sampling import OutcomeHistogram, sample_direct
from povmix.serialize import (
    ParseError,
    dumps,
    histogram_from_jsonable,
    histogram_to_jsonable,
    loads,
    mixture_from_jsonable,
    mixture_to_jsonable,
    postprocessing_from_jsonable,
    postprocessing_to_jsonable,
    povm_from_jsonable,
    povm_to_jsonable,
    state_from_jsonable,
    state_to_jsonable,
    trace_density_from_jsonable,
    trace_density_to_jsonable,
    verdict_from_jsonable,
    verdict_to_jsonable,
)


def round_trip(obj, to_json, from_json):
    return from_json(loads(dumps(to_json(obj))))


def test_povm_round_trip_is_bit_exact():
    povm = gen_random_povm(3, 5, seed=7)
    back = round_trip(povm, povm_to_jsonable, povm_from_jsonable)
    assert back.dim == povm.dim
    assert back.labels == povm.labels
    assert np.array_equal(back.effects, povm.effects)


def test_point_label_round_trip():
    sphere = gen_covariant_sphere(12, seed=2)
    back = round_trip(sphere, povm_to_jsonable, povm_from_jsonable)
    assert back.labels == sphere.labels  # floats survive exactly
    assert np.array_equal(back.effects, sphere.effects)


def test_mixture_round_trip():
    povm = gen_random_povm(2, 5, rank_cap=1, seed=3)
    mixture = decompose_extremal(povm)
    back = round_trip(mixture, mixture_to_jsonable, mixture_from_jsonable)
    assert back.dim == mixture.dim
    assert back.complete == mixture.complete
    assert np.array_equal(back.weights, mixture.weights)
    for a, b in zip(back.components, mixture.components):
        assert np.array_equal(a.povm.effects, b.povm.effects)
    # deserialized mixtures feed straight back into verification
    report = verify_barycenter(povm, back, trials=8, seed=1)
    assert report.within(1e-8)


def test_state_round_trip():
    rho = gen_random_state(4, seed=9)
    back = round_trip(rho, state_to_jsonable, state_from_jsonable)
    assert np.array_equal(back.matrix, rho.matrix)


def test_histogram_round_trip():
    povm = gen_random_povm(2, 4, seed=1)
    hist = sample_direct(povm, gen_random_state(2, seed=2), 1000, seed=3)
    back = round_trip(hist, histogram_to_jsonable, histogram_from_jsonable)
    assert back == hist


def test_postprocessing_round_trip():
    pp = PostProcessing(((0, 7), (1, (0.5, -1.0)), (2, 7)))
    back = round_trip(pp, postprocessing_to_jsonable, postprocessing_from_jsonable)
    assert back.table == pp.table


def test_verdict_round_trip():
    verdict = is_extreme(gen_random_povm(2, 3, seed=4))
    back = round_trip(verdict, verdict_to_jsonable, verdict_from_jsonable)
    assert back == verdict


def test_trace_density_round_trip():
    povm = FinitePOVM(
        2,
        (0, 1, 2),
        np.array([np.eye(2) * 0.5, np.eye(2) * 0.5, np.zeros((2, 2))]),
    )
    td = trace_density(povm)
    doc = trace_density_to_jsonable(td)
    assert doc["densities"][2] is None
    assert doc["trace_residuals"][2] is None
    assert doc["weight_sum"] == pytest.approx(2.0)
    back = trace_density_from_jsonable(loads(dumps(doc)))
    assert np.array_equal(back.weights, td.weights)
    assert back.densities[2] is None
    assert np.array_equal(back.densities[0], td.densities[0])


def test_parse_errors_name_the_offending_path():
    doc = povm_to_jsonable(gen_random_povm(2, 4, seed=5))
    doc["outcomes"][3]["effect"][1][1] = "oops"
    with pytest.raises(ParseError) as err:
        povm_from_jsonable(doc)
    assert "outcomes[3].effect[1][1]" in str(err.value)

    with pytest.raises(ParseError) as err:
        povm_from_jsonable({"dim": 2})
    assert "outcomes" in str(err.value)

    with pytest.raises(ParseError) as err:
        povm_from_jsonable({"dim": 2, "outcomes": [{"label": True, "effect": []}]})
    assert "outcomes[0].label" in str(err.value)

    with pytest.raises(ParseError) as err:
        state_from_jsonable({"dim": 2, "matrix": [[[1, 0], [0, 0]]]})
    assert "matrix" in str(err.value)


def test_effect_shape_mismatch_is_reported():
    with pytest.raises(ParseError) as err:
        povm_from_jsonable(
            {
                "dim": 2,
                "outcomes": [{"label": 0, "effect": [[[1, 0]], [[0, 0], [1, 0]]]}],
            }
        )
    assert "outcomes[0].effect[0]" in str(err.value)


def test_malformed_json_reports_location():
    with pytest.raises(ParseError) as err:
        loads('{"dim": 2,,}')
    assert "line 1" in str(err.value)


def test_mixture_weight_sum_still_enforced_after_parse():
    povm = gen_random_povm(2, 3, seed=6)
    mixture = decompose_extremal(povm)
    doc = mixture_to_jsonable(mixture)
    doc["components"][0]["weight"] = doc["components"][0]["weight"] + 0.5
    with pytest.raises(Exception):
        mixture_from_jsonable(doc)


@pytest.mark.parametrize("weight", [float("nan"), -0.25, float("inf")])
def test_mixture_weight_must_be_finite_and_non_negative(weight):
    """A bad weight is reported at its JSON path, also when it arrives as the
    NaN or Infinity literal that json.loads accepts."""
    mixture = decompose_extremal(gen_random_povm(2, 3, seed=6))
    doc = mixture_to_jsonable(mixture)
    doc["components"][-1]["weight"] = weight
    with pytest.raises(ParseError) as err:
        mixture_from_jsonable(loads(dumps(doc)))
    assert err.value.path == f"components[{len(doc['components']) - 1}].weight"
