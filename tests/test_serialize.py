import copy
import random

import numpy as np
import pytest

from povmix.decompose import decompose_extremal, verify_barycenter
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
    """Weights summing to 1.5 or to 0.5 are a ParseError at components."""
    povm = gen_random_povm(2, 3, seed=6)
    mixture = decompose_extremal(povm)
    over, half = mixture_to_jsonable(mixture), mixture_to_jsonable(mixture)
    over["components"][0]["weight"] = over["components"][0]["weight"] + 0.5
    for c in half["components"]:
        c["weight"] = c["weight"] / 2
    for doc in (over, half):
        with pytest.raises(ParseError, match="component weights sum to") as err:
            mixture_from_jsonable(doc)
        assert err.value.path == "components"


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


HUGE = int("9" * 401)  # parses as a JSON integer; float() of it overflows


def _malformed(slot, bad):
    """A document with bad at one number slot, its parser, and the slot's path."""
    if slot == "effect":
        doc = povm_to_jsonable(gen_covariant_sphere(6, seed=1))
        doc["outcomes"][2]["effect"][1][0][1] = bad
        return doc, povm_from_jsonable, "outcomes[2].effect[1][0][1]"
    if slot == "label":
        doc = povm_to_jsonable(gen_covariant_sphere(6, seed=1))
        doc["outcomes"][4]["label"][2] = bad
        return doc, povm_from_jsonable, "outcomes[4].label[2]"
    if slot == "weight":
        doc = mixture_to_jsonable(decompose_extremal(gen_random_povm(2, 3, seed=6)))
        doc["components"][1]["weight"] = bad
        return doc, mixture_from_jsonable, "components[1].weight"
    if slot == "trace weight":
        doc = trace_density_to_jsonable(trace_density(gen_random_povm(2, 3, seed=4)))
        doc["weights"][1] = bad
        return doc, trace_density_from_jsonable, "weights[1]"
    doc = state_to_jsonable(gen_random_state(3, seed=2))
    doc["matrix"][2][1][0] = bad
    return doc, state_from_jsonable, "matrix[2][1][0]"


@pytest.mark.parametrize("bad", [True, None, "x", HUGE], ids=["true", "null", "str", "huge"])
@pytest.mark.parametrize(
    "slot", ["effect", "label", "weight", "state", "trace weight"]
)
def test_malformed_number_is_reported_at_its_path(slot, bad):
    """numpy would read true as 1.0 and null as NaN, and float() of a huge
    integer overflows: each must be a ParseError at the exact path, also
    after a trip through the JSON text."""
    doc, parse, path = _malformed(slot, bad)
    for source in (doc, loads(dumps(doc))):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.path == path


def test_effect_rows_of_a_huge_dimension_are_reported_not_allocated():
    doc = {"dim": 10**6, "outcomes": [{"label": 0, "effect": [[[1.0, 0.0]]]}]}
    with pytest.raises(ParseError, match="expected 1000000 rows, got 1") as err:
        povm_from_jsonable(doc)
    assert err.value.path == "outcomes[0].effect"


def test_integer_past_the_digit_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="malformed JSON"):
        loads('{"dim": ' + "9" * 5000 + "}")


def test_sphere_mixture_round_trip_is_bit_exact_on_one_line():
    povm = gen_covariant_sphere(200, seed=7)
    mixture = decompose_extremal(povm)
    text = dumps(mixture_to_jsonable(mixture))
    assert "\n" not in text
    back = mixture_from_jsonable(loads(text))
    assert back.dim == mixture.dim and back.complete == mixture.complete
    assert len(back.components) == len(mixture.components)
    for a, b in zip(back.components, mixture.components):
        assert a.weight == b.weight
        assert a.povm.labels == b.povm.labels
        assert np.array_equal(a.povm.effects, b.povm.effects)
        # the signs of zeros survive too
        assert a.povm.effects.tobytes() == b.povm.effects.tobytes()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("slot", ["effect", "state"])
def test_non_finite_matrix_entry_is_reported_at_its_path(slot, literal):
    """json.loads accepts these literals; a matrix entry must be finite."""
    _assert_non_finite_rejected(slot, literal)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("slot", ["label", "weight", "trace weight"])
def test_non_finite_real_is_reported_at_its_path(slot, literal):
    """Labels, mixture weights and trace weights must be finite too."""
    _assert_non_finite_rejected(slot, literal)


def _assert_non_finite_rejected(slot, literal):
    marker = 12345.5
    doc, parse, path = _malformed(slot, marker)
    with pytest.raises(ParseError, match="expected a finite number") as err:
        parse(loads(dumps(doc).replace(repr(marker), literal)))
    assert err.value.path == path


def _trace_density_doc():
    return trace_density_to_jsonable(trace_density(gen_random_povm(2, 3, seed=4)))


def test_trace_density_rejects_a_repeated_label():
    doc = _trace_density_doc()
    doc["labels"][2] = doc["labels"][0]
    with pytest.raises(ParseError, match=r"repeats labels\[0\]") as err:
        trace_density_from_jsonable(loads(dumps(doc)))
    assert err.value.path == "labels[2]"


def test_trace_density_rejects_a_negative_weight():
    doc = _trace_density_doc()
    doc["weights"][1] = -7.0
    with pytest.raises(ParseError, match="expected a weight >= 0") as err:
        trace_density_from_jsonable(loads(dumps(doc)))
    assert err.value.path == "weights[1]"


def test_trace_density_rejects_null_density_under_nonzero_weight():
    doc = _trace_density_doc()
    doc["densities"][1] = None
    with pytest.raises(ParseError, match="expected a density") as err:
        trace_density_from_jsonable(loads(dumps(doc)))
    assert err.value.path == "densities[1]"


@pytest.mark.parametrize("key, keep", [("weights", 1), ("densities", 0)])
def test_trace_density_arrays_must_match_the_labels(key, keep):
    """One weight and one density (or null) per label; a short array is a
    ParseError that names it."""
    doc = trace_density_to_jsonable(trace_density(gen_random_povm(2, 2, seed=4)))
    doc[key] = doc[key][:keep]
    with pytest.raises(ParseError, match="expected 2 entries") as err:
        trace_density_from_jsonable(loads(dumps(doc)))
    assert err.value.path == key


def _dim_document(kind):
    """A document of the given kind that parses at dim 2, and its parser."""
    if kind == "povm":
        return povm_to_jsonable(gen_random_povm(2, 3, seed=4)), povm_from_jsonable
    if kind == "state":
        return state_to_jsonable(gen_random_state(2, seed=2)), state_from_jsonable
    if kind == "mixture":
        doc = mixture_to_jsonable(decompose_extremal(gen_random_povm(2, 3, seed=6)))
        return doc, mixture_from_jsonable
    if kind == "trace_density null":
        doc = {"dim": 2, "labels": [0], "weights": [0.0], "densities": [None]}
        return doc, trace_density_from_jsonable
    # an empty density row list is a 0 x 0 matrix at dim 0
    doc = {"dim": 2, "labels": [0], "weights": [1.0], "densities": [[]]}
    return doc, trace_density_from_jsonable


@pytest.mark.parametrize("dim", [0, -1, True, 2.0, None])
@pytest.mark.parametrize(
    "kind", ["povm", "state", "mixture", "trace_density null", "trace_density empty"]
)
def test_dim_must_be_a_positive_integer(kind, dim):
    """Every parser that reads a dim rejects anything but an integer >= 1
    at "dim", before reading what the dim shapes."""
    doc, parse = _dim_document(kind)
    doc["dim"] = dim
    with pytest.raises(ParseError) as err:
        parse(loads(dumps(doc)))
    assert err.value.path == "dim"


def _fuzz_documents():
    """(name, document, parser) for every document kind, point and integer
    labels, and a trace density whose only outcome has weight 0."""
    sphere = gen_covariant_sphere(5, seed=1)
    random = gen_random_povm(2, 3, seed=4)
    state = gen_random_state(2, seed=2)
    pp = PostProcessing(((0, 1), (1, [0.5, -0.5]), (2, 1)))
    return [
        ("povm", povm_to_jsonable(random), povm_from_jsonable),
        ("point povm", povm_to_jsonable(sphere), povm_from_jsonable),
        (
            "mixture",
            mixture_to_jsonable(decompose_extremal(gen_random_povm(2, 3, seed=6))),
            mixture_from_jsonable,
        ),
        ("state", state_to_jsonable(state), state_from_jsonable),
        (
            "histogram",
            histogram_to_jsonable(sample_direct(sphere, state, 50, seed=3)),
            histogram_from_jsonable,
        ),
        (
            "trace_density",
            trace_density_to_jsonable(trace_density(random)),
            trace_density_from_jsonable,
        ),
        (
            "zero trace_density",
            {"dim": 1, "labels": [0], "weights": [0.0], "densities": [None]},
            trace_density_from_jsonable,
        ),
        ("postprocessing", postprocessing_to_jsonable(pp), postprocessing_from_jsonable),
    ]


def _paths(node, path=()):
    """Every path below node, as tuples of keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


_REPLACEMENTS = (None, True, "x", HUGE, [], {}, 0, -1)


def _mutate(doc, rng):
    """One seeded mutation of a copy of doc: a value replaced, a key or an
    entry deleted, or an entry duplicated. Returns (copy, description)."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = rng.randrange(len(_REPLACEMENTS) + 2)
    if op == len(_REPLACEMENTS):
        del parent[key]
        return doc, f"delete {path}"
    if op == len(_REPLACEMENTS) + 1 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
        return doc, f"duplicate {path}"
    value = _REPLACEMENTS[op % len(_REPLACEMENTS)]
    parent[key] = value
    return doc, f"{path} = {str(value)[:12]}"


@pytest.mark.parametrize("seed", [0, 1])
def test_mutated_documents_fail_only_as_value_errors(seed):
    """Seeded mutations of valid documents: every rejection is a ParseError
    that names a path, which the CLI reports as exit 1, and every accepted
    document with a dim has an integer dim >= 1."""
    rng = random.Random(seed)
    for name, doc, parse in _fuzz_documents():
        for _ in range(300):
            mutated, what = _mutate(doc, rng)
            try:
                result = parse(mutated)
            except ParseError:
                continue
            except Exception as exc:
                pytest.fail(f"{name}, {what}: {type(exc).__name__}: {exc}")
            dim = getattr(result, "dim", 1)
            assert type(dim) is int and dim >= 1, f"{name}, {what}: dim {dim!r}"


def _semantic_rejections():
    """(document, parser, path) for a value each object's own check rejects."""
    state = gen_random_state(2, seed=2)
    hist = histogram_to_jsonable(sample_direct(gen_random_povm(2, 3, seed=4), state, 50, seed=3))
    short = copy.deepcopy(hist)
    short["n"] += 1
    negative = copy.deepcopy(hist)
    negative["counts"][1]["count"] = -1
    skew, heavy = state_to_jsonable(state), state_to_jsonable(state)
    skew["matrix"][0][1][1] += 0.25
    heavy["matrix"][0][0][0] += 0.25
    twice = {"map": [{"from": 0, "to": 1}, {"from": 1, "to": 2}, {"from": 0, "to": 3}]}
    yield short, histogram_from_jsonable, "n"
    yield negative, histogram_from_jsonable, "counts[1].count"
    yield skew, state_from_jsonable, "matrix"
    yield heavy, state_from_jsonable, "matrix"
    yield twice, postprocessing_from_jsonable, "map[2].from"


@pytest.mark.parametrize("doc, parse, path", list(_semantic_rejections()))
def test_semantic_rejections_name_their_path(doc, parse, path):
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert err.value.path == path


def test_mixture_component_of_another_dimension_is_reported_at_its_povm():
    doc = mixture_to_jsonable(decompose_extremal(gen_random_povm(2, 3, seed=6)))
    doc["components"][1]["povm"] = povm_to_jsonable(gen_random_povm(3, 4, seed=1))
    with pytest.raises(ParseError, match="dimension 3 does not match dim 2") as err:
        mixture_from_jsonable(doc)
    assert err.value.path == "components[1].povm"
