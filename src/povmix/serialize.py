"""JSON encoding of measurements, mixtures, states, and histograms.

Complex entries are [re, im] pairs, matrices row-major. Documents are
written on one line by the C encoder; floats go through Python's shortest
round-trip repr, so they re-parse to the exact in-memory values.

A measurement's effects are read as one array after one type check: only
JSON integers and reals pass, so true, null and strings are rejected
rather than read as 1.0, NaN or text. Parse errors name the offending
path, e.g. "outcomes[3].effect[1][2][0]"; paths are built only when
something fails, by walking the input to its first bad entry.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .decompose import ExtremalMixture, MixtureComponent
from .extremality import ExtremalityVerdict
from .model import (
    DensityState,
    FinitePOVM,
    PovmError,
    TraceDensity,
    _repeats,
    label_to_jsonable,
)
from .outcomes import PostProcessing
from .sampling import OutcomeHistogram

# The types a JSON number parses to; bool is a subclass of int, not one of these.
_REALS = {int, float}

# What each axis of a (rows, columns, [re, im]) matrix holds, for messages.
_AXES = ("rows", "entries", "parts [re, im]")


class ParseError(PovmError):
    def __init__(self, path: str, message: str):
        self.path = path or "<root>"
        super().__init__(f"{self.path}: {message}")


def _get(obj, key, path):
    if not isinstance(obj, dict):
        raise ParseError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ParseError(path, f"missing key {key!r}")
    return obj[key]


def _field(entries: list, key: str, path_of) -> list:
    """entries[i][key] for every i; path_of(i) is built only on failure."""
    if all(type(e) is dict and key in e for e in entries):
        return [e[key] for e in entries]
    return [_get(e, key, path_of(i)) for i, e in enumerate(entries)]


def _int_at(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(path, f"expected an integer, got {value!r}")
    return value


def _dim_at(obj, path) -> int:
    """obj["dim"], an integer >= 1; path is obj's own path."""
    prefix = f"{path}." if path else ""
    dim = _int_at(_get(obj, "dim", path), f"{prefix}dim")
    if dim < 1:
        raise ParseError(f"{prefix}dim", f"dimension must be positive, got {dim}")
    return dim


def _real_at(value, path) -> float:
    """A finite float; json.loads reads NaN and Infinity literals as floats."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(path, f"expected a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        raise ParseError(path, "integer too large for a float") from None
    if not math.isfinite(real):
        raise ParseError(path, f"expected a finite number, got {real!r}")
    return real


def _list_at(value, path) -> list:
    if not isinstance(value, list):
        raise ParseError(path, f"expected an array, got {type(value).__name__}")
    return value


def _point(value):
    """value as a normal point label (see model.as_label), or None."""
    if type(value) is list and value and _REALS.issuperset(map(type, value)):
        try:
            point = tuple(map(float, value))
        except OverflowError:
            return None
        if all(map(math.isfinite, point)):
            return point
    return None


def _label_at(value, path):
    """The normal label at path, or a ParseError naming the bad part."""
    if isinstance(value, bool):
        raise ParseError(path, "label must be an integer or an array of reals")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, list):
        point = tuple(_real_at(v, f"{path}[{i}]") for i, v in enumerate(value))
        if point:
            return point
        raise ParseError(path, "point label must be a nonempty vector")
    raise ParseError(path, "label must be an integer or an array of reals")


def _labels_at(values: list, path_of) -> tuple:
    """Normal labels; path_of(i) is built only for a label that fails."""
    labels = []
    for i, value in enumerate(values):
        label = value if type(value) is int else _point(value)
        labels.append(_label_at(value, path_of(i)) if label is None else label)
    return tuple(labels)


def _reals_at(value, shape: tuple, path):
    """value as nested lists of floats of the given shape, entry by entry."""
    if not shape:
        return _real_at(value, path)
    items = _list_at(value, path)
    if len(items) != shape[0]:
        raise ParseError(path, f"expected {shape[0]} {_AXES[-len(shape)]}, got {len(items)}")
    return [_reals_at(v, shape[1:], f"{path}[{i}]") for i, v in enumerate(items)]


def _matrices_at(values: list, dim: int, path_of) -> np.ndarray:
    """(len(values), dim, dim) complex array from nested [re, im] pairs.

    One numpy conversion after one type check of every entry. If either
    fails, or an entry is not finite, the values are walked to the first bad
    entry, under path_of(i) for values[i]; numpy would read true as 1.0 and
    null as NaN.
    """
    shape = (len(values), dim, dim, 2)
    reals = None
    try:
        raw = np.array(values, dtype=object)
        if raw.shape == shape and _REALS.issuperset(map(type, raw.ravel())):
            reals = raw.astype(np.float64)
    except (ValueError, OverflowError):
        pass
    if reals is None or not np.isfinite(reals).all():
        reals = np.array(
            [_reals_at(v, shape[1:], path_of(i)) for i, v in enumerate(values)],
            dtype=np.float64,
        ).reshape(shape)
    return reals.view(np.complex128).reshape(shape[:3])


def matrix_to_jsonable(matrix) -> list:
    """A matrix, or a stack of them, as nested [re, im] pairs."""
    m = np.asarray(matrix, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def matrix_from_jsonable(value, dim: int, path) -> np.ndarray:
    return _matrices_at([value], dim, lambda _: path)[0]


def povm_to_jsonable(povm: FinitePOVM) -> dict:
    return {
        "dim": povm.dim,
        "outcomes": [
            {"label": label_to_jsonable(label), "effect": effect}
            for label, effect in zip(povm.labels, matrix_to_jsonable(povm.effects))
        ],
    }


def povm_from_jsonable(obj, path: str = "") -> FinitePOVM:
    prefix = f"{path}." if path else ""
    dim = _dim_at(obj, path)
    outcomes = _list_at(_get(obj, "outcomes", path), f"{prefix}outcomes")
    if not outcomes:
        raise ParseError(f"{prefix}outcomes", "at least one outcome required")

    def here(i):
        return f"{prefix}outcomes[{i}]"

    labels = _labels_at(_field(outcomes, "label", here), lambda i: f"{here(i)}.label")
    effects = _matrices_at(
        _field(outcomes, "effect", here), dim, lambda i: f"{here(i)}.effect"
    )
    return FinitePOVM._with_normal_labels(dim, labels, effects)


def mixture_to_jsonable(mixture: ExtremalMixture) -> dict:
    return {
        "dim": mixture.dim,
        "components": [
            {"weight": c.weight, "povm": povm_to_jsonable(c.povm)}
            for c in mixture.components
        ],
        "complete": mixture.complete,
    }


def mixture_from_jsonable(obj, path: str = "") -> ExtremalMixture:
    prefix = f"{path}." if path else ""
    dim = _dim_at(obj, path)
    complete = _get(obj, "complete", path)
    if not isinstance(complete, bool):
        raise ParseError(f"{prefix}complete", f"expected a boolean, got {complete!r}")
    entries = _list_at(_get(obj, "components", path), f"{prefix}components")
    if not entries:
        raise ParseError(f"{prefix}components", "at least one component required")
    components = []
    for i, entry in enumerate(entries):
        here = f"{prefix}components[{i}]"
        weight = _real_at(_get(entry, "weight", here), f"{here}.weight")
        if weight < 0.0:
            raise ParseError(f"{here}.weight", f"expected a weight >= 0, got {weight!r}")
        povm = povm_from_jsonable(_get(entry, "povm", here), f"{here}.povm")
        if povm.dim != dim:
            raise ParseError(f"{here}.povm", f"dimension {povm.dim} does not match dim {dim}")
        components.append(MixtureComponent(weight, povm))
    try:
        return ExtremalMixture(dim, tuple(components), complete)
    except PovmError as exc:
        raise ParseError(f"{prefix}components", str(exc)) from None


def state_to_jsonable(state: DensityState) -> dict:
    return {"dim": state.dim, "matrix": matrix_to_jsonable(state.matrix)}


def state_from_jsonable(obj, path: str = "") -> DensityState:
    prefix = f"{path}." if path else ""
    dim = _dim_at(obj, path)
    matrix = matrix_from_jsonable(_get(obj, "matrix", path), dim, f"{prefix}matrix")
    try:
        return DensityState(dim, matrix)
    except ValueError as exc:
        raise ParseError(f"{prefix}matrix", str(exc)) from None


def histogram_to_jsonable(hist: OutcomeHistogram) -> dict:
    return {
        "n": hist.n,
        "counts": [
            {"label": label_to_jsonable(label), "count": count}
            for label, count in zip(hist.labels, hist.counts)
        ],
    }


def histogram_from_jsonable(obj, path: str = "") -> OutcomeHistogram:
    prefix = f"{path}." if path else ""
    n = _int_at(_get(obj, "n", path), f"{prefix}n")
    entries = _list_at(_get(obj, "counts", path), f"{prefix}counts")

    def here(i):
        return f"{prefix}counts[{i}]"

    labels = _labels_at(_field(entries, "label", here), lambda i: f"{here(i)}.label")
    counts = tuple(
        c if type(c) is int else _int_at(c, f"{here(i)}.count")
        for i, c in enumerate(_field(entries, "count", here))
    )
    for i, c in enumerate(counts):
        if c < 0:
            raise ParseError(f"{here(i)}.count", f"expected a count >= 0, got {c}")
    if sum(counts) != n:
        raise ParseError(f"{prefix}n", f"counts sum to {sum(counts)}, declared n={n}")
    return OutcomeHistogram(labels, counts, n)


def postprocessing_to_jsonable(pp: PostProcessing) -> dict:
    return {
        "map": [
            {"from": src, "to": label_to_jsonable(dst)} for src, dst in pp.table
        ]
    }


def postprocessing_from_jsonable(obj, path: str = "") -> PostProcessing:
    prefix = f"{path}." if path else ""
    entries = _list_at(_get(obj, "map", path), f"{prefix}map")
    table = {}
    for i, entry in enumerate(entries):
        here = f"{prefix}map[{i}]"
        src = _int_at(_get(entry, "from", here), f"{here}.from")
        if src in table:
            raise ParseError(f"{here}.from", f"source label {src} mapped twice")
        table[src] = _label_at(_get(entry, "to", here), f"{here}.to")
    return PostProcessing(tuple(table.items()))


def verdict_to_jsonable(verdict: ExtremalityVerdict) -> dict:
    return {
        "extreme": verdict.is_extreme,
        "margin": verdict.margin,
        "kernel_dim": verdict.kernel_dim,
        "domain_dim": verdict.domain_dim,
        "threshold": verdict.threshold,
    }


def trace_density_to_jsonable(td: TraceDensity) -> dict:
    residuals = [
        None if d is None else abs(float(np.trace(d).real) - 1.0)
        for d in td.densities
    ]
    return {
        "dim": td.dim,
        "labels": [label_to_jsonable(label) for label in td.labels],
        "weights": [float(w) for w in td.weights],
        "densities": [
            None if d is None else matrix_to_jsonable(d) for d in td.densities
        ],
        "trace_residuals": residuals,
        "weight_sum": float(sum(td.weights)),
    }


def trace_density_from_jsonable(obj, path: str = "") -> TraceDensity:
    prefix = f"{path}." if path else ""
    dim = _dim_at(obj, path)
    labels = _labels_at(
        _list_at(_get(obj, "labels", path), f"{prefix}labels"),
        lambda i: f"{prefix}labels[{i}]",
    )
    weights = [
        _real_at(v, f"{prefix}weights[{i}]")
        for i, v in enumerate(_list_at(_get(obj, "weights", path), f"{prefix}weights"))
    ]
    raw = _list_at(_get(obj, "densities", path), f"{prefix}densities")
    for key, values in (("weights", weights), ("densities", raw)):
        if len(values) != len(labels):
            raise ParseError(f"{prefix}{key}", f"expected {len(labels)} entries, got {len(values)}")
    # Exact: a writer may keep labels apart at any label_tol.
    first = {j: i for i, j in _repeats(labels, 0.0)}
    for i, (weight, value) in enumerate(zip(weights, raw)):
        if i in first:
            raise ParseError(f"{prefix}labels[{i}]", f"repeats labels[{first[i]}]")
        if weight < 0.0:
            raise ParseError(f"{prefix}weights[{i}]", f"expected a weight >= 0, got {weight!r}")
        if value is None and weight != 0.0:
            raise ParseError(
                f"{prefix}densities[{i}]", f"expected a density for weight {weight!r}, got null"
            )
    densities = [
        None if v is None else matrix_from_jsonable(v, dim, f"{prefix}densities[{i}]")
        for i, v in enumerate(raw)
    ]
    return TraceDensity(dim, labels, np.asarray(weights), tuple(densities))


def dumps(obj) -> str:
    """One line of JSON; pipe it through python -m json.tool to indent it."""
    return json.dumps(obj)


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno} column {exc.colno}", f"malformed JSON: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer past int()'s digit limit
        raise ParseError("", f"malformed JSON: {exc}") from exc
