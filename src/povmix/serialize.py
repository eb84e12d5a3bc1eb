"""JSON encoding of measurements, mixtures, states, and histograms.

Complex entries are [re, im] pairs, matrices row-major. Floats go through
Python's shortest round-trip repr, so emitted documents re-parse to the
exact in-memory values. Parse errors name the offending path, e.g.
"outcomes[3].effect[1][2]".
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
    as_label,
    label_to_jsonable,
)
from .outcomes import PostProcessing
from .sampling import OutcomeHistogram


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


def _int_at(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(path, f"expected an integer, got {value!r}")
    return value


def _real_at(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(path, f"expected a real number, got {value!r}")
    return float(value)


def _list_at(value, path) -> list:
    if not isinstance(value, list):
        raise ParseError(path, f"expected an array, got {type(value).__name__}")
    return value


def _label_at(value, path):
    if isinstance(value, bool):
        raise ParseError(path, "label must be an integer or an array of reals")
    if isinstance(value, int):
        return value
    if isinstance(value, list):
        point = tuple(_real_at(v, f"{path}[{i}]") for i, v in enumerate(value))
        try:
            return as_label(point)
        except ValueError as exc:
            raise ParseError(path, str(exc)) from exc
    raise ParseError(path, "label must be an integer or an array of reals")


def _pair_at(value, path) -> complex:
    pair = _list_at(value, path)
    if len(pair) != 2:
        raise ParseError(path, f"expected an [re, im] pair, got length {len(pair)}")
    return complex(_real_at(pair[0], f"{path}[0]"), _real_at(pair[1], f"{path}[1]"))


def matrix_to_jsonable(matrix) -> list:
    m = np.asarray(matrix, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_jsonable(value, dim: int, path) -> np.ndarray:
    rows = _list_at(value, path)
    if len(rows) != dim:
        raise ParseError(path, f"expected {dim} rows, got {len(rows)}")
    out = np.empty((dim, dim), dtype=np.complex128)
    for i, row in enumerate(rows):
        row = _list_at(row, f"{path}[{i}]")
        if len(row) != dim:
            raise ParseError(f"{path}[{i}]", f"expected {dim} entries, got {len(row)}")
        for j, entry in enumerate(row):
            out[i, j] = _pair_at(entry, f"{path}[{i}][{j}]")
    return out


def povm_to_jsonable(povm: FinitePOVM) -> dict:
    return {
        "dim": povm.dim,
        "outcomes": [
            {"label": label_to_jsonable(label), "effect": matrix_to_jsonable(effect)}
            for label, effect in povm
        ],
    }


def povm_from_jsonable(obj, path: str = "") -> FinitePOVM:
    prefix = f"{path}." if path else ""
    dim = _int_at(_get(obj, "dim", path), f"{prefix}dim")
    if dim < 1:
        raise ParseError(f"{prefix}dim", f"dimension must be positive, got {dim}")
    outcomes = _list_at(_get(obj, "outcomes", path), f"{prefix}outcomes")
    if not outcomes:
        raise ParseError(f"{prefix}outcomes", "at least one outcome required")
    labels = []
    effects = np.empty((len(outcomes), dim, dim), dtype=np.complex128)
    for i, entry in enumerate(outcomes):
        here = f"{prefix}outcomes[{i}]"
        labels.append(_label_at(_get(entry, "label", here), f"{here}.label"))
        effects[i] = matrix_from_jsonable(
            _get(entry, "effect", here), dim, f"{here}.effect"
        )
    return FinitePOVM(dim, tuple(labels), effects)


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
    dim = _int_at(_get(obj, "dim", path), f"{prefix}dim")
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
        if not (math.isfinite(weight) and weight >= 0.0):
            raise ParseError(f"{here}.weight", f"expected a finite weight >= 0, got {weight!r}")
        povm = povm_from_jsonable(_get(entry, "povm", here), f"{here}.povm")
        components.append(MixtureComponent(weight, povm))
    return ExtremalMixture(dim, tuple(components), complete)


def state_to_jsonable(state: DensityState) -> dict:
    return {"dim": state.dim, "matrix": matrix_to_jsonable(state.matrix)}


def state_from_jsonable(obj, path: str = "") -> DensityState:
    prefix = f"{path}." if path else ""
    dim = _int_at(_get(obj, "dim", path), f"{prefix}dim")
    if dim < 1:
        raise ParseError(f"{prefix}dim", f"dimension must be positive, got {dim}")
    matrix = matrix_from_jsonable(_get(obj, "matrix", path), dim, f"{prefix}matrix")
    return DensityState(dim, matrix)


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
    labels, counts = [], []
    for i, entry in enumerate(entries):
        here = f"{prefix}counts[{i}]"
        labels.append(_label_at(_get(entry, "label", here), f"{here}.label"))
        counts.append(_int_at(_get(entry, "count", here), f"{here}.count"))
    return OutcomeHistogram(tuple(labels), tuple(counts), n)


def postprocessing_to_jsonable(pp: PostProcessing) -> dict:
    return {
        "map": [
            {"from": src, "to": label_to_jsonable(dst)} for src, dst in pp.table
        ]
    }


def postprocessing_from_jsonable(obj, path: str = "") -> PostProcessing:
    prefix = f"{path}." if path else ""
    entries = _list_at(_get(obj, "map", path), f"{prefix}map")
    table = []
    for i, entry in enumerate(entries):
        here = f"{prefix}map[{i}]"
        src = _int_at(_get(entry, "from", here), f"{here}.from")
        dst = _label_at(_get(entry, "to", here), f"{here}.to")
        table.append((src, dst))
    return PostProcessing(tuple(table))


def verdict_to_jsonable(verdict: ExtremalityVerdict) -> dict:
    return {
        "extreme": verdict.is_extreme,
        "margin": verdict.margin,
        "kernel_dim": verdict.kernel_dim,
        "domain_dim": verdict.domain_dim,
        "threshold": verdict.threshold,
    }


def verdict_from_jsonable(obj, path: str = "") -> ExtremalityVerdict:
    prefix = f"{path}." if path else ""
    extreme = _get(obj, "extreme", path)
    if not isinstance(extreme, bool):
        raise ParseError(f"{prefix}extreme", f"expected a boolean, got {extreme!r}")
    return ExtremalityVerdict(
        extreme,
        _real_at(_get(obj, "margin", path), f"{prefix}margin"),
        _int_at(_get(obj, "kernel_dim", path), f"{prefix}kernel_dim"),
        _int_at(_get(obj, "domain_dim", path), f"{prefix}domain_dim"),
        _real_at(_get(obj, "threshold", path), f"{prefix}threshold"),
    )


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
    dim = _int_at(_get(obj, "dim", path), f"{prefix}dim")
    labels = [
        _label_at(v, f"{prefix}labels[{i}]")
        for i, v in enumerate(_list_at(_get(obj, "labels", path), f"{prefix}labels"))
    ]
    weights = [
        _real_at(v, f"{prefix}weights[{i}]")
        for i, v in enumerate(_list_at(_get(obj, "weights", path), f"{prefix}weights"))
    ]
    raw = _list_at(_get(obj, "densities", path), f"{prefix}densities")
    densities = [
        None if v is None else matrix_from_jsonable(v, dim, f"{prefix}densities[{i}]")
        for i, v in enumerate(raw)
    ]
    return TraceDensity(dim, tuple(labels), np.asarray(weights), tuple(densities))


def dumps(obj) -> str:
    return json.dumps(obj, indent=2)


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno} column {exc.colno}", f"malformed JSON: {exc.msg}"
        ) from exc
