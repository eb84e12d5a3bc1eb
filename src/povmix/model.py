"""Finite-outcome measurements and the algebraic operations on them.

A measurement is a finite list of labeled effects: PSD matrices that sum to
the identity. Labels are either integer indices or points in R^n; point
labels compare equal within a Euclidean tolerance, integer labels compare
exactly, and the two kinds never mix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .linalg import PSD_TOL, as_square_matrix, stack_defects

Label = Union[int, tuple]

LABEL_TOL = 1e-9

# Effects with trace at or below this are treated as absent outcomes.
PRUNE_TOL = 1e-12

# Tiny negative probabilities from rounding are clamped; anything lower
# signals an invalid state or measurement upstream.
PROB_CLAMP = 1e-12

NORMALIZATION_TOL = 1e-9

# Point labels are bucketed in grid cells this many lookup reaches wide, so
# a lookup usually touches one cell per coordinate.
_CELL_REACHES = 32.0

# Least lookup reach. It keeps the cell width above 0 when tol is 0 (or so
# small that 64 * tol underflows), so that a coordinate divided by the width
# stays a number.
_MIN_REACH = 2.0**-500


def as_label(value) -> Label:
    """Normalize a label to an int or a tuple of floats."""
    if (
        type(value) is tuple
        and value
        and all(type(x) is float and math.isfinite(x) for x in value)
    ):
        return value  # already normal
    if isinstance(value, bool):
        raise ValueError("labels must be integers or real points, not bool")
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (tuple, list, np.ndarray)):
        point = tuple(float(x) for x in np.asarray(value, dtype=np.float64).reshape(-1))
        if not point or not all(np.isfinite(point)):
            raise ValueError(f"point label must be a nonempty finite vector, got {value!r}")
        return point
    raise ValueError(f"unsupported label {value!r}")


def labels_equal(a: Label, b: Label, tol: float = LABEL_TOL) -> bool:
    """Equality of labels: exact for ints, Euclidean within tol for points."""
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, tuple) and isinstance(b, tuple):
        if len(a) != len(b):
            return False
        # math.dist scales before squaring: no underflow or overflow.
        return math.dist(a, b) <= tol
    return False


def label_to_jsonable(label: Label):
    return label if isinstance(label, int) else list(label)


class PovmError(ValueError):
    """Invalid measurement data or an operation applied outside its domain."""


@dataclass(frozen=True)
class FinitePOVM:
    """A finite collection of labeled effects on a d-dimensional system.

    The container checks shapes and label well-formedness only; semantic
    validity (PSD effects, normalization, distinct labels) is a separate,
    report-based check so that broken inputs can still be represented and
    diagnosed. Effects are stored as a read-only (k, d, d) complex array.
    """

    dim: int
    labels: tuple
    effects: np.ndarray

    def __post_init__(self):
        d = int(self.dim)
        if d < 1:
            raise PovmError(f"dimension must be >= 1, got {self.dim}")
        labels = tuple(as_label(x) for x in self.labels)
        self._set(d, labels, np.array(self.effects, dtype=np.complex128, copy=True))

    @classmethod
    def _with_normal_labels(cls, dim: int, labels: tuple, effects: np.ndarray) -> "FinitePOVM":
        """A measurement over labels that are already normal, such as a
        parent's labels or a subset of them: skips as_label, keeps the effect
        checks, and takes ownership of effects (made read-only, not copied)."""
        povm = object.__new__(cls)
        povm._set(dim, labels, np.asarray(effects, dtype=np.complex128))
        return povm

    def _set(self, d: int, labels: tuple, effects: np.ndarray) -> None:
        if effects.ndim != 3 or effects.shape[1:] != (d, d):
            raise PovmError(
                f"effects must have shape (k, {d}, {d}), got {effects.shape}"
            )
        if effects.shape[0] != len(labels):
            raise PovmError(
                f"{len(labels)} labels for {effects.shape[0]} effects"
            )
        if effects.shape[0] == 0:
            raise PovmError("a measurement needs at least one outcome")
        if not np.all(np.isfinite(effects)):
            raise PovmError("effects contain non-finite entries")
        effects.setflags(write=False)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "effects", effects)

    @property
    def n_outcomes(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class DensityState:
    """A density matrix: PSD with unit trace. Validated on construction."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        a = as_square_matrix(self.matrix)
        if a.shape[0] != self.dim:
            raise PovmError(f"state shape {a.shape} does not match dim {self.dim}")
        _check_densities(a[None])
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)


@dataclass(frozen=True)
class TraceDensity:
    """Trace weights and unit-trace density parts of a measurement's effects.

    weights[i] is tr(P_i), recorded as 0 when at or below the prune cutoff,
    in which case densities[i] is None. For a valid measurement the weights
    sum to the dimension.
    """

    dim: int
    labels: tuple
    weights: np.ndarray
    densities: tuple


@dataclass
class ValidationReport:
    """Outcome of semantic validation; empty findings mean a valid POVM."""

    dim: int
    n_outcomes: int
    non_hermitian: list = field(default_factory=list)   # (index, defect)
    non_psd: list = field(default_factory=list)         # (index, min eigenvalue)
    duplicate_labels: list = field(default_factory=list)  # (index, index)
    normalization_residual: float = 0.0
    normalization_ok: bool = True

    @property
    def is_valid(self) -> bool:
        return (
            not self.non_hermitian
            and not self.non_psd
            and not self.duplicate_labels
            and self.normalization_ok
        )

    def messages(self) -> list:
        out = []
        for i, defect in self.non_hermitian:
            out.append(f"effect {i} is not Hermitian (defect {defect:.3e})")
        for i, lo in self.non_psd:
            out.append(f"effect {i} is not PSD (min eigenvalue {lo:.3e})")
        for i, j in self.duplicate_labels:
            out.append(f"labels {i} and {j} coincide")
        if not self.normalization_ok:
            out.append(
                f"effects do not sum to the identity "
                f"(max-norm residual {self.normalization_residual:.3e})"
            )
        return out


def validate_povm(
    povm: FinitePOVM, psd_tol: float = PSD_TOL, label_tol: float = LABEL_TOL
) -> ValidationReport:
    """Check PSD-ness, normalization, and label distinctness, reporting all
    violations rather than stopping at the first."""
    report = ValidationReport(dim=povm.dim, n_outcomes=povm.n_outcomes)
    defect, bound, lowest, psd = stack_defects(povm.effects, psd_tol)
    hermitian = defect <= bound
    report.non_hermitian = [(int(i), float(defect[i])) for i in np.flatnonzero(~hermitian)]
    report.non_psd = [(int(i), float(lowest[i])) for i in np.flatnonzero(hermitian & ~psd)]
    report.duplicate_labels = _repeats(povm.labels, label_tol)
    residual = float(
        np.max(np.abs(povm.effects.sum(axis=0) - np.eye(povm.dim)))
    )
    report.normalization_residual = residual
    report.normalization_ok = residual <= NORMALIZATION_TOL
    return report


def _check_densities(a: np.ndarray) -> None:
    """DensityState's checks on a (m, d, d) stack of matrices: finite, unit
    trace within 1e-12, and Hermitian and PSD by linalg.stack_defects.

    Raises on the first matrix that fails, with DensityState's message.
    """
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    trace = np.trace(a, axis1=1, axis2=2)
    off = np.flatnonzero(np.abs(trace - 1.0) > 1e-12)
    if off.size:
        raise PovmError(f"state trace {trace[off[0]]} is not 1 within 1e-12")
    defect, bound, lowest, psd = stack_defects(a)
    off = np.flatnonzero(defect > bound)
    if off.size:
        i = off[0]
        raise ValueError(
            f"matrix is not Hermitian: defect {defect[i]:.3e} exceeds {bound[i]:.3e}"
        )
    off = np.flatnonzero(~psd)
    if off.size:
        raise PovmError(f"state is not PSD: min eigenvalue {lowest[off[0]]:.3e}")


def born_probabilities(povm: FinitePOVM, state: DensityState) -> np.ndarray:
    """Outcome probabilities p_i = Re tr(rho P_i).

    Entries in [-1e-12, 0) are clamped to zero; anything below that raises,
    since it cannot come from rounding valid inputs. The result is not
    renormalized.
    """
    if state.dim != povm.dim:
        raise PovmError(f"state dim {state.dim} != measurement dim {povm.dim}")
    return _born_stack(state.matrix[None], povm.effects)[0]


def _born_stack(states: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """born_probabilities of a (t, d, d) stack of states, as a (t, k) array."""
    p = np.einsum("tab,kba->tk", states, effects).real.copy()
    if np.any(p < -PROB_CLAMP):
        raise PovmError(
            f"probability {p.min():.3e} below -{PROB_CLAMP}; invalid state or effects"
        )
    p[p < 0.0] = 0.0
    return p


def trace_density(povm: FinitePOVM) -> TraceDensity:
    """Split each effect into its trace weight and a unit-trace density.

    Weights at or below PRUNE_TOL are recorded as zero with no density part.
    """
    weights = np.empty(povm.n_outcomes)
    densities = []
    for i in range(povm.n_outcomes):
        mu = float(povm.effects[i].trace().real)
        if mu > PRUNE_TOL:
            weights[i] = mu
            densities.append(povm.effects[i] / mu)
        else:
            weights[i] = 0.0
            densities.append(None)
    return TraceDensity(povm.dim, povm.labels, weights, tuple(densities))


def _floor(q: float) -> float:
    return float(math.floor(q)) if math.isfinite(q) else q


def _cell_keys(lo: float, hi: float) -> list:
    """Every value floor(q) can take for a float q in [lo, hi] (lo, hi floored).

    Past 2**53 consecutive floats are more than 1 apart, so the next key is
    the larger of k + 1 and the float after k.
    """
    keys = [lo]
    while keys[-1] < hi:
        k = keys[-1]
        keys.append(max(k + 1.0, math.nextafter(k, math.inf)))
    return keys


def align_label_universe(label_lists: Sequence[Sequence[Label]], tol: float = LABEL_TOL):
    """Merge several label lists into one universe, tolerant to point jitter.

    Returns (universe, maps) where maps[k][i] is the universe index of the
    i-th label of list k. Universe order is first occurrence, and each label
    maps to the first universe entry it equals under labels_equal.

    Integer labels, and exact copies of a point label seen before, are found
    through one dict, so repeated labels cost one lookup each. A copy of a
    label maps to the same entry, since entries are only appended; that
    holds for points only when a point equals itself (tol >= 0, finite
    coordinates). Other point labels go through a grid of cells 64 * tol
    wide, so alignment takes time linear in the number of labels. A point
    matching an entry is within 2 * tol of it in every coordinate (allowing
    for rounding in the norm), so only the cells overlapping that box hold
    candidates.
    """
    reach = max(2.0 * tol, _MIN_REACH)
    width = _CELL_REACHES * reach
    if not width < math.inf:
        # Infinite or NaN tolerance: every point of one length shares a cell.
        reach, width = 0.0, math.inf
    universe: list = []
    index: dict = {}  # int or point -> universe index, for labels equal to themselves
    by_cell: dict = {}  # cell key -> ascending universe indices
    maps = []
    for labels in label_lists:
        idx = []
        for label in labels:
            new = len(universe)
            u = new
            if isinstance(label, int):
                u = index.setdefault(label, new)
            elif isinstance(label, tuple):
                x = tuple(float(c) for c in label)
                u = index.get(x, new) if tol >= 0 else new
            if u == new and isinstance(label, tuple):
                ranges = [
                    _cell_keys(_floor((c - reach) / width), _floor((c + reach) / width))
                    for c in x
                ]
                keys = list(itertools.product(*ranges))
                if len(keys) == 1:
                    candidates = by_cell.get(keys[0], ())
                else:
                    candidates = sorted(v for k in keys for v in by_cell.get(k, ()))
                u = next(
                    (v for v in candidates if labels_equal(label, universe[v], tol)), new
                )
                if u == new:
                    by_cell.setdefault(tuple(_floor(c / width) for c in x), []).append(u)
                if tol >= 0 and all(map(math.isfinite, x)):
                    index[x] = u
            if u == new:
                universe.append(label)
            idx.append(u)
        maps.append(idx)
    return tuple(universe), maps


def _repeats(labels: Sequence[Label], tol: float) -> list:
    """(i, j) for each label j that coincides within tol with an earlier
    one, i the first label of its group."""
    _, (idx,) = align_label_universe([labels], tol)
    first: dict = {}
    return [(first[u], j) for j, u in enumerate(idx) if first.setdefault(u, j) != j]


def effects_distance(a: FinitePOVM, b: FinitePOVM, label_tol: float = LABEL_TOL) -> float:
    """Max-norm distance between two measurements after label alignment.

    Labels present in only one of the two compare against the zero effect.
    """
    if a.dim != b.dim:
        raise PovmError(f"dimension mismatch: {a.dim} vs {b.dim}")
    diff = _merge(a.dim, a.labels + b.labels, np.concatenate([a.effects, -b.effects]), label_tol)
    return float(np.max(np.abs(diff.effects)))


def convex_combine(components, label_tol: float = LABEL_TOL) -> FinitePOVM:
    """Mix weighted measurements into one over the union of their labels.

    components is a sequence of (weight, povm) pairs; weights must be
    nonnegative and sum to 1 within 1e-12.
    """
    components = list(components)
    if not components:
        raise PovmError("nothing to combine")
    weights = np.array([float(w) for w, _ in components])
    if np.any(weights < 0.0):
        raise PovmError(f"negative weight {weights.min()}")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise PovmError(f"weights sum to {weights.sum()!r}, not 1 within 1e-12")
    dims = {p.dim for _, p in components}
    if len(dims) != 1:
        raise PovmError(f"mixed dimensions {sorted(dims)}")
    labels = tuple(itertools.chain.from_iterable(p.labels for _, p in components))
    effects = np.concatenate([w * p.effects for w, p in components])
    return _merge(dims.pop(), labels, effects, label_tol)


def _prune(dim: int, labels, effects: np.ndarray, prune_tol: float) -> FinitePOVM:
    """Drop effects with trace at or below prune_tol; raises if none survive.

    labels must already be normal, as a measurement's own labels are.
    """
    traces = np.einsum("kaa->k", effects).real
    keep = traces > prune_tol
    if not np.any(keep):
        raise PovmError("pruning removed every outcome")
    return FinitePOVM._with_normal_labels(
        dim, tuple(itertools.compress(labels, keep)), effects[keep]
    )


def _merge(dim: int, labels: Sequence[Label], effects: np.ndarray, label_tol: float) -> FinitePOVM:
    """The measurement of a labelled stack of d x d effects: effects whose
    labels coincide within label_tol are summed in stack order, and zero
    effects stay. labels must already be normal."""
    universe, (idx,) = align_label_universe([labels], label_tol)
    merged = np.zeros((len(universe), dim, dim), dtype=np.complex128)
    np.add.at(merged, idx, effects)
    return FinitePOVM._with_normal_labels(dim, universe, merged)


def prune_and_merge(povm: FinitePOVM, label_tol: float = LABEL_TOL) -> FinitePOVM:
    """Sum outcomes whose labels coincide, then drop effects with trace at or
    below PRUNE_TOL. Idempotent; raises if nothing survives."""
    merged = _merge(povm.dim, povm.labels, povm.effects, label_tol)
    return _prune(povm.dim, merged.labels, merged.effects, PRUNE_TOL)
