"""Seeded outcome sampling and histogram comparison.

Randomness comes from a counter-based generator (numpy's Philox keyed by the
seed), and draw number j of a run always consumes fixed counter positions:
index j for direct sampling, the pair (2j, 2j+1) for two-stage sampling.
Sharding a run therefore changes nothing about the merged histogram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    LABEL_TOL,
    NORMALIZATION_TOL,
    DensityState,
    FinitePOVM,
    PovmError,
    align_label_universe,
    born_probabilities,
)
from .decompose import ExtremalMixture


@dataclass(frozen=True)
class OutcomeHistogram:
    """Counts per outcome label from a finite sampling run."""

    labels: tuple
    counts: tuple
    n: int

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != len(self.labels):
            raise PovmError("labels and counts differ in length")
        if any(c < 0 for c in counts):
            raise PovmError("negative count")
        if sum(counts) != self.n:
            raise PovmError(f"counts sum to {sum(counts)}, declared n={self.n}")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", int(self.n))


def merge_histograms(histograms, label_tol: float = LABEL_TOL) -> OutcomeHistogram:
    """Sum histograms over the union of their label sets."""
    histograms = list(histograms)
    if not histograms:
        raise PovmError("nothing to merge")
    universe, maps = align_label_universe(
        [h.labels for h in histograms], label_tol
    )
    counts = np.zeros(len(universe), dtype=np.int64)
    for h, m in zip(histograms, maps):
        np.add.at(counts, np.asarray(m, dtype=np.intp), np.asarray(h.counts))
    return OutcomeHistogram(tuple(universe), tuple(counts), int(counts.sum()))


def _uniforms_at(seed, start: int, count: int) -> np.ndarray:
    # Philox.advance skips whole 4-double counter blocks, so advance to the
    # enclosing block and discard the in-block remainder.
    if count == 0:
        return np.empty(0)
    bitgen = np.random.Philox(key=int(seed))
    block, skip = divmod(start, 4)
    if block:
        bitgen.advance(block)
    return np.random.Generator(bitgen).random(skip + count)[skip:]


def _shard_bounds(n: int, shards: int):
    if shards < 1:
        raise PovmError(f"shards must be >= 1, got {shards}")
    # At most 2^17 draws per piece keeps the per-draw temporaries to a few
    # MB for any n; results do not depend on the cut.
    shards = max(shards, -(-n // (1 << 17)))
    return [(s * n) // shards for s in range(shards + 1)]


def _checked_cdf(probs: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(probs)
    if abs(cdf[-1] - 1.0) > NORMALIZATION_TOL:
        raise PovmError(f"probabilities sum to {cdf[-1]!r}, not 1")
    return cdf


def sample_direct(
    povm: FinitePOVM,
    state: DensityState,
    n_samples: int,
    seed=0,
    shards: int = 1,
) -> OutcomeHistogram:
    """Draw n_samples outcomes from the Born distribution, deterministically."""
    if state.dim != povm.dim:
        raise PovmError(f"state dim {state.dim} != measurement dim {povm.dim}")
    if n_samples < 1:
        raise PovmError(f"need n_samples >= 1, got {n_samples}")
    cdf = _checked_cdf(born_probabilities(povm, state))
    k = povm.n_outcomes
    counts = np.zeros(k, dtype=np.int64)
    bounds = _shard_bounds(n_samples, shards)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        u = _uniforms_at(seed, lo, hi - lo)
        idx = np.minimum(np.searchsorted(cdf, u, side="right"), k - 1)
        counts += np.bincount(idx, minlength=k)
    return OutcomeHistogram(povm.labels, tuple(counts), n_samples)


def sample_two_stage(
    mixture: ExtremalMixture,
    state: DensityState,
    n_samples: int,
    seed=0,
    shards: int = 1,
) -> OutcomeHistogram:
    """Draw by first picking a mixture component, then one of its outcomes.

    Each draw consumes two uniforms; the histogram ranges over the union of
    the component label sets.
    """
    if state.dim != mixture.dim:
        raise PovmError(f"state dim {state.dim} != mixture dim {mixture.dim}")
    if n_samples < 1:
        raise PovmError(f"need n_samples >= 1, got {n_samples}")
    leaves = [c.povm for c in mixture.components]
    weight_cdf = _checked_cdf(np.array(mixture.weights))
    leaf_cdfs = [_checked_cdf(born_probabilities(p, state)) for p in leaves]
    universe, raw_maps = align_label_universe([p.labels for p in leaves])
    maps = [np.asarray(m, dtype=np.intp) for m in raw_maps]
    m = len(leaves)
    counts = np.zeros(len(universe), dtype=np.int64)
    bounds = _shard_bounds(n_samples, shards)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        u = _uniforms_at(seed, 2 * lo, 2 * (hi - lo))
        comp = np.searchsorted(weight_cdf, u[0::2], side="right")
        np.minimum(comp, m - 1, out=comp)
        sizes = np.bincount(comp, minlength=m)
        # Group the draws by component with one sort, not one mask over all
        # n draws per component; counts do not depend on order in a group.
        # Freeing comp before the gather keeps peak memory where the
        # per-component masks had it.
        order = np.argsort(comp, kind="stable")
        del comp
        u_grouped = u[1::2][order]
        ends = np.cumsum(sizes)
        for c in np.flatnonzero(sizes):
            cdf = leaf_cdfs[c]
            sel = u_grouped[ends[c] - sizes[c] : ends[c]]
            idx = np.minimum(np.searchsorted(cdf, sel, side="right"), len(cdf) - 1)
            counts += np.bincount(maps[c][idx], minlength=len(universe))
    return OutcomeHistogram(tuple(universe), tuple(counts), n_samples)


def tv_distance(
    h1: OutcomeHistogram, h2: OutcomeHistogram, label_tol: float = LABEL_TOL
) -> float:
    """Total variation distance between two empirical distributions."""
    if h1.n == 0 or h2.n == 0:
        raise PovmError("total variation of an empty histogram is undefined")
    universe, maps = align_label_universe([h1.labels, h2.labels], label_tol)
    p = np.zeros(len(universe))
    q = np.zeros(len(universe))
    np.add.at(p, np.asarray(maps[0], dtype=np.intp), np.asarray(h1.counts) / h1.n)
    np.add.at(q, np.asarray(maps[1], dtype=np.intp), np.asarray(h2.counts) / h2.n)
    return 0.5 * float(np.abs(p - q).sum())
