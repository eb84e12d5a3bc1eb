"""Seeded outcome sampling and histogram comparison.

Randomness comes from a counter-based generator (numpy's Philox keyed by the
seed), and draw number j of a run always consumes fixed counter positions:
index j for direct sampling, the pair (2j, 2j+1) for two-stage sampling.
A run is drawn in pieces of at most _PIECE draws, and where the pieces are
cut changes nothing about the histogram.

Each draw's outcome is exactly min(searchsorted(cdf, u, "right"), k - 1),
the outcome of a binary search, found through a table of equal bins over
[0, 1) (see _BinTable). A piece of n draws costs O(n) for any number of
mixture components, and the tables hold O(sum of outcome counts) entries.
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

# At most this many draws per piece keeps the per-draw temporaries to a few
# MB for any n.
_PIECE = 1 << 17


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


def _piece_bounds(n: int) -> list:
    """Cuts of n >= 1 draws into ceil(n / _PIECE) pieces of near-equal size."""
    pieces = -(-n // _PIECE)
    return [(s * n) // pieces for s in range(pieces + 1)]


def _checked_cdf(probs: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(probs)
    if abs(cdf[-1] - 1.0) > NORMALIZATION_TOL:
        raise PovmError(f"probabilities sum to {cdf[-1]!r}, not 1")
    return cdf


class _BinTable:
    """Exact indexed search ("guide table", Chen and Asau 1974) over m CDFs.

    Called with uniforms u in [0, 1) and, per draw, the index c of its CDF,
    it returns values_c[min(searchsorted(cdf_c, u, "right"), k_c - 1)]: the
    outcome of a binary search, draw by draw, for nondecreasing CDFs. The
    values default to the outcome index within each CDF.

    CDF c cuts [0, 1) into 2^b >= 16 k_c equal bins. Multiplying by a power
    of two is exact, so int(u * 2^b) is u's bin. A bin that holds no CDF
    value has one outcome, read from a table; the draws landing in one of
    the at most k_c marked bins, at most 1/16 of [0, 1), get one segmented
    binary search on the keys c + 1j * cdf_c, which numpy orders by c and
    then by cdf_c. A call is O(n) for n draws; the tables hold at most
    32 sum(k_c) entries.
    """

    def __init__(self, cdfs, values=None):
        sizes = np.array([len(cdf) for cdf in cdfs])
        owner = np.repeat(np.arange(len(sizes)), sizes)
        cdf = np.concatenate(cdfs)
        self.keys = owner + 1j * cdf
        self.last = np.cumsum(sizes) - 1
        if values is None:
            values = np.arange(len(cdf)) - (self.last + 1 - sizes)[owner]
        self.values = np.asarray(values, dtype=np.intp)
        # frexp's exponent of 16 k - 1 is its bit length: 2^b >= 16 k.
        self.scale = np.ldexp(1.0, np.frexp(16 * sizes - 1)[1])
        bins = self.scale.astype(np.intp)
        self.offset = np.cumsum(bins) - bins
        # Each bin's outcome, as if a draw sat on its left edge; exact for
        # every draw in a bin that holds no CDF value.
        bin_owner = np.repeat(np.arange(len(sizes)), bins)
        edges = (np.arange(bins.sum()) - self.offset[bin_owner]) / self.scale[bin_owner]
        at = np.searchsorted(self.keys, bin_owner + 1j * edges, side="right")
        self.table = self.values[np.minimum(at, self.last[bin_owner])]
        inner = (cdf * self.scale[owner]).astype(np.intp)
        held = (inner >= 0) & (inner < bins[owner])
        self.marked = np.zeros(bins.sum(), dtype=bool)
        self.marked[self.offset[owner[held]] + inner[held]] = True

    def __call__(self, u: np.ndarray, c=0) -> np.ndarray:
        cell = (u * self.scale[c]).astype(np.intp)
        cell += self.offset[c]
        out = self.table[cell]
        hit = np.flatnonzero(self.marked[cell])
        c_hit = np.broadcast_to(c, u.shape)[hit]
        at = np.searchsorted(self.keys, c_hit + 1j * u[hit], side="right")
        out[hit] = self.values[np.minimum(at, self.last[c_hit])]
        return out


def sample_direct(
    povm: FinitePOVM,
    state: DensityState,
    n_samples: int,
    seed=0,
) -> OutcomeHistogram:
    """Draw n_samples outcomes from the Born distribution, deterministically."""
    if state.dim != povm.dim:
        raise PovmError(f"state dim {state.dim} != measurement dim {povm.dim}")
    if n_samples < 1:
        raise PovmError(f"need n_samples >= 1, got {n_samples}")
    draw = _BinTable([_checked_cdf(born_probabilities(povm, state))])
    k = povm.n_outcomes
    counts = np.zeros(k, dtype=np.int64)
    bounds = _piece_bounds(n_samples)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        counts += np.bincount(draw(_uniforms_at(seed, lo, hi - lo)), minlength=k)
    return OutcomeHistogram(povm.labels, tuple(counts), n_samples)


def sample_two_stage(
    mixture: ExtremalMixture,
    state: DensityState,
    n_samples: int,
    seed=0,
    label_tol: float = LABEL_TOL,
) -> OutcomeHistogram:
    """Draw by first picking a mixture component, then one of its outcomes.

    Each draw consumes two uniforms; the histogram ranges over the union of
    the component label sets, aligned within label_tol.
    """
    if state.dim != mixture.dim:
        raise PovmError(f"state dim {state.dim} != mixture dim {mixture.dim}")
    if n_samples < 1:
        raise PovmError(f"need n_samples >= 1, got {n_samples}")
    leaves = [c.povm for c in mixture.components]
    pick = _BinTable([_checked_cdf(np.array(mixture.weights))])
    universe, maps = align_label_universe([p.labels for p in leaves], label_tol)
    outcome = _BinTable(
        [_checked_cdf(born_probabilities(p, state)) for p in leaves],
        np.concatenate(maps),
    )
    counts = np.zeros(len(universe), dtype=np.int64)
    bounds = _piece_bounds(n_samples)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        u = _uniforms_at(seed, 2 * lo, 2 * (hi - lo))
        counts += np.bincount(outcome(u[1::2], pick(u[0::2])), minlength=len(universe))
    return OutcomeHistogram(tuple(universe), tuple(counts), n_samples)


def tv_distance(
    h1: OutcomeHistogram, h2: OutcomeHistogram, label_tol: float = LABEL_TOL
) -> float:
    """Total variation distance between two empirical distributions."""
    if h1.n == 0 or h2.n == 0:
        raise PovmError("total variation of an empty histogram is undefined")
    universe, maps = align_label_universe([h1.labels, h2.labels], label_tol)
    diff = np.zeros(len(universe))
    signed = np.concatenate([np.asarray(h1.counts) / h1.n, np.asarray(h2.counts) / -h2.n])
    np.add.at(diff, np.concatenate(maps), signed)
    return 0.5 * float(np.abs(diff).sum())
