"""Correctness checks written from the definitions, outside the library.

Nothing here calls povmix: effects, ranks, recombination, label matching,
Born probabilities and the extremality test are recomputed with plain numpy,
so a fault in the library cannot vouch for its own output. Every check
returns a list of problem strings; an empty list means the answer passed.
"""

from __future__ import annotations

import math

import numpy as np

# Same relative cutoffs the library documents for effect ranks and for the
# extremality verdict.
RANK_TOL = 1e-10
MARGIN_FACTOR = 1e-10
# Effects with a norm at or below this are absent outcomes.
ZERO_TOL = 1e-12
# Leaves must be PSD and sum to the identity within this.
POVM_TOL = 1e-9
# Weighted leaf sums must reproduce the measurement within this.
RECOMBINE_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-12
LABEL_TOL = 1e-9
# Probability that a correct sampler's histogram fails its TV bound.
TV_FAILURE_PROB = 1e-9


def _ranks(effects: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh((effects + effects.conj().transpose(0, 2, 1)) / 2.0)
    cutoff = RANK_TOL * np.maximum(w[:, -1], 1.0)
    return np.count_nonzero(w > cutoff[:, None], axis=1)


def map_is_extreme(effects: np.ndarray) -> bool:
    """Extremality as injectivity of the sandwich map, built from its definition.

    Column (i; j, k) is vec(s_ij s_ik^dag), with s_ij = sqrt(w_j) v_j the
    frame columns of effect i. Extreme iff the block dimension is at most d^2
    and the smallest singular value exceeds the library's documented cutoff,
    MARGIN_FACTOR * sigma_max * max(d^2, block dimension). A Gram-matrix
    eigenvalue test, like tests/oracles.py, squares the singular values and
    cannot resolve ratios below sqrt(64 eps) ~ 1e-7, which decomposition
    leaves reach.
    """
    d = effects.shape[1]
    cols = []
    for p in effects:
        w, v = np.linalg.eigh((p + p.conj().T) / 2.0)
        keep = w > RANK_TOL * max(float(w[-1]), 1.0)
        frame = v[:, keep] * np.sqrt(w[keep])
        cols += [np.outer(a, b.conj()).ravel() for a in frame.T for b in frame.T]
    if len(cols) > d * d:
        return False
    sv = np.linalg.svd(np.array(cols).T, compute_uv=False)
    return bool(sv[-1] > MARGIN_FACTOR * sv[0] * max(d * d, len(cols)))


def leaf_problems(effects: np.ndarray, d: int) -> list:
    """A leaf must be a valid POVM, within the paper's size bounds, extreme."""
    problems = []
    effects = np.asarray(effects, dtype=np.complex128)
    herm = float(np.max(np.abs(effects - effects.conj().transpose(0, 2, 1))))
    if herm > POVM_TOL:
        problems.append(f"effects not Hermitian (defect {herm:.2e})")
    low = float(np.linalg.eigvalsh((effects + effects.conj().transpose(0, 2, 1)) / 2.0).min())
    if low < -POVM_TOL:
        problems.append(f"effect not PSD (min eigenvalue {low:.2e})")
    resid = float(np.max(np.abs(effects.sum(axis=0) - np.eye(d))))
    if resid > POVM_TOL:
        problems.append(f"effects sum to identity only within {resid:.2e}")
    nonzero = effects[np.linalg.norm(effects, axis=(1, 2)) > ZERO_TOL]
    if len(nonzero) > d * d:
        problems.append(f"{len(nonzero)} nonzero outcomes > d^2 = {d * d}")
    block_dim = int(np.sum(_ranks(nonzero) ** 2)) if len(nonzero) else 0
    if block_dim > d * d:
        problems.append(f"sum of squared ranks {block_dim} > d^2 = {d * d}")
    elif len(nonzero) and not map_is_extreme(nonzero):
        problems.append("leaf is not extreme (its sandwich map is not injective)")
    return problems


def match_labels(labels, reference) -> np.ndarray:
    """Index into reference of each label: exact for ints, nearest within
    LABEL_TOL for points. Raises ValueError on a label with no match."""
    labels, reference = list(labels), list(reference)
    if all(isinstance(x, int) for x in reference):
        where = {x: i for i, x in enumerate(reference)}
        try:
            return np.array([where[x] for x in labels], dtype=np.intp)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"label {exc} not among the measurement's labels") from exc
    if any(isinstance(x, int) for x in labels):
        raise ValueError("integer label among point labels")
    ref = np.asarray(reference, dtype=float)
    pts = np.asarray(labels, dtype=float).reshape(len(labels), ref.shape[1])
    dist = np.linalg.norm(pts[:, None, :] - ref[None, :, :], axis=2)
    idx = np.argmin(dist, axis=1)
    worst = float(dist[np.arange(len(idx)), idx].max()) if len(idx) else 0.0
    if worst > LABEL_TOL:
        raise ValueError(f"point label {worst:.2e} away from every measurement label")
    return idx


def mixture_problems(labels, effects, weights, leaves, complete: bool) -> list:
    """Weights form a probability vector and the label-matched weighted sum
    of the leaves (each a (labels, effects) pair) reproduces the effects."""
    problems = []
    w = np.asarray(weights, dtype=float)
    if len(w) != len(leaves):
        return [f"{len(w)} weights for {len(leaves)} leaves"]
    if not complete:
        problems.append("decomposition is incomplete")
    if np.any(w < 0.0):
        problems.append(f"negative weight {w.min():.2e}")
    if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
        problems.append(f"weights sum to {float(w.sum())!r}")
    effects = np.asarray(effects, dtype=np.complex128)
    total = np.zeros_like(effects)
    for wj, (leaf_labels, leaf_effects) in zip(w, leaves):
        try:
            idx = match_labels(leaf_labels, labels)
        except ValueError as exc:
            return problems + [f"leaf labels: {exc}"]
        np.add.at(total, idx, wj * np.asarray(leaf_effects))
    resid = float(np.max(np.abs(total - effects)))
    if resid > RECOMBINE_TOL:
        problems.append(f"weighted leaf sum misses the measurement by {resid:.2e}")
    return problems


def born(effects: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """p_i = Re tr(rho P_i)."""
    return np.einsum("ab,kba->k", rho, effects).real


def tv_bound(n: int, outcomes: int) -> float:
    """TV distance a correct n-draw histogram stays under, but for
    probability TV_FAILURE_PROB: its mean is at most sqrt(K/n)/2
    (Cauchy-Schwarz), and McDiarmid's inequality bounds the excess."""
    return 0.5 * math.sqrt(outcomes / n) + math.sqrt(math.log(1 / TV_FAILURE_PROB) / (2 * n))


def empirical(hist_labels, counts, labels) -> np.ndarray:
    """Counts summed per measurement label, as a frequency vector."""
    freq = np.zeros(len(labels))
    np.add.at(freq, match_labels(hist_labels, labels), np.asarray(counts, dtype=float))
    return freq / max(float(np.sum(counts)), 1.0)


def histogram_counts(hist: dict) -> tuple:
    """Labels and counts of a histogram as JSON ({"n", "counts": [{"label", "count"}]})."""
    labels = [e["label"] if isinstance(e["label"], int) else tuple(e["label"])
              for e in hist["counts"]]
    return labels, [e["count"] for e in hist["counts"]]


def histogram_problems(hist: dict, labels, effects, rho) -> list:
    """A histogram as JSON sums to n and lies within tv_bound of the Born
    distribution of rho."""
    n = hist["n"]
    hist_labels, counts = histogram_counts(hist)
    if sum(counts) != n:
        return [f"counts sum to {sum(counts)}, not n = {n}"]
    try:
        freq = empirical(hist_labels, counts, labels)
    except ValueError as exc:
        return [f"histogram labels: {exc}"]
    tv = 0.5 * float(np.abs(freq - born(effects, rho)).sum())
    bound = tv_bound(n, len(labels))
    return [] if tv <= bound else [f"TV {tv:.4f} from the Born distribution > bound {bound:.4f}"]
