"""Independent reference implementations used to cross-check the library.

Everything here is written from the definitions using plain loops and a
Gram-matrix formulation, deliberately avoiding the library's assembled
sandwich-map matrix, its vec convention, and its einsum contractions.
"""

import numpy as np


def born_oracle(effects, rho):
    """Outcome probabilities by explicit elementwise trace sums."""
    probs = []
    for p in effects:
        acc = 0.0
        d = p.shape[0]
        for a in range(d):
            for b in range(d):
                acc += (rho[a, b] * p[b, a]).real
        probs.append(acc)
    return np.array(probs)


def frame_oracle(effect, cutoff_factor=1e-10):
    """Columns spanning the effect's range, scaled by root eigenvalues."""
    w, v = np.linalg.eigh((effect + effect.conj().T) / 2.0)
    cutoff = cutoff_factor * max(float(w[-1]), 1.0)
    cols = [v[:, i] * np.sqrt(w[i]) for i in range(len(w)) if w[i] > cutoff]
    if not cols:
        return np.zeros((effect.shape[0], 0), dtype=np.complex128)
    return np.column_stack(cols)


def gram_extremality_oracle(povm, margin_factor=1e-10, rank_tol=1e-10):
    """Extremality via the rank of the Gram matrix of sandwich-map columns.

    The map sends the block unit E_jk of block i to s_ij s_ik^dag, where
    s_ij is frame column j of effect i. Inner products of such outer
    products reduce to products of frame-column overlaps, so the Gram
    matrix is built from overlaps alone: G[(ijk),(i'j'k')] =
    C[(ij),(i'j')] * conj(C[(ik),(i'k')]) with C the overlap matrix of all
    stacked frame columns. The measurement is extreme iff rank(G) equals
    the full block dimension sum(r_i^2).

    Returns (extreme, rank, domain_dim).
    """
    frames = [frame_oracle(p, rank_tol) for p in povm.effects]
    ranks = [f.shape[1] for f in frames]
    domain = sum(r * r for r in ranks)
    if domain == 0:
        raise ValueError("no nonzero effects")
    stacked = np.hstack([f for f in frames if f.shape[1]])
    overlaps = stacked.conj().T @ stacked
    # offsets of each block's columns inside the stack
    starts = np.cumsum([0] + ranks)
    index = [
        (i, j, k)
        for i, r in enumerate(ranks)
        for j in range(r)
        for k in range(r)
    ]
    g = np.empty((domain, domain), dtype=np.complex128)
    for a, (i, j, k) in enumerate(index):
        for b, (i2, j2, k2) in enumerate(index):
            g[a, b] = overlaps[starts[i] + j, starts[i2] + j2] * np.conj(
                overlaps[starts[i] + k, starts[i2] + k2]
            )
    eigs = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
    top = float(eigs[-1])
    d2 = povm.dim * povm.dim
    # Squared singular-value threshold matching the library's SVD cutoff,
    # floored at the eigensolver's own noise scale: zero eigenvalues of a
    # PSD Gram matrix come out at ~eps * ||G||, far above the squared
    # threshold, so the floor decides in practice.
    eps_floor = 64 * np.finfo(float).eps
    cutoff = max((margin_factor * max(d2, domain)) ** 2, eps_floor) * top
    rank = int(np.sum(eigs > cutoff))
    return rank == domain, rank, domain


def recombine_oracle(weights, effect_stacks, label_lists, label_tol=1e-9):
    """Weighted effect sums accumulated by explicit label matching."""
    universe = []
    total = {}

    def find(label):
        for i, known in enumerate(universe):
            if isinstance(label, int) != isinstance(known, int):
                continue
            if isinstance(label, int):
                if label == known:
                    return i
            elif np.linalg.norm(np.subtract(label, known)) <= label_tol:
                return i
        universe.append(label)
        return len(universe) - 1

    for w, effects, labels in zip(weights, effect_stacks, label_lists):
        for label, p in zip(labels, effects):
            i = find(label)
            total[i] = total.get(i, 0) + w * p
    return universe, total


def apply_tp(tp, element):
    """The sandwich map sum_i S_i X_i S_i^dag on an (n, t, t) stack, a d x d matrix.

    It reads a whole stack the way split_once reads its point: the frames
    are zero outside each block's kept columns, so finite entries of X_i
    off the kept pairs count as exact zeros, and a stack of another shape
    raises ValueError.
    """
    n, _, t = tp.frames.shape
    if np.shape(element) != (n, t, t):
        raise ValueError(f"element shape {np.shape(element)} does not match stack {(n, t, t)}")
    return (tp.frames @ element @ tp.frames.conj().transpose(0, 2, 1)).sum(axis=0)


def spectral_point(tp, live, b):
    """The (u, lam) form split_once reads of a point B given as Hermitian
    blocks (live, t, t): per live block, the eigh of B_i on its kept
    positions, eigenpairs put on those positions; u is zero and lam 0
    elsewhere. This is the factorization the split itself does not make."""
    kept = tp.kept[np.asarray(live)]
    n, t = kept.shape
    u = np.zeros((n, t, t), dtype=np.complex128)
    lam = np.zeros((n, t))
    for k, mask in enumerate(kept):
        at = np.ix_(mask, mask)
        block = np.asarray(b[k], dtype=np.complex128)[at]
        lam[k, mask], u[k][at] = np.linalg.eigh((block + block.conj().T) / 2.0)
    return u, lam
