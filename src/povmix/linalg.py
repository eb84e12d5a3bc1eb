"""Dense complex linear algebra with pinned tolerance conventions.

Input coercion, the Hermiticity defect and numerical null spaces, with the
tolerances the rest of the package relies on: relative rank cutoffs and
the PSD and Hermiticity acceptance rules, which model applies to states
and effects. All functions are pure; nothing mutates its arguments.
"""

from __future__ import annotations

import numpy as np

# A singular value sigma counts as zero when
#   sigma <= RANK_TOL * sigma_max * max(rows, cols).
RANK_TOL = 1e-10

# PSD acceptance: min eigenvalue >= -PSD_TOL * (1 + max |eigenvalue|).
PSD_TOL = 1e-10

# Hermiticity acceptance: ||M - M^dag||_max <= HERM_TOL * (1 + ||M||_max).
HERM_TOL = 1e-12


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting anything else."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def herm_defect(m) -> float:
    """Max-norm distance from Hermiticity, ||M - M^dag||_max."""
    a = np.asarray(m, dtype=np.complex128)
    return float(np.max(np.abs(a - a.conj().T)))


def kernel_basis(a, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical null space of a rectangular matrix.

    Returns an n x m array whose columns are the right singular vectors with
    singular value <= tol * sigma_max * max(rows, cols). m = 0 means the
    matrix is numerically injective. A zero matrix returns the full identity
    basis of its domain.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if a.shape[1] == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    return window_kernel(a, a.shape[1], tol)[0]


def window_kernel(a: np.ndarray, width: int, tol: float = RANK_TOL):
    """Kernel vectors of a matrix's columns from one SVD of its leading ones.

    The window W is the first w = min(width, cols) columns of the complex
    matrix a, cut at cut = tol * sigma_max * max(rows, w). Returns (z, cut).
    z's leading columns are the right singular vectors of W with singular
    value <= cut; then each later column a_o of a gets [-W^+ a_o; e_o], W^+
    the pseudo-inverse on the singular values above cut. Those are kernel
    vectors of a whenever a_o lies in W's range (always, when W has full row
    rank), and on the columns after the window z is in reduced echelon form.
    """
    rows, cols = a.shape
    width = min(width, cols)
    u, s, vh = np.linalg.svd(a[:, :width], full_matrices=True)
    cut = tol * (float(s[0]) if s.size else 0.0) * max(rows, width)
    # Singular values come sorted, so the kernel is the trailing rows of vh.
    rank = int(np.count_nonzero(s > cut))
    z = np.zeros((cols, cols - rank), dtype=np.complex128)
    z[:width, : width - rank] = vh[rank:].conj().T
    tail = u[:, :rank].conj().T @ a[:, width:]
    z[:width, width - rank :] = -(vh[:rank].conj().T / s[:rank]) @ tail
    z[width:, width - rank :] = np.eye(cols - width)
    return z, cut
