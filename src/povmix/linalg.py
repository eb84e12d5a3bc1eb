"""Dense complex linear algebra with pinned tolerance conventions.

Input coercion, a Hermiticity check and a numerical null space, with the
tolerances the rest of the package relies on: relative rank cutoffs and
the PSD and Hermiticity acceptance rules. All functions are pure; nothing
mutates its arguments.
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


def check_hermitian(m, tol: float = HERM_TOL) -> np.ndarray:
    """Return M coerced to complex128 after verifying it is Hermitian.

    The defect ||M - M^dag||_max must not exceed tol * (1 + ||M||_max).
    """
    a = as_square_matrix(m)
    scale = 1.0 + float(np.max(np.abs(a)))
    defect = herm_defect(a)
    if defect > tol * scale:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {tol * scale:.3e}"
        )
    return a


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
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    sigma_max = float(s[0]) if s.size else 0.0
    cutoff = tol * sigma_max * max(rows, cols)
    # Singular values come sorted, so the kernel is the trailing rows of vh;
    # conjugating only those keeps the copy at n x m, not n x n.
    rank = int(np.count_nonzero(s > cutoff))
    return vh[rank:].conj().T
