"""Dense linear algebra with pinned tolerance and coordinate conventions.

Input coercion, numerical null spaces and the real coordinates of Hermitian
matrices, with the rank cutoffs and the PSD and Hermiticity acceptance rules,
per matrix, that the rest of the package relies on. All functions are pure;
nothing mutates its arguments.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# An effect's eigenvalue w counts toward its rank when
#   w > RANK_TOL * max(w_max, 1)   (rank_ok).
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


def rank_ok(w: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Which eigenvalues count toward the rank, per row of w (..., d)."""
    return w > (tol * np.maximum(w.max(axis=-1), 1.0))[..., None]


def psd_ok(w: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """PSD acceptance of each row of ascending eigenvalues w (..., d)."""
    return w[..., 0] >= -tol * (1.0 + np.abs(w).max(axis=-1))


def stack_defects(a: np.ndarray, psd_tol: float = PSD_TOL):
    """Both acceptance rules on each matrix M of an (m, d, d) stack.

    Returns (defect, bound, lowest, psd), each of length m: defect is
    ||M - M^dag||_max, and M is Hermitian iff defect <= bound; lowest is
    the least eigenvalue of (M + M^dag)/2, and psd is psd_ok of its
    eigenvalues at psd_tol.
    """
    adj = a.conj().swapaxes(1, 2)
    defect = np.abs(a - adj).max(axis=(1, 2))
    bound = HERM_TOL * (1.0 + np.abs(a).max(axis=(1, 2)))
    w = np.linalg.eigvalsh((a + adj) / 2.0)
    return defect, bound, w[:, 0], psd_ok(w, psd_tol)


def kernel_basis(a, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical null space of a rectangular matrix.

    Returns an n x m array whose columns are the right singular vectors with
    singular value <= tol * sigma_max * max(rows, cols). m = 0 means the
    matrix is numerically injective. A zero matrix returns the full identity
    basis of its domain.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    return window_kernel(a, a.shape[1], tol)[0]


def window_kernel(a: np.ndarray, width: int, tol: float = RANK_TOL):
    """Kernel vectors of a matrix's columns from one SVD of its leading ones.

    The window W is the first w = min(width, cols) columns of the matrix a,
    cut at cut = tol * sigma_max * max(rows, w). Returns (z, cut).
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
    z = np.zeros((cols, cols - rank), dtype=vh.dtype)
    z[:width, : width - rank] = vh[rank:].conj().T
    tail = u[:, :rank].conj().T @ a[:, width:]
    z[:width, width - rank :] = -(vh[:rank].conj().T / s[:rank]) @ tail
    z[width:, width - rank :] = np.eye(cols - width)
    return z, cut


@cache
def herm_basis(t: int) -> np.ndarray:
    """Unitary Q whose row (p, q) is vec(B_pq)^*, vec row-major, for the
    orthonormal Hermitian basis B_pp = E_pp, B_pq = (E_pq + E_qp)/sqrt(2)
    (p < q) and B_pq = i(E_qp - E_pq)/sqrt(2) (p > q) of t x t matrices. A
    Hermitian X has real coordinates y = Q vec(X), and vec(X) = Q^dag y."""
    p, q = np.divmod(np.arange(t * t), t)
    r = np.where(p == q, 1.0, np.sqrt(0.5)) * np.where(p > q, 1j, 1.0)
    basis = np.diag(r)
    basis[p * t + q, q * t + p] = r.conj()
    basis.flags.writeable = False
    return basis


def herm_coords(x: np.ndarray) -> np.ndarray:
    """Real coordinates (..., t^2) of the Hermitian parts of a (..., t, t) stack."""
    return (x.reshape(*x.shape[:-2], -1) @ herm_basis(x.shape[-1]).T).real


def herm_matrices(y: np.ndarray, t: int) -> np.ndarray:
    """The Hermitian (..., t, t) stack with real coordinates y (..., t^2)."""
    return (y @ herm_basis(t).conj()).reshape(*y.shape[:-1], t, t)
