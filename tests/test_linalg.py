import numpy as np
import pytest

from povmix.linalg import (
    as_square_matrix,
    herm_basis,
    herm_coords,
    herm_matrices,
    kernel_basis,
    window_kernel,
)


def test_as_square_matrix_coerces_and_rejects():
    m = as_square_matrix([[1, 0], [0, 1]])
    assert m.dtype == np.complex128 and m.shape == (2, 2)
    with pytest.raises(ValueError):
        as_square_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_square_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        as_square_matrix(np.zeros(3))


def test_kernel_basis_known_kernel():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    k = kernel_basis(a)
    assert k.shape == (3, 1)
    assert np.allclose(a @ k, 0, atol=1e-12)
    assert np.allclose(k.conj().T @ k, np.eye(1), atol=1e-12)


def test_kernel_basis_full_rank_and_wide():
    rng = np.random.default_rng(5)
    square = rng.standard_normal((4, 4))
    assert kernel_basis(square).shape == (4, 0)
    wide = rng.standard_normal((2, 6))
    k = kernel_basis(wide)
    assert k.shape == (6, 4)
    assert np.max(np.abs(wide @ k)) < 1e-12
    assert kernel_basis(np.zeros((3, 0))).shape == (0, 0)


def test_kernel_basis_random_consistency():
    # rank r matrix in n columns leaves an (n - r)-dimensional kernel
    rng = np.random.default_rng(6)
    for _ in range(20):
        n, r = 7, int(rng.integers(1, 6))
        a = rng.standard_normal((5, r)) @ rng.standard_normal((r, n))
        k = kernel_basis(a)
        assert k.shape[1] == n - min(r, 5)
        assert np.max(np.abs(a @ k)) < 1e-10


def test_window_kernel_extends_the_window_kernel_to_later_columns():
    # a 4 x 5 window of full row rank: one kernel vector of its own, then
    # [-W^+ a_o; e_o] for each of the 4 later columns, in echelon form
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
    z, cut = window_kernel(a, 5)
    assert z.shape == (9, 5)
    assert cut == pytest.approx(1e-10 * np.linalg.norm(a[:, :5], 2) * 5)
    assert np.max(np.abs(a @ z)) < 1e-12
    assert np.all(z[5:, 0] == 0) and np.linalg.norm(z[:, 0]) == pytest.approx(1.0)
    assert np.array_equal(z[5:, 1:], np.eye(4))
    assert np.array_equal(window_kernel(a, 9)[0], kernel_basis(a))


def test_hermitian_coordinates_round_trip():
    """The basis matrix is unitary, coordinates of Hermitian matrices are
    real, and Hermitian matrices and coordinates round-trip."""
    rng = np.random.default_rng(8)
    for t in (1, 2, 3, 4):
        q = herm_basis(t)
        assert np.max(np.abs(q @ q.conj().T - np.eye(t * t))) <= 1e-15
        a = rng.standard_normal((6, t, t)) + 1j * rng.standard_normal((6, t, t))
        h = (a + a.conj().transpose(0, 2, 1)) / 2
        y = herm_coords(h)
        assert y.dtype == np.float64 and y.shape == (6, t * t)
        assert np.max(np.abs((h.reshape(6, -1) @ q.T).imag)) <= 1e-15
        assert np.max(np.abs(herm_matrices(y, t) - h)) <= 1e-15
        assert np.max(np.abs(herm_coords(herm_matrices(y, t)) - y)) <= 1e-15
        # the coordinates of a non-Hermitian matrix are its Hermitian part's
        assert np.max(np.abs(herm_coords(a) - y)) <= 1e-15
