"""The scalar walk's one factorization per pass, against one SVD per step.

ref_scalar_walk is the scalar walk with a fresh kernel SVD at every step:
each step takes the first kernel vector of the first d^2 + 1 active
weighted columns. Where every window's kernel is one-dimensional, the pass
walk takes the same directions in exact arithmetic, so the final weights
agree to rounding. Where a window's kernel has more dimensions, the two
walks may pick different kernel vectors; the pass walk must still keep the
weighted column sum and end with injective active columns.
"""

import numpy as np
import pytest

from povmix import decompose, linalg
from povmix.decompose import (
    SplitError,
    _extremal_direction,
    _saturate,
    _saturating_step,
    split_once,
)
from povmix.extremality import MARGIN_FACTOR, build_tp_map, is_extreme
from povmix.model import FinitePOVM, prune_and_merge
from povmix.outcomes import gen_covariant_sphere, gen_random_povm

from test_rank_groups import corpus_povms


def ref_scalar_walk(columns, scale, stop, margin_factor=MARGIN_FACTOR):
    """The scalar walk with one kernel SVD per step.

    Each step takes the first kernel vector v of the first d^2 + 1 active
    weighted columns, real as the columns are, and saturates along it.
    """
    scale = scale.copy()
    width = columns.shape[0] + 1
    for _ in range(columns.shape[1] + 16):
        active = np.flatnonzero(scale > 0.0)
        if active.size <= stop:
            return scale
        sub = active[:width]
        basis = linalg.kernel_basis(columns[:, sub] * scale[sub], margin_factor)
        if basis.shape[1] == 0:
            return scale
        h = basis[:, 0]
        assert h.dtype == np.float64
        tau, flip = _saturating_step(h)
        if flip:
            h = -h
        scale[sub] *= _saturate(1.0 + tau * h)
    raise SplitError("reference walk did not end")


def root_walks(povm, monkeypatch):
    """(columns, scale, stop, margin_factor) and the result of every scalar
    walk that the walk at the decomposition root runs."""
    calls = []
    walk = decompose._scalar_walk

    def recorded(*args):
        out = walk(*args)
        calls.append((tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args), out))
        return out

    with monkeypatch.context() as m:
        m.setattr(decompose, "_scalar_walk", recorded)
        _extremal_direction(build_tp_map(prune_and_merge(povm)))
    assert calls
    return calls


def assert_matches_reference(calls):
    for args, got in calls:
        want = ref_scalar_walk(*args)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


@pytest.mark.parametrize("n", [50, 100, 200])
def test_pass_walk_matches_per_step_svds_on_spheres(n, monkeypatch):
    assert_matches_reference(root_walks(gen_covariant_sphere(n, seed=7), monkeypatch))


def test_pass_walk_matches_per_step_svds_on_corpus(monkeypatch):
    povms = list(corpus_povms())
    assert len(povms) == 20
    for povm in povms:
        assert_matches_reference(root_walks(povm, monkeypatch))


def test_degenerate_windows_go_through_the_same_pass(monkeypatch):
    """Every effect of a random measurement split into two equal halves with
    their own labels: equal columns give windows whose kernel has dimension
    > 1. The walk still keeps the weighted column sum, ends with injective
    active columns, and its direction peels an extreme point off."""
    base = gen_random_povm(2, 12, rank_cap=1, seed=11)
    povm = FinitePOVM(2, tuple(range(24)), np.repeat(base.effects / 2.0, 2, axis=0))
    kernel_dims = []
    factorize = linalg.window_kernel

    def recorded(a, width, tol):
        z, cut = factorize(a, width, tol)
        kernel_dims.append(z.shape[1] - (a.shape[1] - min(width, a.shape[1])))
        return z, cut

    monkeypatch.setattr(decompose, "window_kernel", recorded)
    for (columns, scale, stop, margin_factor), got in root_walks(povm, monkeypatch):
        assert np.all(got >= 0.0)
        total = columns @ scale
        assert np.linalg.norm(columns @ got - total) <= 1e-12 * np.linalg.norm(total)
        active = np.flatnonzero(got)
        if active.size > stop:
            kernel = linalg.kernel_basis(columns[:, active] * got[active], margin_factor)
            assert kernel.shape[1] == 0
    assert max(kernel_dims) > 1
    tp = build_tp_map(povm)
    plus = split_once(povm, *_extremal_direction(tp), tp).child_plus
    assert is_extreme(plus).is_extreme


def test_tied_saturation_clears_two_rows_in_one_step(monkeypatch):
    """(I +- X)/4 and (I +- Y)/4 have equal sums, so the first window's
    kernel vector (1, 1, -1, -1, 0) saturates two weights at once. The
    elimination clears both rows from the later kernel vectors, which stay
    kernel vectors: the walk ends on one factorization, keeps the weighted
    column sum and leaves d^2 injective columns."""
    pauli = [np.array(p, dtype=np.complex128) for p in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]])]
    eye = np.eye(2, dtype=np.complex128)
    z_axis = np.diag([1.0, -1.0]).astype(np.complex128)
    effects = [(eye + s * p) / 4.0 for p in pauli for s in (1.0, -1.0)] + [(eye + z_axis) / 4.0]
    rng = np.random.default_rng(3)
    for _ in range(3):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        effects.append(np.outer(psi, psi.conj()) / 4.0)
    columns = linalg.herm_coords(np.array(effects)).T
    scale = np.ones(columns.shape[1])
    zeroed, factorizations = [], []
    eliminate, factorize = decompose._eliminate, decompose.window_kernel

    def recorded_eliminate(z, rows):
        zeroed.append(rows.size)
        return eliminate(z, rows)

    def recorded_factorize(*args):
        factorizations.append(args)
        return factorize(*args)

    monkeypatch.setattr(decompose, "_eliminate", recorded_eliminate)
    monkeypatch.setattr(decompose, "window_kernel", recorded_factorize)
    got = decompose._scalar_walk(columns, scale, 0, MARGIN_FACTOR)
    assert zeroed[0] == 2
    assert len(factorizations) == 1
    assert np.all(got >= 0.0)
    total = columns @ scale
    assert np.linalg.norm(columns @ got - total) <= 1e-12 * np.linalg.norm(total)
    active = np.flatnonzero(got)
    assert active.size == 4
    assert linalg.kernel_basis(columns[:, active] * got[active], MARGIN_FACTOR).shape[1] == 0
