"""Outcome relabeling and generators for reference and random measurements."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    LABEL_TOL,
    DensityState,
    FinitePOVM,
    Label,
    PovmError,
    align_label_universe,
    as_label,
)

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def bloch_effect(vector, scale: float) -> np.ndarray:
    """scale * (identity + v . sigma) for a Bloch vector v."""
    vx, vy, vz = (float(c) for c in vector)
    return scale * (
        np.eye(2, dtype=np.complex128)
        + vx * _PAULI["x"]
        + vy * _PAULI["y"]
        + vz * _PAULI["z"]
    )


@dataclass(frozen=True)
class PostProcessing:
    """A relabeling table from integer source labels to new labels.

    Non-injective tables merge outcomes; the effect sum is always preserved.
    """

    table: tuple  # ((source int, target label), ...)

    def __post_init__(self):
        targets = {}
        for src, dst in self.table:
            if not isinstance(src, (int, np.integer)) or isinstance(src, bool):
                raise PovmError(f"source label {src!r} is not an integer")
            src = int(src)
            if src in targets:
                raise PovmError(f"source label {src} mapped twice")
            targets[src] = as_label(dst)
        object.__setattr__(self, "table", tuple(targets.items()))
        # Lookup only: not a field, so eq, hash, repr and JSON see the table.
        object.__setattr__(self, "_targets", targets)

    def target(self, source: int) -> Label:
        try:
            return self._targets[source]
        except (KeyError, TypeError):
            raise PovmError(f"no mapping for source label {source}") from None


def is_injective(pp: PostProcessing, label_tol: float = LABEL_TOL) -> bool:
    """Whether all target labels are pairwise distinct within tolerance."""
    universe, _ = align_label_universe([[dst for _, dst in pp.table]], label_tol)
    return len(universe) == len(pp.table)


def apply_postprocessing(
    povm: FinitePOVM, pp: PostProcessing, label_tol: float = LABEL_TOL
) -> FinitePOVM:
    """Relabel a measurement through a table of integer source labels.

    Every label of the measurement must be an integer covered by the table.
    Outcomes whose targets coincide are summed, so the total effect sum is
    unchanged; injective tables leave the effects untouched.
    """
    targets = []
    for label in povm.labels:
        if not isinstance(label, int):
            raise PovmError(
                f"post-processing needs integer labels, found {label!r}"
            )
        targets.append(pp.target(label))
    universe, (idx,) = align_label_universe([targets], label_tol)
    effects = np.zeros((len(universe), povm.dim, povm.dim), dtype=np.complex128)
    np.add.at(effects, idx, povm.effects)
    return FinitePOVM(povm.dim, universe, effects)


def gen_pvm(basis, atol: float = 1e-10) -> FinitePOVM:
    """Projective measurement onto the columns of a unitary, labels 0..d-1."""
    u = np.asarray(basis, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise PovmError(f"basis must be square, got shape {u.shape}")
    d = u.shape[0]
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(d))))
    if defect > atol:
        raise PovmError(f"basis is not unitary: ||U^dag U - 1||_max = {defect:.3e}")
    effects = np.einsum("ak,bk->kab", u, u.conj())
    return FinitePOVM(d, tuple(range(d)), effects)


def gen_sic_qubit() -> FinitePOVM:
    """Symmetric qubit measurement on tetrahedron axes, effects (1 + n.sigma)/4.

    Axis ordering puts the two +z-component vectors first, so measuring the
    |0> state gives probabilities (1 +- 1/sqrt(3))/4 in pairs.
    """
    s = 1.0 / np.sqrt(3.0)
    axes = [(s, s, s), (-s, -s, s), (s, -s, -s), (-s, s, -s)]
    effects = np.array([bloch_effect(n, 0.25) for n in axes])
    return FinitePOVM(2, (0, 1, 2, 3), effects)


def gen_trine() -> FinitePOVM:
    """Three coplanar qubit effects (1 + n.sigma)/3 at 120 degrees."""
    h = np.sqrt(3.0) / 2.0
    axes = [(1.0, 0.0, 0.0), (-0.5, 0.0, h), (-0.5, 0.0, -h)]
    effects = np.array([bloch_effect(n, 1.0 / 3.0) for n in axes])
    return FinitePOVM(2, (0, 1, 2), effects)


def gen_ea_family(a: float) -> FinitePOVM:
    """A four-outcome qubit family steered by one angle.

    The effects are (1 + cos(a) sx +- sin(a) sy)/4 and
    (1 - cos(a) sx +- sin(a) sz)/4. For a in (0, pi/4] all four effects are
    rank one and linearly independent, so the measurement is extreme; at
    a = 0 they collapse pairwise and extremality fails.
    """
    c, s = float(np.cos(a)), float(np.sin(a))
    effects = np.array(
        [
            bloch_effect((c, s, 0.0), 0.25),
            bloch_effect((c, -s, 0.0), 0.25),
            bloch_effect((-c, 0.0, s), 0.25),
            bloch_effect((-c, 0.0, -s), 0.25),
        ]
    )
    return FinitePOVM(2, (0, 1, 2, 3), effects)


def _as_rng(seed=None, rng=None) -> np.random.Generator:
    if rng is not None:
        return rng
    return np.random.default_rng(seed)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _symmetrized(raw: np.ndarray):
    """Effects S^(-1/2) R_k S^(-1/2) with S the sum of the raw effects R_k,
    or None when S is numerically singular."""
    total = raw.sum(axis=0)
    w, v = np.linalg.eigh((total + total.conj().T) / 2.0)
    if w[0] <= 1e-10 * w[-1]:
        return None
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    effects = np.einsum("ab,kbc,cd->kad", inv_root, raw, inv_root)
    return (effects + effects.conj().transpose(0, 2, 1)) / 2.0


def gen_random_povm(
    d: int,
    k: int,
    rank_cap: int | None = None,
    seed=None,
    rng=None,
) -> FinitePOVM:
    """Random k-outcome measurement in dimension d, deterministic per seed.

    Each raw effect is a Wishart matrix A A^dag with A a d x rank_cap complex
    Gaussian; the stack is symmetrized by S^(-1/2) . S^(-1/2) with S the raw
    sum. Draws are retried a bounded number of times if S is singular, which
    requires k * rank_cap >= d to be possible at all.
    """
    if d < 1 or k < 1:
        raise PovmError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
    cap = d if rank_cap is None else int(rank_cap)
    if not 1 <= cap <= d:
        raise PovmError(f"rank_cap must be in [1, {d}], got {cap}")
    if k * cap < d:
        raise PovmError(
            f"k * rank_cap = {k * cap} < d = {d}: the raw sum is always singular"
        )
    gen = _as_rng(seed, rng)
    for _ in range(8):
        a = _complex_normal(gen, (k, d, cap))
        effects = _symmetrized(np.einsum("kac,kbc->kab", a, a.conj()))
        if effects is not None:
            return FinitePOVM(d, tuple(range(k)), effects)
    raise PovmError("raw effect sum stayed singular after bounded retries")


def gen_covariant_sphere(n_points: int, seed=None, rng=None) -> FinitePOVM:
    """Qubit measurement covariant under a sphere discretization.

    Points come from a Fibonacci lattice with a seeded azimuthal offset; the
    raw rank-one effects (2/n)|n_j><n_j| are symmetrized by the inverse
    square root of their sum so the result is exactly normalized. Labels are
    the unit vectors themselves.

    n_points = 2 and n_points = 6 return exact reference configurations (the
    antipodal +-z pair, i.e. a projective measurement, and the octahedron
    vertex set) instead of lattice points.
    """
    n = int(n_points)
    if n < 2:
        raise PovmError(f"need at least 2 points, got {n}")
    if n == 2:
        points = np.array([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
    elif n == 6:
        points = np.array(
            [
                (1.0, 0.0, 0.0),
                (-1.0, 0.0, 0.0),
                (0.0, 1.0, 0.0),
                (0.0, -1.0, 0.0),
                (0.0, 0.0, 1.0),
                (0.0, 0.0, -1.0),
            ]
        )
    else:
        gen = _as_rng(seed, rng)
        offset = gen.uniform(0.0, 2.0 * np.pi)
        j = np.arange(n)
        z = 1.0 - 2.0 * (j + 0.5) / n
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        theta = offset + j * np.pi * (3.0 - np.sqrt(5.0))
        points = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    effects = _symmetrized(np.array([bloch_effect(p, 1.0 / n) for p in points]))
    if effects is None:
        raise PovmError("sphere discretization produced a singular effect sum")
    labels = tuple(tuple(float(c) for c in p) for p in points)
    return FinitePOVM(2, labels, effects)


def gen_random_state(d: int, seed=None, rng=None, pure: bool = False) -> DensityState:
    """Random density matrix: Haar-like pure state or normalized Wishart."""
    gen = _as_rng(seed, rng)
    if pure:
        psi = _complex_normal(gen, d)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
    else:
        a = _complex_normal(gen, (d, d))
        rho = a @ a.conj().T
        rho /= rho.trace().real
    rho = (rho + rho.conj().T) / 2.0
    return DensityState(d, rho)
