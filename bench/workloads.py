"""The three benchmark workloads: inputs from a seed, one operation, checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned. A round is one pass over the workload's
items; runs attempt whole rounds only, so every run does the same mix of
operations whatever its length.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import checks

# N doubles from 50 to 200. N = 100 comes three times, with distinct lattice
# offsets, spread over the round, so the median of the five operations is the
# median of three sphere-100 operations. A single sphere-100 time spread by
# 28% of its median over five seeds; over ten seeds, the fastest of three
# spread by 16-21% and the median of three by 9-14%.
SPHERE_SIZES = (100, 50, 100, 200, 100)
MIXTURE_POINTS = 200
DRAWS = 10**6
# Corpus outcome counts: 8 evenly spaced values of k in [2, 3d^2] per d, each
# drawn twice. The seed draws the effects; the size mix stays fixed, because
# decomposition cost and leaf count follow (d, k) far more than the draw, and
# a seed-drawn mix of 24 sizes moved ops_per_s by 40% from seed to seed.
CORPUS_SIZES = 2 * tuple(
    (d, int(round(2 + (3 * d * d - 2) * (j + 0.5) / 8))) for d in (2, 3, 4) for j in range(8)
)


def _rank_cap(d: int, k: int) -> int:
    # as in acceptance criterion 2: keeps sum(r_i^2) near 100
    cap = min(d, max(1, int((100 / k) ** 0.5)))
    while k * cap < d:
        cap += 1
    return cap


def _mixture_problems(povm, mixture) -> list:
    """Every leaf and the mixture as a whole, checked independently."""
    problems = checks.mixture_problems(
        povm.labels, povm.effects, [c.weight for c in mixture.components],
        [(c.povm.labels, c.povm.effects) for c in mixture.components], mixture.complete)
    for j, c in enumerate(mixture.components):
        problems += [f"leaf {j}: {p}" for p in checks.leaf_problems(c.povm.effects, povm.dim)]
    return problems


def _tree_problems(povm, mixture, report) -> list:
    """Mixture checks, and verify_barycenter must accept the checked mixture."""
    problems = _mixture_problems(povm, mixture)
    if not (report.max_functional_residual < 1e-8 and report.effect_residual < 1e-8):
        problems.append(f"verify_barycenter rejects the mixture: {report}")
    return problems


class _Workload:
    """Set-up from a seed, then items each run through op, check and leaves."""

    # set-up takes milliseconds for corpus and sphere, so it is repeated
    repeat_setup = True
    # whether op time against input size is worth a fitted exponent
    scaling = False
    size_name = "N"

    def __init__(self, povmix, seed: int, workdir: Path):
        self.px, self.seed = povmix, seed

    def setup_problems(self) -> list:
        return []

    def prepare(self, j: int):
        """Per-operation inputs, made outside the clock."""
        return None


class Corpus(_Workload):
    """Random integer-labelled POVMs, d in {2, 3, 4}: decide, decompose, verify."""

    size_name = "d"

    def setup(self):
        rng = np.random.default_rng([1, self.seed])
        self.items = [
            self.px.outcomes.gen_random_povm(d, k, rank_cap=_rank_cap(d, k),
                                             seed=int(rng.integers(2**32)))
            for d, k in CORPUS_SIZES
        ]

    def op(self, povm, _):
        verdict = self.px.extremality.is_extreme(povm)
        mixture = self.px.decompose.decompose_extremal(povm)
        report = self.px.decompose.verify_barycenter(povm, mixture)
        return verdict, mixture, report

    def check(self, povm, _, out) -> list:
        verdict, mixture, report = out
        problems = _tree_problems(povm, mixture, report)
        if verdict.is_extreme != checks.map_is_extreme(povm.effects):
            problems.append(f"is_extreme says {verdict.is_extreme}, the map's rank disagrees")
        return problems

    def leaves(self, out) -> int:
        return len(out[1].components)

    def size(self, povm) -> int:
        return povm.dim


class Sphere(_Workload):
    """Point-labelled covariant sphere POVMs, N doubling: decompose, verify."""

    scaling = True

    def setup(self):
        rng = np.random.default_rng([2, self.seed])
        self.items = [self.px.outcomes.gen_covariant_sphere(n, seed=int(rng.integers(2**32)))
                      for n in SPHERE_SIZES]

    def op(self, povm, _):
        mixture = self.px.decompose.decompose_extremal(povm)
        return mixture, self.px.decompose.verify_barycenter(povm, mixture)

    def check(self, povm, _, out) -> list:
        return _tree_problems(povm, *out)

    def leaves(self, out) -> int:
        return len(out[0].components)

    def size(self, povm) -> int:
        return povm.n_outcomes


class Mixture(_Workload):
    """One sphere mixture, decomposed in set-up, checked through the CLI:
    verify-barycenter, direct and two-stage sampling, TV, one JSON write."""

    # set-up holds a sphere-200 decomposition
    repeat_setup = False

    def __init__(self, povmix, seed: int, workdir: Path):
        self.px, self.seed, self.dir = povmix, seed, workdir
        self.p_path = str(workdir / "p.json")
        self.mix_path = str(workdir / "mix.json")
        self.out_path = workdir / "out.json"
        self.state_path = workdir / "state.json"

    def setup(self):
        rng = np.random.default_rng([3, self.seed])
        ser = self.px.serialize
        self.povm = self.px.outcomes.gen_covariant_sphere(
            MIXTURE_POINTS, seed=int(rng.integers(2**32)))
        self.mixture = self.px.decompose.decompose_extremal(self.povm)
        Path(self.p_path).write_text(ser.dumps(ser.povm_to_jsonable(self.povm)) + "\n")
        Path(self.mix_path).write_text(ser.dumps(ser.mixture_to_jsonable(self.mixture)) + "\n")
        self.items = ["cli"]

    def setup_problems(self) -> list:
        return _mixture_problems(self.povm, self.mixture)

    def prepare(self, j: int):
        """A fresh state and sampling seeds for operation j."""
        rng = np.random.default_rng([4, self.seed, j])
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = a @ a.conj().T
        rho = (rho + rho.conj().T) / 2.0
        rho /= rho.trace().real
        ser = self.px.serialize
        self.state_path.write_text(ser.dumps(ser.state_to_jsonable(self.px.DensityState(2, rho))))
        seeds = [str(int(s)) for s in rng.integers(2**31, size=3)]
        return rho, str(self.state_path), seeds

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.px.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def op(self, _, prepared):
        _, state, seeds = prepared
        ser = self.px.serialize
        n = str(DRAWS)
        verify = self._cli(["verify-barycenter", self.p_path, self.mix_path, "--seed", seeds[0]])
        direct = self._cli(["sample", "direct", self.p_path, "--state", state,
                            "--n", n, "--seed", seeds[1]])
        staged = self._cli(["sample", "two-stage", self.mix_path, "--state", state,
                            "--n", n, "--seed", seeds[2]])
        tv = None
        if direct[0] == 0 and staged[0] == 0:
            tv = self.px.sampling.tv_distance(
                ser.histogram_from_jsonable(ser.loads(direct[1])),
                ser.histogram_from_jsonable(ser.loads(staged[1])))
        self.out_path.write_text(ser.dumps(ser.mixture_to_jsonable(self.mixture)) + "\n")
        return verify, direct, staged, tv

    def check(self, _, prepared, out) -> list:
        rho = prepared[0]
        verify, direct, staged, tv = out
        problems = [f"{what} exited {code}: {err.strip()}"
                    for what, (code, _, err) in
                    (("verify-barycenter", verify), ("sample direct", direct),
                     ("sample two-stage", staged)) if code != 0]
        if problems:
            return problems
        report = json.loads(verify[1])
        if report["pass"] is not True:
            problems.append(f"verify-barycenter report {report}")
        labels, effects = self.povm.labels, self.povm.effects
        hists = [json.loads(direct[1]), json.loads(staged[1])]
        for what, hist in zip(("direct", "two-stage"), hists):
            problems += [f"{what}: {p}" for p in
                         checks.histogram_problems(hist, labels, effects, rho)]
        if not problems:
            freqs = [checks.empirical(*checks.histogram_counts(h), labels) for h in hists]
            own = 0.5 * float(np.abs(freqs[0] - freqs[1]).sum())
            if abs(own - tv) > 1e-12:
                problems.append(f"tv_distance {tv!r} != {own!r} recomputed")
        problems += _read_back_problems(json.loads(self.out_path.read_text()), self.mixture)
        return problems

    def leaves(self, out) -> int:
        return len(self.mixture.components)

    def size(self, _) -> int:
        return self.povm.n_outcomes


def _read_back_problems(doc: dict, mixture) -> list:
    """The written document holds exactly the in-memory values, bit for bit."""
    comps = doc["components"]
    if (doc["dim"] != mixture.dim or doc["complete"] is not mixture.complete
            or len(comps) != len(mixture.components)):
        return ["written mixture header differs"]
    for j, (entry, c) in enumerate(zip(comps, mixture.components)):
        outcomes = entry["povm"]["outcomes"]
        effects = np.array([o["effect"] for o in outcomes]).reshape(-1, 2)
        ours = np.stack([c.povm.effects.real, c.povm.effects.imag], axis=-1).reshape(-1, 2)
        if (entry["weight"] != c.weight
                or [o["label"] if isinstance(o["label"], int) else tuple(o["label"])
                    for o in outcomes] != list(c.povm.labels)
                or effects.shape != ours.shape or not np.array_equal(effects, ours)):
            return [f"written component {j} does not read back bit-exact"]
    return []


WORKLOADS = {"corpus": Corpus, "sphere": Sphere, "mixture": Mixture}
