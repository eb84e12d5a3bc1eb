"""Command-line front end.

Subcommands: gen, validate, extremal-check, decompose, density, postprocess,
sample, verify-barycenter. File arguments accept "-" for stdin/stdout so the
commands compose in pipelines. Exit codes: 0 success (or extreme), 2 not
extreme, 3 incomplete decomposition, 1 any error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import serialize
from .config import SEED_LIMIT, Config, load_config
from .decompose import decompose_extremal, verify_barycenter
from .extremality import is_extreme
from .model import PovmError, _merge, convex_combine, trace_density, validate_povm
from .outcomes import (
    apply_postprocessing,
    gen_covariant_sphere,
    gen_ea_family,
    gen_pvm,
    gen_random_povm,
    gen_sic_qubit,
    gen_trine,
    is_injective,
)
from .sampling import sample_direct, sample_two_stage


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 is reserved for "not
    # extreme" here, so route usage problems through the generic error path.
    def error(self, message):
        raise _UsageError(message)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text + "\n")
    else:
        Path(path).write_text(text + "\n")


def _load_povm(path: str):
    return serialize.povm_from_jsonable(serialize.loads(_read_text(path)))


def _load_mixture(path: str):
    return serialize.mixture_from_jsonable(serialize.loads(_read_text(path)))


def _load_state(path: str):
    return serialize.state_from_jsonable(serialize.loads(_read_text(path)))


def _require(args, names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise _UsageError(f"--{name} is required for this kind")


def _seed(args, cfg: Config) -> int:
    """--seed, or the config's seed when the flag is absent; both lie in [0, 2**128)."""
    if args.seed is not None and not 0 <= args.seed < SEED_LIMIT:
        raise _UsageError(f"--seed must be in [0, 2**128), got {args.seed}")
    return cfg.seed if args.seed is None else args.seed


def _cmd_gen(args, cfg: Config) -> int:
    seed = _seed(args, cfg)
    if args.d is not None and args.d < 1:
        raise _UsageError(f"--d must be >= 1, got {args.d}")
    kind = args.kind
    if kind == "sic":
        povm = gen_sic_qubit()
    elif kind == "trine":
        povm = gen_trine()
    elif kind == "ea":
        _require(args, ["a"])
        if not math.isfinite(args.a):
            raise _UsageError(f"--a must be finite, got {args.a}")
        povm = gen_ea_family(args.a)
    elif kind == "pvm":
        d = 2 if args.d is None else args.d
        if args.seed is None:
            basis = np.eye(d)
        else:
            rng = np.random.default_rng(seed)
            g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            q, r = np.linalg.qr(g)
            basis = q * (np.diag(r) / np.abs(np.diag(r)))
        povm = gen_pvm(basis)
    elif kind == "random":
        _require(args, ["d", "k"])
        povm = gen_random_povm(args.d, args.k, rank_cap=args.rank_cap, seed=seed)
    elif kind == "covariant-sphere":
        _require(args, ["n"])
        povm = gen_covariant_sphere(args.n, seed=seed)
    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError(f"unknown kind {kind!r}")
    _write_text(args.output, serialize.dumps(serialize.povm_to_jsonable(povm)))
    return 0


def _cmd_validate(args, cfg: Config) -> int:
    povm = _load_povm(args.povm)
    report = validate_povm(povm, psd_tol=cfg.psd_tol, label_tol=cfg.label_tol)
    if report.is_valid:
        print(f"valid: {report.n_outcomes} outcomes in dimension {report.dim}")
        return 0
    for message in report.messages():
        print(message)
    return 1


def _cmd_extremal_check(args, cfg: Config) -> int:
    povm = _load_povm(args.povm)
    verdict = is_extreme(
        povm,
        margin_factor=cfg.extremality_margin_factor,
        rank_tol=cfg.rank_tol,
        label_tol=cfg.label_tol,
        psd_tol=cfg.psd_tol,
    )
    print(serialize.dumps(serialize.verdict_to_jsonable(verdict)))
    return 0 if verdict.is_extreme else 2


def _cmd_decompose(args, cfg: Config) -> int:
    if args.max_leaves is not None:
        cfg = replace(cfg, max_leaves=args.max_leaves)  # the config key's >= 1 check
    povm = _load_povm(args.povm)
    mixture = decompose_extremal(
        povm,
        max_leaves=cfg.max_leaves,
        margin_factor=cfg.extremality_margin_factor,
        rank_tol=cfg.rank_tol,
        label_tol=cfg.label_tol,
        psd_tol=cfg.psd_tol,
    )
    _write_text(args.output, serialize.dumps(serialize.mixture_to_jsonable(mixture)))
    return 0 if mixture.complete else 3


def _cmd_density(args, cfg: Config) -> int:
    # one entry per label, as the trace_density parser requires
    povm = _load_povm(args.povm)
    td = trace_density(_merge(povm.dim, povm.labels, povm.effects, cfg.label_tol))
    print(serialize.dumps(serialize.trace_density_to_jsonable(td)))
    return 0


def _cmd_postprocess(args, cfg: Config) -> int:
    povm = _load_povm(args.povm)
    pp = serialize.postprocessing_from_jsonable(serialize.loads(_read_text(args.map)))
    if not is_injective(pp, label_tol=cfg.label_tol):
        print(
            "warning: relabeling is not injective; coinciding outcomes are merged",
            file=sys.stderr,
        )
    out = apply_postprocessing(povm, pp, label_tol=cfg.label_tol)
    _write_text(args.output, serialize.dumps(serialize.povm_to_jsonable(out)))
    return 0


def _cmd_sample(args, cfg: Config) -> int:
    state = _load_state(args.state)
    seed = _seed(args, cfg)
    if args.mode == "direct":
        hist = sample_direct(_load_povm(args.input), state, args.n, seed=seed)
    else:
        hist = sample_two_stage(
            _load_mixture(args.input), state, args.n, seed=seed, label_tol=cfg.label_tol
        )
    print(serialize.dumps(serialize.histogram_to_jsonable(hist)))
    return 0


def _cmd_verify_barycenter(args, cfg: Config) -> int:
    seed = _seed(args, cfg)
    paths = args.files
    if len(paths) > 2:
        raise _UsageError("expected at most two positional files: povm and mixture")
    if paths:
        povm = _load_povm(paths[0])
        mixture = _load_mixture(paths[1] if len(paths) == 2 else "-")
    else:
        # Self-consistency mode for pipelines: recombine the mixture read
        # from stdin and verify against that.
        mixture = _load_mixture("-")
        povm = convex_combine(
            [(c.weight, c.povm) for c in mixture.components], cfg.label_tol
        )
    report = verify_barycenter(
        povm, mixture, trials=args.trials, seed=seed, label_tol=cfg.label_tol
    )
    ok = report.within(1e-8)
    print(
        serialize.dumps(
            {
                "trials": report.trials,
                "max_functional_residual": report.max_functional_residual,
                "effect_residual": report.effect_residual,
                "weight_sum": report.weight_sum,
                "pass": ok,
            }
        )
    )
    return 0 if ok else 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="povmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a measurement")
    gen.add_argument(
        "--kind",
        required=True,
        choices=["pvm", "sic", "trine", "ea", "random", "covariant-sphere"],
    )
    gen.add_argument("--a", type=float, help="angle for the ea family")
    gen.add_argument("--d", type=int, help="Hilbert space dimension")
    gen.add_argument("--k", type=int, help="number of outcomes")
    gen.add_argument("--n", type=int, help="number of sphere points")
    gen.add_argument("--rank-cap", type=int, help="max rank of random effects")
    gen.add_argument("--seed", type=int)
    gen.add_argument("-o", "--output", default="-")
    gen.set_defaults(func=_cmd_gen)

    val = sub.add_parser("validate", help="check POVM axioms")
    val.add_argument("povm")
    val.set_defaults(func=_cmd_validate)

    chk = sub.add_parser("extremal-check", help="decide extremality")
    chk.add_argument("povm")
    chk.set_defaults(func=_cmd_extremal_check)

    dec = sub.add_parser("decompose", help="decompose into extreme measurements")
    dec.add_argument("povm")
    dec.add_argument("-o", "--output", default="-")
    dec.add_argument("--max-leaves", type=int)
    dec.set_defaults(func=_cmd_decompose)

    den = sub.add_parser("density", help="trace weights and unit-trace densities")
    den.add_argument("povm")
    den.set_defaults(func=_cmd_density)

    post = sub.add_parser("postprocess", help="relabel outcomes through a map")
    post.add_argument("povm")
    post.add_argument("--map", required=True)
    post.add_argument("-o", "--output", default="-")
    post.set_defaults(func=_cmd_postprocess)

    smp = sub.add_parser("sample", help="draw outcomes from a state")
    smp.add_argument("mode", choices=["direct", "two-stage"])
    smp.add_argument("input", help="POVM (direct) or mixture (two-stage) JSON")
    smp.add_argument("--state", required=True)
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--seed", type=int)
    smp.set_defaults(func=_cmd_sample)

    ver = sub.add_parser("verify-barycenter", help="recombination residuals")
    ver.add_argument("files", nargs="*")
    ver.add_argument("--trials", type=int, default=64)
    ver.add_argument("--seed", type=int)
    ver.set_defaults(func=_cmd_verify_barycenter)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args, load_config())
    except (_UsageError, PovmError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
