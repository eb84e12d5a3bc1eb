"""povmix benchmark: one workload per run, end-to-end or per-module metrics.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

--trace 0 times the workload with no wrappers installed and prints the
end-to-end metrics. --trace 1 first makes that same untraced timed phase,
then repeats exactly its rounds with spans around povmix's public functions,
and prints the per-module metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Results and span
tables are also written under bench/results/.
"""

from __future__ import annotations

import os

# Every matrix here is at most 16 x a few hundred, far below the size where
# BLAS threads pay off; one thread keeps thread hand-off out of the timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "leaves": "count",
}


def import_povmix():
    """The povmix package of this checkout's src/, or None if it is absent."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import povmix
        import povmix.cli
        import povmix.serialize
    except ImportError as exc:
        print(f"error: cannot import povmix from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    if (ROOT / "src") not in Path(povmix.__file__).resolve().parents:
        print(f"error: povmix imported from {povmix.__file__}, not this checkout", file=sys.stderr)
        return None
    return povmix


def git_sha() -> str:
    """HEAD's commit read from .git without starting git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


class Phase:
    """Operations of one timed phase: seconds and size of each completed
    operation, and the time spent in every attempted one."""

    def __init__(self):
        self.times, self.sizes, self.round_leaves, self.problems = [], [], [], []
        self.attempted = self.failed = self.rounds = 0
        self.measured = 0.0


def run_phase(wl, seconds: float, rounds: int | None = None, between=None) -> Phase:
    """Whole rounds, at least one, until `seconds` of operation time, or
    exactly `rounds`.

    Only the operation itself is on the clock; inputs are prepared, outputs
    checked and `between` called between operations.
    """
    phase = Phase()
    j = 0
    while True:
        leaves = 0
        for item in wl.items:
            prepared = wl.prepare(j)
            j += 1
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                out = wl.op(item, prepared)
            except Exception:  # a failed operation is counted, and the run goes on
                phase.measured += time.perf_counter() - t0
                phase.failed += 1
                traceback.print_exc()
                continue
            elapsed = time.perf_counter() - t0
            phase.measured += elapsed
            phase.times.append(elapsed)
            phase.sizes.append(wl.size(item))
            phase.problems += wl.check(item, prepared, out)
            leaves += wl.leaves(out)
            if between:
                between()
        phase.round_leaves.append(leaves)
        phase.rounds += 1
        if phase.rounds == rounds or rounds is None and phase.measured >= seconds:
            break
    if len(set(phase.round_leaves)) > 1:
        phase.problems.append(f"leaf counts differ between rounds: {phase.round_leaves}")
    return phase


def size_medians(phase: Phase) -> dict:
    by_size = defaultdict(list)
    for size, t in zip(phase.sizes, phase.times):
        by_size[size].append(t)
    return {size: 1000.0 * statistics.median(ts) for size, ts in sorted(by_size.items())}


def scaling_exponent(medians: dict) -> float:
    """Least-squares slope of log median op time against log size."""
    x = np.log(list(medians))
    y = np.log(list(medians.values()))
    return float(np.polyfit(x, y, 1)[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    povmix = import_povmix()
    if povmix is None:
        return 2
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # pure defaults, whatever config the machine holds
    os.environ["POVMIX_CONFIG"] = str(workdir / "no-config.json")
    try:
        wl = workloads.WORKLOADS[args.workload](povmix, args.seed, workdir)
        setup_times = []

        def timed_setup():
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)

        timed_setup()
        setup_problems = wl.setup_problems()
        # Set-up taking milliseconds is timed again after every operation:
        # the host's speed shifts by 2x for seconds at a time, and samples
        # spread over the whole run give a median as steady as op_ms_p50.
        phases = [run_phase(wl, args.seconds, between=timed_setup if wl.repeat_setup else None)]
        untraced = phases[0]
        if args.trace:
            tracer = spans.Tracer()
            with tracer.installed():
                phases.append(run_phase(wl, 0.0, rounds=untraced.rounds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = setup_problems + [p for ph in phases for p in ph.problems]
    if args.trace and phases[1].round_leaves != untraced.round_leaves:
        problems.append("traced rounds emitted other leaf counts than untraced ones")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    medians = size_medians(untraced)
    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (phases[1].measured - untraced.measured, "s")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(untraced.times) / untraced.measured,
            "op_ms_p50": 1000.0 * statistics.median(untraced.times or [0.0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "leaves": untraced.round_leaves[0],
        }
        metrics = {name: (value, END_TO_END[name]) for name, value in metrics.items()}
    result = {
        "correct": not problems,
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }

    stamp = machine_stamp()
    extra = {"rounds": untraced.rounds, "ops": len(untraced.times),
             "measured_s": untraced.measured, "setup_s_all": setup_times,
             "op_ms_median_by_size": medians}
    if wl.scaling:
        extra["scaling_exponent"] = scaling_exponent(medians)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "machine": stamp, "result": result, "extra": extra,
              "op_s": untraced.times, "op_size": untraced.sizes}
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (RESULTS / f"{tag}-spans.json").write_text(json.dumps(tracer.table(), indent=1) + "\n")

    print("machine: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"{args.workload} seed {args.seed}: {result['attempted']} attempted, "
          f"{result['failed']} failed, {len(problems)} check failures, "
          f"{untraced.rounds} rounds in {untraced.measured:.2f} s")
    for size, ms in medians.items():
        print(f"{wl.size_name} = {size}: median {ms:.1f} ms per operation")
    if "scaling_exponent" in extra:
        print(f"scaling_exponent {extra['scaling_exponent']:.4f} (reference, not gated)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
