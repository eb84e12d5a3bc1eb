"""Spans around the calls into povmix's modules, recorded from outside.

A span is recorded by replacing a function in every povmix module namespace
that holds it, which is where its callers look it up at call time (e.g.
povmix.decompose.prune_and_merge as well as povmix.model.prune_and_merge).
numpy's SVD and Hermitian eigensolvers are wrapped the same way to count
LAPACK calls made inside program spans; the benchmark's own checks run
outside every span and are not counted.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> (module, attribute) of the wrapped function
SPANS = {
    "model.align_label_universe": ("povmix.model", "align_label_universe"),
    "model.prune_and_merge": ("povmix.model", "prune_and_merge"),
    "model.born_probabilities": ("povmix.model", "born_probabilities"),
    "model.convex_combine": ("povmix.model", "convex_combine"),
    "model.effects_distance": ("povmix.model", "effects_distance"),
    "extremality.build_tp_map": ("povmix.extremality", "build_tp_map"),
    "extremality.verdict_from_tp": ("povmix.extremality", "verdict_from_tp"),
    "extremality.is_extreme": ("povmix.extremality", "is_extreme"),
    "decompose.decompose_extremal": ("povmix.decompose", "decompose_extremal"),
    "decompose.walk": ("povmix.decompose", "_extremal_direction"),
    "decompose.split_once": ("povmix.decompose", "split_once"),
    "decompose.verify_barycenter": ("povmix.decompose", "verify_barycenter"),
    "linalg.kernel_basis": ("povmix.linalg", "kernel_basis"),
    "sampling.sample_direct": ("povmix.sampling", "sample_direct"),
    "sampling.sample_two_stage": ("povmix.sampling", "sample_two_stage"),
    "sampling.tv_distance": ("povmix.sampling", "tv_distance"),
    "serialize.loads": ("povmix.serialize", "loads"),
    "serialize.dumps": ("povmix.serialize", "dumps"),
    "cli.main": ("povmix.cli", "main"),
}

COUNTERS = (
    "lapack.svd.calls",
    "lapack.eigh.calls",
    "decompose.walk.svd_calls",
    "serialize.bytes_read",
    "serialize.bytes_written",
)

# numpy.linalg attribute -> counter
_LAPACK = {"svd": "lapack.svd.calls", "eigh": "lapack.eigh.calls", "eigvalsh": "lapack.eigh.calls"}


class Tracer:
    """Call counts and self time per span, plus event counters, in memory."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.self_by_parent = defaultdict(float)
        self._open = []  # [name, child seconds] per active span
        self._active = Counter()

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            self._open.append([name, 0.0])
            self._active[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._active[name] -= 1
                _, child = self._open.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - child
                parent = self._open[-1][0] if self._open else "benchmark"
                self.self_by_parent[f"{parent} > {name}"] += elapsed - child
                if self._open:
                    self._open[-1][1] += elapsed
            if name == "serialize.loads":
                self.counts["serialize.bytes_read"] += len(args[0])
            elif name == "serialize.dumps":
                self.counts["serialize.bytes_written"] += len(result)
            return result

        return traced

    def _lapack(self, counter, fn):
        def counted(*args, **kwargs):
            if self._open:
                self.counts[counter] += 1
                if counter == "lapack.svd.calls" and self._active["decompose.walk"]:
                    self.counts["decompose.walk.svd_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap every span target and LAPACK entry point; restore on exit."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "povmix" or name.startswith("povmix."))]
        patches = []
        for name, (module, attr) in SPANS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._span(name, original)
            patches += [(m, attr, original, wrapper) for m in modules
                        if getattr(m, attr, None) is original]
        for attr, counter in _LAPACK.items():
            original = getattr(np.linalg, attr)
            patches.append((np.linalg, attr, original, self._lapack(counter, original)))
        try:
            for target, attr, _, wrapper in patches:
                setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original, _ in patches:
                setattr(target, attr, original)

    def metrics(self) -> dict:
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_ms"] = (1000.0 * self.self_s[name], "ms")
        for name in COUNTERS:
            out[name] = (self.counts[name], "B" if name.startswith("serialize.") else "count")
        return out

    def table(self) -> dict:
        """Everything recorded, with self time split by calling span."""
        return {
            "metrics": {name: value for name, (value, _) in self.metrics().items()},
            "self_ms_by_parent": {k: 1000.0 * v for k, v in sorted(self.self_by_parent.items())},
        }
