"""Layer spans recorded from outside the package.

``Tracer`` replaces the public entry point of each layer, wherever a loaded
``mvdickman`` module holds it, with a wrapper that records one span per call
(name, start, end, parent span, attributes), and puts the originals back on
exit. ``SpectralMeasure.sample_directions`` is wrapped on the class. Nothing
under ``src/`` changes.

Forked pool workers inherit the wrappers. A worker keeps its spans in memory
and writes them to ``spans-<pid>.json`` in the spool directory when it exits;
``collect_workers`` merges those files into the parent's spans.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import multiprocessing.util
import os
import statistics
import sys
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

METHODS = ("SN", "TA", "DS")


def _holders(attr, obj):
    """Every loaded mvdickman module whose attribute ``attr`` is ``obj``."""
    return [mod for name, mod in list(sys.modules.items())
            if (name == "mvdickman" or name.startswith("mvdickman."))
            and getattr(mod, attr, None) is obj]


@contextmanager
def patched(module, attr, make_wrapper):
    """Replace ``module.attr`` by ``make_wrapper(original)`` in every module
    that holds the same object, and restore it on exit."""
    original = getattr(module, attr)
    holders = _holders(attr, original)
    wrapper = make_wrapper(original)
    for mod in holders:
        setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod in holders:
            setattr(mod, attr, original)


def _counting(sigma):
    """``sigma`` with a density that counts its calls, and the counter."""
    if sigma.density is None:
        return sigma, [0]
    calls = [0]
    density = sigma.density

    def counted(x):
        calls[0] += 1
        return density(x)

    return dataclasses.replace(sigma, density=counted), calls


class Tracer:
    """Spans of one traced pass; install the wrappers with ``installed()``."""

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spans = []
        self._stack = []
        self._pid = os.getpid()

    # -- spans -------------------------------------------------------------

    def _open(self, name, attrs):
        if os.getpid() != self._pid:
            self._become_worker()
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, attrs])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _become_worker(self):
        self.spans, self._stack, self._pid = [], [], os.getpid()
        multiprocessing.util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self):
        path = self.spool / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")

    def collect_workers(self):
        """Merge and delete the span files written by exited workers."""
        for path in sorted(self.spool.glob("spans-*.json")):
            spans = json.loads(path.read_text(encoding="utf-8"))
            base = len(self.spans)
            for name, t0, t1, parent, attrs in spans:
                self.spans.append([name, t0, t1, parent + base if parent >= 0 else -1,
                                   attrs])
            path.unlink()

    def _span(self, name, fn, before=None, after=None):
        """Wrapper recording a span around ``fn``. ``before(attrs, *args)``
        may return replacement args; ``after(attrs)`` runs once ``fn`` ends."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if before is not None:
                args = before(attrs, *args)
            idx = self._open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                if after is not None:
                    after(attrs)
                self._close(idx)
        return wrapper

    # -- layer wrappers ----------------------------------------------------

    @contextmanager
    def installed(self):
        import mvdickman
        from mvdickman import (discretize, harness, measures, moments,
                               samplers, stats)

        def density_counted(attrs, sigma, *rest):
            sigma, calls = _counting(sigma)
            attrs["_calls"] = calls
            if rest:
                attrs["cells"] = int(rest[0].k)
            return (sigma, *rest)

        def density_done(attrs):
            attrs["density_evals"] = attrs.pop("_calls")[0]

        def directions(attrs, sigma, rng, n):
            attrs["draws"] = int(n)
            return sigma, rng, n

        def gd_terms(attrs, theta, tol, n, rng):
            attrs["terms"] = samplers.gd_truncation_terms(theta, tol)
            attrs["n"] = int(n)
            return theta, tol, n, rng

        def batch_start(attrs, method, sigma, k, n_reps, *rest):
            attrs.update(method=method, k=int(k), n_reps=int(n_reps), dim=int(sigma.dim))
            if method == "SN":
                attrs["terms"] = int(k)
            elif method == "TA":
                attrs["terms"] = samplers.ta_term_count(1.0, sigma.mass, k)
            tracemalloc.start()
            return (method, sigma, k, n_reps, *rest)

        def batch_done(attrs):
            attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

        wrap = self._span
        with patched(measures, "spectral_from_json",
                     lambda f: wrap("measures.spectral_from_json", f)), \
             patched(moments, "md_moments",
                     lambda f: wrap("moments.md_moments", f, density_counted,
                                    density_done)), \
             patched(discretize, "discretize_angular",
                     lambda f: wrap("discretize.discretize_angular", f,
                                    density_counted, density_done)), \
             patched(samplers, "generate_batch",
                     lambda f: wrap("samplers.generate_batch", f, batch_start,
                                    batch_done)), \
             patched(samplers, "sample_gd_batch",
                     lambda f: wrap("samplers.sample_gd_batch", f, gd_terms)), \
             patched(stats, "empirical_moments",
                     lambda f: wrap("stats.empirical_moments", f)), \
             patched(stats, "error_metric",
                     lambda f: wrap("stats.error_metric", f)), \
             patched(harness, "run_cell", lambda f: wrap("harness.run_cell", f)):
            sample_batch = samplers.SampleBatch
            sample_directions = mvdickman.SpectralMeasure.sample_directions
            samplers.SampleBatch = wrap("samplers.SampleBatch", sample_batch)
            mvdickman.SpectralMeasure.sample_directions = wrap(
                "measures.sample_directions", sample_directions, directions)
            try:
                yield self
            finally:
                samplers.SampleBatch = sample_batch
                mvdickman.SpectralMeasure.sample_directions = sample_directions


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

def kernel_shares(spans) -> dict:
    """Share of each method's generate_batch time spent in its dominant kernel:
    sample_directions for SN and TA, sample_gd_batch for DS."""
    kernel = {"SN": "measures.sample_directions", "TA": "measures.sample_directions",
              "DS": "samplers.sample_gd_batch"}
    busy = dict.fromkeys(METHODS, 0.0)
    inner = dict.fromkeys(METHODS, 0.0)
    for name, t0, t1, parent, attrs in spans:
        if name == "samplers.generate_batch":
            busy[attrs["method"]] += t1 - t0
        elif parent >= 0 and spans[parent][0] == "samplers.generate_batch":
            method = spans[parent][4]["method"]
            if name == kernel[method]:
                inner[method] += t1 - t0
    return {m: inner[m] / busy[m] for m in METHODS if busy[m] > 0}


def _ns_per(busy_s, count):
    return busy_s * 1e9 / count if count else 0.0


def layer_metrics(spans, traced_round_s: list, untraced_round_s: list,
                  workers: int) -> dict:
    """Per-layer metric values from the spans of a traced pass.

    Busy times and counts are totals over the traced pass. The tracing
    overhead is the traced median round minus the untraced median round.

    ``samplers.computed_bytes`` is a computed count, not a measurement: each
    replication-term writes one weight and one d-vector direction and reads
    and writes the d-vector accumulator, 8 * (1 + 3d) bytes.
    """
    busy, calls, children = defaultdict(float), defaultdict(int), defaultdict(float)
    gd_terms_by_batch = defaultdict(int)
    for name, t0, t1, parent, attrs in spans:
        busy[name] += t1 - t0
        calls[name] += 1
        if parent >= 0:
            children[parent] += t1 - t0
            if name == "samplers.sample_gd_batch":
                gd_terms_by_batch[parent] += attrs["terms"]

    def total(name, key):
        return sum(s[4].get(key, 0) for s in spans if s[0] == name)

    batch_busy = dict.fromkeys(METHODS, 0.0)
    series_terms = dict.fromkeys(METHODS, 0)
    rep_terms = dict.fromkeys(METHODS, 0)
    peak_bytes = 0
    computed_bytes = 0
    for i, (name, t0, t1, _parent, attrs) in enumerate(spans):
        if name != "samplers.generate_batch":
            continue
        method = attrs["method"]
        terms = attrs.get("terms", gd_terms_by_batch[i])
        batch_busy[method] += t1 - t0
        series_terms[method] += terms
        rep_terms[method] += terms * attrs["n_reps"]
        peak_bytes = max(peak_bytes, attrs["peak_bytes"])
        computed_bytes += terms * attrs["n_reps"] * 8 * (1 + 3 * attrs["dim"])

    cell_busy = busy["harness.run_cell"]
    cell_self = sum(t1 - t0 - children[i]
                    for i, (name, t0, t1, _p, _a) in enumerate(spans)
                    if name == "harness.run_cell")
    draws = total("measures.sample_directions", "draws")
    out = {
        "measures.sample_directions.busy_s": busy["measures.sample_directions"],
        "measures.sample_directions.draws": draws,
        "measures.sample_directions.ns_per_draw": _ns_per(
            busy["measures.sample_directions"], draws),
    }
    for method in METHODS:
        out[f"samplers.generate_batch.busy_s.{method}"] = batch_busy[method]
        out[f"samplers.series_terms.{method}"] = series_terms[method]
        out[f"samplers.ns_per_rep_term.{method}"] = _ns_per(batch_busy[method],
                                                           rep_terms[method])
    out.update({
        "samplers.sample_gd_batch.busy_s": busy["samplers.sample_gd_batch"],
        "samplers.sample_gd_batch.calls": calls["samplers.sample_gd_batch"],
        "samplers.SampleBatch.busy_s": busy["samplers.SampleBatch"],
        "samplers.peak_traced_mb": peak_bytes / 2 ** 20,
        "samplers.computed_bytes": computed_bytes,
        "moments.md_moments.busy_s": busy["moments.md_moments"],
        "moments.md_moments.calls": calls["moments.md_moments"],
        "moments.md_moments.density_evals": total("moments.md_moments", "density_evals"),
        "discretize.discretize_angular.busy_s": busy["discretize.discretize_angular"],
        "discretize.discretize_angular.calls": calls["discretize.discretize_angular"],
        "discretize.discretize_angular.cells": total("discretize.discretize_angular", "cells"),
        "discretize.discretize_angular.density_evals": total(
            "discretize.discretize_angular", "density_evals"),
        "measures.spectral_from_json.busy_s": busy["measures.spectral_from_json"],
        "measures.spectral_from_json.calls": calls["measures.spectral_from_json"],
        "stats.empirical_moments.busy_s": busy["stats.empirical_moments"],
        "stats.error_metric.busy_s": busy["stats.error_metric"],
        "harness.run_cell.busy_s": cell_busy,
        "harness.run_cell.self_s": cell_self,
        "harness.cells": calls["harness.run_cell"],
        "harness.worker_busy_frac": cell_busy / (workers * sum(traced_round_s)),
        "trace.untraced_wall_s": statistics.median(untraced_round_s),
        "trace.overhead_s": (statistics.median(traced_round_s)
                             - statistics.median(untraced_round_s)),
    })
    return out
