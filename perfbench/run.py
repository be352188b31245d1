"""Benchmark runner for mvdickman.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-beta25 --seed 1 --seconds 16 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the same work untraced and then traced and prints the per-layer metrics
and the tracing overhead. Every operation's output is checked against the
oracles in ``perfbench/oracles.py``. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give details, such as which percentile
``op_tail_ms`` is and over how many operations.

Every time metric is in reference seconds: raw seconds scaled by a
calibration kernel timed right before and after each operation and each
set-up probe (see ``perfbench/calibrate.py``), so that the shared host's
drifting speed does not move it. The raw times are on the details line.
``op_p50_ms`` is the median over operation kinds (a sweep's (method, k)
cells, or a quadrature call on one shape and k) of each kind's median
latency; ``op_tail_ms`` is a percentile over all operations.

The package is imported from ``src/`` of the checkout this file sits in; the
program exits with code 2 and prints no result if that source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: fresh interpreters started per run to time set-up; their median is setup_s
SETUP_PROBES = 7


def _use_checkout():
    """Import mvdickman and the benchmark from this checkout only."""
    if not (SRC / "mvdickman" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'mvdickman'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]


def setup_seconds(workload: str, seed: int) -> tuple:
    """Time interpreter start, imports and input generation in fresh processes.

    Returns the raw seconds of each probe and the calibration factor for each.
    """
    from perfbench.calibrate import REPS, factor, kernel_times

    times, factors = [], []
    cal = kernel_times(REPS)
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--probe",
                 "--workload", workload, "--seed", str(seed)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        after = kernel_times(REPS)
        factors.append(factor(cal + after))
        cal = after
    return times, factors


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n operations beyond it."""
    return max(0, math.floor(100 * (n - 10) / n)) if n > 10 else 0


def latency_ms(op_s: list) -> tuple:
    """(p50, tail value, tail percentile) of per-operation latencies in ms."""
    ms = sorted(1000.0 * t for t in op_s)
    p = tail_percentile(len(ms))
    rank = max(1, math.ceil(p / 100 * len(ms)))
    return statistics.median(ms), ms[rank - 1], p


def peak_rss_mb(include_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _use_checkout()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.probe:
        workloads.prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    from perfbench import trace

    setup, setup_scale = ([], []) if args.trace else setup_seconds(args.workload,
                                                                    args.seed)
    inputs = workloads.prepare(args.workload, args.seed)
    n_rounds = workloads.rounds(args.workload, args.seconds)

    passes = [workloads.run_pass(inputs, n_rounds)]
    if args.trace:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as spool:
            tracer = trace.Tracer(Path(spool))
            passes.append(workloads.run_pass(inputs, n_rounds, tracer))
    problems = [p for run in passes for p in run.problems]
    hashes = [h for run in passes for h in run.csv_hashes]
    if inputs.workers > 1 and hashes:
        problems += workloads.determinism_check(inputs, hashes[0])

    main_pass = passes[0]
    if not main_pass.op_s:
        print("\n".join(problems), file=sys.stderr)
        raise SystemExit("perfbench: no operation completed")
    _, tail, pct = latency_ms(main_pass.op_ref_s)
    ok_frac = 1.0 - main_pass.failed / main_pass.attempted
    if args.trace:
        metrics = trace.layer_metrics(tracer.spans, passes[1].round_s,
                                      main_pass.round_s, inputs.workers)
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
        metrics = {name: _metric(value, units[name]) for name, value in metrics.items()}
    else:
        metrics = {
            "setup_s": _metric(statistics.median(
                t * f for t, f in zip(setup, setup_scale)), "s"),
            "wall_s": _metric(main_pass.wall_s, "s"),
            "op_p50_ms": _metric(1000.0 * main_pass.kind_p50_s, "ms"),
            "op_tail_ms": _metric(tail, "ms"),
            "peak_rss_mb": _metric(peak_rss_mb(inputs.workers > 1), "MiB"),
            "ok_frac": _metric(ok_frac, "ratio"),
        }
    details = {
        "workload": args.workload, "seed": args.seed, "rounds": n_rounds,
        "operations": len(main_pass.op_s), "op_tail_percentile": pct,
        "fail_frac": 1.0 - ok_frac, "setup_raw_s": setup,
        "round_raw_s": main_pass.round_s, "round_scale": main_pass.round_scale,
        "op_p50_raw_ms": latency_ms(main_pass.op_s)[0],
        "csv_sha256": sorted(set(hashes)),
    }
    if args.trace:
        details["kernel_share_of_generate_batch"] = trace.kernel_shares(tracer.spans)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(details))
    print(json.dumps({"correct": not problems,
                      "attempted": sum(run.attempted for run in passes),
                      "failed": sum(run.failed for run in passes),
                      "metrics": metrics}))
    return 0


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


if __name__ == "__main__":
    raise SystemExit(main())
