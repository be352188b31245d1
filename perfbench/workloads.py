"""Benchmark workloads: inputs made from a seed, timed passes, and checks.

Sweeps call ``run_experiment`` on the paper's (method, k) study with
DEFAULT_K_GRID. One operation is one grid cell (``run_cell``); its latency is
taken by a timer wrapped around ``harness.run_cell``, which forked pool
workers inherit and which hands the latency back on the row it returns,
together with the times of the calibration kernels it ran just before and
after the cell.
``quad-beta-shapes`` calls ``md_moments`` and ``discretize_angular`` directly;
one operation is one such call.

A workload's work is fixed by ``--seconds`` alone: a pass repeats the
workload's round ``rounds(workload, seconds)`` times. A faster program
finishes the same work sooner, and the operation counts, and so the tail
percentile, stay the same across commits. ``wall_s`` is the median round, so
a burst of load from other tenants of the machine that spans less than half
of the rounds does not move it.

Each operation's latency is scaled to reference seconds by the calibration
kernels (``perfbench/calibrate.py``) timed right before and after it, and a
round's time by the duration-weighted mean of its operations' factors, so
that a drift in the host's speed does not move them. Kernel time is taken out
of a round's time: all of it with one worker, and an even share per worker
with several.
"""

from __future__ import annotations

import math
import random
import statistics
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from . import oracles
from .calibrate import factor, kernel_times

#: replications per cell. The paper uses 160 000; a tenth of it lets a pass
#: repeat the full default sweep MIN_ROUNDS times in about 19 seconds. The
#: cost per replication-term of the seed samplers is the same from N = 8 000
#: to 160 000.
N_REPS = 16_000
FINITE_ATOMS = 200
QUAD_SHAPES = ((2.0, 5.0), (5.0, 1.0), (1.0, 1.0), (0.5, 0.5), (0.2, 0.3),
               (0.05, 0.05))
QUAD_KS = (10, 50, 200)
#: passes over the quadrature operations per round, each in a fresh order
QUAD_PASSES = 2

WORKLOADS = {
    "sweep-beta25": {"model": "beta25", "workers": 1},
    "sweep-finite-r200": {"model": "finite", "workers": 1},
    "sweep-beta25-w2": {"model": "beta25", "workers": 2},
    "quad-beta-shapes": {"model": None, "workers": 1},
}

#: seconds one round takes on seed code on the reference machine (2-core
#: Xeon, 2 MiB L2 per core), calibration kernels included
ROUND_S = {
    "sweep-beta25": 3.8,
    "sweep-finite-r200": 2.8,
    "sweep-beta25-w2": 2.2,
    "quad-beta-shapes": 0.5,
}
MIN_ROUNDS = 5

#: calibration kernels run right before and right after each sweep cell
CELL_KERNELS = 2

#: key under which the cell timer hands back, on a row, the cell's latency
#: and the times of the calibration kernels before and after it
OP_KEY = "_perfbench_op_s"


def rounds(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))


def beta_model(a: float, b: float) -> dict:
    return {"variant": "beta", "alpha": a, "beta": b, "mass": 1.0}


def finite_model(seed: int, r: int = FINITE_ATOMS) -> dict:
    """r atoms at uniform angles with unequal masses summing to exactly 1.

    Masses are multiples of 2^-24, so every floating-point sum of them is
    exact and the total mass is 1 in any summation order.
    """
    rng = random.Random(f"finite-{seed}")
    angles = sorted(rng.uniform(0.0, oracles.TWO_PI) for _ in range(r))
    weights = [rng.uniform(0.2, 1.8) for _ in range(r)]
    scale = 2 ** 24 / math.fsum(weights)
    units = [max(1, round(w * scale)) for w in weights]
    units[units.index(max(units))] += 2 ** 24 - sum(units)
    return {"variant": "finite", "dim": 2,
            "atoms": [{"angle": a, "mass": u / 2 ** 24} for a, u in zip(angles, units)]}


@dataclass
class Inputs:
    workload: str
    seed: int
    workers: int = 1
    model: dict | None = None
    config: object = None
    n_cells: int = 0
    ops: list = field(default_factory=list)


def prepare(workload: str, seed: int, n_reps: int = N_REPS,
            k_grid: tuple | None = None) -> Inputs:
    """Import the package and build a workload's inputs from its seed.

    Everything here is set-up: ``setup_s`` times this from interpreter start.
    """
    import mvdickman

    spec = WORKLOADS[workload]
    inputs = Inputs(workload, seed, spec["workers"])
    if spec["model"] is None:
        for a, b in QUAD_SHAPES:
            model = beta_model(a, b)
            sigma = mvdickman.spectral_from_json(model)
            inputs.ops.append(("md_moments", model, (sigma,), None))
            for k in QUAD_KS:
                inputs.ops.append(("discretize_angular", model,
                                   (sigma, mvdickman.default_grid(k)), k))
        return inputs
    model = beta_model(2.0, 5.0) if spec["model"] == "beta25" else finite_model(seed)
    doc = {"model": model, "n_reps": n_reps,
           "base_seed": random.Random(f"base-{seed}").getrandbits(63)}
    if k_grid is not None:
        doc["k_grid"] = list(k_grid)
    inputs.model = model
    inputs.config = mvdickman.ExperimentConfig.from_json(doc)
    per_method = 1 if model["variant"] == "finite" else len(inputs.config.k_grid)
    inputs.n_cells = sum(per_method if m == "DS" else len(inputs.config.k_grid)
                         for m in inputs.config.methods)
    return inputs


@dataclass
class Pass:
    """What one timed pass over a workload measured and found.

    ``round_s`` and ``op_s`` are raw seconds, calibration kernels taken out;
    ``round_scale`` and ``op_scale`` hold, for each, the calibration factor to
    reference seconds.
    ``op_kind`` names what each operation computes: a sweep's (method, k)
    cell, or a quadrature call with its shape and k.
    """

    round_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    op_kind: list = field(default_factory=list)
    round_scale: list = field(default_factory=list)
    op_scale: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    csv_hashes: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Median wall time of one round, in reference seconds."""
        return statistics.median(t * f for t, f in zip(self.round_s, self.round_scale))

    @property
    def op_ref_s(self) -> list:
        """Operation latencies in reference seconds."""
        return [t * f for t, f in zip(self.op_s, self.op_scale)]

    @property
    def kind_p50_s(self) -> float:
        """Median over operation kinds of each kind's median latency, in
        reference seconds.

        Every kind runs equally often, so the median of all latencies would
        fall between the slowest run of one kind and the fastest of the next
        whenever the kinds are even in number; this statistic does not.
        """
        by_kind = {}
        for kind, t in zip(self.op_kind, self.op_ref_s):
            by_kind.setdefault(kind, []).append(t)
        return statistics.median(statistics.median(ts) for ts in by_kind.values())

    def add_round(self, round_s: float, op_s: list, cal_s: list):
        """Record a round of ``round_s`` seconds of work whose operations took
        ``op_s`` seconds each, with the kernel times ``cal_s[i]`` timed
        around operation ``i``."""
        scales = [factor(c) for c in cal_s]
        self.op_s.extend(op_s)
        self.op_scale.extend(scales)
        self.round_s.append(round_s)
        self.round_scale.append(sum(t * f for t, f in zip(op_s, scales)) / sum(op_s))


def _unexpected(exc: Exception) -> list:
    """A raised package error is a failed operation; any other exception is
    also a defect in the program's output."""
    import mvdickman

    package_errors = (mvdickman.ValidationError, mvdickman.UnsupportedMeasureError,
                      mvdickman.QuadratureError, mvdickman.ConfigurationError)
    if isinstance(exc, package_errors):
        return []
    return ["".join(traceback.format_exception(exc)).rstrip()]


def run_pass(inputs: Inputs, n_rounds: int, tracer=None) -> Pass:
    """Run ``n_rounds`` rounds of a workload, traced if a tracer is given."""
    with tracer.installed() if tracer is not None else nullcontext():
        if inputs.config is None:
            return _quad_pass(inputs, n_rounds)
        return _sweep_pass(inputs, n_rounds, tracer)


def _timed_cell(run_cell):
    def timed(*args, **kwargs):
        before = kernel_times(CELL_KERNELS)
        t0 = perf_counter()
        row = run_cell(*args, **kwargs)
        op_s = perf_counter() - t0
        row[OP_KEY] = (op_s, before + kernel_times(CELL_KERNELS))
        return row
    return timed


def _sweep_pass(inputs: Inputs, n_rounds: int, tracer) -> Pass:
    import mvdickman
    from mvdickman import harness

    from .trace import patched

    out = Pass()
    with patched(harness, "run_cell", _timed_cell):
        for _ in range(n_rounds):
            out.attempted += inputs.n_cells
            t0 = perf_counter()
            try:
                rows = mvdickman.run_experiment(inputs.config, workers=inputs.workers)
            except Exception as exc:  # a raising round fails all of its cells
                out.failed += inputs.n_cells
                out.problems.extend(_unexpected(exc))
                continue
            round_s = perf_counter() - t0
            if tracer is not None:
                tracer.collect_workers()
            op_s, cal_s = zip(*(row.pop(OP_KEY) for row in rows))
            kernel_s = sum(map(sum, cal_s)) / inputs.workers
            out.add_round(round_s - kernel_s, op_s, cal_s)
            out.op_kind.extend((row["method"], row["k"]) for row in rows)
            bad = oracles.check_sweep(rows, inputs.model)
            out.failed += len(bad)
            out.problems.extend(f"{rows[i]['method']} k={rows[i]['k']}: {p}"
                                for i, problems in sorted(bad.items()) for p in problems)
            out.csv_hashes.append(oracles.csv_sha256(mvdickman.rows_to_csv(rows)))
    if len(set(out.csv_hashes)) > 1:
        out.problems.append(f"CSV differs between rounds: {out.csv_hashes}")
    return out


def _quad_pass(inputs: Inputs, n_rounds: int) -> Pass:
    import mvdickman

    order = random.Random(f"order-{inputs.seed}")
    out = Pass()
    done = []
    for _ in range(n_rounds):
        ops = [op for _ in range(QUAD_PASSES)
               for op in order.sample(inputs.ops, len(inputs.ops))]
        cal, op_s = kernel_times(1), []
        for name, model, args, k in ops:
            t0 = perf_counter()
            try:
                result = getattr(mvdickman, name)(*args)
            except Exception as exc:  # counted as a failed operation below
                result = exc
            op_s.append(perf_counter() - t0)
            cal += kernel_times(1)
            out.op_kind.append((name, model["alpha"], model["beta"], k))
            done.append((name, model, k, result))
        # each call is scaled by the two kernel runs on either side of it
        out.add_round(sum(op_s), op_s, list(zip(cal, cal[1:])))
    out.attempted = len(done)
    for name, model, k, result in done:
        if isinstance(result, Exception):
            out.failed += 1
            out.problems.extend(_unexpected(result))
            continue
        problems = (oracles.check_moments(result, model) if name == "md_moments"
                    else oracles.check_discretized(result, model, k))
        if problems:
            out.failed += 1
            out.problems.extend(f"{name} {mvdickman.model_label(model)} k={k}: {p}"
                                for p in problems)
    return out


def determinism_check(inputs: Inputs, reference_hash: str) -> list:
    """Problems if a workers=1 run of the same config gives other CSV bytes."""
    import mvdickman

    rows = mvdickman.run_experiment(inputs.config, workers=1)
    got = oracles.csv_sha256(mvdickman.rows_to_csv(rows))
    if got != reference_hash:
        return [f"CSV sha256 with workers=1 is {got}, with workers="
                f"{inputs.workers} it is {reference_hash}"]
    return []
