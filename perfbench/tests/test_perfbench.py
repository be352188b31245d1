"""Tests for the benchmark's oracles, correctness gates and layer tracing.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import mvdickman
from perfbench import calibrate, oracles, trace, workloads
from perfbench.run import latency_ms, tail_percentile

ROOT = Path(__file__).resolve().parents[2]
SMALL = {"n_reps": 4000, "k_grid": (1, 5, 200)}


@pytest.mark.parametrize("a,b", [(2, 5), (5, 1), (1, 1), (0.5, 0.5), (0.2, 0.3)])
def test_beta_oracle_agrees_with_md_moments(a, b):
    model = workloads.beta_model(a, b)
    summary = mvdickman.md_moments(mvdickman.spectral_from_json(model))
    assert oracles.check_moments(summary, model) == []


def test_finite_oracle_and_mc_floor_agree_with_the_package():
    model = workloads.finite_model(3, r=20)
    sigma = mvdickman.spectral_from_json(model)
    assert oracles.check_moments(mvdickman.md_moments(sigma), model) == []
    x = mvdickman.sample_ds_batch(sigma, 1e-12, 100_000, np.random.default_rng(0))
    assert mvdickman.estimate_mc_floor(x) == pytest.approx(
        oracles.mc_floor(model, 100_000), rel=0.05)


def test_beta25_mc_floor_at_the_paper_n():
    assert oracles.mc_floor(workloads.beta_model(2, 5), 160_000) == pytest.approx(
        0.002543, abs=1e-6)


def test_discretized_masses_checked_against_incomplete_beta():
    model = workloads.beta_model(0.5, 0.5)
    sigma_k = mvdickman.discretize_angular(mvdickman.spectral_from_json(model),
                                           mvdickman.default_grid(50))
    assert oracles.check_discretized(sigma_k, model, 50) == []
    shifted = mvdickman.SpectralMeasure.from_angles(
        sigma_k.angles(), sigma_k.masses * (1 + 1e-6))
    assert len(oracles.check_discretized(shifted, model, 50)) == 2


@pytest.fixture(scope="module")
def small_sweep():
    inputs = workloads.prepare("sweep-beta25", 4, **SMALL)
    return inputs, mvdickman.run_experiment(inputs.config)


def test_gate_passes_seed_rows(small_sweep):
    inputs, rows = small_sweep
    assert len(rows) == inputs.n_cells
    assert oracles.check_sweep(rows, inputs.model) == {}


def test_gate_fails_a_row_with_perturbed_xbar1(small_sweep):
    inputs, rows = small_sweep
    rows = [dict(row) for row in rows]
    rows[4]["xbar1"] += 0.1
    bad = oracles.check_sweep(rows, inputs.model)
    assert list(bad) == [4]
    assert any("e_k=" in p for p in bad[4]) and any("SE from" in p for p in bad[4])
    # with E_k made consistent again, the independent mean oracle still fails it
    rows[4]["e_k"] = math.sqrt(sum((rows[4][s] - rows[4][t]) ** 2 for s, t in
                                   zip(oracles.SAMPLE_COLUMNS, oracles.TRUTH_COLUMNS)))
    assert list(oracles.check_sweep(rows, inputs.model)) == [4]


def test_gate_fails_when_k_max_is_not_better(small_sweep):
    inputs, rows = small_sweep
    rows = [dict(row) for row in rows]
    ta = [i for i, row in enumerate(rows) if row["method"] == "TA"]
    rows[ta[-1]]["e_k"], rows[ta[0]]["e_k"] = rows[ta[0]]["e_k"], rows[ta[-1]]["e_k"]
    assert ta[-1] in oracles.check_sweep(rows, inputs.model)


def test_gate_fails_mismatched_csv_hashes(small_sweep):
    inputs, rows = small_sweep
    good = oracles.csv_sha256(mvdickman.rows_to_csv(rows))
    assert workloads.determinism_check(inputs, good) == []
    assert workloads.determinism_check(inputs, "0" * 64) != []


def test_traced_two_worker_run_emits_every_layer_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run_cell = mvdickman.harness.run_cell
    inputs = workloads.prepare("sweep-beta25-w2", 5, **SMALL)
    tracer = trace.Tracer(tmp_path)
    traced = workloads.run_pass(inputs, 1, tracer)
    assert mvdickman.harness.run_cell is run_cell
    assert traced.problems == [] and traced.failed == 0
    assert list(tmp_path.iterdir()) == []
    assert workloads.determinism_check(inputs, traced.csv_hashes[0]) == []

    metrics = trace.layer_metrics(tracer.spans, traced.round_s, traced.round_s, 2)
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["harness.cells"] == inputs.n_cells == 9
    assert 0 < metrics["harness.worker_busy_frac"] <= 1
    assert metrics["samplers.series_terms.SN"] == 1 + 5 + 200
    assert metrics["samplers.series_terms.TA"] == 1 + 5 + 200
    assert metrics["samplers.sample_gd_batch.calls"] == 1 + 5 + 200
    assert metrics["discretize.discretize_angular.cells"] == 1 + 5 + 200
    assert metrics["measures.sample_directions.draws"] > 2 * 206 * 4000
    assert metrics["moments.md_moments.density_evals"] > 0
    assert set(trace.kernel_shares(tracer.spans)) == {"SN", "TA", "DS"}


def test_traced_quadrature_pass_counts_calls(tmp_path):
    inputs = workloads.prepare("quad-beta-shapes", 6)
    tracer = trace.Tracer(tmp_path)
    traced = workloads.run_pass(inputs, 1, tracer)
    assert traced.problems == []
    assert traced.attempted == len(traced.op_s) == (
        workloads.QUAD_PASSES * 4 * len(workloads.QUAD_SHAPES))
    assert len(traced.round_s) == 1
    metrics = trace.layer_metrics(tracer.spans, traced.round_s, traced.round_s, 1)
    assert metrics["moments.md_moments.calls"] == (
        workloads.QUAD_PASSES * len(workloads.QUAD_SHAPES))
    assert metrics["discretize.discretize_angular.cells"] == (
        workloads.QUAD_PASSES * len(workloads.QUAD_SHAPES) * sum(workloads.QUAD_KS))
    assert metrics["harness.cells"] == 0


def test_inputs_follow_the_seed():
    assert workloads.finite_model(7) == workloads.finite_model(7)
    assert workloads.finite_model(7) != workloads.finite_model(8)
    assert mvdickman.spectral_from_json(workloads.finite_model(7)).mass == 1.0
    one, two = (workloads.prepare("sweep-beta25", s).config.base_seed for s in (7, 8))
    assert one != two


def test_tail_percentile_keeps_ten_operations_beyond():
    assert tail_percentile(27) == 62
    assert tail_percentile(768) == 98
    assert workloads.rounds("sweep-beta25", 0.1) == workloads.MIN_ROUNDS
    p50, tail, pct = latency_ms([i / 1000 for i in range(1, 101)])
    assert (p50, tail, pct) == (pytest.approx(50.5), pytest.approx(90.0), 90)


def test_calibration_scales_to_reference_seconds():
    assert calibrate.factor([calibrate.REF_S] * 3) == pytest.approx(1.0)
    # a host running at half speed doubles both the kernel and the work
    assert calibrate.factor([2 * calibrate.REF_S]) == pytest.approx(0.5)
    times = calibrate.kernel_times(3)
    assert len(times) == 3 and all(t > 0 for t in times)


def test_pass_scales_operations_and_rounds_by_their_kernels():
    out = workloads.Pass()
    ref = calibrate.REF_S
    out.add_round(0.35, [0.1, 0.2], [(ref, ref), (2 * ref, 2 * ref)])
    out.op_kind.extend(["a", "b"])
    assert out.op_ref_s == pytest.approx([0.1, 0.1])
    # the round factor is the duration-weighted mean of its operations' factors
    assert out.round_scale == pytest.approx([(0.1 + 0.1) / 0.3])
    assert out.wall_s == pytest.approx(0.35 * 0.2 / 0.3)


def test_kind_p50_is_the_median_of_kind_medians():
    out = workloads.Pass()
    ref = calibrate.REF_S
    kinds = ["a", "b", "c", "d"] * 3
    op_s = [1.0, 2.0, 4.0, 8.0, 1.1, 2.2, 3.0, 9.0, 0.9, 1.8, 5.0, 7.0]
    out.add_round(sum(op_s), op_s, [(ref, ref)] * len(op_s))
    out.op_kind.extend(kinds)
    assert out.kind_p50_s == pytest.approx((2.0 + 4.0) / 2)
