import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import mvdickman as mv
from mvdickman.errors import ConfigurationError, ValidationError
from mvdickman.harness import CSV_COLUMNS, _plan_cells, run_cell

BETA11 = {"variant": "beta", "alpha": 1.0, "beta": 1.0, "mass": 1.0}
BETA25 = {"variant": "beta", "alpha": 2.0, "beta": 5.0}
FINITE3 = {"variant": "finite", "atoms": [{"angle": 0.3, "mass": 0.2},
                                          {"angle": 2.0, "mass": 0.5},
                                          {"angle": 5.1, "mass": 0.3}]}


def small_config(**kw):
    base = dict(model=BETA11, methods=("SN", "TA"), k_grid=(1, 5),
                n_reps=2_000, base_seed=42)
    base.update(kw)
    return mv.ExperimentConfig(**base)


class TestSubstreamSeed:
    def test_deterministic(self):
        assert mv.substream_seed(7, 3, 1) == mv.substream_seed(7, 3, 1)

    def test_replication_index_matters(self):
        assert mv.substream_seed(7, 0, 0) != mv.substream_seed(7, 0, 1)

    def test_cell_index_matters(self):
        assert mv.substream_seed(7, 0, 0) != mv.substream_seed(7, 1, 0)

    def test_distinct_over_2_20_pairs(self):
        seen = {mv.substream_seed(123456789, cell, rep)
                for cell in range(1024) for rep in range(1024)}
        assert len(seen) == 1024 * 1024

    def test_64_bit_range(self):
        s = mv.substream_seed(2 ** 64 - 1, 10 ** 9, 10 ** 9)
        assert 0 <= s < 2 ** 64
        with pytest.raises(ValidationError):
            mv.substream_seed(1, -1, 0)

    @pytest.mark.parametrize("args", [(0, 1.5, 0), (-1, 0, 0), (2 ** 64, 0, 0),
                                      (True, 0, 0), (0, True, 0), (0, 0, True)])
    def test_takes_only_integers_that_cannot_collide(self, args):
        # (0, 1.5, 0) once got the seed of (0, 1, 0), (-1, 0, 0) that of
        # (2^64 - 1, 0, 0), and True that of 1
        with pytest.raises(ValidationError):
            mv.substream_seed(*args)


class TestExperimentConfig:
    def test_k_grid_must_increase(self):
        with pytest.raises(ConfigurationError):
            small_config(k_grid=(5, 5))
        with pytest.raises(ConfigurationError):
            small_config(k_grid=(5, 2))
        with pytest.raises(ConfigurationError):
            small_config(k_grid=())

    def test_n_reps_floor(self):
        with pytest.raises(ConfigurationError):
            small_config(n_reps=1)

    def test_methods_validated(self):
        with pytest.raises(ConfigurationError):
            small_config(methods=("SN", "XX"))

    @pytest.mark.parametrize("model", [
        {"variant": "nope"},
        {"variant": "beta", "alpha": 2.0},
        {"variant": "finite", "atoms": [{"angle": 0.0, "mass": "x"}]},
    ])
    def test_model_parsed_up_front(self, model):
        with pytest.raises(ConfigurationError, match="model"):
            small_config(model=model)

    @pytest.mark.parametrize("gd_tol", [0.0, -1e-12, float("nan"), float("inf"), "1e-12"])
    def test_gd_tol_validated(self, gd_tol):
        with pytest.raises(ConfigurationError, match="gd_tol"):
            small_config(gd_tol=gd_tol)

    @pytest.mark.parametrize("change", [
        {"k_grid": (10 ** 9,)},
        {"k_grid": (1, 10 ** 9), "methods": ("TA",)},
        {"model": {"variant": "finite", "atoms": [{"angle": 0.0, "mass": 1e8}]},
         "methods": ("DS",)},
    ])
    def test_work_budget(self, change):
        with pytest.raises(ConfigurationError, match="budget"):
            mv.ExperimentConfig(**{"model": BETA25, **change})

    def test_work_budget_charges_a_chunk_of_replications(self):
        with pytest.raises(ConfigurationError, match="budget"):
            mv.ExperimentConfig(model=BETA25, methods=("SN",), k_grid=(10 ** 9,),
                                n_reps=2)
        mv.ExperimentConfig(model=BETA25, methods=("SN",), k_grid=(10 ** 6,), n_reps=2)

    def test_paper_sweep_within_budget(self):
        config = mv.ExperimentConfig(model=BETA25)
        assert (config.n_reps, config.k_grid) == (160_000, mv.DEFAULT_K_GRID)

    def test_json_round_trip(self):
        config = small_config()
        back = mv.ExperimentConfig.from_json(config.to_json())
        assert back == config

    def test_unknown_keys_rejected(self):
        # "sigma" is the derived measure, a field but no setting
        for key in ("typo", "sigma"):
            doc = small_config().to_json()
            doc[key] = 1
            with pytest.raises(ConfigurationError, match="unknown config keys"):
                mv.ExperimentConfig.from_json(doc)

    def test_measure_is_derived_not_a_setting(self):
        config = small_config(model=BETA25)
        assert config.sigma.beta_params == (2.0, 5.0)
        assert "sigma" not in config.to_json() and "sigma" not in repr(config)
        assert config == small_config(model=BETA25)  # each holds its own measure
        with pytest.raises(TypeError):
            mv.ExperimentConfig(model=BETA25, sigma=config.sigma)
        changed = dataclasses.replace(config, model=FINITE3)
        assert changed.sigma.variant == "finite" and len(changed.sigma.masses) == 3


class TestPlanning:
    def test_cell_layout(self):
        cells = _plan_cells(small_config(methods=("SN", "TA", "DS"),
                                         k_grid=(1, 5, 10)))
        # beta model: every method sweeps the full grid
        assert len(cells) == 9
        assert [c[0] for c in cells] == list(range(9))

    def test_ds_on_finite_model_collapses_to_baseline(self):
        finite = mv.spectral_to_json(mv.evenly_spaced_spectral(4))
        cells = _plan_cells(small_config(model=finite, methods=("SN", "DS"),
                                         k_grid=(1, 5, 10)))
        ds_cells = [c for c in cells if c[1] == "DS"]
        assert len(ds_cells) == 1
        assert ds_cells[0][2] == 0

    def test_seed_replicates_expand_cells(self):
        cells = _plan_cells(small_config(seed_replicates=3))
        assert len(cells) == 2 * 2 * 3


class TestRunExperiment:
    def test_row_schema_and_order(self):
        rows = mv.run_experiment(small_config())
        assert len(rows) == 4
        assert [tuple(r) == CSV_COLUMNS for r in map(tuple, rows)]
        assert [(r["method"], r["k"]) for r in rows] == [
            ("SN", 1), ("SN", 5), ("TA", 1), ("TA", 5)]
        for r in rows:
            assert r["e_k"] >= 0.0
            assert r["n_reps"] == 2000
            assert r["runtime_ms"] == 0.0  # timing off by default

    def test_truth_columns_match_analytic(self):
        rows = mv.run_experiment(small_config(k_grid=(3,), methods=("SN",)))
        truth = mv.md_moments(mv.SpectralMeasure.beta(1.0, 1.0))
        row = rows[0]
        assert row["m1"] == pytest.approx(truth.m1, abs=1e-12)
        assert row["var1"] == pytest.approx(truth.var1, abs=1e-12)

    def test_rerun_is_byte_identical(self):
        config = small_config()
        a = mv.rows_to_csv(mv.run_experiment(config))
        b = mv.rows_to_csv(mv.run_experiment(config))
        assert a == b

    def test_workers_do_not_change_bytes(self):
        config = small_config(methods=("SN", "TA", "DS"), k_grid=(1, 4))
        serial = mv.rows_to_csv(mv.run_experiment(config, workers=1))
        parallel = mv.rows_to_csv(mv.run_experiment(config, workers=4))
        assert serial == parallel

    def test_chunk_threads_and_workers_do_not_change_bytes(self):
        # over one chunk of rows, so the serial run starts this process's
        # thread pool before the workers are forked
        config = small_config(methods=("SN", "TA", "DS"), k_grid=(1, 3),
                              n_reps=mv.samplers._CHUNK + 808)
        serial = mv.rows_to_csv(mv.run_experiment(config, workers=1))
        parallel = mv.rows_to_csv(mv.run_experiment(config, workers=2))
        assert serial == parallel

    @pytest.mark.parametrize("workers", ["2", 0, -1, 2.0, True])
    def test_workers_must_be_a_positive_integer(self, workers):
        with pytest.raises(ConfigurationError, match="workers must be an integer"):
            mv.run_experiment(small_config(), workers=workers)

    def test_workers_capped_at_the_cell_count(self, monkeypatch):
        # a stand-in pool records max_workers and maps in this process
        seen = []

        class Pool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr("mvdickman.harness.ProcessPoolExecutor", Pool)
        config = small_config(n_reps=64)
        n_cells = len(_plan_cells(config))
        rows = mv.run_experiment(config, workers=64)
        assert seen == [n_cells] and len(rows) == n_cells
        assert mv.run_experiment(config, workers=3) == rows
        assert seen == [n_cells, 3]

    def test_truth_computed_once_per_experiment(self, monkeypatch):
        config = small_config(model=BETA25, methods=("SN", "TA", "DS"), k_grid=(1, 4))
        truth = mv.md_moments(mv.SpectralMeasure.beta(2.0, 5.0))
        per_cell = mv.rows_to_csv([
            run_cell(config, method, k, mv.substream_seed(config.base_seed, index, rep),
                     truth)
            for index, method, k, rep in _plan_cells(config)])
        calls = []
        md_moments = mv.harness.md_moments
        monkeypatch.setattr("mvdickman.harness.md_moments",
                            lambda sigma: calls.append(sigma) or md_moments(sigma))
        assert mv.rows_to_csv(mv.run_experiment(config, workers=1)) == per_cell
        assert len(calls) == 1
        assert mv.rows_to_csv(mv.run_experiment(config, workers=2)) == per_cell

    @pytest.mark.parametrize("model", [BETA25, FINITE3], ids=["beta", "finite"])
    def test_sweep_parses_its_model_once(self, monkeypatch, model):
        # the config parsed the model; the cells share its measure, so a
        # finite model builds one guide table for all of its SN and TA cells
        config = small_config(model=model, methods=("SN", "TA", "DS"), k_grid=(1, 4))
        counts = dict.fromkeys(("parse", "truth", "table"), 0)

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        parse = mv.measures.spectral_from_json
        for name, module in list(sys.modules.items()):
            if name.startswith("mvdickman") and getattr(module, "spectral_from_json",
                                                        None) is parse:
                monkeypatch.setattr(module, "spectral_from_json", counted("parse", parse))
        monkeypatch.setattr("mvdickman.harness.md_moments",
                            counted("truth", mv.harness.md_moments))

        class Table(mv.measures._AtomSampler):
            def __init__(self, *args):
                counts["table"] += 1
                super().__init__(*args)

        monkeypatch.setattr("mvdickman.measures._AtomSampler", Table)
        serial = mv.rows_to_csv(mv.run_experiment(config, workers=1))
        finite = model is FINITE3
        assert counts == {"parse": 0, "truth": 1, "table": int(finite)}
        assert serial.count("\n") == 1 + 2 * 2 + (1 if finite else 2)
        assert mv.rows_to_csv(mv.run_experiment(config, workers=2)) == serial

    def test_timing_populates_runtime(self):
        rows = mv.run_experiment(small_config(k_grid=(2,), methods=("SN",),
                                              timing=True))
        assert rows[0]["runtime_ms"] > 0.0

    def test_ds_on_finite_model_single_baseline_row(self):
        finite = mv.spectral_to_json(mv.evenly_spaced_spectral(4))
        rows = mv.run_experiment(small_config(model=finite, methods=("DS",),
                                              k_grid=(1, 5, 10)))
        assert len(rows) == 1
        assert rows[0]["k"] == 0
        assert rows[0]["model"] == "finite(r=4)"

    def test_writes_csv_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        config = small_config(k_grid=(2,), methods=("SN",), out=str(out))
        mv.run_experiment(config)
        text = out.read_text(encoding="utf-8")
        assert text.startswith(mv.CSV_HEADER + "\n")
        assert "\r" not in text
        assert text.endswith("\n")


class TestCsvFormat:
    def test_exact_header(self):
        assert mv.CSV_HEADER == ("model,method,k,n_reps,seed,e_k,xbar1,xbar2,"
                                 "s1sq,s2sq,s12,m1,m2,var1,var2,cov12,runtime_ms")

    def test_fifteen_significant_digits(self):
        rows = [dict.fromkeys(CSV_COLUMNS, 0)]
        rows[0].update(model="m", method="SN", k=1, n_reps=2, seed=3,
                       e_k=1.0 / 3.0, runtime_ms=0.0)
        line = mv.rows_to_csv(rows).splitlines()[1]
        assert "0.333333333333333" in line

    def test_round_trips_through_float(self):
        rows = mv.run_experiment(small_config(k_grid=(2,), methods=("SN",)))
        line = mv.rows_to_csv(rows).splitlines()[1].split(",")
        e_k = float(line[5])
        assert e_k == pytest.approx(rows[0]["e_k"], rel=1e-14)


class TestEmitPlotData:
    def test_group_by_method(self, tmp_path):
        rows = mv.run_experiment(small_config(methods=("SN", "TA"),
                                              k_grid=(1, 3, 5)))
        paths = mv.emit_plot_data(rows, "method", tmp_path)
        assert sorted(p.name for p in paths) == ["ek_SN.dat", "ek_TA.dat"]
        for p in paths:
            lines = p.read_text().splitlines()
            assert len(lines) == 3
            ks = [int(line.split()[0]) for line in lines]
            assert ks == sorted(ks)

    def test_group_by_r(self, tmp_path):
        rows = []
        for r in (2, 20, 100):
            finite = mv.spectral_to_json(mv.evenly_spaced_spectral(r))
            config = small_config(model=finite, methods=("SN",), k_grid=(1, 5))
            rows.extend(mv.run_experiment(config))
        paths = mv.emit_plot_data(rows, "r", tmp_path)
        assert sorted(p.name for p in paths) == ["ek_r100.dat", "ek_r2.dat",
                                                 "ek_r20.dat"]

    def test_single_row(self, tmp_path):
        rows = mv.run_experiment(small_config(methods=("SN",), k_grid=(4,)))
        paths = mv.emit_plot_data(rows, "method", tmp_path)
        assert len(paths) == 1
        assert len(paths[0].read_text().splitlines()) == 1

    def test_empty_rows_warn_and_noop(self, tmp_path):
        with pytest.warns(UserWarning, match="no rows"):
            assert mv.emit_plot_data([], "method", tmp_path) == []

    def test_mixed_models_rejected_for_method_grouping(self, tmp_path):
        rows = mv.run_experiment(small_config(methods=("SN",), k_grid=(2,)))
        other = dict(rows[0], model="finite(r=9)")
        with pytest.raises(ValidationError):
            mv.emit_plot_data(rows + [other], "method", tmp_path)


class TestCli:
    def _write_model(self, tmp_path, doc=BETA11):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return path

    def test_moments_subcommand(self, tmp_path, capsys):
        from mvdickman.cli import main

        model = self._write_model(tmp_path)
        assert main(["moments", "--model", str(model)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["var1"] == pytest.approx(0.25, abs=1e-10)
        assert set(doc) == {"m1", "m2", "var1", "var2", "cov12"}

    def test_discretize_subcommand(self, tmp_path):
        from mvdickman.cli import main

        model = self._write_model(tmp_path,
                                  {"variant": "beta", "alpha": 2.0,
                                   "beta": 5.0, "mass": 1.0})
        out = tmp_path / "finite.json"
        assert main(["discretize", "--model", str(model), "--k", "8",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["variant"] == "finite"
        assert len(doc["atoms"]) == 8

    def test_sample_subcommand(self, tmp_path):
        from mvdickman.cli import main

        model = self._write_model(tmp_path)
        out = tmp_path / "draws.csv"
        assert main(["sample", "--model", str(model), "--method", "SN",
                     "--k", "10", "-n", "50", "--seed", "3",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,x2"
        assert len(lines) == 51

    @pytest.mark.parametrize("args, message", [
        (["sample", "--model", "{model}", "--method", "SN",
          "--k", "1000000000", "-n", "10"], "budget"),
        (["sample", "--model", "{model}", "--method", "SN", "-n", "-5"],
         "n_reps must be an integer >= 0"),
        (["sample", "--model", "{model}", "--method", "SN", "--seed", "-1"],
         "seed must be an integer in"),
        (["sample", "--model", "{missing}", "--method", "SN"], "No such file"),
        (["moments", "--model", "{truncated}"], "Expecting value"),
        (["experiment", "--config", "{truncated}"], "Expecting value"),
        (["moments", "--model", "{latin1}"], "can't decode"),
    ])
    def test_package_errors_are_one_line(self, tmp_path, capsys, args, message):
        from mvdickman.cli import main

        files = {"model": self._write_model(tmp_path),
                 "missing": tmp_path / "missing.json",
                 "truncated": tmp_path / "truncated.json",
                 "latin1": tmp_path / "latin1.json"}
        files["truncated"].write_text('{"variant": ')
        files["latin1"].write_bytes('{"variant": "b\xeata"}'.encode("latin-1"))
        assert main([a.format(**files) for a in args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("mvdickman: error: ")
        assert message in captured.err and captured.err.count("\n") == 1

    def test_experiment_subcommand_with_override(self, tmp_path, capsys):
        from mvdickman.cli import main

        config = dict(model=BETA11, methods=["SN"], k_grid=[1, 2],
                      n_reps=500, base_seed=1)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "rows.csv"
        assert main(["experiment", "--config", str(cfg_path),
                     "--out", str(out), "--seed", "99"]) == 0
        text = out.read_text()
        assert text.startswith(mv.CSV_HEADER)
        # --seed must override the config seed
        direct = mv.rows_to_csv(mv.run_experiment(
            mv.ExperimentConfig.from_json({**config, "base_seed": 99,
                                           "out": None})))
        assert text == direct

    @pytest.mark.parametrize("timing", [False, True], ids=["plain", "timing"])
    def test_experiment_overrides_parse_the_model_once(self, tmp_path, capsys,
                                                       monkeypatch, timing):
        # --seed, --out and --timing go into the document before the one
        # build of the config, so the model is parsed once, not once per flag
        from mvdickman import harness
        from mvdickman.cli import main

        parses = []
        parse = harness.spectral_from_json
        monkeypatch.setattr(harness, "spectral_from_json",
                            lambda doc: parses.append(doc) or parse(doc))
        config = dict(model=BETA11, methods=["SN"], k_grid=[1, 2],
                      n_reps=500, base_seed=1)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "rows.csv"
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "99"] + ["--timing"] * timing) == 0
        assert len(parses) == 1
        monkeypatch.undo()
        direct = mv.rows_to_csv(mv.run_experiment(
            mv.ExperimentConfig.from_json({**config, "base_seed": 99, "out": None})))
        lines, want = out.read_text().splitlines(), direct.splitlines()
        if timing:  # runtime_ms, the last column, is the only one timing sets
            assert all(float(row.rsplit(",", 1)[1]) > 0.0 for row in lines[1:])
            lines, want = ([row.rsplit(",", 1)[0] for row in rows] for rows in (lines, want))
        assert lines == want

    def test_experiment_stdout_and_plot_data(self, tmp_path, capsys):
        from mvdickman.cli import main

        config = dict(model=BETA11, methods=["SN"], k_grid=[1, 2],
                      n_reps=500, base_seed=1)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        plots = tmp_path / "plots"
        assert main(["experiment", "--config", str(cfg_path),
                     "--plot-data", str(plots)]) == 0
        out = capsys.readouterr().out
        assert mv.CSV_HEADER in out
        assert (plots / "ek_SN.dat").exists()

    def test_moments_json_general_dimension(self):
        from mvdickman.cli import _moments_json
        from mvdickman.moments import MomentSummary

        text = _moments_json(MomentSummary([1.0 / 3.0], [[0.5]]))
        doc = json.loads(text)
        assert doc["mean"] == [pytest.approx(1 / 3, rel=1e-14)]
        assert doc["cov"] == [[0.5]]
        assert "0.333333333333333" in text

    def test_cli_entry_via_python_m(self, tmp_path):
        model = self._write_model(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "mvdickman.cli", "moments",
             "--model", str(model)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["var2"] == pytest.approx(0.25, abs=1e-10)


def test_verify_fast_profile_passes(capsys):
    from mvdickman.verify import run_verification

    assert run_verification(seed=2024, fast=True)
    out = capsys.readouterr().out
    assert out.count("PASS") == 8
    assert "FAIL" not in out


def test_sn_matches_uniform_truth_at_study_scale():
    """beta(1,1), k=200, N=160000: SN empirical moments hit the analytic
    truth (0, 0, 1/4, 1/4, 0) within 4 SE each, and both the SN and exact-DS
    errors sit at the Monte Carlo floor."""
    import math

    sigma = mv.SpectralMeasure.beta(1.0, 1.0)
    truth = mv.md_moments(sigma)
    n = 160_000
    rng = np.random.default_rng(mv.substream_seed(314, 0, 0))
    x = mv.sample_sn_batch(mv.md_from_spectral(sigma), 200, n, rng)
    emp = mv.empirical_moments(x)
    xc = x - emp.mean
    m4 = (xc ** 4).mean(axis=0)
    m22 = (xc[:, 0] ** 2 * xc[:, 1] ** 2).mean()
    checks = [
        (emp.m1 - 0.0, math.sqrt(emp.var1 / n)),
        (emp.m2 - 0.0, math.sqrt(emp.var2 / n)),
        (emp.var1 - 0.25, math.sqrt((m4[0] - emp.var1 ** 2) / n)),
        (emp.var2 - 0.25, math.sqrt((m4[1] - emp.var2 ** 2) / n)),
        (emp.cov12 - 0.0, math.sqrt((m22 - emp.cov12 ** 2) / n)),
    ]
    for diff, se in checks:
        assert abs(diff) <= 4 * se, checks
    floor = mv.estimate_mc_floor(x)
    e_sn = mv.error_metric(emp, truth).e_k
    sig_k = mv.discretize_angular(sigma, mv.default_grid(200))
    x_ds = mv.sample_ds_batch(sig_k, 1e-12, n,
                              np.random.default_rng(mv.substream_seed(314, 1, 0)))
    e_ds = mv.error_metric(mv.empirical_moments(x_ds), truth).e_k
    assert e_sn <= 3 * floor
    assert e_ds <= 3 * floor  # uniform case: SN and DS comparably good


def test_ta_error_exceeds_sn_error_at_small_k():
    """For k <= 50 the TA bias dominates: E_k(TA) > E_k(SN) at the same k in
    at least 4 of 5 seeds. The uniform model needs the full study size to
    separate TA's bias from the noise floor near k = 50; the asymmetric
    model separates already at a quarter of it."""
    cases = (((1.0, 1.0), 160_000), ((2.0, 5.0), 40_000))
    for (a, b), n in cases:
        sigma = mv.SpectralMeasure.beta(a, b)
        truth = mv.md_moments(sigma)
        params = mv.md_from_spectral(sigma)
        for k in (5, 50):
            wins = 0
            for s in range(5):
                r1 = np.random.default_rng(mv.substream_seed(271, 10 * s, k))
                r2 = np.random.default_rng(mv.substream_seed(271, 10 * s + 1, k))
                x_sn = mv.sample_sn_batch(params, k, n, r1)
                x_ta = mv.sample_ta_batch(1.0, sigma.sample_directions, 1.0,
                                          k, n, r2)
                e_sn = mv.error_metric(mv.empirical_moments(x_sn), truth).e_k
                e_ta = mv.error_metric(mv.empirical_moments(x_ta), truth).e_k
                wins += e_ta > e_sn
            assert wins >= 4, (a, b, k, wins)
