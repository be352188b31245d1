"""Experiment harness: declarative configs, deterministic RNG substreams,
(method, k) sweeps with CSV output, and plot-data emission.

A run draws N replications per grid cell, estimates the five bivariate
moments, and records the root-sum-of-squares deviation E_k from the analytic
truth. Cells own independent, reproducible RNG substreams, and so do the
fixed-size row chunks that ``generate_batch`` splits a cell into, so reruns
are byte-identical for any worker count and any number of chunk threads.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigurationError, UnsupportedMeasureError, ValidationError
from .measures import FINITE, model_label, spectral_from_json
from .moments import md_moments
from .samplers import _CHUNK, generate_batch, gd_truncation_terms, ta_term_count
from .stats import empirical_moments, error_metric

METHODS = ("SN", "TA", "DS")

#: log-ish thinning of a 1..200 sweep; keeps a full sweep at desk scale
DEFAULT_K_GRID = (1, 2, 5, 10, 20, 50, 100, 150, 200)

#: most replication-terms (series terms x max(n_reps, 8192)) one cell may
#: need: under half an hour at the 30-170 ns a replication-term takes on a
#: 2-core x86 VM
MAX_CELL_WORK = 10 ** 10

CSV_COLUMNS = ("model", "method", "k", "n_reps", "seed", "e_k",
               "xbar1", "xbar2", "s1sq", "s2sq", "s12",
               "m1", "m2", "var1", "var2", "cov12", "runtime_ms")
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of a simulation-study run."""

    model: dict
    methods: tuple = METHODS
    k_grid: tuple = DEFAULT_K_GRID
    n_reps: int = 160_000
    base_seed: int = 0
    gd_tol: float = 1e-12
    out: str | None = None
    seed_replicates: int = 1
    timing: bool = False

    def __post_init__(self):
        if not isinstance(self.model, dict):
            raise ConfigurationError("config needs a spectral-measure 'model' document")
        try:
            sigma = spectral_from_json(self.model)
        except ValidationError as exc:
            raise ConfigurationError(f"invalid model document: {exc}") from exc
        methods = tuple(self.methods)
        if not methods or any(m not in METHODS for m in methods):
            raise ConfigurationError(f"methods must be a nonempty subset of {METHODS}")
        k_grid = tuple(int(k) for k in self.k_grid)
        if not k_grid or any(k < 1 for k in k_grid):
            raise ConfigurationError("k_grid must be a nonempty list of positive integers")
        if any(b <= a for a, b in zip(k_grid, k_grid[1:])):
            raise ConfigurationError("k_grid must be strictly increasing")
        if self.n_reps < 2:
            raise ConfigurationError("n_reps must be >= 2")
        if self.seed_replicates < 1:
            raise ConfigurationError("seed_replicates must be >= 1")
        if not 0 <= int(self.base_seed) < 2 ** 64:
            raise ConfigurationError("base_seed must fit in 64 bits")
        if not (isinstance(self.gd_tol, (int, float)) and 0 < self.gd_tol < math.inf):
            raise ConfigurationError("gd_tol must be finite and > 0")
        # series terms per replication in the largest cell of each method; for DS
        # on an angular model an upper bound, as k atoms have mass <= theta each
        # and the GD term count grows with the mass
        k = k_grid[-1]
        ds = (sum(gd_truncation_terms(a, self.gd_tol) for a in sigma.masses)
              if sigma.variant == FINITE else k * gd_truncation_terms(sigma.mass, self.gd_tol))
        cell_terms = {"SN": k, "TA": ta_term_count(1.0, sigma.mass, k), "DS": ds}
        # a term costs a chunk's worth of interpreter time however few
        # replications it runs, so it is charged at least _CHUNK of them
        terms = max(cell_terms[m] for m in methods)
        reps = max(self.n_reps, _CHUNK)
        if terms * reps > MAX_CELL_WORK:
            raise ConfigurationError(
                f"the largest cell needs {terms} terms x {reps} replications "
                f"(at least {_CHUNK} are charged), over the budget of {MAX_CELL_WORK:.0e}")
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "k_grid", k_grid)

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(doc) - known
        if extra:
            raise ConfigurationError(f"unknown config keys: {sorted(extra)}")
        return cls(**doc)

    def to_json(self) -> dict:
        return {
            "model": self.model, "methods": list(self.methods),
            "k_grid": list(self.k_grid), "n_reps": self.n_reps,
            "base_seed": int(self.base_seed), "gd_tol": self.gd_tol,
            "out": self.out, "seed_replicates": self.seed_replicates,
            "timing": self.timing,
        }


# --------------------------------------------------------------------------
# substream seeding
# --------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """splitmix64 finalizer (Steele, Lea & Flood's published 64-bit mixer)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream_seed(base_seed: int, cell_index: int, replication_index: int) -> int:
    """Stable 64-bit substream seed for a (cell, replication) pair.

    Chains the splitmix64 finalizer over the three inputs; bit-exact across
    platforms and independent of worker scheduling. Distinct pairs map to
    distinct seeds up to the mixer's 2^-64 collision probability.
    """
    if cell_index < 0 or replication_index < 0:
        raise ValidationError("indices must be >= 0")
    s = _mix64(int(base_seed) & _MASK64)
    s = _mix64((s + int(cell_index)) & _MASK64)
    s = _mix64((s + int(replication_index)) & _MASK64)
    return s


# --------------------------------------------------------------------------
# cells
# --------------------------------------------------------------------------

def _plan_cells(config: ExperimentConfig):
    """Deterministic cell enumeration: methods x k_grid x seed replicates.

    DS against a finite-support model is exact, so its k sweep collapses to
    a single baseline cell recorded with k = 0.
    """
    finite_model = config.model.get("variant") == "finite"
    cells = []
    index = 0
    for method in config.methods:
        ks = (0,) if (method == "DS" and finite_model) else config.k_grid
        for k in ks:
            for rep in range(config.seed_replicates):
                cells.append((index, method, k, rep))
                index += 1
    return cells


def run_cell(model_doc: dict, method: str, k: int, n_reps: int, seed: int,
             gd_tol: float, timing: bool = False) -> dict:
    """Simulate one grid cell and reduce it to a CSV row dict."""
    sigma = spectral_from_json(model_doc)
    truth = md_moments(sigma)
    t0 = time.perf_counter()
    try:
        batch = generate_batch(method, sigma, k, n_reps, seed, gd_tol)
    except UnsupportedMeasureError as exc:
        raise ConfigurationError(
            f"{exc}; run `discretize` on the model and configure the finite "
            f"result instead") from exc
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    emp = empirical_moments(batch)
    report = error_metric(emp, truth)
    return {
        "model": model_label(model_doc), "method": method, "k": batch.k,
        "n_reps": n_reps, "seed": seed, "e_k": report.e_k,
        "xbar1": emp.m1, "xbar2": emp.m2,
        "s1sq": emp.var1, "s2sq": emp.var2, "s12": emp.cov12,
        "m1": truth.m1, "m2": truth.m2,
        "var1": truth.var1, "var2": truth.var2, "cov12": truth.cov12,
        "runtime_ms": elapsed_ms if timing else 0.0,
    }


def _run_cell_args(args):
    return run_cell(*args)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[dict]:
    """Run every (method, k, seed-replicate) cell of the config.

    Returns the CSV rows in deterministic cell order. Cells are independent;
    ``workers > 1`` fans them out over processes without changing any output
    byte (each cell owns the substream seeded by its index).
    """
    cells = _plan_cells(config)
    todo = [(config.model, method, k, config.n_reps,
             substream_seed(config.base_seed, index, rep),
             config.gd_tol, config.timing)
            for index, method, k, rep in cells]
    if workers <= 1:
        rows = [run_cell(*args) for args in todo]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell_args, todo, chunksize=1))
    if config.out:
        write_csv(rows, config.out)
    return rows


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    """Render rows as CSV text (exact header, LF endings, 15 sig. digits)."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(rows: list[dict], path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))
    return path


def emit_plot_data(rows: list[dict], group_by: str, out_dir,
                   prefix: str = "ek") -> list[Path]:
    """Write one whitespace-delimited (k, E_k) file per group.

    ``group_by='method'`` splits rows of a single model by method;
    ``group_by='r'`` splits by the finite model's direction count, matching
    sweeps that compare r = 2, 20, 100. Rows are ordered by k within a file.
    Empty input is a warned no-op.
    """
    if group_by not in ("method", "r"):
        raise ValidationError("group_by must be 'method' or 'r'")
    if not rows:
        warnings.warn("emit_plot_data called with no rows; nothing written",
                      stacklevel=2)
        return []
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if group_by == "method":
        models = {row["model"] for row in rows}
        if len(models) > 1:
            raise ValidationError(
                f"method grouping expects rows from one model, got {sorted(models)}")
        key_of = lambda row: row["method"]
    else:
        def key_of(row):
            label = row["model"]
            if not label.startswith("finite(r="):
                raise ValidationError(f"cannot group row with model {label!r} by r")
            return f"r{label[len('finite(r='):-1]}"
    paths = []
    groups = {}
    for row in rows:
        groups.setdefault(key_of(row), []).append(row)
    for key in sorted(groups):
        path = out_dir / f"{prefix}_{key}.dat"
        ordered = sorted(groups[key], key=lambda r: (r["k"], r["seed"]))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for row in ordered:
                fh.write(f"{row['k']} {_fmt(row['e_k'])}\n")
        paths.append(path)
    return paths


def experiment_from_file(path, seed_override: int | None = None,
                         out_override: str | None = None) -> ExperimentConfig:
    """Load an ExperimentConfig from a JSON file, applying CLI overrides."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    config = ExperimentConfig.from_json(doc)
    if seed_override is not None:
        config = replace(config, base_seed=seed_override)
    if out_override is not None:
        config = replace(config, out=out_override)
    return config
