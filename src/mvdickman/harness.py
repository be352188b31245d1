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
import numbers
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigurationError, ValidationError
from .measures import _is_int, model_label, spectral_from_json
from .moments import MomentSummary, md_moments
from .samplers import check_cell_work, generate_batch, series_terms
from .stats import empirical_moments, error_metric

METHODS = ("SN", "TA", "DS")

#: log-ish thinning of a 1..200 sweep; keeps a full sweep at desk scale
DEFAULT_K_GRID = (1, 2, 5, 10, 20, 50, 100, 150, 200)

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
        if not isinstance(self.methods, (list, tuple)):
            raise ConfigurationError(f"methods must be a list, got {self.methods!r}")
        methods = tuple(self.methods)
        if not methods or any(m not in METHODS for m in methods):
            raise ConfigurationError(f"methods must be a nonempty subset of {METHODS}")
        if not (isinstance(self.k_grid, (list, tuple)) and self.k_grid
                and all(_is_int(k) and k >= 1 for k in self.k_grid)):
            raise ConfigurationError("k_grid must be a nonempty list of positive integers")
        k_grid = tuple(int(k) for k in self.k_grid)
        if any(b <= a for a, b in zip(k_grid, k_grid[1:])):
            raise ConfigurationError("k_grid must be strictly increasing")
        for name, low in (("n_reps", 2), ("seed_replicates", 1), ("base_seed", 0)):
            value = getattr(self, name)
            if not (_is_int(value) and value >= low):
                raise ConfigurationError(f"{name} must be an integer >= {low}, got {value!r}")
        if not self.base_seed < 2 ** 64:
            raise ConfigurationError("base_seed must fit in 64 bits")
        if not (isinstance(self.gd_tol, numbers.Real) and not isinstance(self.gd_tol, bool)
                and 0 < self.gd_tol < math.inf):
            raise ConfigurationError("gd_tol must be finite and > 0")
        if not (self.out is None or isinstance(self.out, str)):
            raise ConfigurationError(f"out must be a path string or null, got {self.out!r}")
        if not isinstance(self.timing, bool):
            raise ConfigurationError(f"timing must be true or false, got {self.timing!r}")
        try:  # the largest cell of each method
            check_cell_work(max(series_terms(m, sigma, k_grid[-1], self.gd_tol)
                                for m in methods), self.n_reps)
        except ValidationError as exc:
            raise ConfigurationError(str(exc)) from exc
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "k_grid", k_grid)

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigurationError(f"a config document is a JSON object, got {doc!r}")
        extra = set(doc) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigurationError(f"unknown config keys: {sorted(map(repr, extra))}")
        if "model" not in doc:
            raise ConfigurationError("config needs a spectral-measure 'model' document")
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
             gd_tol: float, timing: bool = False,
             truth: MomentSummary | None = None) -> dict:
    """Simulate one grid cell and reduce it to a CSV row dict.

    ``truth`` is the model's ``md_moments``; it is computed here when not
    given.
    """
    sigma = spectral_from_json(model_doc)
    if truth is None:
        truth = md_moments(sigma)
    t0 = time.perf_counter()
    batch = generate_batch(method, sigma, k, n_reps, seed, gd_tol)
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

    Returns the CSV rows in deterministic cell order. The analytic truth is
    computed once and handed to every cell. Cells are independent;
    ``workers > 1`` fans them out over at most one process per cell without
    changing any output byte (each cell owns the substream seeded by its
    index).
    """
    if not (_is_int(workers) and workers >= 1):
        raise ConfigurationError(f"workers must be an integer >= 1, got {workers!r}")
    cells = _plan_cells(config)
    truth = md_moments(spectral_from_json(config.model))
    todo = [(config.model, method, k, config.n_reps,
             substream_seed(config.base_seed, index, rep),
             config.gd_tol, config.timing, truth)
            for index, method, k, rep in cells]
    workers = min(workers, len(todo))
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
