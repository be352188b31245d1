"""Command-line interface.

Subcommands: ``sample`` (draw from a model), ``moments`` (analytic moments of
a model), ``discretize`` (angular model -> finite support), ``experiment``
(run a config sweep to CSV), ``verify`` (run the property suites).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .discretize import default_grid, discretize_angular
from .errors import (ConfigurationError, QuadratureError, UnsupportedMeasureError,
                     ValidationError)
from .harness import (_fmt, emit_plot_data, experiment_from_file,
                      rows_to_csv, run_experiment)
from .measures import SpectralMeasure, spectral_from_json, spectral_to_json
from .moments import md_moments
from .samplers import generate_batch
from .verify import run_verification


def _load_model(path) -> SpectralMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        return spectral_from_json(json.load(fh))


def _emit(text: str, out) -> None:
    """Write ``text`` to the file ``out``, or to standard output if it is None."""
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _moments_json(summary) -> str:
    if summary.dim == 2:
        body = ",".join(f'"{k}":{_fmt(v)}' for k, v in (
            ("m1", summary.m1), ("m2", summary.m2), ("var1", summary.var1),
            ("var2", summary.var2), ("cov12", summary.cov12)))
        return "{" + body + "}"
    mean = "[" + ",".join(_fmt(v) for v in summary.mean) + "]"
    cov = "[" + ",".join(
        "[" + ",".join(_fmt(v) for v in row) + "]" for row in summary.cov) + "]"
    return '{"mean":' + mean + ',"cov":' + cov + "}"


def _cmd_moments(args) -> int:
    _emit(_moments_json(md_moments(_load_model(args.model))) + "\n", args.out)
    return 0


def _cmd_discretize(args) -> int:
    sigma_k = discretize_angular(_load_model(args.model),
                                 default_grid(args.k, args.representatives))
    _emit(json.dumps(spectral_to_json(sigma_k), indent=2) + "\n", args.out)
    return 0


def _cmd_sample(args) -> int:
    batch = generate_batch(args.method, _load_model(args.model), args.k, args.n,
                           args.seed, args.gd_tol)
    lines = [",".join(f"x{j + 1}" for j in range(batch.dim))]
    lines += (",".join(_fmt(v) for v in row) for row in batch.data)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_experiment(args) -> int:
    config = experiment_from_file(args.config, base_seed=args.seed, out=args.out,
                                  timing=args.timing or None)
    rows = run_experiment(config, workers=args.workers)
    if config.out is None:
        sys.stdout.write(rows_to_csv(rows))
    else:
        print(f"wrote {len(rows)} rows to {config.out}")
    if args.plot_data:
        paths = emit_plot_data(rows, args.group_by, args.plot_data)
        for p in paths:
            print(f"wrote {p}")
    return 0


def _cmd_verify(args) -> int:
    ok = run_verification(seed=args.seed, fast=not args.full)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvdickman",
        description="Simulation toolkit for multivariate Dickman distributions "
                    "and Vervaat perpetuities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="analytic moments of a spectral model")
    p.add_argument("--model", required=True, help="spectral-measure JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_moments)

    p = sub.add_parser("discretize", help="replace an angular model by atoms")
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, required=True, help="number of grid cells")
    p.add_argument("--representatives", choices=("left", "midpoint"),
                   default="left")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_discretize)

    p = sub.add_parser("sample", help="draw N replications from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=("SN", "TA", "DS"), required=True)
    p.add_argument("--k", type=int, default=200, help="tuning parameter")
    p.add_argument("-n", type=int, default=1000, help="number of draws")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gd-tol", type=float, default=1e-12, dest="gd_tol")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("experiment", help="run a config sweep, write CSV")
    p.add_argument("--config", required=True, help="experiment JSON file")
    p.add_argument("--out", default=None, help="CSV path (overrides config)")
    p.add_argument("--seed", type=int, default=None,
                   help="base seed (overrides config)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock runtime_ms (makes reruns differ)")
    p.add_argument("--plot-data", default=None, dest="plot_data",
                   help="directory for per-group (k, E_k) files")
    p.add_argument("--group-by", choices=("method", "r"), default="method",
                   dest="group_by")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--full", action="store_true",
                   help="full replication counts instead of the fast profile")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. A package error, or a model or config file that
    cannot be read or parsed, is printed as one line, ``mvdickman: error:
    ...``, with exit status 2, as argparse reports bad arguments."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, QuadratureError, UnsupportedMeasureError,
            ValidationError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
