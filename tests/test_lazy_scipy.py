"""SciPy is loaded only by the code that runs a special function, and no
warning of the package's quadratures escapes it. The package's quadrature is
its own Gauss rules, so no path of it loads ``scipy.integrate``."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mvdickman as mv

SRC = Path(__file__).resolve().parents[1] / "src"

FINITE_SWEEP = """
mv.run_experiment(mv.ExperimentConfig.from_json({
    "model": {"variant": "finite", "dim": 2,
              "atoms": [{"angle": 0.1, "mass": 0.5}, {"angle": 2.0, "mass": 0.7}]},
    "methods": ["SN", "TA", "DS"], "k_grid": [1, 2], "n_reps": 64,
    "base_seed": 1}))
"""


def _scipy_modules_after(code: str) -> set:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    script = "\n".join([
        "import json, sys", "import mvdickman as mv", "import mvdickman.cli", code,
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return set(json.loads(out.splitlines()[-1]))


class TestImportPolicy:
    def test_importing_the_package_and_cli_loads_no_scipy(self):
        assert _scipy_modules_after("mvdickman.cli.build_parser()") == set()

    def test_finite_model_sweep_loads_no_scipy(self):
        assert _scipy_modules_after(FINITE_SWEEP) == set()

    def test_beta_cell_masses_load_special_but_not_integrate(self):
        loaded = _scipy_modules_after(
            "mv.discretize_angular(mv.SpectralMeasure.beta(2, 5), mv.default_grid(5))")
        assert "scipy.special" in loaded
        assert "scipy.integrate" not in loaded

    def test_beta_truths_load_no_integrate(self):
        # Gauss-Legendre on (2, 5), Gauss-Jacobi on (0.05, 0.05): no QUADPACK
        loaded = _scipy_modules_after(
            "mv.md_moments(mv.SpectralMeasure.beta(2, 5))\n"
            "mv.md_moments(mv.SpectralMeasure.beta(0.05, 0.05))")
        assert "scipy.special" in loaded
        assert "scipy.integrate" not in loaded

    def test_generic_density_loads_no_scipy(self):
        # SpectralMeasure.angular's mass, md_moments and the cell masses of
        # discretize_angular all take the Gauss-Legendre engine
        assert _scipy_modules_after(
            "import numpy as np\n"
            "sigma = mv.SpectralMeasure.angular(\n"
            "    lambda x: (1 + np.cos(x)) / (2 * np.pi), mass=1.0)\n"
            "mv.md_moments(sigma)\n"
            "mv.discretize_angular(sigma, mv.default_grid(7))") == set()


def _beta_density(a, b):
    return mv.SpectralMeasure.beta(a, b, 1.0).density


@pytest.mark.parametrize("run", [
    lambda: mv.md_moments(mv.SpectralMeasure.beta(2.0, 5.0)),
    lambda: mv.md_moments(mv.SpectralMeasure.beta(0.05, 0.05)),
    lambda: mv.md_moments(mv.SpectralMeasure.beta(0.5, 0.5)),
    lambda: mv.md_moments(mv.SpectralMeasure.beta(0.3, 0.7)),
    lambda: mv.SpectralMeasure.angular(_beta_density(0.2, 0.3), mass=1.0),
    # the engine extrapolating a density that is infinite at 0 and 2*pi
    lambda: mv.md_moments(mv.SpectralMeasure.angular(_beta_density(0.5, 0.5), mass=1.0)),
    lambda: mv.discretize_angular(
        mv.SpectralMeasure.angular(_beta_density(0.2, 0.3), mass=1.0),
        mv.default_grid(1)),
], ids=["md-beta-2-5", "md-beta-0.05-0.05", "md-beta-0.5-0.5", "md-beta-0.3-0.7",
        "angular-0.2-0.3", "md-generic-0.5-0.5", "cells-0.2-0.3-k1"])
def test_no_integration_warning_escapes(run):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run()
