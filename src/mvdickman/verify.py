"""Self-contained property checks runnable from the CLI.

Each check prints one PASS/FAIL line; the runner returns False if any check
fails. The ``fast`` profile trims replication counts so the whole suite runs
in seconds; the full profile mirrors the tolerances of the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from .discretize import default_grid, discretize_angular
from .harness import ExperimentConfig, rows_to_csv, run_experiment, substream_seed
from .measures import SpectralMeasure, evenly_spaced_spectral, md_from_spectral
from .moments import lstar_moments, malpha_tail_mass, md_moments
from .samplers import sample_ds_batch, sample_gd_batch, sample_sn_batch
from .stats import empirical_moments, fixed_point_test


def _check_gd_moments(seed, n):
    rng = np.random.default_rng(seed)
    x = sample_gd_batch(1.0, 1e-12, n, rng)
    se_mean = math.sqrt(0.5 / n)
    se_var = math.sqrt(0.75 / n)  # var of s^2 from mu4 - sigma^4 = 1 - 1/4
    ok = abs(x.mean() - 1.0) < 5 * se_mean and abs(x.var(ddof=1) - 0.5) < 5 * se_var
    return ok, f"mean={x.mean():.4f} var={x.var(ddof=1):.4f} (n={n})"


def _check_moment_consistency(seed, _n):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        r = int(rng.integers(1, 12))
        sigma = SpectralMeasure.from_angles(rng.random(r) * 2 * np.pi,
                                            rng.random(r) + 0.05)
        a = lstar_moments(md_from_spectral(sigma))
        b = md_moments(sigma)
        worst = max(worst, float(np.max(np.abs(a.mean - b.mean))),
                    float(np.max(np.abs(a.cov - b.cov))))
    return worst <= 1e-12, f"max |L* - MD| moment gap = {worst:.2e}"


def _check_fixed_point(seed, n):
    sigma = SpectralMeasure.from_angles([0.0], [1.0])
    good = fixed_point_test(sigma, n, seed)
    bad = fixed_point_test(sigma, n, seed + 1, map_theta=sigma.mass + 1.0)
    ok = good.passed and not bad.passed
    return ok, (f"correct theta max_z={good.max_z:.2f}, "
                f"perturbed theta max_z={bad.max_z:.1f}")


def _check_sn_ds_agreement(seed, n):
    sigma = evenly_spaced_spectral(50)
    params = md_from_spectral(sigma)
    x_sn = sample_sn_batch(params, 200, n, np.random.default_rng(seed))
    x_ds = sample_ds_batch(sigma, 1e-12, n, np.random.default_rng(seed + 1))
    m_sn, m_ds = empirical_moments(x_sn), empirical_moments(x_ds)
    z = np.max(np.abs(m_sn.mean - m_ds.mean)) / math.sqrt(2 * 0.5 / n)
    return z < 5.0, f"max mean z-score = {z:.2f}"


def _check_discretization(seed, _n):
    sigma = SpectralMeasure.beta(2.0, 2.0)
    errs = []
    for k in (5, 20, 100):
        sig_k = discretize_angular(sigma, default_grid(k))
        if abs(sig_k.mass - sigma.mass) > 1e-9:
            return False, f"mass leak at k={k}"
        a, b = md_moments(sig_k), md_moments(sigma)
        errs.append(max(np.max(np.abs(a.mean - b.mean)), np.max(np.abs(a.cov - b.cov))))
    ok = errs[0] > errs[1] > errs[2]
    return ok, "moment error over k=(5,20,100): " + ", ".join(f"{e:.2e}" for e in errs)


def _check_tail_mass(seed, _n):
    from scipy import integrate  # the one use in the package: an independent reference

    sigma = SpectralMeasure.from_angles([0.0], [1.0])
    params = md_from_spectral(sigma)
    worst = 0.0
    for eps in (1e-1, 1e-3, 1e-6):
        quad, _ = integrate.quad(lambda r: 1.0 / r, eps, 1.0,
                                 epsabs=1e-12, epsrel=1e-13, limit=300)
        worst = max(worst, abs(malpha_tail_mass(params, eps) - quad))
    return worst <= 1e-8, f"max |closed form - quadrature| = {worst:.2e}"


def _check_determinism(seed, _n):
    config = ExperimentConfig(model={"variant": "beta", "alpha": 1.0, "beta": 1.0,
                                     "mass": 1.0},
                              methods=("SN", "TA"), k_grid=(1, 5),
                              n_reps=2000, base_seed=seed)
    first = rows_to_csv(run_experiment(config))
    second = rows_to_csv(run_experiment(config))
    distinct = len({substream_seed(seed, i, 0) for i in range(4096)})
    ok = first == second and distinct == 4096
    return ok, f"rerun identical={first == second}, 4096 substreams distinct={distinct == 4096}"


def _check_beta_moments(seed, _n):
    uniform = md_moments(SpectralMeasure.beta(1.0, 1.0, 1.0))
    gaps = [abs(uniform.m1), abs(uniform.m2), abs(uniform.var1 - 0.25),
            abs(uniform.var2 - 0.25), abs(uniform.cov12)]
    return max(gaps) <= 1e-10, f"uniform-case max deviation = {max(gaps):.2e}"


CHECKS = (
    ("gd-moments", _check_gd_moments),
    ("lstar-md-consistency", _check_moment_consistency),
    ("beta-moments-uniform", _check_beta_moments),
    ("fixed-point-law", _check_fixed_point),
    ("sn-ds-agreement", _check_sn_ds_agreement),
    ("discretization", _check_discretization),
    ("malpha-tail-mass", _check_tail_mass),
    ("determinism", _check_determinism),
)


def run_verification(seed: int = 20_24, fast: bool = True, stream=None) -> bool:
    """Run every property check, printing one line per check."""
    import sys

    stream = stream or sys.stdout
    n = 50_000 if fast else 1_000_000
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn(seed, n)
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:24s} {detail}", file=stream)
    return all_ok
