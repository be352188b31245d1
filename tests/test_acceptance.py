"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured values (run with ``pytest -s`` or ``-v`` to see them).

Stochastic criteria run at pinned tolerances on a fixed, documented seed set
derived from ACCEPT_BASE via the package's substream scheme, so the whole
suite is deterministic.
"""

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from oracles import (INSIDE, OUTSIDE, radial_moment_quadrature,
                     tail_mass_quadrature)

import mvdickman as mv
from mvdickman.stats import _moment_se_pieces

ACCEPT_BASE = 20250808

BETA_MODELS = ((2.0, 2.0), (2.0, 5.0), (5.0, 1.0))
N_STUDY = 160_000


def _seed(cell, rep=0):
    return mv.substream_seed(ACCEPT_BASE, cell, rep)


def _ok(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  ({detail})")


def _drawers(sigma, methods, k_grid):
    """The ``generate_batch`` cell drawer of each (method, k) on sigma, built
    before any cell runs: its discretization and parameters are shared."""
    return {(m, k): mv.samplers._cell_draw(m, sigma, k, 1e-12)
            for m in methods for k in k_grid}


def _ek(draw, truth, seed):
    """E_k of one cell at study scale, drawn by ``draw`` from the Generator of
    ``seed``, and its rows."""
    data = draw(N_STUDY, np.random.default_rng(seed))
    return mv.error_metric(mv.empirical_moments(data), truth).e_k, data


def _pooled(cell, cells):
    """``cell(*c)`` for each c in ``cells``, in order, on a thread per usable
    CPU. The cells are independent, so the results equal a serial loop's."""
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        return list(pool.map(lambda c: cell(*c), cells))


def test_c01_gd_moments_and_runtime():
    """1: GD(1) sample mean in 1 +/- 0.0029 and variance in 0.5 +/- 0.005
    (4 SE at N=1e6); runtime under 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(_seed(10))
    x = mv.sample_gd_batch(1.0, 1e-12, 1_000_000, rng)
    mean, var = x.mean(), x.var(ddof=1)
    elapsed = time.perf_counter() - t0
    assert abs(mean - 1.0) <= 0.0029
    assert abs(var - 0.5) <= 0.005
    assert elapsed < 30.0
    _ok(1, f"mean={mean:.5f}, var={var:.5f}, runtime={elapsed:.2f}s")


def test_c02_md_lstar_consistency():
    """2: md_moments and lstar_moments agree to 1e-12 on 20 randomized
    finite-support measures."""
    rng = np.random.default_rng(_seed(20))
    worst = 0.0
    for trial in range(20):
        d = int(rng.choice([1, 2, 2, 2, 3, 5]))
        r = int(rng.integers(1, 25))
        if d == 2:
            sigma = mv.SpectralMeasure.from_angles(rng.random(r) * 2 * np.pi,
                                                   rng.random(r) + 0.01)
        else:
            z = rng.standard_normal((r, d))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            sigma = mv.SpectralMeasure.finite(z, rng.random(r) + 0.01)
        a = mv.lstar_moments(mv.md_from_spectral(sigma))
        b = mv.md_moments(sigma)
        gap = max(np.max(np.abs(a.mean - b.mean)), np.max(np.abs(a.cov - b.cov)))
        worst = max(worst, float(gap))
    assert worst <= 1e-12
    _ok(2, f"20 measures, worst componentwise gap = {worst:.2e}")


def test_c03_fixed_point_law():
    """3: fixed-point test passes at 4 sigma for the point mass and the r=2
    model at N=1e6, fails with theta perturbed to theta+1; < 1 min/case."""
    cases = [("delta_(1,0)", mv.SpectralMeasure.finite([[1.0, 0.0]], [1.0])),
             ("r=2 symmetric", mv.evenly_spaced_spectral(2))]
    details = []
    for i, (name, sigma) in enumerate(cases):
        t0 = time.perf_counter()
        good = mv.fixed_point_test(sigma, 1_000_000, seed=_seed(30 + i))
        elapsed = time.perf_counter() - t0
        assert good.passed, (name, good)
        assert elapsed < 60.0
        bad = mv.fixed_point_test(sigma, 1_000_000, seed=_seed(35 + i),
                                  map_theta=sigma.mass + 1.0)
        assert not bad.passed, (name, bad)
        details.append(f"{name}: ok z={good.max_z:.2f} in {elapsed:.1f}s, "
                       f"perturbed z={bad.max_z:.0f}")
    _ok(3, "; ".join(details))


def test_c04_sn_ds_cross_method_agreement():
    """4: r=50 model at N=160000: SN(k=300) and DS moments agree within 4
    combined SEs, and E_k(SN) is within 2x the exact-DS baseline E_k."""
    sigma = mv.evenly_spaced_spectral(50)
    truth = mv.md_moments(sigma)
    x_sn = mv.sample_sn_batch(mv.md_from_spectral(sigma), 300, N_STUDY,
                              np.random.default_rng(_seed(40)))
    x_ds = mv.sample_ds_batch(sigma, 1e-12, N_STUDY,
                              np.random.default_rng(_seed(41)))
    m_sn, m_ds = mv.empirical_moments(x_sn), mv.empirical_moments(x_ds)
    p_sn, p_ds = _moment_se_pieces(x_sn), _moment_se_pieces(x_ds)
    diffs = {
        "mean1": m_sn.m1 - m_ds.m1, "mean2": m_sn.m2 - m_ds.m2,
        "var1": m_sn.var1 - m_ds.var1, "var2": m_sn.var2 - m_ds.var2,
        "cov12": m_sn.cov12 - m_ds.cov12,
    }
    max_z = 0.0
    for key, delta in diffs.items():
        se = math.sqrt(p_sn[key] + p_ds[key])
        max_z = max(max_z, abs(delta) / se)
    assert max_z <= 4.0
    e_sn = mv.error_metric(m_sn, truth).e_k
    e_ds = mv.error_metric(m_ds, truth).e_k
    assert e_sn <= 2.0 * e_ds
    _ok(4, f"max moment z={max_z:.2f}; E(SN,300)={e_sn:.4f} vs "
           f"DS baseline {e_ds:.4f}")


def test_c05_method_ordering_at_k200():
    """5: E(SN) <= E(TA) <= E(DS) at k=200, N=160000 in at least 4 of 5
    seeds, for each of beta(2,2), beta(2,5), beta(5,1)."""
    methods = ("SN", "TA", "DS")
    cells = []
    for m_idx, (a, b) in enumerate(BETA_MODELS):
        sigma = mv.SpectralMeasure.beta(a, b)
        truth, draws = mv.md_moments(sigma), _drawers(sigma, methods, (200,))
        cells += [(draws[method, 200], truth, _seed(100 * m_idx + 50 + j, s))
                  for s in range(5) for j, method in enumerate(methods)]
    eks = iter(_pooled(lambda *cell: _ek(*cell)[0], cells))
    details = []
    for a, b in BETA_MODELS:
        triples = [(next(eks), next(eks), next(eks)) for _ in range(5)]
        hits = sum(e_sn <= e_ta <= e_ds for e_sn, e_ta, e_ds in triples)
        assert hits >= 4, (f"beta({a:g},{b:g}) ordering held in {hits}/5 "
                           f"seeds: {triples}")
        details.append(f"beta({a:g},{b:g})={hits}/5")
    _ok(5, "ordering per model: " + ", ".join(details))


def test_c06_monotone_decay_to_floor():
    """6: median E_k over 5 seeds is non-increasing up to the MC floor on
    k in {1,5,10,50,100,200} for SN and TA on beta(1,1)."""
    sigma = mv.SpectralMeasure.beta(1.0, 1.0)
    truth = mv.md_moments(sigma)
    methods, k_grid = ("SN", "TA"), (1, 5, 10, 50, 100, 200)
    draws = _drawers(sigma, methods, k_grid)

    def cell(draw, seed, sets_floor):
        # rows are dropped once scored, but for the cell that sets the MC floor
        e, data = _ek(draw, truth, seed)
        return e, mv.estimate_mc_floor(data) if sets_floor else None

    results = _pooled(cell, [(draws[method, k], _seed(300 + 10 * m_idx + k_idx, s),
                              (method, k, s) == ("SN", 200, 0))
                             for m_idx, method in enumerate(methods)
                             for k_idx, k in enumerate(k_grid) for s in range(5)])
    floor = next(f for _, f in results if f is not None)
    eks = iter(e for e, _ in results)
    details = []
    for method in methods:
        medians = [float(np.median([next(eks) for _ in range(5)])) for _ in k_grid]
        for prev, nxt in zip(medians, medians[1:]):
            assert nxt <= max(prev, 2.0 * floor), (method, medians, floor)
        details.append(f"{method} medians " +
                       "->".join(f"{m:.4f}" for m in medians))
    _ok(6, f"floor~{floor:.4f}; " + "; ".join(details))


def test_c07_lemma_oracle_closed_forms_vs_quadrature():
    """7: radial-moment closed forms match adaptive quadrature of the
    defining integral to 1e-8 on 10 (alpha, p, nu) cases; sphere tail mass
    matches quadrature for eps in {1e-1, 1e-3, 1e-6}."""
    mixed_pts, mixed_w = [[0.5], [3.0], [-1.5]], [0.7, 0.2, 1.1]
    sphere = mv.BDLM.from_spectral(mv.evenly_spaced_spectral(4, mass=2.0))
    cases = [
        (1.0, 1.0, [[2.0]], [1.0], OUTSIDE),
        (1.0, 1.0, [[2.0]], [1.0], INSIDE),
        (2.0, 2.0, "sphere", None, INSIDE),
        (2.0, 2.0, "sphere", None, OUTSIDE),
        (1.5, 0.5, mixed_pts, mixed_w, INSIDE),
        (1.5, 0.5, mixed_pts, mixed_w, OUTSIDE),
        (0.7, 1.0, [[1.5]], [1.0], OUTSIDE),
        (0.7, 2.0, [[0.3]], [2.0], INSIDE),
        (3.0, 1.0, [[2.5], [0.8]], [0.4, 0.6], OUTSIDE),
        (2.5, 1.2, [[math.e]], [1.0], INSIDE),
    ]
    worst = 0.0
    for alpha, p, pts, w, region in cases:
        if pts == "sphere":
            bdlm = sphere
            pts_q = [[1.0, 0.0]] * 1
            w_q = [2.0]
        else:
            bdlm = mv.BDLM.from_atoms(pts, w)
            pts_q, w_q = pts, w
        params = mv.LStarParams(alpha=alpha, bdlm=bdlm)
        got = mv.malpha_radial_moment(params, p, region)
        oracle = radial_moment_quadrature(pts_q, w_q, alpha, p, region)
        worst = max(worst, abs(got - oracle))
        assert abs(got - oracle) <= 1e-8, (alpha, p, region, got, oracle)
    # hand-derivable case: alpha=1, p=1, nu=delta_2, outside -> 2(1 - 1/2) = 1
    one = mv.malpha_radial_moment(
        mv.LStarParams(alpha=1.0, bdlm=mv.BDLM.from_atoms([[2.0]], [1.0])),
        1.0, OUTSIDE)
    assert one == pytest.approx(1.0, abs=1e-12)

    worst_tail = 0.0
    for alpha, theta in ((1.0, 1.0), (2.0, 3.0)):
        bd = mv.BDLM.from_spectral(mv.evenly_spaced_spectral(5, mass=theta))
        params = mv.LStarParams(alpha=alpha, bdlm=bd)
        for eps in (1e-1, 1e-3, 1e-6):
            got = mv.malpha_tail_mass(params, eps)
            oracle = tail_mass_quadrature([[1.0, 0.0]], [theta], alpha, eps)
            closed = theta * (-math.log(eps)) ** alpha / alpha
            worst_tail = max(worst_tail, abs(got - oracle), abs(got - closed))
            assert abs(got - oracle) <= 1e-8, (alpha, theta, eps)
    _ok(7, f"10 radial cases worst gap {worst:.2e}; "
           f"tail-mass worst gap {worst_tail:.2e}")


def test_c08_atom_at_zero_rescaling():
    """8: SN with nu_1' = (delta_0 + delta_1)/2, theta=1, d=1 at N=1e6
    matches the moments of L*_1(delta_1/2, 0) within 4 SE."""
    bd = mv.BDLM.from_atoms([[0.0], [1.0]], [0.5, 0.5])
    params = mv.LStarParams(alpha=1.0, bdlm=bd)
    rng = np.random.default_rng(_seed(80))
    x = mv.sample_sn_batch(params, 60, 1_000_000, rng)[:, 0]
    n = len(x)
    # effective law L*_1(delta_1/2, 0): mean 1/2, var 1/4, mu4 = 5/16
    se_mean = math.sqrt(0.25 / n)
    se_var = math.sqrt((5.0 / 16.0 - 1.0 / 16.0) / n)
    assert abs(x.mean() - 0.5) <= 4 * se_mean
    assert abs(x.var(ddof=1) - 0.25) <= 4 * se_var
    _ok(8, f"mean={x.mean():.5f} (target 0.5), var={x.var(ddof=1):.5f} "
           f"(target 0.25) at N=1e6")


def test_c09_ta_general_alpha():
    """9: TA with alpha=2, nu0=delta_1, c=1, n=100 at N=1e5 has sample mean
    within 0.05 of Gamma(2) = 1 (combined O(1/n) bias + MC noise)."""
    rng = np.random.default_rng(_seed(90))
    x = mv.sample_ta_batch(2.0, lambda r, m: np.ones((m, 1)), 1.0, 100,
                           100_000, rng)[:, 0]
    assert abs(x.mean() - 1.0) <= 0.05
    _ok(9, f"mean={x.mean():.4f}, |bias+noise|={abs(x.mean() - 1):.4f} <= 0.05")


def test_c10_experiment_determinism_across_workers():
    """10: the experiment command is byte-identical across reruns with 1
    worker and with 8 workers."""
    config = mv.ExperimentConfig(
        model={"variant": "beta", "alpha": 2.0, "beta": 2.0, "mass": 1.0},
        methods=("SN", "TA", "DS"), k_grid=(1, 5, 10), n_reps=4000,
        base_seed=ACCEPT_BASE)
    outputs = [mv.rows_to_csv(mv.run_experiment(config, workers=w))
               for w in (1, 1, 8, 8)]
    assert len(set(outputs)) == 1
    n_rows = len(outputs[0].splitlines()) - 1
    _ok(10, f"4 runs (workers 1,1,8,8) byte-identical; {n_rows} rows")
