"""Correctness oracles that do not depend on ``mvdickman.moments``.

Truth for a beta(a, b) angular model comes from its characteristic function,
E[exp(i m 2 pi B)] = 1F1(a; a+b; 2 pi i m); truth for a finite model comes
from exact atom sums; discretized cell masses come from the regularized
incomplete beta function. The Monte Carlo floor of E_k is computed from the
exact MD cumulants kappa_n = (1/n) * integral <z, s>^n dsigma, so it needs no
sample.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
from scipy.special import betainc, hyp1f1

TWO_PI = 2.0 * math.pi

#: absolute tolerance for truth columns, md_moments results and cell masses
TRUTH_TOL = 1e-9
#: |xbar_j - expected mean| must stay within this many standard errors
MEAN_Z = 6.0
#: E_k of an unbiased cell must stay within this multiple of the MC floor
FLOOR_FACTOR = 5.0

TRUTH_COLUMNS = ("m1", "m2", "var1", "var2", "cov12")
SAMPLE_COLUMNS = ("xbar1", "xbar2", "s1sq", "s2sq", "s12")


# --------------------------------------------------------------------------
# angular moments  M[a, b] = integral cos^a sin^b dsigma,  a + b in {1, 2, 4}
# --------------------------------------------------------------------------

def angular_moments(model: dict) -> dict:
    """The eight angular moments of a beta or finite model document."""
    if model["variant"] == "finite":
        ang = [atom["angle"] for atom in model["atoms"]]
        mass = [atom["mass"] for atom in model["atoms"]]
        c = [math.cos(p) for p in ang]
        s = [math.sin(p) for p in ang]

        def moment(i, j):
            return math.fsum(w * ci ** i * si ** j for w, ci, si in zip(mass, c, s))

        return {(i, j): moment(i, j) for i, j in
                ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (4, 0), (0, 4), (2, 2))}
    if model["variant"] == "beta":
        a, b = float(model["alpha"]), float(model["beta"])
        theta = float(model.get("mass", 1.0))
        phi = {m: theta * complex(hyp1f1(a, a + b, 1j * TWO_PI * m)) for m in (1, 2, 4)}
        return {
            (1, 0): phi[1].real, (0, 1): phi[1].imag,
            (2, 0): 0.5 * (theta + phi[2].real),
            (0, 2): 0.5 * (theta - phi[2].real),
            (1, 1): 0.5 * phi[2].imag,
            (4, 0): (3.0 * theta + 4.0 * phi[2].real + phi[4].real) / 8.0,
            (0, 4): (3.0 * theta - 4.0 * phi[2].real + phi[4].real) / 8.0,
            (2, 2): (theta - phi[4].real) / 8.0,
        }
    raise ValueError(f"no oracle for variant {model['variant']!r}")


def truth(model: dict) -> dict:
    """MD(sigma) mean and covariance: E X = int s dsigma, cov X = 1/2 int s s^T dsigma."""
    m = angular_moments(model)
    return {"m1": m[1, 0], "m2": m[0, 1], "var1": 0.5 * m[2, 0],
            "var2": 0.5 * m[0, 2], "cov12": 0.5 * m[1, 1]}


def mc_floor(model: dict, n_reps: int) -> float:
    """Root of the summed variances of the five moment estimators at n_reps.

    The same delta-method sum as ``mvdickman.estimate_mc_floor``, with the
    central moments taken from exact cumulants instead of a sample:
    mu4 - var^2 = kappa4 + 2 kappa2^2 and
    E[X1c^2 X2c^2] - cov^2 = kappa22 + kappa20 kappa02 + kappa11^2.
    """
    m = angular_moments(model)
    k20, k02, k11 = m[2, 0] / 2, m[0, 2] / 2, m[1, 1] / 2
    k40, k04, k22 = m[4, 0] / 4, m[0, 4] / 4, m[2, 2] / 4
    total = (k20 + k02 + k40 + 2 * k20 ** 2 + k04 + 2 * k02 ** 2
             + k22 + k20 * k02 + k11 ** 2)
    return math.sqrt(total / n_reps)


def beta_cell_masses(a: float, b: float, theta: float, k: int) -> np.ndarray:
    """Exact masses of the k evenly spaced cells of a beta angular model."""
    cdf = betainc(a, b, np.arange(k + 1) / k)
    return theta * np.diff(cdf)


# --------------------------------------------------------------------------
# expected sample means of each method's partial sum
# --------------------------------------------------------------------------

def expected_mean(model: dict, method: str, k: int) -> tuple:
    """Mean of the law a (method, k) cell samples, derived from its series.

    SN: the i-th weight has mean q^i with q = theta/(theta+1), so the k-term
    sum has mean (1 - q^k) * m. TA: floor(theta*k) terms, with theta the exact
    sum of the given masses, each U^k * s with E U^k = 1/(k+1) and
    s ~ sigma/theta. DS: the mean of the discretized measure (left
    representatives), or m itself on a finite model.
    """
    m = angular_moments(model)
    mean = np.array([m[1, 0], m[0, 1]])
    masses = ([atom["mass"] for atom in model["atoms"]] if model["variant"] == "finite"
              else [model.get("mass", 1.0)])
    exact_theta = sum(Fraction(x) for x in masses)
    theta = float(exact_theta)
    if method == "SN":
        return tuple(map(float, (1.0 - (theta / (theta + 1.0)) ** k) * mean))
    if method == "TA":
        return tuple(map(float, math.floor(exact_theta * k) / (k + 1) * mean / theta))
    if model["variant"] == "finite":
        return tuple(map(float, mean))
    masses = beta_cell_masses(float(model["alpha"]), float(model["beta"]), theta, k)
    left = TWO_PI * np.arange(k) / k
    return (float(masses @ np.cos(left)), float(masses @ np.sin(left)))


# --------------------------------------------------------------------------
# gates
# --------------------------------------------------------------------------

def check_row(row: dict, model: dict, want: dict) -> list:
    """Problems with one CSV row: truth columns, E_k arithmetic, sample means."""
    problems = []
    for col in TRUTH_COLUMNS:
        if not abs(row[col] - want[col]) <= TRUTH_TOL:
            problems.append(f"{col}={row[col]!r} differs from oracle {want[col]!r}")
    e_k = math.sqrt(math.fsum((row[s] - row[t]) ** 2
                              for s, t in zip(SAMPLE_COLUMNS, TRUTH_COLUMNS)))
    if not abs(e_k - row["e_k"]) <= 1e-9 * max(1.0, e_k):
        problems.append(f"e_k={row['e_k']!r} but its columns give {e_k!r}")
    mu = expected_mean(model, row["method"], row["k"])
    for j, (xbar, var) in enumerate((("xbar1", "s1sq"), ("xbar2", "s2sq"))):
        se = math.sqrt(max(row[var], 0.0) / row["n_reps"])
        if not abs(row[xbar] - mu[j]) <= MEAN_Z * se + TRUTH_TOL:
            problems.append(f"{xbar}={row[xbar]!r} is more than {MEAN_Z:g} SE "
                            f"from the {row['method']} k={row['k']} mean {mu[j]!r}")
    return problems


def check_sweep(rows: list, model: dict) -> dict:
    """Row index -> problems, for every row of one sweep that fails a gate.

    Per row: ``check_row``. Per method: E_k at the largest k is below E_k at
    the smallest k. Unbiased cells (SN at the largest k, exact DS on a finite
    model) have E_k within FLOOR_FACTOR Monte Carlo floors.
    """
    want = truth(model)
    bad = {}
    for i, row in enumerate(rows):
        problems = check_row(row, model, want)
        if problems:
            bad[i] = problems
    for method in sorted({row["method"] for row in rows}):
        idx = [i for i, row in enumerate(rows) if row["method"] == method]
        lo = min(idx, key=lambda i: rows[i]["k"])
        hi = max(idx, key=lambda i: rows[i]["k"])
        if lo != hi and not rows[hi]["e_k"] < rows[lo]["e_k"]:
            bad.setdefault(hi, []).append(
                f"{method}: E_k at k={rows[hi]['k']} is not below E_k at k={rows[lo]['k']}")
        unbiased = method == "SN" or (method == "DS" and rows[hi]["k"] == 0)
        if unbiased:
            floor = mc_floor(model, rows[hi]["n_reps"])
            if not rows[hi]["e_k"] <= FLOOR_FACTOR * floor:
                bad.setdefault(hi, []).append(
                    f"{method} k={rows[hi]['k']}: E_k={rows[hi]['e_k']:.3g} exceeds "
                    f"{FLOOR_FACTOR:g} x MC floor {floor:.3g}")
    return bad


def csv_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_moments(summary, model: dict) -> list:
    """Problems with an md_moments result, against the closed form."""
    want = truth(model)
    return [f"{col}={getattr(summary, col)!r} differs from oracle {want[col]!r}"
            for col in TRUTH_COLUMNS
            if not abs(getattr(summary, col) - want[col]) <= TRUTH_TOL]


def check_discretized(sigma_k, model: dict, k: int) -> list:
    """Problems with a discretize_angular result: total mass and cell masses."""
    theta = float(model.get("mass", 1.0))
    problems = []
    total = math.fsum(sigma_k.masses)
    if not abs(total - theta) <= TRUTH_TOL:
        problems.append(f"mass not conserved: sum a_i = {total!r}, theta = {theta!r}")
    ref = beta_cell_masses(float(model["alpha"]), float(model["beta"]), theta, k)
    phi = np.arctan2(sigma_k.directions[:, 1], sigma_k.directions[:, 0]) % TWO_PI
    cell = np.rint(phi * k / TWO_PI).astype(int) % k
    worst = float(np.max(np.abs(sigma_k.masses - ref[cell])))
    if not worst <= TRUTH_TOL:
        problems.append(f"cell mass differs from the incomplete-beta mass by {worst:.3g}")
    return problems
