"""Independent reference for heraldstats outputs, and the checks built on it.

Nothing here imports heraldstats.  The reference rebuilds each figure of
merit from the model itself:

- the adaptive cutoff and the truncated, renormalized thermal vector;
- click weights from the photon-occupancy recurrence, whose terms are all
  positive, so it stays accurate where the library's alternating closed form
  cancels;
- the loss row of the target photon number as a log-binomial, and the lossy
  mean and parity in closed form (mu_s * mean and sum p_n (1 - 2 mu_s)^n).

A value agrees when it is within ``REL_TOL`` of the reference, widened by
the rounding-error bound of the closed-form click weight at that point: the
library evaluates that alternating sum in float64, and where its terms
cancel no float64 evaluation of it can be closer (see ``click_weights``).
``check_rows`` also returns how far the library actually was, so that a
loss of accuracy stays visible instead of being tolerated silently.
"""

from __future__ import annotations

import math

import numpy as np

TAIL_EPSILON = 1e-14
TRUNCATION_CAP = 4096
REL_TOL = 1e-9
#: Parity is an alternating sum of terms of total size 1, so it gets an
#: absolute floor as well.
PARITY_ABS_TOL = 1e-12
#: First-order growth of a weight error into any figure of merit: each one
#: is a ratio of sums, or a product of at most three such ratios (g3).
ERROR_GROWTH = 10.0
#: Heralded terms below this share of the largest cannot move a figure of
#: merit by more than REL_TOL, so their conditioning is ignored.
NEGLIGIBLE_SHARE = 1e-25

FOMS = ("fidelity", "g2", "g3", "success_prob", "parity", "mean_lossy", "mean_corrected")
COLUMNS = ("car", "nbar", "mu_h", "mu_s", "k", "target", *FOMS, "status")
COORDS = ("car", "nbar", "mu_h", "mu_s")


def n_max_for(nbar: float) -> int:
    """Smallest cutoff whose thermal tail (nbar/(1+nbar))**(n+1) is below TAIL_EPSILON."""
    if nbar == 0.0:
        return 0
    log_ratio = math.log(nbar / (1.0 + nbar))
    n = max(int(math.log(TAIL_EPSILON) / log_ratio) - 2, 0)
    while (n + 1) * log_ratio >= math.log(TAIL_EPSILON):
        n += 1
    return n


def click_weights(N: int, k: int, mu: float, nu: float, n_max: int):
    """P(exactly k of N detectors click | n photons) for n = 0..n_max, and an error bound.

    Each photon is lost with probability 1 - mu, or else lands on one of the
    N detectors uniformly; j counts detectors hit so far.  Detectors left
    unhit click on a dark count with probability d = 1 - exp(-nu/N).  The
    bound is the float64 rounding error of the closed form
    sum_m C(N,k) C(k,m) (-1)^m exp(-nu (N+m-k)/N) (1 - mu (N+m-k)/N)^n:
    a few ulps per operation, times n for the power, times the sum of the
    absolute values of its terms.
    """
    dark = -math.expm1(-nu / N)
    fill = [
        math.comb(N - j, k - j) * dark ** (k - j) * (1.0 - dark) ** (N - k) if j <= k else 0.0
        for j in range(N + 1)
    ]
    stay = [(1.0 - mu) + mu * j / N for j in range(N + 1)]
    move = [mu * (N - j) / N for j in range(N + 1)]
    occupancy = [1.0] + [0.0] * N
    weights = np.empty(n_max + 1)
    for n in range(n_max + 1):
        weights[n] = math.fsum(p * f for p, f in zip(occupancy, fill))
        occupancy = [occupancy[0] * stay[0]] + [
            occupancy[j] * stay[j] + occupancy[j - 1] * move[j - 1] for j in range(1, N + 1)
        ]

    n = np.arange(n_max + 1)
    term_size = np.zeros(n_max + 1)
    for m in range(k + 1):
        silent = N + m - k
        coeff = math.comb(N, k) * math.comb(k, m) * math.exp(-nu * silent / N)
        term_size += coeff * (1.0 - mu * silent / N) ** n
    bound = (n + 2 * k + 8) * np.finfo(float).eps * term_size
    return weights, bound


def reference(point: dict) -> tuple[dict, float]:
    """Figures of merit at one point, and the relative conditioning rho of its click weights.

    ``point`` has nbar, mu_h, mu_s, N, k, nu and target.
    """
    nbar, mu_s, target = point["nbar"], point["mu_s"], point["target"]
    n_max = n_max_for(nbar)
    ratio = nbar / (1.0 + nbar)
    thermal = ratio ** np.arange(n_max + 1)
    thermal /= thermal.sum()
    weights, bound = click_weights(point["N"], point["k"], point["mu_h"], point["nu"], n_max)
    heralded = weights * thermal
    total = heralded.sum()
    p = heralded / total

    significant = heralded > NEGLIGIBLE_SHARE * heralded.max()
    rho = float(np.max(bound[significant] / weights[significant]))

    n = np.arange(n_max + 1, dtype=float)
    mean = float(n @ p)
    f2 = float((n * (n - 1)) @ p)
    f3 = float((n * (n - 1) * (n - 2)) @ p)
    return {
        "fidelity": float(loss_row(target, mu_s, n_max) @ p),
        "g2": f2 / mean**2 if mean > 0 else math.nan,
        "g3": f3 / mean**3 if mean > 0 else math.nan,
        "success_prob": min(float(total), 1.0),
        "parity": float(p @ (1.0 - 2.0 * mu_s) ** n),
        "mean_lossy": mu_s * mean,
        "mean_corrected": mean if mu_s > 0 else math.nan,
    }, rho


def loss_row(m: int, mu: float, n_max: int) -> np.ndarray:
    """Row m of the binomial loss matrix, C(n, m) mu^m (1-mu)^(n-m) for n = 0..n_max."""
    row = np.zeros(n_max + 1)
    if m > n_max:
        return row
    if mu == 1.0:
        row[m] = 1.0
    elif mu == 0.0:
        row[:] = 1.0 if m == 0 else 0.0
    else:
        n = np.arange(m, n_max + 1, dtype=float)
        log_choose = sum(np.log(n - j) for j in range(m)) - math.lgamma(m + 1)
        row[m:] = np.exp(log_choose + m * math.log(mu) + (n - m) * math.log1p(-mu))
    return row


def expected_ok(point: dict) -> bool:
    """Whether the library must return figures of merit rather than a domain-error status."""
    if n_max_for(point["nbar"]) > TRUNCATION_CAP:
        return False
    return point["k"] == 0 or point["nu"] > 0 or (point["mu_h"] > 0 and point["nbar"] > 0)


def deviation(values: dict, ref: dict, rho: float) -> tuple[bool, float]:
    """(agrees, largest deviation) of reported figures of merit from the reference.

    Deviations are relative, except for parity, whose scale is 1.
    """
    agrees = True
    worst = 0.0
    for name in FOMS:
        value, expected = values[name], ref[name]
        if math.isnan(expected) or math.isnan(value):
            agrees &= math.isnan(expected) and math.isnan(value)
            continue
        diff = abs(value - expected)
        if name == "parity":
            allowed = REL_TOL * abs(expected) + PARITY_ABS_TOL + 2.0 * rho
            worst = max(worst, diff)
        else:
            allowed = (REL_TOL + ERROR_GROWTH * rho) * abs(expected)
            worst = max(worst, diff / abs(expected) if diff else 0.0)
        agrees &= diff <= allowed
    return agrees, worst


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * abs(b)


def check_rows(rows: list[dict], points: list[dict], sample: list[int]) -> tuple[int, float]:
    """Check output rows against the expected points, in order.

    Every row must carry its point's coordinates and the expected status;
    rows whose index is in ``sample`` must also match the reference.  A row
    count that differs from the point count rejects every point.  Returns
    (points rejected, largest deviation on the sample).
    """
    if len(rows) != len(points):
        return len(points), math.inf
    rejected = set()
    for i, (row, point) in enumerate(zip(rows, points)):
        coords_ok = all(_close(row[name], point[name]) for name in COORDS if name in point)
        if not coords_ok or row["k"] != point["k"] or row["target"] != point["target"]:
            rejected.add(i)
        elif (row["status"] == "ok") != expected_ok(point):
            rejected.add(i)
    worst = 0.0
    for i in sample:
        if i in rejected or rows[i]["status"] != "ok":
            continue
        ref, rho = reference(points[i])
        agrees, dev = deviation(rows[i], ref, rho)
        worst = max(worst, dev)
        if not agrees:
            rejected.add(i)
    return len(rejected), worst


def perturbations(rows: list[dict], points: list[dict], sample: list[int]):
    """Corrupted copies of correct output rows, each of which the check must reject.

    Yields (label, rows): a status flipped, a row dropped, two rows swapped,
    and one figure of merit off by 1e-6 relative at the best-conditioned
    sampled point.
    """
    flipped = [dict(row) for row in rows]
    flipped[0]["status"] = "error: perturbed" if rows[0]["status"] == "ok" else "ok"
    yield "status flipped", flipped
    yield "row dropped", rows[:-1]
    swapped = list(rows)
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    yield "rows swapped", swapped
    candidates = [i for i in sample if rows[i]["status"] == "ok"]
    if candidates:
        target = min(candidates, key=lambda i: reference(points[i])[1])
        scaled = [dict(row) for row in rows]
        scaled[target]["fidelity"] *= 1.0 + 1e-6
        yield "fidelity off by 1e-6", scaled
