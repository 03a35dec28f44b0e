"""Figures of merit for heralded photon-number states.

All of these are plain functionals of photon-number distributions: the
overlap with an m-photon target, normalized factorial moments g^(m), the
photon-number parity (directly and through its moment expansion), the
signal/idler cross-correlation of the twin beams, and the closed-form
single-photon-to-vacuum ratio that quantifies dark-count contamination.
``report`` bundles everything for a single parameter point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import (
    DEFAULT_TRUNCATION,
    PhotonStatistics,
    Truncation,
    TwinBeamSource,
    factorial_moment,
    mean,
    thermal_distribution,
)
from .heralding import HeraldConfig, herald
from .loss import LossChannel, _lossy_weights

__all__ = [
    "FigureOfMeritReport",
    "NonConvergentSeriesError",
    "fidelity",
    "g_factorial",
    "parity_direct",
    "parity_from_moments",
    "cross_correlation",
    "dark_count_ratio",
    "report",
]

#: Consecutive non-decreasing series terms accepted before declaring divergence.
_DIVERGENCE_WINDOW = 5
_TERM_FLOOR = 1e-15


class NonConvergentSeriesError(ArithmeticError):
    """The parity moment series failed to converge; carries its partial sums."""

    def __init__(self, partial_sums: list[float], order: int):
        self.partial_sums = list(partial_sums)
        self.order = order
        super().__init__(
            f"parity moment series non-convergent: terms stopped decreasing "
            f"for {_DIVERGENCE_WINDOW} consecutive orders by order {order}"
        )


@dataclass(frozen=True)
class FigureOfMeritReport:
    """All figures of merit for one parameter point.

    g2/g3 are evaluated on the lossless heralded statistics (they are
    loss-invariant for a single mode).  Fidelity, parity and ``mean_lossy``
    describe the state after the signal arm's loss; ``mean_loss_corrected``
    is that mean divided back by the signal efficiency, which is the
    lossless mean.
    """

    fidelity: float
    g2: float
    g3: float
    success_probability: float
    parity: float
    mean_lossy: float
    mean_loss_corrected: float


def _check_target(target: int, n_max: int) -> None:
    if target < 0:
        raise ValueError(f"target photon number must be >= 0, got {target}")
    if target > n_max:
        raise ValueError(
            f"target photon number {target} exceeds the cutoff n_max = {n_max}"
        )


def fidelity(lossy_stats: PhotonStatistics, target: int) -> float:
    """Overlap with the m-photon target: the m-th entry of the statistics."""
    _check_target(target, lossy_stats.n_max)
    return float(lossy_stats.probabilities[target])


def g_factorial(stats: PhotonStatistics, order: int) -> float:
    """Normalized factorial moment g^(order) = <n!/(n-order)!> / <n>^order."""
    if order < 2:
        raise ValueError("normalized factorial moments start at order 2")
    first = mean(stats)
    if first <= 0.0:
        raise ValueError("undefined moment: the distribution has zero mean")
    return factorial_moment(stats, order) / first**order


@lru_cache(maxsize=64)
def _sign_array(size: int) -> np.ndarray:
    signs = np.where(np.arange(size) % 2 == 0, 1.0, -1.0)
    signs.flags.writeable = False
    return signs


def parity_direct(stats: PhotonStatistics) -> float:
    """Photon-number parity as the alternating sum of the distribution."""
    probs = stats.probabilities
    return float(np.dot(_sign_array(probs.size), probs))


def parity_from_moments(stats: PhotonStatistics, max_order: int) -> float:
    """Parity from the factorial-moment expansion.

    Evaluates sum_m g^(m)/m! (-2<n>)^m term by term (with g^(0) = g^(1) = 1),
    which is how the parity is reached from correlation measurements.  The
    series is not guaranteed to converge; term magnitudes are monitored and
    a sustained failure to decrease raises :class:`NonConvergentSeriesError`
    with the partial sums gathered so far.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    probs = stats.probabilities
    n = np.arange(probs.size, dtype=float)
    scale = -2.0  # each term is F_m * (-2)^m / m!, F_m the raw factorial moment
    falling = probs.copy()
    coeff = 1.0
    total = 0.0
    partial_sums: list[float] = []
    previous = math.inf
    growth_streak = 0
    for order in range(max_order + 1):
        if order > 0:
            falling *= n - (order - 1)
            coeff *= scale / order
        term = float(falling.sum()) * coeff
        if not math.isfinite(term):
            raise NonConvergentSeriesError(partial_sums, order)
        magnitude = abs(term)
        if magnitude >= previous and magnitude > _TERM_FLOOR:
            growth_streak += 1
            if growth_streak >= _DIVERGENCE_WINDOW:
                raise NonConvergentSeriesError(partial_sums, order)
        else:
            growth_streak = 0
        total += term
        partial_sums.append(total)
        previous = magnitude
    return total


def cross_correlation(
    source: TwinBeamSource,
    orders: tuple[int, int],
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> float:
    """Normalized signal/idler cross-correlation g^(n,m) of the twin beams.

    For perfectly photon-number-correlated beams the joint statistics are
    diagonal, so the double factorial-moment sum collapses onto the thermal
    marginal.  Orders (1, 1) give the CAR.
    """
    order_i, order_s = orders
    if order_i < 1 or order_s < 1:
        raise ValueError("cross-correlation orders must be >= 1")
    if source.mean_photon_number == 0.0:
        raise ValueError("cross-correlation undefined for zero mean photon number")
    stats = thermal_distribution(source, trunc)
    probs = stats.probabilities
    n = np.arange(probs.size, dtype=float)
    acc = probs.copy()
    for j in range(order_i):
        acc *= n - j
    ff = np.ones_like(probs)
    for j in range(order_s):
        ff *= n - j
    return float(np.dot(acc, ff)) / mean(stats) ** (order_i + order_s)


def dark_count_ratio(config: HeraldConfig) -> float:
    """Single-photon to vacuum population ratio of a one-click herald.

    Closed form in the source and detector parameters; diverges (returns
    +inf) for a dark-count-free detector, where the herald leaves no vacuum
    at all.
    """
    if config.clicks != 1:
        raise ValueError("the dark-count ratio is defined for single-click heralds")
    det = config.detector
    nbar = config.source.mean_photon_number
    thermal_ratio = nbar / (1.0 + nbar)  # P_1 / P_0
    if det.dark_count_prob == 0.0:
        return math.inf
    per_detector = det.dark_count_prob / det.num_detectors
    idle = det.num_detectors - 1
    numerator = (1.0 - det.efficiency * idle / det.num_detectors) - (
        1.0 - det.efficiency
    ) * math.exp(-per_detector)
    denominator = -math.expm1(-per_detector)
    return thermal_ratio * numerator / denominator


def report(
    config: HeraldConfig, signal: LossChannel, target: int
) -> FigureOfMeritReport:
    """Herald, degrade through the signal arm, and evaluate every figure of merit.

    The lossy figures of merit are O(n_max) functionals of the lossless
    heralded distribution p, so the lossy vector is never built: the
    fidelity is row ``target`` of the loss matrix dotted with p, the parity
    is sum_n p_n (1 - 2 mu_s)^n, and the lossy mean is mu_s times the
    lossless mean.  At mu_s = 0 the signal is vacuum and the values are
    exact.
    """
    heralded = herald(config)
    lossless = heralded.statistics
    probs = lossless.probabilities
    _check_target(target, lossless.n_max)
    lossless_mean = mean(lossless)
    if lossless_mean > 0.0:
        g2 = g_factorial(lossless, 2)
        g3 = g_factorial(lossless, 3)
    else:
        g2 = math.nan
        g3 = math.nan
    mu_s = signal.efficiency
    if mu_s == 0.0:
        fid, parity = float(target == 0), 1.0
    else:
        row, parity_weights = _lossy_weights(mu_s, target, lossless.n_max)
        # p sums to one only to rounding, so a value at its bound can overshoot
        fid = min(float(np.dot(row, probs)), 1.0)
        parity = min(max(float(np.dot(parity_weights, probs)), -1.0), 1.0)
    return FigureOfMeritReport(
        fidelity=fid,
        g2=g2,
        g3=g3,
        success_probability=heralded.success_probability,
        parity=parity,
        mean_lossy=mu_s * lossless_mean,
        mean_loss_corrected=lossless_mean if mu_s > 0.0 else math.nan,
    )
