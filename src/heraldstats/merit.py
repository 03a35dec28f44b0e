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
from typing import NamedTuple

import numpy as np

from .fock import (
    _MOMENTS,
    PhotonStatistics,
    Truncation,
    TwinBeamSource,
    _check_integer,
    _moment_block,
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


class FigureOfMeritReport(NamedTuple):
    """All figures of merit for one parameter point, in the sweep table's column order.

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


def _check_target(target: int, n_max: float) -> None:
    _check_integer(target, "target photon number")
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
    _check_integer(order, "factorial moment order")
    if order < 2:
        raise ValueError("normalized factorial moments start at order 2")
    first = mean(stats)
    if first <= 0.0:
        raise ValueError("undefined moment: the distribution has zero mean")
    return factorial_moment(stats, order) / first**order


def parity_direct(stats: PhotonStatistics) -> float:
    """Photon-number parity as the alternating sum of the distribution.

    At mu_s = 1 the parity weights (1 - 2 mu_s)^n of the
    ``_lossy_weights`` block are exactly +-1.  This is row 1 of that block's
    product with the distribution, the product ``report`` takes at
    mu_s = 1, so the two parities are bit for bit equal.
    """
    return (_lossy_weights(1.0, 0, stats.n_max) @ stats.probabilities)[1].item()


def parity_from_moments(stats: PhotonStatistics, max_order: int) -> float:
    """Parity from the factorial-moment expansion.

    Evaluates sum_m g^(m)/m! (-2<n>)^m term by term (with g^(0) = g^(1) = 1),
    which is how the parity is reached from correlation measurements.  The
    series is not guaranteed to converge; term magnitudes are monitored and
    a sustained failure to decrease raises :class:`NonConvergentSeriesError`
    with the partial sums gathered so far.
    """
    _check_integer(max_order, "max_order")
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
    trunc: Truncation = Truncation(),
) -> float:
    """Normalized signal/idler cross-correlation g^(n,m) of the twin beams.

    For perfectly photon-number-correlated beams the joint statistics are
    diagonal, so the double factorial-moment sum collapses onto the thermal
    marginal.  Orders (1, 1) give the CAR.
    """
    order_i, order_s = orders
    _check_integer(order_i, "cross-correlation order")
    _check_integer(order_s, "cross-correlation order")
    if order_i < 1 or order_s < 1:
        raise ValueError("cross-correlation orders must be >= 1")
    stats = thermal_distribution(source, trunc)
    first = mean(stats)
    if first <= 0.0:  # vacuum, or a cutoff of 0
        raise ValueError("cross-correlation undefined for zero mean photon number")
    block = _moment_block(max(order_i, order_s), stats.n_max)
    joint = np.dot(block[order_i - 1] * stats.probabilities, block[order_s - 1])
    return float(joint) / first ** (order_i + order_s)


def dark_count_ratio(config: HeraldConfig) -> float:
    """Single-photon to vacuum population ratio of a one-click herald.

    Closed form in the source and detector parameters; diverges (returns
    +inf) where the herald leaves no vacuum at all: for a dark-count-free
    detector, and where nu/N is too small for 1 - exp(-nu/N) to be nonzero.
    """
    _check_integer(config.clicks, "click count")
    if config.clicks != 1:
        raise ValueError("the dark-count ratio is defined for single-click heralds")
    det = config.detector
    thermal_ratio = config.source.squeezing_magnitude  # P_1 / P_0
    # With d = 1 - exp(-nu/N) per detector, vacuum gives one click with weight
    # N d (1-d)^(N-1), and one photon with weight (1 - mu) N d (1-d)^(N-1) +
    # mu (1-d)^(N-1).  Their ratio ((1 - mu) d + mu/N) / d is a sum of positive
    # terms; the equal form (1 - mu (N-1)/N) - (1 - mu)(1 - d) in the numerator
    # cancels when d is small.  At mu = 0 the ratio is exactly P_1/P_0.
    dark = -math.expm1(-det.dark_count_prob / det.num_detectors)
    if dark == 0.0:  # nu = 0, or nu/N below the float range
        return math.inf
    eff = det.efficiency
    numerator = (1.0 - eff) * dark + eff / det.num_detectors
    return thermal_ratio * (numerator / dark)


def report(
    config: HeraldConfig, signal: LossChannel, target: int
) -> FigureOfMeritReport:
    """Herald, degrade through the signal arm, and evaluate every figure of merit.

    Two products with read-only blocks give every value.  The mean, F2 and
    F3 of the lossless heralded distribution p are one product with a
    prefix of the falling-factorial block built at import, which covers
    every cutoff up to the cap (see ``fock.factorial_moment``), so they are
    bit for bit ``mean`` and ``g_factorial``.  The lossy figures of merit
    are O(n_max) functionals of p, so the lossy vector is never built: the
    fidelity and the parity are one product of p with the
    ``_lossy_weights`` block, row ``target`` of the loss matrix and
    sum_n p_n (1 - 2 mu_s)^n, and the lossy mean is mu_s times the
    lossless mean.  At mu_s = 0 the signal is vacuum and the values are
    exact.  ``sweep.run_sweep`` evaluates its points with the same two
    steps, ``heralding._normalized`` and ``_figures``, so each of its rows
    equals this report bit for bit.
    """
    heralded = herald(config)
    probs = heralded.statistics.probabilities
    n_max = probs.size - 1
    _check_target(target, n_max)
    mu_s = signal.efficiency
    lossy = _lossy_weights(mu_s, target, n_max) if mu_s > 0.0 else None
    return _figures(probs, heralded.success_probability, target, mu_s, lossy)


def _figures(
    probs: np.ndarray,
    success: float,
    target: int,
    mu_s: float,
    lossy: np.ndarray | None,
) -> FigureOfMeritReport:
    """Every figure of merit from p, the success probability and the loss block.

    ``lossy`` is the ``_lossy_weights`` block of (mu_s, target) as long as p,
    or None at mu_s = 0.  The moments are read from the prefix of
    ``fock._MOMENTS`` as long as p: a heralded cutoff never passes the cap.
    """
    lossless_mean, f2, f3 = (_MOMENTS[:, : probs.size] @ probs).tolist()
    if lossless_mean > 0.0:
        # the operations of g_factorial
        g2 = f2 / lossless_mean**2
        g3 = f3 / lossless_mean**3
    else:
        g2 = math.nan
        g3 = math.nan
    if lossy is None:
        fid, parity = float(target == 0), 1.0
    else:
        fid, parity = (lossy @ probs).tolist()
        # p sums to one only to rounding, so a value at its bound can overshoot
        fid = min(fid, 1.0)
        parity = min(max(parity, -1.0), 1.0)
    return FigureOfMeritReport(
        fidelity=fid,
        g2=g2,
        g3=g3,
        success_probability=success,
        parity=parity,
        mean_lossy=mu_s * lossless_mean,
        mean_loss_corrected=lossless_mean if mu_s > 0.0 else math.nan,
    )
