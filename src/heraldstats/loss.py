"""Binomial loss channel of the signal arm.

Transmission with efficiency mu maps a photon-number distribution through
the column-stochastic matrix L[m, n] = C(n, m) mu^m (1-mu)^(n-m).

``apply_loss`` builds the dense matrix on every call, so it costs
O(n_max^2) time and memory.  The figures of merit never need the whole
lossy vector: the overlap with |m> after loss is row m of L applied to
the lossless distribution, and the lossy parity is sum_n p_n (1-2 mu)^n,
since each photon independently flips the parity when it survives
(probability mu) and leaves it alone when lost.  ``_lossy_weights`` returns
both O(n_max) weight vectors in one read-only block.  It builds the row in
numpy, without scipy, as (1-mu)^(n-m) times a product of m positive
factors (n-m+i)/i * mu per entry, carried as mantissa times a power of two
so that no cutoff can overflow or underflow it on the way.  The parity
weights are the running product 1, b, b^2, ... with b = 1 - 2 mu: one
multiply per entry instead of one ``pow`` (about 20 us instead of about
420 us at n_max = 3240), within n 2^-53 relative of b^n and exact at
mu = 0, 1/2 and 1.  Entry n of either vector depends only on entries
below it, so it is bit for bit the same at any cutoff >= n: a sweep builds
the block of each (mu, m) once, at its largest cutoff, and every point
reads an exact prefix of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from .fock import PhotonStatistics

__all__ = [
    "LossChannel",
    "apply_loss",
]


@dataclass(frozen=True)
class LossChannel:
    """Pure transmission loss with efficiency mu in [0, 1]."""

    efficiency: float

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.efficiency!r}")


#: Below this efficiency scipy's binomial pmf can raise OverflowError (seen
#: up to mu ~ 7e-306 at n = 4096).  There every entry with m >= 2 rounds to
#: zero, (1 - mu)^n rounds to one, and C(n, 1) mu (1 - mu)^(n-1) to n mu.
#: Only the dense matrix of ``apply_loss`` needs this; the loss row of
#: ``_lossy_weights`` does not call scipy.
_TINY_EFFICIENCY = 1e-250


def _binomial_pmf(m, n, efficiency: float) -> np.ndarray:
    """C(n, m) mu^m (1-mu)^(n-m), broadcast over m and n."""
    if efficiency < _TINY_EFFICIENCY:
        return np.where(m == 0, 1.0, np.where(m == 1, n * efficiency, 0.0))
    return binom.pmf(m, n, efficiency)


def _loss_matrix(efficiency: float, n_max: int) -> np.ndarray:
    m = np.arange(n_max + 1)[:, None]
    n = np.arange(n_max + 1)[None, :]
    return _binomial_pmf(m, n, efficiency)


#: ln 2 as a 32-bit head and its remainder: k * _LN2_HI is exact for |k| < 2^21.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _loss_row(
    efficiency: float, target: int, n_max: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Row ``target`` of L: C(n, m) mu^m (1-mu)^(n-m) for n = 0..n_max.

    For n >= m the entry is (1-mu)^(n-m) times the product over i = 1..m of
    the positive factors (n-m+i)/i * mu, and zero below.  The running value
    is kept as a mantissa times a power of two (``np.frexp``) and scaled once
    at the end (``np.ldexp``).  Power-of-two scaling is exact, so an entry
    is lost to underflow only when its value is below the float range,
    whatever C(n, m) or (1-mu)^(n-m) alone would be.

    (1-mu)^(n-m) = 2^k exp(r) with the argument (n-m) log(1-mu) formed
    without rounding: log(1-mu) is split into a 26-bit head, whose product
    with n-m is exact, and a tail.  A rounded argument, or (1-mu)^((n-m)/m)
    spread over the m factors, loses accuracy in proportion to
    (n-m) |log(1-mu)|: up to 8.8e-13 relative against 40-digit mpmath at
    n_max = 8192, m = 4096, where this form stays within 2.0e-13 (the
    worst of a dense scan at 8192/4096 and 10000/3000).  What remains is
    the rounding of log(1-mu) itself, which no double-precision form avoids.

    The m passes over the row cost O(m n_max).  That beats scipy's
    ``binom.pmf`` only for small targets (m <= 3 in every benchmark
    workload): against it a miss of ``_lossy_weights`` is about even near
    m = 10 at n_max = 340 and m = 50 at n_max = 3240, and about 8 times
    slower at m = 500, n_max = 3240.

    Written into ``out`` (length n_max + 1) when given, else a new array.
    """
    row = np.empty(n_max + 1) if out is None else out
    row[:target] = 0.0
    if target > n_max:
        return row
    if efficiency == 1.0:
        row[target:] = 0.0
        row[target] = 1.0
        return row
    log_kept = math.log1p(-efficiency)
    split = 134217729.0 * log_kept  # 2^27 + 1: Dekker's split
    log_head = split - (split - log_kept)
    excess = np.arange(n_max - target + 1.0)  # n - m
    arg_head = excess * log_head  # exact
    k = np.rint(arg_head * (1.0 / math.log(2.0)))
    mantissa = np.exp(
        (arg_head - k * _LN2_HI) + (excess * (log_kept - log_head) - k * _LN2_LO)
    )
    exponent = k.astype(np.int64)
    for i in range(1, target + 1):
        mantissa, shift = np.frexp(mantissa * (excess + i) * (efficiency / i))
        exponent += shift
    np.ldexp(mantissa, exponent, out=row[target:])
    return row


def _lossy_weights(efficiency: float, target: int, n_max: int) -> np.ndarray:
    """Read-only (2, n_max + 1) array: row ``target`` of L, and (1 - 2 mu)^n.

    Dotted with a lossless distribution they give the lossy overlap with
    |target> and the lossy parity.  The row is the product form of
    ``_loss_row``, computed without scipy; it agrees with the matrix row of
    ``_loss_matrix`` to rounding.  The parity row is the running product
    1, b, b^2, ... with b = 1 - 2 mu: one multiply per entry (about 20 us
    at n_max = 3240, against about 420 us for one ``pow`` per entry).
    Entry n takes n - 1 roundings, so it lies within n 2^-53 relative of
    b^n; it is exact at mu = 0, 1/2 and 1 (b = 1, 0, -1).  Both rows are
    written in place into the block that is returned.
    """
    weights = np.empty((2, n_max + 1))
    _loss_row(efficiency, target, n_max, out=weights[0])
    parity = weights[1]
    parity[0] = 1.0
    parity[1:] = 1.0 - 2.0 * efficiency
    np.multiply.accumulate(parity, out=parity)
    weights.flags.writeable = False
    return weights


def apply_loss(channel: LossChannel, stats: PhotonStatistics) -> PhotonStatistics:
    """Loss-degraded distribution; keeps the input cutoff (loss only removes photons).

    Builds the dense (n_max + 1)^2 loss matrix: O(n_max^2) time and memory.
    """
    mu = channel.efficiency
    if mu == 1.0:
        return stats
    if mu == 0.0:
        return PhotonStatistics.fock(0, stats.n_max)
    degraded = _loss_matrix(mu, stats.n_max) @ stats.probabilities
    return PhotonStatistics.from_unnormalized(degraded)
