"""Binomial loss channel of the signal arm, and its exact inverse.

Transmission with efficiency mu maps a photon-number distribution through
the column-stochastic matrix L[m, n] = C(n, m) mu^m (1-mu)^(n-m).  The
matrix is upper triangular, so the inverse map is a back-substitution; it
is exact in principle but amplifies noise, and inverting a vector that is
not the image of a physical state produces negative entries.  Small
negativity is clamped, large negativity is an error: silently keeping it
would poison sign-sensitive quantities like the photon-number parity.

``apply_loss`` and ``invert_loss`` build the dense matrix on every call, so
they cost O(n_max^2) time and memory.  The figures of merit never need the
whole lossy vector: the overlap with |m> after loss is row m of L applied
to the lossless distribution, and the lossy parity is sum_n p_n (1-2 mu)^n,
since each photon independently flips the parity when it survives
(probability mu) and leaves it alone when lost.  ``_lossy_weights`` caches
both O(n_max) weight vectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular
from scipy.stats import binom

from .fock import PhotonStatistics

__all__ = [
    "LossChannel",
    "UnphysicalInversionError",
    "apply_loss",
    "invert_loss",
]

#: Entries with |q| below this are zeroed after inversion.
NEGATIVITY_CLAMP_TOL = 1e-9
#: Entries below -this abort the inversion.
NEGATIVITY_ERROR_TOL = 1e-6


@dataclass(frozen=True)
class LossChannel:
    """Pure transmission loss with efficiency mu in [0, 1]."""

    efficiency: float

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.efficiency!r}")


class UnphysicalInversionError(ValueError):
    """Loss inversion produced negativity beyond tolerance.

    Carries the offending vector; usually a sign of truncation or
    conditioning failure, or of a target that is not the image of any
    physical state under the channel.
    """

    def __init__(self, values: np.ndarray):
        self.values = np.array(values)
        super().__init__(
            f"loss inversion produced negativity {float(values.min()):.3e}, "
            f"beyond the {NEGATIVITY_ERROR_TOL:g} tolerance"
        )


#: Below this efficiency scipy's binomial pmf can raise OverflowError (seen
#: up to mu ~ 7e-306 at n = 4096).  There every entry with m >= 2 rounds to
#: zero, (1 - mu)^n rounds to one, and C(n, 1) mu (1 - mu)^(n-1) to n mu.
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


@lru_cache(maxsize=256)
def _lossy_weights(efficiency: float, target: int, n_max: int) -> np.ndarray:
    """Read-only (2, n_max + 1) array: row ``target`` of L, and (1 - 2 mu)^n.

    Dotted with a lossless distribution they give the lossy overlap with
    |target> and the lossy parity.  The row holds the same binomial
    probabilities as the matrix row.
    """
    n = np.arange(n_max + 1)
    weights = np.stack(
        [_binomial_pmf(target, n, efficiency), (1.0 - 2.0 * efficiency) ** n]
    )
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


def invert_loss(channel: LossChannel, stats: PhotonStatistics) -> PhotonStatistics:
    """Distribution q with apply_loss(channel, q) == stats, by back-substitution.

    Builds the dense (n_max + 1)^2 loss matrix: O(n_max^2) time and memory.
    """
    mu = channel.efficiency
    if mu == 0.0:
        raise ValueError("a loss channel with zero efficiency is not invertible")
    if mu == 1.0:
        return stats
    recovered = solve_triangular(
        _loss_matrix(mu, stats.n_max), stats.probabilities, lower=False
    )
    worst = float(recovered.min())
    if worst < -NEGATIVITY_ERROR_TOL:
        raise UnphysicalInversionError(recovered)
    if worst < -NEGATIVITY_CLAMP_TOL:
        warnings.warn(
            f"loss inversion produced negativity {worst:.3e}; clamping to zero",
            stacklevel=2,
        )
    recovered[np.abs(recovered) < NEGATIVITY_CLAMP_TOL] = 0.0
    recovered = np.clip(recovered, 0.0, None)
    return PhotonStatistics.from_unnormalized(recovered)
