"""Click-counting measurement of an N-detector array, diagonal in photon number.

A bank of N identical binary ("click") detectors with uniform intensity
splitting, per-array efficiency mu and dark-count parameter nu.  The outcome
"exactly k of the N detectors click" acts diagonally on Fock states with
weight w_n(k), computed from an occupancy recurrence of positive terms only,
so it is exact to rounding for any N.  Each photon is lost with probability
1 - mu, hits one of the j detectors already hit with probability mu j/N, or
hits a new one; hit_j(n) is the probability that n photons hit j detectors.
Detectors left unhit click on a dark count with d = 1 - exp(-nu/N):

    w_n(k) = sum_{j<=k} hit_j(n) C(N-j, k-j) d^(k-j) (1-d)^(N-k) .

Column j = 0, hit_0(n) = (1 - mu)^n, is a running product: one multiply
per entry, the same one the band solve of the other columns would do, so
its bits are those of the solve.  The recurrence runs forward in n and the
sum over j is taken entry by entry, so w_n(k) for n <= n_max comes out bit
for bit the same whatever n_max it is computed at.  A sweep therefore
builds the weights of each efficiency once, at its largest cutoff, and
reads an exact prefix at every point; the vector is read-only, since its
points share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .fock import _check_integer

__all__ = [
    "ClickDetectorArray",
    "povm_weight",
    "povm_diagonal",
]

_WEIGHT_TOL = 1e-12

#: Default array size N and dark-count parameter nu, for the library and the CLI.
DEFAULT_NUM_DETECTORS = 4
DEFAULT_DARK_COUNT = 5e-4


@dataclass(frozen=True)
class ClickDetectorArray:
    """N click detectors with per-array efficiency and dark-count parameter."""

    efficiency: float
    num_detectors: int = DEFAULT_NUM_DETECTORS
    dark_count_prob: float = DEFAULT_DARK_COUNT

    def __post_init__(self):
        n_det = self.num_detectors
        _check_integer(n_det, "number of detectors")
        if n_det < 1:
            raise ValueError("need at least one detector")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.efficiency!r}")
        if not (math.isfinite(self.dark_count_prob) and self.dark_count_prob >= 0.0):
            raise ValueError(
                f"dark count parameter must be finite and >= 0, got {self.dark_count_prob!r}"
            )


def _check_clicks(detector: ClickDetectorArray, clicks: int) -> None:
    _check_integer(clicks, "click count")
    if not 0 <= clicks <= detector.num_detectors:
        raise ValueError(
            f"click count {clicks} outside 0..{detector.num_detectors}"
        )


def povm_weight(detector: ClickDetectorArray, clicks: int, n: int) -> float:
    """Probability of exactly ``clicks`` clicks given n photons on the array."""
    _check_integer(n, "photon number")
    if n < 0:
        raise ValueError("photon number must be >= 0")
    return float(povm_diagonal(detector, clicks, n)[n])


def _click_weights(detector: ClickDetectorArray, clicks: int, n_max: int) -> np.ndarray:
    """Vector of click weights for n = 0..n_max from the occupancy recurrence."""
    n_det = detector.num_detectors
    mu = detector.efficiency
    # fill[j] is built downward by ratios, in Python floats: no binomial is
    # formed, all values <= 1.
    dark = -math.expm1(-detector.dark_count_prob / n_det)
    fill = [0.0] * clicks + [math.exp(-detector.dark_count_prob * (n_det - clicks) / n_det)]
    for j in range(clicks - 1, -1, -1):
        fill[j] = fill[j + 1] * dark * (n_det - j) / (clicks - j)
    # hit_j(n+1) = (1 - mu + mu j/N) hit_j(n) + mu (N-j+1)/N hit_{j-1}(n).  Column 0
    # is the running product (1 - mu)^n; each later column is one in-place unit
    # lower-bidiagonal solve.  Fortran order spares the wrapper a copy.
    hits = np.zeros((n_max + 1, clicks + 1), order="F")
    hits[0, 0] = 1.0
    hits[1:, 0] = 1.0 - mu
    np.multiply.accumulate(hits[:, 0], out=hits[:, 0])
    band = np.empty((2, n_max + 1), order="F")
    for j in range(1, clicks + 1):
        np.multiply(hits[:-1, j - 1], mu * (n_det - j + 1) / n_det, out=hits[1:, j])
        band[1] = -(1.0 - mu + mu * j / n_det)
        dtbtrs(band, hits[:, j : j + 1], "L", "N", "U", 1)
    # Weight and sum the columns entry by entry, not by a matrix-vector product,
    # whose rounding can depend on the vector's length.
    weights = hits[:, 0] * fill[0]
    for j in range(1, clicks + 1):
        weights += hits[:, j] * fill[j]
    return weights


def povm_diagonal(detector: ClickDetectorArray, clicks: int, n_max: int) -> np.ndarray:
    """Read-only click-outcome weights w_n(clicks) for n = 0..n_max.

    Weights outside [0, 1] by more than rounding (or NaN) raise ValueError;
    rounding past a bound is clipped in place by ``np.minimum`` and
    ``np.maximum``, which skip ``np.clip``'s Python-level wrapper.
    """
    _check_clicks(detector, clicks)
    _check_integer(n_max, "n_max")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    weights = _click_weights(detector, clicks, n_max)
    low = float(weights.min())
    high = float(weights.max())
    if not (low >= -_WEIGHT_TOL and high <= 1.0 + _WEIGHT_TOL):  # NaN fails too
        raise ValueError(f"click weights outside [0, 1]: min {low:.3e}, max {high:.3e}")
    np.minimum(weights, 1.0, out=weights)
    np.maximum(weights, 0.0, out=weights)
    weights.flags.writeable = False
    return weights
