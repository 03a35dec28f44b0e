"""Click-counting measurement of an N-detector array, diagonal in photon number.

A bank of N identical binary ("click") detectors with uniform intensity
splitting, per-array efficiency mu and dark-count parameter nu.  The outcome
"exactly k of the N detectors click" acts diagonally on Fock states with
weight

    w_n(k) = sum_{m=0}^{k} C(N,k) C(k,m) (-1)^m
             * exp(-(nu/N) (N+m-k)) * (1 - (mu/N) (N+m-k))^n .

The m-sum alternates in sign, so both entry points accumulate it carefully:
the scalar one with compensated summation, the vectorized one with numpy's
pairwise reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import Truncation

__all__ = [
    "ClickDetectorArray",
    "PovmDiagonal",
    "povm_weight",
    "povm_diagonal",
]

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class ClickDetectorArray:
    """N click detectors with per-array efficiency and dark-count parameter."""

    efficiency: float
    num_detectors: int = 4
    dark_count_prob: float = 5e-4

    def __post_init__(self):
        if self.num_detectors < 1:
            raise ValueError("need at least one detector")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.efficiency!r}")
        if not (math.isfinite(self.dark_count_prob) and self.dark_count_prob >= 0.0):
            raise ValueError(
                f"dark count parameter must be finite and >= 0, got {self.dark_count_prob!r}"
            )


def _check_clicks(detector: ClickDetectorArray, clicks: int) -> None:
    if not 0 <= clicks <= detector.num_detectors:
        raise ValueError(
            f"click count {clicks} outside 0..{detector.num_detectors}"
        )


def _term_factors(detector: ClickDetectorArray, clicks: int, m: int) -> tuple[float, float]:
    """Coefficient and geometric base of the m-th term of the click weight."""
    n_det = detector.num_detectors
    silent = n_det + m - clicks
    coeff = math.comb(n_det, clicks) * math.comb(clicks, m) * (-1.0) ** m
    coeff *= math.exp(-detector.dark_count_prob * silent / n_det)
    base = 1.0 - detector.efficiency * silent / n_det
    return coeff, base


def povm_weight(detector: ClickDetectorArray, clicks: int, n: int) -> float:
    """Probability of exactly ``clicks`` clicks given n photons on the array."""
    _check_clicks(detector, clicks)
    if n < 0:
        raise ValueError("photon number must be >= 0")
    terms = []
    for m in range(clicks + 1):
        coeff, base = _term_factors(detector, clicks, m)
        terms.append(coeff * base**n)
    return math.fsum(terms)


def _click_weights(detector: ClickDetectorArray, clicks: int, n_max: int) -> np.ndarray:
    """Vector of click weights for n = 0..n_max (pairwise-summed over m)."""
    n = np.arange(n_max + 1)
    terms = np.empty((clicks + 1, n_max + 1))
    for m in range(clicks + 1):
        coeff, base = _term_factors(detector, clicks, m)
        terms[m] = coeff * base**n
    return terms.sum(axis=0)


@lru_cache(maxsize=16384)
def _clipped_weights(detector: ClickDetectorArray, clicks: int, n_max: int) -> "PovmDiagonal":
    """Validated weights of one click outcome, cached per (detector, clicks, n_max)."""
    return PovmDiagonal(clicks, _click_weights(detector, clicks, n_max))


class PovmDiagonal:
    """Diagonal weights of one click outcome over photon numbers 0..n_max."""

    __slots__ = ("clicks", "_weights")

    def __init__(self, clicks: int, weights):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-d vector")
        low = float(weights.min())
        high = float(weights.max())
        if low < -_WEIGHT_TOL or high > 1.0 + _WEIGHT_TOL:
            raise ValueError(
                f"click weights outside [0, 1]: min {low:.3e}, max {high:.3e}"
            )
        clipped = np.clip(weights, 0.0, 1.0)
        clipped.flags.writeable = False
        self.clicks = clicks
        self._weights = clipped

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def n_max(self) -> int:
        return self._weights.size - 1

    def __repr__(self) -> str:
        return f"PovmDiagonal(clicks={self.clicks}, n_max={self.n_max})"


def povm_diagonal(
    detector: ClickDetectorArray, clicks: int, trunc: Truncation
) -> PovmDiagonal:
    """Click-outcome weights up to the cutoff fixed by ``trunc``."""
    _check_clicks(detector, clicks)
    n_max = trunc.resolve_n_max(None)
    return _clipped_weights(detector, clicks, n_max)
