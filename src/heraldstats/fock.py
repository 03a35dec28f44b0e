"""Truncated photon-number statistics of single-mode twin beams.

Everything downstream works on finite probability vectors over the photon
number n = 0..n_max.  The twin-beam source is reduced to its mean photon
number per pulse, nbar; its marginal statistics are thermal,

    P_n = nbar**n / (1 + nbar)**(n + 1),

and the signal/idler pair correlation gives CAR = 2 + 1/nbar, which is the
knob experiments actually turn (it is inversely related to pump power).
Distributions are renormalized after truncation so that every consumer can
rely on an exact sum of one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

__all__ = [
    "DEFAULT_TAIL_EPSILON",
    "TRUNCATION_CAP",
    "PROBABILITY_SUM_TOL",
    "TruncationCapError",
    "Truncation",
    "DEFAULT_TRUNCATION",
    "TwinBeamSource",
    "PhotonStatistics",
    "thermal_distribution",
    "nbar_from_car",
    "car_from_source",
    "mean",
    "factorial_moment",
]

DEFAULT_TAIL_EPSILON = 1e-14
TRUNCATION_CAP = 4096

#: Tolerance on sum(probabilities) == 1 accepted at construction.
PROBABILITY_SUM_TOL = 1e-10
_NEGATIVE_TOL = 1e-12


class TruncationCapError(ValueError):
    """Adaptive tail bound cannot be met below the configured cap."""

    def __init__(self, required_n_max: int, cap: int):
        self.required_n_max = required_n_max
        self.cap = cap
        super().__init__(
            f"truncation cap {cap} exceeded: the requested tail bound needs "
            f"n_max = {required_n_max}"
        )


@dataclass(frozen=True)
class Truncation:
    """Photon-number cutoff policy.

    Either a fixed cutoff ``n_max`` or an adaptive one chosen as the
    smallest cutoff whose analytic thermal tail, (nbar/(1+nbar))**(n_max+1),
    falls below ``tail_epsilon``.  Both modes are clamped at ``cap``.
    """

    mode: str
    n_max: int | None = None
    tail_epsilon: float | None = None
    cap: int = TRUNCATION_CAP

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError("truncation cap must be at least 1")
        if self.mode == "fixed":
            if self.n_max is None or self.n_max < 0:
                raise ValueError("fixed truncation needs n_max >= 0")
            if self.n_max > self.cap:
                raise ValueError(f"n_max = {self.n_max} exceeds cap = {self.cap}")
        elif self.mode == "adaptive":
            if self.tail_epsilon is None or not 0.0 < self.tail_epsilon < 1.0:
                raise ValueError("adaptive truncation needs tail_epsilon in (0, 1)")
        else:
            raise ValueError(f"unknown truncation mode {self.mode!r}")

    @classmethod
    def fixed(cls, n_max: int, cap: int | None = None) -> "Truncation":
        if cap is None:
            cap = max(TRUNCATION_CAP, n_max)
        return cls(mode="fixed", n_max=n_max, cap=cap)

    @classmethod
    def adaptive(
        cls, tail_epsilon: float = DEFAULT_TAIL_EPSILON, cap: int = TRUNCATION_CAP
    ) -> "Truncation":
        return cls(mode="adaptive", tail_epsilon=tail_epsilon, cap=cap)

    def resolve_n_max(self, source: "TwinBeamSource") -> int:
        """Concrete cutoff; adaptive mode bounds the source's thermal tail."""
        if self.mode == "fixed":
            return int(self.n_max)
        nbar = source.mean_photon_number
        if nbar == 0.0:
            return 0
        log_ratio = math.log(nbar / (1.0 + nbar))
        log_eps = math.log(self.tail_epsilon)
        needed = max(math.ceil(log_eps / log_ratio) - 1, 0)
        while (needed + 1) * log_ratio >= log_eps:
            needed += 1
        if needed > self.cap:
            raise TruncationCapError(needed, self.cap)
        return needed


DEFAULT_TRUNCATION = Truncation.adaptive()


@dataclass(frozen=True)
class TwinBeamSource:
    """Single-mode twin-beam source, reduced to its mean photon number.

    Phases never enter any quantity computed here (all measurements are
    diagonal in photon number), so the squeezing strength only matters
    through its magnitude |lambda|^2 = nbar/(1+nbar).
    """

    mean_photon_number: float

    def __post_init__(self):
        nbar = self.mean_photon_number
        if not (math.isfinite(nbar) and nbar >= 0.0):
            raise ValueError(f"mean photon number must be finite and >= 0, got {nbar!r}")

    @property
    def squeezing_magnitude(self) -> float:
        """|lambda|^2 = nbar/(1+nbar), in [0, 1)."""
        nbar = self.mean_photon_number
        return nbar / (1.0 + nbar)


@lru_cache(maxsize=64)
def _index_array(size: int) -> np.ndarray:
    indices = np.arange(size, dtype=float)
    indices.flags.writeable = False
    return indices


class PhotonStatistics:
    """Normalized probability vector over photon numbers 0..n_max."""

    __slots__ = ("_probs",)

    def __init__(self, probabilities):
        probs = np.asarray(probabilities, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probabilities must be a non-empty 1-d vector")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
        smallest = float(probs.min())
        if smallest < -_NEGATIVE_TOL:
            raise ValueError(f"negative probability {smallest:.3e}")
        total = float(probs.sum())
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise ValueError(
                f"probabilities sum to {total!r}; expected 1 within {PROBABILITY_SUM_TOL}"
            )
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
        probs.flags.writeable = False
        self._probs = probs

    @classmethod
    def _trusted(cls, probs: np.ndarray) -> "PhotonStatistics":
        # Fast path for values already validated by the caller.
        probs.flags.writeable = False
        obj = object.__new__(cls)
        obj._probs = probs
        return obj

    @classmethod
    def from_unnormalized(cls, values) -> "PhotonStatistics":
        """Build statistics from nonnegative weights of any positive total."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("weights must be a non-empty 1-d vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("weights must be finite")
        smallest = float(values.min())
        if smallest < -_NEGATIVE_TOL:
            raise ValueError(f"negative weight {smallest:.3e}")
        if smallest < 0.0:
            values = np.clip(values, 0.0, None)
        total = values.sum()
        if total <= 0.0:
            raise ValueError("weights sum to zero; no distribution")
        return cls._trusted(values / total)

    @classmethod
    def fock(cls, photon_number: int, n_max: int | None = None) -> "PhotonStatistics":
        """Point mass on |photon_number>, padded out to n_max."""
        if photon_number < 0:
            raise ValueError("photon number must be >= 0")
        if n_max is None:
            n_max = photon_number
        if n_max < photon_number:
            raise ValueError("n_max must be >= photon_number")
        probs = np.zeros(n_max + 1)
        probs[photon_number] = 1.0
        return cls(probs)

    @property
    def probabilities(self) -> np.ndarray:
        return self._probs

    @property
    def n_max(self) -> int:
        return self._probs.size - 1

    def __len__(self) -> int:
        return self._probs.size

    def __repr__(self) -> str:
        return f"PhotonStatistics(n_max={self.n_max}, mean={mean(self):.6g})"


@lru_cache(maxsize=2048)
def thermal_distribution(
    source: TwinBeamSource, trunc: Truncation = DEFAULT_TRUNCATION
) -> PhotonStatistics:
    """Truncated, renormalized thermal distribution of the twin-beam marginal.

    Memoized: statistics are immutable and sweeps revisit the same source
    many times.
    """
    n_max = trunc.resolve_n_max(source)
    nbar = source.mean_photon_number
    if nbar == 0.0:
        return PhotonStatistics.fock(0, n_max)
    ratio = nbar / (1.0 + nbar)
    weights = ratio ** np.arange(n_max + 1)
    return PhotonStatistics._trusted(weights / weights.sum())


def nbar_from_car(car: float) -> TwinBeamSource:
    """Invert CAR = 2 + 1/nbar; only defined above the thermal floor of 2."""
    if not car > 2.0:
        raise ValueError(
            f"CAR = {car!r} is out of range: single-mode thermal twin beams have CAR > 2"
        )
    return TwinBeamSource(1.0 / (car - 2.0))


def car_from_source(source: TwinBeamSource) -> float:
    nbar = source.mean_photon_number
    if nbar == 0.0:
        raise ValueError("CAR is undefined for a source with zero mean photon number")
    return 2.0 + 1.0 / nbar


def mean(stats: PhotonStatistics) -> float:
    """First moment sum(n * p_n)."""
    probs = stats.probabilities
    return float(np.dot(_index_array(probs.size), probs))


def _factorial_moments(probs: np.ndarray, lowest: int, highest: int) -> list[float]:
    """Factorial moments of orders lowest..highest from one running falling product.

    Accumulated multiplicatively, never through explicit factorials, so the
    intermediate products stay within float range for any sane cutoff.
    """
    n = _index_array(probs.size)
    acc = probs.copy()
    moments = []
    for j in range(highest):
        acc *= n - j
        if j + 1 >= lowest:
            moments.append(float(acc.sum()))
    return moments


def factorial_moment(stats: PhotonStatistics, order: int) -> float:
    """Unnormalized factorial moment sum(n(n-1)...(n-order+1) * p_n)."""
    if order < 1:
        raise ValueError("factorial moment order must be >= 1")
    (moment,) = _factorial_moments(stats.probabilities, order, order)
    return moment


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _prefix_cache(maxsize: int):
    """Cache ``compute(*key, n_max)`` by ``key`` alone.

    For functions whose result runs over n = 0..n_max along its last axis
    and whose entries do not depend on n_max, so that the result at a
    smaller cutoff is exactly a prefix of the result at a larger one.  Each
    key keeps the longest read-only result computed so far: a request it
    covers gets that result, or a read-only prefix view of it, and computes
    nothing (a hit); any other request computes at exactly its own cutoff
    and replaces it (a miss).  Every stored result is exact at its own
    cutoff, so concurrent callers always get exact results; a race can at
    worst make one compute again.  Keys are evicted least recently used, as
    by ``functools.lru_cache``, whose ``cache_info``/``cache_clear``
    interface the wrapper keeps.
    """

    def decorate(compute):
        slots = lru_cache(maxsize)(lambda *key: [None])
        counts = [0, 0]  # hits, misses

        @wraps(compute)
        def cached(*args):
            slot = slots(*args[:-1])
            stored = slot[0]
            size = args[-1] + 1
            if stored is None or stored.shape[-1] < size:
                counts[1] += 1
                slot[0] = stored = compute(*args)
                return stored
            counts[0] += 1
            return stored if stored.shape[-1] == size else stored[..., :size]

        def cache_info():
            return _CacheInfo(*counts, maxsize, slots.cache_info().currsize)

        def cache_clear():
            slots.cache_clear()
            counts[:] = [0, 0]

        cached.cache_info = cache_info
        cached.cache_clear = cache_clear
        return cached

    return decorate
