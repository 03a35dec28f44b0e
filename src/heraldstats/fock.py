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
from dataclasses import dataclass

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
_LOG_TAIL_EPSILON = math.log(DEFAULT_TAIL_EPSILON)

#: Tolerance on sum(probabilities) == 1 accepted at construction.
PROBABILITY_SUM_TOL = 1e-10
_NEGATIVE_TOL = 1e-12


def _check_integer(value, what: str) -> None:
    """Reject anything but an int or numpy integer (a bool too): the type of every count."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")


class TruncationCapError(ValueError):
    """The adaptive tail bound cannot be met at or below ``TRUNCATION_CAP``."""

    def __init__(self, required_n_max: int):
        self.required_n_max = required_n_max
        shown = str(required_n_max)
        if len(shown) > 16:  # huge nbar: keep the message short, rounded to 4 digits
            exponent = len(shown) - 1
            scale = 10 ** (exponent - 3)
            digits = (required_n_max + scale // 2) // scale
            if digits == 10_000:  # 9.9995... carries up to 1.000e(exponent + 1)
                digits, exponent = 1000, exponent + 1
            shown = f"about {digits // 1000}.{digits % 1000:03d}e{exponent}"
        super().__init__(
            f"truncation cap {TRUNCATION_CAP} exceeded: "
            f"the requested tail bound needs n_max = {shown}"
        )


@dataclass(frozen=True)
class Truncation:
    """Photon-number cutoff policy.

    ``Truncation(n_max=...)`` (or ``Truncation.fixed``) is a fixed cutoff.
    ``Truncation()`` is adaptive: the smallest cutoff whose analytic thermal
    tail, (nbar/(1+nbar))**(n_max+1), falls below ``DEFAULT_TAIL_EPSILON``,
    and at most ``TRUNCATION_CAP``, which bounds only the adaptive cutoff.
    """

    n_max: int | None = None

    def __post_init__(self):
        if self.n_max is not None:
            _check_integer(self.n_max, "fixed truncation n_max")
            if self.n_max < 0:
                raise ValueError("fixed truncation needs n_max >= 0")

    @classmethod
    def fixed(cls, n_max: int) -> "Truncation":
        return cls(n_max=n_max)

    def resolve_n_max(self, source: "TwinBeamSource") -> int:
        """Concrete cutoff; the adaptive one bounds the source's thermal tail."""
        if self.n_max is not None:
            return int(self.n_max)
        nbar = source.mean_photon_number
        if nbar == 0.0:
            return 0
        # log(nbar / (1 + nbar)); formed by division, it rounds to 0 above nbar ~ 9e15.
        log_ratio = -math.log1p(1.0 / nbar)
        steps = _LOG_TAIL_EPSILON / log_ratio  # inf above nbar ~ 5e306
        if steps > TRUNCATION_CAP + 1:
            # Past the cap the loop below could not take unit steps (steps passes
            # 2^53 near nbar ~ 3e14), so count the cutoff floor(steps) exactly.
            eps_num, eps_den = (-_LOG_TAIL_EPSILON).as_integer_ratio()
            ratio_num, ratio_den = (-log_ratio).as_integer_ratio()
            raise TruncationCapError(eps_num * ratio_den // (eps_den * ratio_num))
        needed = max(math.ceil(steps) - 1, 0)
        while (needed + 1) * log_ratio >= _LOG_TAIL_EPSILON:
            needed += 1
        if needed > TRUNCATION_CAP:
            raise TruncationCapError(needed)
        return needed


DEFAULT_TRUNCATION = Truncation()


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
        if smallest < 0.0:  # rounding noise
            probs = np.clip(probs, 0.0, None)
        total = float(probs.sum())
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise ValueError(
                f"probabilities sum to {total!r}; expected 1 within {PROBABILITY_SUM_TOL}"
            )
        self._probs = probs / total
        self._probs.flags.writeable = False

    @classmethod
    def _trusted(cls, probs: np.ndarray) -> "PhotonStatistics":
        # Fast path for values already validated by the caller.
        probs.flags.writeable = False
        obj = object.__new__(cls)
        obj._probs = probs
        return obj

    @classmethod
    def fock(cls, photon_number: int, n_max: int | None = None) -> "PhotonStatistics":
        """Point mass on |photon_number>, padded out to n_max."""
        _check_integer(photon_number, "photon number")
        if photon_number < 0:
            raise ValueError("photon number must be >= 0")
        if n_max is None:
            n_max = photon_number
        _check_integer(n_max, "n_max")
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


def thermal_distribution(
    source: TwinBeamSource, trunc: Truncation = DEFAULT_TRUNCATION
) -> PhotonStatistics:
    """Truncated, renormalized thermal distribution of the twin-beam marginal.

    Built afresh on each call; a sweep calls it once per CAR.
    """
    n_max = trunc.resolve_n_max(source)
    # at nbar = 0 this is the vacuum vector, since 0.0 ** 0 == 1
    weights = source.squeezing_magnitude ** np.arange(n_max + 1)
    # np.add.reduce is ndarray.sum without its Python-level wrapper
    return PhotonStatistics._trusted(weights / np.add.reduce(weights))


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
    """First moment sum(n * p_n), row 0 of the falling-factorial product."""
    return (_moment_block(1, stats.n_max) @ stats.probabilities)[0].item()


def factorial_moment(stats: PhotonStatistics, order: int) -> float:
    """Unnormalized factorial moment sum(n(n-1)...(n-order+1) * p_n).

    Row ``order - 1`` of the falling-factorial product: orders 1-3 read the
    same three-row block as ``mean`` and ``report``, so the mean, F2 and F3
    of one distribution are bit for bit the same whichever a caller asks
    for; higher orders take a taller block.
    """
    _check_integer(order, "factorial moment order")
    if order < 1:
        raise ValueError("factorial moment order must be >= 1")
    return (_moment_block(order, stats.n_max) @ stats.probabilities)[order - 1].item()


#: Rows of the falling-factorial block that every moment is read from.
_MOMENT_ROWS = 3


def _falling_factorials(rows: int, n_max: int) -> np.ndarray:
    """Read-only (rows, n_max + 1) block: row r holds n(n-1)...(n-r), n = 0..n_max.

    Row 0 is n itself.  Each row is the one above times n - r, so entry n
    depends on n alone and a block at a smaller cutoff is an exact prefix of
    one at a larger cutoff.  The entries are integers, exact while below
    2^53 (order 3 up to n ~ 2e5); an entry past the float range is an error,
    not an infinity.
    """
    n = np.arange(n_max + 1.0)
    block = np.empty((rows, n_max + 1))
    block[0] = n
    with np.errstate(over="ignore"):  # reported below
        for r in range(1, rows):
            np.multiply(block[r - 1], n - r, out=block[r])
            block[r, :r] = 0.0  # the factor n - r made these -0.0
    if not math.isfinite(block[-1, -1]):
        raise ValueError(f"factorial moment of order {rows} overflows at n_max = {n_max}")
    block.flags.writeable = False
    return block


#: The three moment rows at the adaptive cap, built once (98 KB).
_MOMENTS = _falling_factorials(_MOMENT_ROWS, TRUNCATION_CAP)


def _moment_block(rows: int, n_max: int) -> np.ndarray:
    """Falling-factorial block over n = 0..n_max with at least ``rows`` rows.

    Up to three rows and the cap it is a read-only prefix view of
    ``_MOMENTS``; a higher order or a fixed cutoff past the cap builds its
    own block.  Either way entry n is the same exact integer.
    """
    if rows <= _MOMENT_ROWS and n_max <= TRUNCATION_CAP:
        return _MOMENTS[:, : n_max + 1]
    return _falling_factorials(max(rows, _MOMENT_ROWS), n_max)
