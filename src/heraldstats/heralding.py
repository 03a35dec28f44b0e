"""Conditioning the signal beam on a k-click outcome in the idler arm.

Because both the reduced twin-beam state and the click measurement are
diagonal in photon number, the heralded signal state is fully described by
its photon-number distribution

    p_n  propto  w_n(k) * P_n(nbar),

and the normalization sum is exactly the per-pulse probability of the
heralding outcome.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .detector import ClickDetectorArray, povm_diagonal
from .fock import (
    DEFAULT_TRUNCATION,
    PhotonStatistics,
    Truncation,
    TwinBeamSource,
    thermal_distribution,
)

__all__ = [
    "ImpossibleHeraldError",
    "HeraldConfig",
    "HeraldedState",
    "herald",
    "success_probability",
]


class ImpossibleHeraldError(ValueError):
    """The requested click outcome has zero probability; no state to normalize."""


class HeraldConfig(NamedTuple):
    """One heralding arrangement: source, detector array, click count, cutoff.

    A plain tuple, checked where it is used: ``povm_diagonal`` rejects a bad
    click count for ``herald``, ``success_probability`` and ``merit.report``.
    """

    source: TwinBeamSource
    detector: ClickDetectorArray
    clicks: int
    trunc: Truncation = DEFAULT_TRUNCATION


class HeraldedState(NamedTuple):
    """Lossless heralded signal statistics plus the herald success probability."""

    statistics: PhotonStatistics
    success_probability: float


def herald(config: HeraldConfig) -> HeraldedState:
    """Heralded signal statistics for a k-click outcome.

    Raises :class:`ImpossibleHeraldError` when the outcome has zero
    probability (for example a click demanded from a dark-count-free
    detector seeing vacuum), rather than returning NaNs, and ``ValueError``
    for a click count that ``povm_diagonal`` rejects.
    """
    # The cutoff authority is the source distribution; the click weights are
    # evaluated pointwise to the same n_max.
    thermal = thermal_distribution(config.source, config.trunc)
    weights = povm_diagonal(config.detector, config.clicks, thermal.n_max)
    probs, total = _normalized(
        weights, thermal.probabilities, config.source, config.detector, config.clicks
    )
    return HeraldedState(PhotonStatistics._trusted(probs), total)


def _normalized(
    weights: np.ndarray,
    thermal: np.ndarray,
    source: TwinBeamSource,
    detector: ClickDetectorArray,
    clicks: int,
) -> tuple[np.ndarray, float]:
    """p = w P / sum(w P) and the herald probability, from equal-length vectors.

    The normalisation ``herald`` and ``sweep.run_sweep`` share; the source,
    detector and click count only name the outcome in the error.
    """
    unnormalized = weights * thermal
    total = float(np.add.reduce(unnormalized))  # ndarray.sum without its Python wrapper
    if total <= 0.0:
        raise ImpossibleHeraldError(
            f"herald outcome clicks={clicks} has zero probability for "
            f"nbar={source.mean_photon_number!r}, "
            f"efficiency={detector.efficiency!r}, "
            f"dark_count_prob={detector.dark_count_prob!r}"
        )
    # Validated click weights times a validated thermal vector: nonnegative and finite.
    return unnormalized / total, min(total, 1.0)


def success_probability(config: HeraldConfig) -> float:
    """Per-pulse probability of the heralding outcome, 0 for an impossible herald.

    The ``success_probability`` field of :func:`herald`.  Structurally
    independent of the signal-arm efficiency: no such parameter exists here.
    """
    try:
        return herald(config).success_probability
    except ImpossibleHeraldError:
        return 0.0
