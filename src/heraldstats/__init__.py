"""Heralded photon-number states from single-mode twin beams.

Simulates heralding single-, two- and three-photon states on a k-click
outcome of an N-detector click array, propagates the heralded state through
signal-arm loss, evaluates the figures of merit (fidelity, g^(2), g^(3),
success probability, photon-number parity, loss-corrected mean), and sweeps
the experimentally accessible knobs (CAR, heralding efficiency, signal
efficiency) to locate high-quality preparation regions.
"""

from .detector import ClickDetectorArray, povm_diagonal, povm_weight
from .fock import (
    DEFAULT_TAIL_EPSILON,
    DEFAULT_TRUNCATION,
    TRUNCATION_CAP,
    PhotonStatistics,
    Truncation,
    TruncationCapError,
    TwinBeamSource,
    car_from_source,
    factorial_moment,
    mean,
    nbar_from_car,
    thermal_distribution,
)
from .heralding import (
    HeraldConfig,
    HeraldedState,
    ImpossibleHeraldError,
    herald,
    success_probability,
)
from .loss import LossChannel, UnphysicalInversionError, apply_loss, invert_loss
from .merit import (
    FigureOfMeritReport,
    NonConvergentSeriesError,
    cross_correlation,
    dark_count_ratio,
    fidelity,
    g_factorial,
    parity_direct,
    parity_from_moments,
    report,
)
from .sweep import (
    FOM_NAMES,
    RegionMask,
    SweepAxis,
    SweepRecord,
    find_optimum,
    fom_value,
    mean_vs_car_curve,
    run_sweep,
    threshold_region,
)

__version__ = "0.1.0"

__all__ = [
    "ClickDetectorArray",
    "povm_diagonal",
    "povm_weight",
    "DEFAULT_TAIL_EPSILON",
    "DEFAULT_TRUNCATION",
    "TRUNCATION_CAP",
    "PhotonStatistics",
    "Truncation",
    "TruncationCapError",
    "TwinBeamSource",
    "car_from_source",
    "factorial_moment",
    "mean",
    "nbar_from_car",
    "thermal_distribution",
    "HeraldConfig",
    "HeraldedState",
    "ImpossibleHeraldError",
    "herald",
    "success_probability",
    "LossChannel",
    "UnphysicalInversionError",
    "apply_loss",
    "invert_loss",
    "FigureOfMeritReport",
    "NonConvergentSeriesError",
    "cross_correlation",
    "dark_count_ratio",
    "fidelity",
    "g_factorial",
    "parity_direct",
    "parity_from_moments",
    "report",
    "FOM_NAMES",
    "RegionMask",
    "SweepAxis",
    "SweepRecord",
    "find_optimum",
    "fom_value",
    "mean_vs_car_curve",
    "run_sweep",
    "threshold_region",
]
