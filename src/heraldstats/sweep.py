"""Grid scans over (CAR, mu_h, mu_s), region thresholding, optimum finding.

Every grid point gets the figures of merit ``merit.report`` gives it, bit
for bit, without a ``report`` call: each vector a point needs (the thermal
vector of each CAR, the click weights of each mu_h, the loss-row/parity
block of each mu_s and the moment block) is built once, before the loop,
and each point reads prefixes of them.  A sweep returns one table, a dict
of arrays keyed by the export ``COLUMNS``: float64 coordinates and figures
of merit (NaN where a point has none), int64 ``k`` and ``target``, and a
``status`` string per row.  Rows come in row-major order over the axes as
declared, so two runs of the same sweep are bit-identical.  A value that
is the same at every point (a fixed parameter, the click count, the
target) is checked before any point is evaluated, and a bad one raises.
A failure that depends on the point (the cutoff cap, an impossible
herald, a target above the cutoff) becomes an error-marked row, so
exports stay rectangular.  A threshold region is a boolean mask over the
rows, and an optimum is a row index.
"""

from __future__ import annotations

import itertools
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detector import (
    DEFAULT_DARK_COUNT,
    DEFAULT_NUM_DETECTORS,
    ClickDetectorArray,
    _check_clicks,
    povm_diagonal,
)
from .fock import (
    _MOMENT_ROWS,
    TwinBeamSource,
    _check_integer,
    _falling_factorials,
    car_from_source,
    nbar_from_car,
    thermal_distribution,
)
from .heralding import _normalized
from .loss import LossChannel, _lossy_weights
from .merit import _check_target, _figures

__all__ = [
    "SWEEP_PARAMETERS",
    "FOM_NAMES",
    "COLUMNS",
    "SweepAxis",
    "run_sweep",
    "threshold_region",
    "find_optimum",
]

SWEEP_PARAMETERS = ("car", "mu_h", "mu_s")

_COMPARATORS = {">=": operator.ge, "<=": operator.le, ">": operator.gt, "<": operator.lt}


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter with its range, point count and spacing."""

    parameter: str
    min: float
    max: float
    steps: int
    scale: str = "linear"

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        if self.scale not in ("linear", "logarithmic"):
            raise ValueError(f"unknown axis scale {self.scale!r}")
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError(f"axis min and max must be finite, got {self.min!r}, {self.max!r}")
        _check_integer(self.steps, "axis steps")
        if self.steps < 1:
            raise ValueError("axis needs at least one step")
        if self.steps > 1 and not self.min < self.max:
            raise ValueError("axis needs min < max")
        if self.parameter == "car" and not self.min > 2.0:
            raise ValueError("car axis must start above the thermal floor of 2")
        if self.parameter in ("mu_h", "mu_s") and not (
            0.0 <= self.min and self.max <= 1.0
        ):
            raise ValueError("efficiency axes must lie within [0, 1]")
        if self.scale == "logarithmic" and self.min <= 0.0:
            raise ValueError("logarithmic axes need min > 0")

    def grid(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([self.min])
        if self.scale == "logarithmic":
            return np.geomspace(self.min, self.max, self.steps)
        return np.linspace(self.min, self.max, self.steps)


#: The figure-of-merit export columns, in the field order of ``FigureOfMeritReport``.
FOM_NAMES = ("fidelity", "g2", "g3", "success_prob", "parity", "mean_lossy", "mean_corrected")
_NO_FOMS = (math.nan,) * len(FOM_NAMES)

#: The sweep table's columns, in export order.
COLUMNS = ["car", "nbar", "mu_h", "mu_s", "k", "target", *FOM_NAMES, "status"]
_DTYPES = {"k": np.int64, "target": np.int64, "status": object}


def _validate_assignment(axes, car, nbar, mu_h, mu_s):
    swept = [axis.parameter for axis in axes]
    if len(set(swept)) != len(swept):
        raise ValueError(f"duplicate sweep axes: {swept}")
    if "car" in swept:
        if car is not None or nbar is not None:
            raise ValueError("car is swept; do not also fix car or nbar")
    elif (car is None) == (nbar is None):
        raise ValueError("fix exactly one of car or nbar (or sweep car)")
    if ("mu_h" in swept) == (mu_h is not None):
        raise ValueError("mu_h must appear exactly once, as axis or fixed value")
    if ("mu_s" in swept) == (mu_s is not None):
        raise ValueError("mu_s must appear exactly once, as axis or fixed value")


@contextmanager
def _concerning(parameter: str):
    """Tag a ValueError raised in the block with the keyword it concerns."""
    try:
        yield
    except ValueError as exc:
        exc.parameter = parameter
        raise


def _source_for(car: float | None, nbar: float | None) -> tuple[float, float, TwinBeamSource]:
    if car is not None:
        source = nbar_from_car(car)
        return float(car), source.mean_photon_number, source
    source = TwinBeamSource(nbar)
    car_value = car_from_source(source) if nbar > 0 else math.nan
    return car_value, float(nbar), source


def run_sweep(
    axes: Sequence[SweepAxis],
    *,
    clicks: int,
    target: int | None = None,
    num_detectors: int = DEFAULT_NUM_DETECTORS,
    dark_count_prob: float = DEFAULT_DARK_COUNT,
    car: float | None = None,
    nbar: float | None = None,
    mu_h: float | None = None,
    mu_s: float | None = None,
) -> dict[str, np.ndarray]:
    """Evaluate the report on every grid point, row-major over the declared axes.

    Returns the sweep table: one array per name in ``COLUMNS``, one entry per
    grid point.  Each of car (or nbar), mu_h and mu_s must appear exactly
    once, either as an axis or as a fixed value; the source is fixed by car
    when given, else by nbar.  The target photon number defaults to the
    click count, and every point uses ``DEFAULT_TRUNCATION``.

    Each source, detector array and loss channel is built once, before the
    loop, so a bad fixed value, click count or target raises ``ValueError``
    before any point is evaluated.  Where that error concerns the click
    count, the target, ``mu_h`` or ``mu_s``, whose messages do not name the
    keyword, ``exc.parameter`` does ("clicks", "target", "mu_h", "mu_s").

    Each point reads prefixes of the vectors built before the loop and
    evaluates them with the steps ``report`` takes, ``heralding._normalized``
    and ``merit._figures``, so every row equals ``report`` bit for bit.  A
    point for which ``report`` would raise ``ValueError`` becomes a row with
    NaN figures of merit and the status ``error: <reason>``, with the reason
    ``report`` would give: the cutoff cap, then click weights out of range,
    then an impossible herald, then a target above the cutoff.  Any other
    exception propagates.
    """
    axes = list(axes)
    _validate_assignment(axes, car, nbar, mu_h, mu_s)
    if target is None:
        target = clicks
    with _concerning("target"):
        _check_target(target, math.inf)  # each point checks its cutoff
    # N and nu are checked here, at unit efficiency, so a detector error below concerns mu_h
    array = ClickDetectorArray(1.0, num_detectors, dark_count_prob)
    with _concerning("clicks"):
        _check_clicks(array, clicks)

    grids = {axis.parameter: axis.grid().tolist() for axis in axes}
    sources = [_source_for(value, nbar) for value in grids.get("car", [car])]
    with _concerning("mu_h"):
        detectors = [
            ClickDetectorArray(float(value), num_detectors, dark_count_prob)
            for value in grids.get("mu_h", [mu_h])
        ]
    with _concerning("mu_s"):
        efficiencies = [
            LossChannel(float(value)).efficiency for value in grids.get("mu_s", [mu_s])
        ]

    built = {"car": [], "mu_h": []}
    for car_value, nbar_value, source in sources:
        try:
            thermal = thermal_distribution(source).probabilities
        except ValueError as exc:  # the cutoff cap: a row at every point of this CAR
            thermal = f"error: {exc}"
        built["car"].append((car_value, nbar_value, source, thermal))
    # The other vectors are built at the largest cutoff of the sweep: their
    # entries do not depend on the cutoff, so each point reads an exact prefix.
    cutoff = max(
        (len(thermal) - 1 for *_, thermal in built["car"] if not isinstance(thermal, str)),
        default=0,
    )
    for detector in detectors:
        try:
            weights = povm_diagonal(detector, clicks, cutoff)
        except ValueError:  # out of range past some cutoff: each point checks its own
            weights = None
        built["mu_h"].append((detector, weights))
    built["mu_s"] = [
        (value, _lossy_weights(value, target, cutoff) if value > 0.0 else None)
        for value in efficiencies
    ]
    moments = _falling_factorials(_MOMENT_ROWS, cutoff)
    # The product runs over the axes as declared, then the one-element fixed
    # values; ``pick`` puts each point back in (car, mu_h, mu_s) order.
    order = list(grids) + [name for name in SWEEP_PARAMETERS if name not in grids]
    pick = operator.itemgetter(*map(order.index, SWEEP_PARAMETERS))

    rows = []
    for (car_value, nbar_value, source, thermal), (detector, weights), (mu_s_value, lossy) in map(
        pick, itertools.product(*(built[name] for name in order))
    ):
        coordinates = (car_value, nbar_value, detector.efficiency, mu_s_value, clicks, target)
        if isinstance(thermal, str):
            rows.append((*coordinates, *_NO_FOMS, thermal))
            continue
        size = len(thermal)
        try:
            if weights is None:
                point_weights = povm_diagonal(detector, clicks, size - 1)
            else:
                point_weights = weights[:size]
            probs, success = _normalized(point_weights, thermal, source, detector, clicks)
            _check_target(target, size - 1)
            lossy_prefix = None if lossy is None else lossy[:, :size]
            foms = _figures(probs, success, target, mu_s_value, moments[:, :size], lossy_prefix)
        except ValueError as exc:
            rows.append((*coordinates, *_NO_FOMS, f"error: {exc}"))
        else:
            rows.append((*coordinates, *foms, "ok"))
    return {
        name: np.array(column, dtype=_DTYPES.get(name, np.float64))
        for name, column in zip(COLUMNS, zip(*rows))
    }


def threshold_region(
    table: dict[str, np.ndarray], fom: str, comparator: str, level: float
) -> np.ndarray:
    """Boolean mask of the ``ok`` rows whose finite figure of merit meets the level."""
    if fom not in FOM_NAMES:
        raise ValueError(f"unknown figure of merit {fom!r}")
    if comparator not in _COMPARATORS:
        raise ValueError(f"unknown comparator {comparator!r}")
    values = table[fom]
    return (table["status"] == "ok") & np.isfinite(values) & _COMPARATORS[comparator](values, level)


def find_optimum(
    table: dict[str, np.ndarray],
    fom: str,
    direction: str = "max",
    constraints: Sequence[tuple[str, str, float]] = (),
) -> int:
    """Row index extremizing the objective, subject to optional threshold constraints.

    Only ``ok`` rows with a finite objective compete.  Ties are broken
    deterministically: lower car, then higher mu_h, then higher mu_s.
    """
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    # every finite value meets ">= -inf", so this keeps the ok rows with a finite objective
    feasible = threshold_region(table, fom, ">=", -math.inf)
    for constraint in constraints:
        feasible &= threshold_region(table, *constraint)
    rows = np.flatnonzero(feasible)
    if rows.size == 0:
        raise ValueError("no feasible grid point for the requested optimum")
    sign = -1.0 if direction == "max" else 1.0
    # np.lexsort sorts by its last key first: objective, then car, -mu_h, -mu_s
    keys = (-table["mu_s"], -table["mu_h"], table["car"], sign * table[fom])
    return int(rows[np.lexsort([key[rows] for key in keys])[0]])
