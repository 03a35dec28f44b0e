"""Grid scans over (CAR, mu_h, mu_s), region thresholding, optimum finding.

Every grid point is an independent pure evaluation of ``merit.report``;
records come out in row-major order over the axes as declared, so two runs
of the same sweep are bit-identical.  Points where the herald is impossible
(or any other domain failure occurs) are kept as error-marked records so
exports stay rectangular.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detector import ClickDetectorArray
from .fock import (
    DEFAULT_TRUNCATION,
    Truncation,
    TwinBeamSource,
    car_from_source,
    mean,
    nbar_from_car,
)
from .heralding import HeraldConfig, herald
from .loss import LossChannel
from .merit import FigureOfMeritReport, report

__all__ = [
    "SWEEP_PARAMETERS",
    "FOM_NAMES",
    "SweepAxis",
    "SweepRecord",
    "RegionMask",
    "evaluate_point",
    "run_sweep",
    "threshold_region",
    "find_optimum",
    "mean_vs_car_curve",
]

SWEEP_PARAMETERS = ("car", "mu_h", "mu_s")

_COMPARATORS = {
    ">=": lambda value, level: value >= level,
    "<=": lambda value, level: value <= level,
    ">": lambda value, level: value > level,
    "<": lambda value, level: value < level,
}


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


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: coordinates, herald setting, report (or error marker)."""

    car: float
    nbar: float
    mu_h: float
    mu_s: float
    clicks: int
    target: int
    report: FigureOfMeritReport | None
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.report is not None


#: Figure-of-merit export column -> FigureOfMeritReport attribute, in export order.
_FOM_COLUMNS = {
    "fidelity": "fidelity",
    "g2": "g2",
    "g3": "g3",
    "success_prob": "success_probability",
    "parity": "parity",
    "mean_lossy": "mean_lossy",
    "mean_corrected": "mean_loss_corrected",
}

FOM_NAMES = tuple(_FOM_COLUMNS)


def fom_value(record: SweepRecord, name: str) -> float:
    """Figure-of-merit accessor by export column name."""
    if record.report is None:
        return math.nan
    if name not in _FOM_COLUMNS:
        raise ValueError(f"unknown figure of merit {name!r}")
    return getattr(record.report, _FOM_COLUMNS[name])


@dataclass(frozen=True)
class RegionMask:
    """Grid indices satisfying one threshold predicate, plus axis extents."""

    fom: str
    comparator: str
    level: float
    indices: tuple[int, ...]
    extents: dict[str, tuple[float, float]]

    def __len__(self) -> int:
        return len(self.indices)


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


def _source_for(car: float | None, nbar: float | None) -> tuple[float, float, TwinBeamSource]:
    if car is not None:
        source = nbar_from_car(car)
        return float(car), source.mean_photon_number, source
    source = TwinBeamSource(nbar)
    car_value = car_from_source(source) if nbar > 0 else math.nan
    return car_value, float(nbar), source


def evaluate_point(
    car: float | None,
    nbar: float | None,
    mu_h: float,
    mu_s: float,
    *,
    clicks: int,
    target: int,
    num_detectors: int,
    dark_count_prob: float,
    trunc: Truncation,
) -> SweepRecord:
    """Record of one grid point; raises the domain error of a point that fails.

    The source is fixed by ``car`` when given, else by ``nbar``.
    """
    car_value, nbar_value, source = _source_for(car, nbar)
    detector = ClickDetectorArray(
        efficiency=mu_h,
        num_detectors=num_detectors,
        dark_count_prob=dark_count_prob,
    )
    config = HeraldConfig(source, detector, clicks, trunc)
    return SweepRecord(
        car=car_value,
        nbar=nbar_value,
        mu_h=mu_h,
        mu_s=mu_s,
        clicks=clicks,
        target=target,
        report=report(config, LossChannel(mu_s), target),
    )


def run_sweep(
    axes: Sequence[SweepAxis],
    *,
    clicks: int,
    target: int | None = None,
    num_detectors: int = 4,
    dark_count_prob: float = 5e-4,
    car: float | None = None,
    nbar: float | None = None,
    mu_h: float | None = None,
    mu_s: float | None = None,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> list[SweepRecord]:
    """Evaluate the report on every grid point, row-major over the declared axes.

    Each of car (or nbar), mu_h and mu_s must appear exactly once, either as
    an axis or as a fixed value.  The target photon number defaults to the
    click count.  Bad fixed source or detector parameters raise; a point
    whose herald or report fails becomes an error-marked record.
    """
    axes = list(axes)
    _validate_assignment(axes, car, nbar, mu_h, mu_s)
    if target is None:
        target = clicks

    names = [axis.parameter for axis in axes]
    # Swept values are in range by SweepAxis, so only fixed values can make
    # the source or detector invalid; check them once, outside the error rows.
    if "car" not in names:
        _source_for(car, nbar)
    ClickDetectorArray(
        efficiency=1.0 if mu_h is None else float(mu_h),
        num_detectors=num_detectors,
        dark_count_prob=dark_count_prob,
    )

    records: list[SweepRecord] = []
    for values in itertools.product(*(axis.grid() for axis in axes)):
        point = dict(zip(names, map(float, values)))
        point_car = point.get("car", car)
        mu_h_value = float(point.get("mu_h", mu_h))
        mu_s_value = float(point.get("mu_s", mu_s))
        try:
            record = evaluate_point(
                point_car, nbar, mu_h_value, mu_s_value, clicks=clicks, target=target,
                num_detectors=num_detectors, dark_count_prob=dark_count_prob, trunc=trunc,
            )
        except (ValueError, ArithmeticError) as exc:
            car_value, nbar_value, _ = _source_for(point_car, nbar)
            record = SweepRecord(
                car=car_value,
                nbar=nbar_value,
                mu_h=mu_h_value,
                mu_s=mu_s_value,
                clicks=clicks,
                target=target,
                report=None,
                status=f"error: {exc}",
            )
        records.append(record)
    return records


def threshold_region(
    records: Sequence[SweepRecord], fom: str, comparator: str, level: float
) -> RegionMask:
    """Mask of grid points whose figure of merit satisfies the predicate."""
    if fom not in FOM_NAMES:
        raise ValueError(f"unknown figure of merit {fom!r}")
    if comparator not in _COMPARATORS:
        raise ValueError(f"unknown comparator {comparator!r}")
    check = _COMPARATORS[comparator]
    indices = []
    for i, record in enumerate(records):
        if not record.ok:
            continue
        value = fom_value(record, fom)
        if math.isfinite(value) and check(value, level):
            indices.append(i)
    extents: dict[str, tuple[float, float]] = {}
    if indices:
        for name in SWEEP_PARAMETERS:
            coords = [getattr(records[i], name) for i in indices]
            extents[name] = (min(coords), max(coords))
    return RegionMask(fom, comparator, level, tuple(indices), extents)


def find_optimum(
    records: Sequence[SweepRecord],
    fom: str,
    direction: str = "max",
    constraints: Sequence[tuple[str, str, float]] = (),
) -> SweepRecord:
    """Record extremizing the objective, subject to optional threshold constraints.

    Ties are broken deterministically: lower car, then higher mu_h, then
    higher mu_s.
    """
    if fom not in FOM_NAMES:
        raise ValueError(f"unknown figure of merit {fom!r}")
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    checks = []
    for cname, comparator, level in constraints:
        if cname not in FOM_NAMES:
            raise ValueError(f"unknown figure of merit {cname!r}")
        if comparator not in _COMPARATORS:
            raise ValueError(f"unknown comparator {comparator!r}")
        checks.append((cname, _COMPARATORS[comparator], level))

    sign = -1.0 if direction == "max" else 1.0
    feasible = []
    for record in records:
        if not record.ok:
            continue
        value = fom_value(record, fom)
        if not math.isfinite(value):
            continue
        if all(
            math.isfinite(fom_value(record, cname)) and check(fom_value(record, cname), level)
            for cname, check, level in checks
        ):
            feasible.append((sign * value, record.car, -record.mu_h, -record.mu_s, record))
    if not feasible:
        raise ValueError("no feasible grid point for the requested optimum")
    return min(feasible, key=lambda item: item[:4])[4]


def mean_vs_car_curve(
    *,
    clicks: int,
    mu_h_values: Sequence[float],
    car_axis: SweepAxis,
    num_detectors: int = 4,
    dark_count_prob: float = 5e-4,
    trunc: Truncation = DEFAULT_TRUNCATION,
) -> list[tuple[float, float, float]]:
    """Loss-corrected heralded mean photon number versus CAR.

    The mean of the lossless heralded statistics equals the loss-degraded
    mean divided by mu_s, so no signal efficiency enters here at all.
    """
    if car_axis.parameter != "car":
        raise ValueError("mean_vs_car_curve needs a car axis")
    rows = []
    for car in car_axis.grid():
        source = nbar_from_car(float(car))
        for mu_h in mu_h_values:
            detector = ClickDetectorArray(
                efficiency=float(mu_h),
                num_detectors=num_detectors,
                dark_count_prob=dark_count_prob,
            )
            state = herald(HeraldConfig(source, detector, clicks, trunc))
            rows.append((float(car), float(mu_h), mean(state.statistics)))
    return rows
