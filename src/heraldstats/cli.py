"""Command-line front end: single-point reports, sweeps from JSON specs, calibration.

Exit statuses: 0 success, 1 domain/numerical error, 2 usage or spec error.
Sweep results go out as CSV (LF line endings, '.' decimals) or JSON, with
numbers serialized to 12 significant digits so downstream tolerances are
never limited by the serialization.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import Any, Sequence

from .detector import ClickDetectorArray
from .fock import (
    DEFAULT_TAIL_EPSILON,
    DEFAULT_TRUNCATION,
    TRUNCATION_CAP,
    Truncation,
    mean,
)
from .heralding import HeraldConfig, herald
from .sweep import (
    FOM_NAMES,
    SweepAxis,
    SweepRecord,
    _source_for,
    evaluate_point,
    fom_value,
    run_sweep,
)

__all__ = ["main", "run", "CSV_COLUMNS"]

CSV_COLUMNS = ["car", "nbar", "mu_h", "mu_s", "k", "target", *FOM_NAMES, "status"]

DEFAULT_NUM_DETECTORS = 4
DEFAULT_DARK_COUNT = 5e-4


class SpecError(Exception):
    """Malformed sweep spec or flag combination; maps to exit status 2."""


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        return ""
    return f"{value:.12g}"


def _json_number(value: float):
    if not math.isfinite(value):
        return None
    return float(f"{value:.12g}")


def _cells(record: SweepRecord, number) -> list:
    """The record's cells in CSV_COLUMNS order, each float cell rendered by ``number``."""
    cells = [
        record.car,
        record.nbar,
        record.mu_h,
        record.mu_s,
        record.clicks,
        record.target,
        *(fom_value(record, name) for name in FOM_NAMES),
        record.status,
    ]
    return [number(cell) if isinstance(cell, float) else cell for cell in cells]


def _write_records(records: Sequence[SweepRecord], fmt: str, out: str | None) -> None:
    if fmt == "csv":
        text = _records_to_csv(records)
    else:
        text = _records_to_json(records)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _records_to_csv(records: Sequence[SweepRecord]) -> str:
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_cells(record, _fmt) for record in records)
    return buffer.getvalue()


def _records_to_json(records: Sequence[SweepRecord]) -> str:
    rows = [dict(zip(CSV_COLUMNS, _cells(record, _json_number))) for record in records]
    return json.dumps(rows, indent=2) + "\n"


def _truncation_from_args(args) -> Truncation:
    if args.truncation is not None and args.tail_eps is not None:
        raise SpecError("--truncation and --tail-eps are mutually exclusive")
    try:
        if args.truncation is not None:
            return Truncation.fixed(args.truncation)
        if args.tail_eps is not None:
            return Truncation.adaptive(args.tail_eps)
    except ValueError as exc:
        raise SpecError(f"bad truncation: {exc}") from exc
    return DEFAULT_TRUNCATION


def _output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="structured output format (default csv)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write structured output to PATH")
    parser.add_argument("--truncation", type=int, metavar="N_MAX", default=None,
                        help="fixed photon-number cutoff")
    parser.add_argument("--tail-eps", type=float, metavar="EPS", default=None,
                        help=f"adaptive tail bound (default {DEFAULT_TAIL_EPSILON:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heraldstats",
        description="Heralded photon-number states from single-mode twin beams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="figures of merit for one parameter point")
    group = rep.add_mutually_exclusive_group(required=True)
    group.add_argument("--car", type=float, help="coincidences-to-accidentals ratio (> 2)")
    group.add_argument("--nbar", type=float, help="twin-beam mean photon number (>= 0)")
    rep.add_argument("--clicks", type=int, required=True, help="heralding click count k")
    rep.add_argument("--mu-h", type=float, required=True, help="heralding efficiency")
    rep.add_argument("--mu-s", type=float, required=True, help="signal-arm efficiency")
    rep.add_argument("--target", type=int, default=None,
                     help="target photon number m (default: k)")
    rep.add_argument("--detectors", type=int, default=DEFAULT_NUM_DETECTORS,
                     help="number of click detectors N")
    rep.add_argument("--nu", type=float, default=DEFAULT_DARK_COUNT,
                     help="dark-count parameter of the array")
    _output_options(rep)
    rep.set_defaults(func=cmd_report)

    swp = sub.add_parser("sweep", help="grid scan driven by a JSON spec file")
    swp.add_argument("spec", help="path to the sweep spec (JSON)")
    _output_options(swp)
    swp.set_defaults(func=cmd_sweep)

    cal = sub.add_parser("calibrate", help="CAR/nbar conversion table")
    group = cal.add_mutually_exclusive_group(required=True)
    group.add_argument("--car", type=float)
    group.add_argument("--nbar", type=float)
    _output_options(cal)
    cal.set_defaults(func=cmd_calibrate)
    return parser


def cmd_report(args) -> int:
    record = evaluate_point(
        args.car,
        args.nbar,
        args.mu_h,
        args.mu_s,
        clicks=args.clicks,
        target=args.target if args.target is not None else args.clicks,
        num_detectors=args.detectors,
        dark_count_prob=args.nu,
        trunc=_truncation_from_args(args),
    )
    width = max(len(name) for name in CSV_COLUMNS)
    for name, text in zip(CSV_COLUMNS, _cells(record, lambda value: _fmt(value) or "nan")):
        print(f"{name:<{width}}  {text}")
    if args.out is not None:
        _write_records([record], args.format or "csv", args.out)
    return 0


_AXIS_KEYS = {"parameter", "min", "max", "steps", "scale"}


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise SpecError(f"{where} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise SpecError(f"unknown key(s) {sorted(unknown)} in {where}")


def _spec_number(
    section: dict, key: str, where: str, default: float | None = None
) -> float | None:
    if key not in section:
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{where}.{key} must be a number")
    return float(value)


def _spec_int(section: dict, key: str, where: str, default: int | None = None) -> int | None:
    if key not in section:
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{where}.{key} must be an integer")
    return value


def _parse_axis(obj: Any) -> SweepAxis:
    if not isinstance(obj, dict):
        raise SpecError("each axis must be an object")
    _require_keys(obj, _AXIS_KEYS, "axes[]")
    for key in ("parameter", "min", "max", "steps"):
        if key not in obj:
            raise SpecError(f"axis is missing {key!r}")
    try:
        return SweepAxis(
            parameter=obj["parameter"],
            min=float(obj["min"]),
            max=float(obj["max"]),
            steps=int(obj["steps"]),
            scale=obj.get("scale", "linear"),
        )
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad axis: {exc}") from exc


def _load_spec(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read spec {path!r}: {exc}") from exc
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise SpecError("spec must be a JSON object")
    return spec


def cmd_sweep(args) -> int:
    spec = _load_spec(args.spec)
    _require_keys(
        spec,
        {"detector", "source", "signal", "herald", "target", "axes", "truncation", "outputs"},
        "spec",
    )

    detector = spec.get("detector", {})
    _require_keys(detector, {"N", "nu", "mu_h"}, "detector")
    source = spec.get("source", {})
    _require_keys(source, {"car", "nbar"}, "source")
    if "car" in source and "nbar" in source:
        raise SpecError("source must give exactly one of car or nbar")
    signal = spec.get("signal", {})
    _require_keys(signal, {"mu_s"}, "signal")
    herald_section = spec.get("herald", {})
    _require_keys(herald_section, {"k"}, "herald")
    if "k" not in herald_section:
        raise SpecError("herald section must give the click count k")
    target_section = spec.get("target", {})
    _require_keys(target_section, {"m"}, "target")
    outputs = spec.get("outputs", {})
    _require_keys(outputs, {"format", "path"}, "outputs")
    fmt = args.format or outputs.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise SpecError(f"unknown output format {fmt!r}")
    if not isinstance(outputs.get("path", ""), str):
        raise SpecError("outputs.path must be a string")
    out = args.out or outputs.get("path")

    trunc_section = spec.get("truncation")
    if trunc_section is not None:
        _require_keys(trunc_section, {"n_max", "tail_epsilon", "cap"}, "truncation")
        if "n_max" in trunc_section and "tail_epsilon" in trunc_section:
            raise SpecError("truncation must give n_max or tail_epsilon, not both")
        n_max = _spec_int(trunc_section, "n_max", "truncation")
        tail = _spec_number(trunc_section, "tail_epsilon", "truncation")
        cap = _spec_int(trunc_section, "cap", "truncation")
        try:
            if n_max is not None:
                trunc = Truncation.fixed(n_max, cap=cap)
            else:
                trunc = Truncation.adaptive(
                    tail if tail is not None else DEFAULT_TAIL_EPSILON,
                    cap=cap if cap is not None else TRUNCATION_CAP,
                )
        except ValueError as exc:
            raise SpecError(f"bad truncation: {exc}") from exc
    else:
        trunc = _truncation_from_args(args)

    axes_section = spec.get("axes", [])
    if not isinstance(axes_section, list):
        raise SpecError("axes must be a list")
    axes = [_parse_axis(obj) for obj in axes_section]
    try:
        records = run_sweep(
            axes,
            clicks=_spec_int(herald_section, "k", "herald"),
            target=_spec_int(target_section, "m", "target"),
            num_detectors=_spec_int(detector, "N", "detector", DEFAULT_NUM_DETECTORS),
            dark_count_prob=_spec_number(detector, "nu", "detector", DEFAULT_DARK_COUNT),
            car=_spec_number(source, "car", "source"),
            nbar=_spec_number(source, "nbar", "source"),
            mu_h=_spec_number(detector, "mu_h", "detector"),
            mu_s=_spec_number(signal, "mu_s", "signal"),
            trunc=trunc,
        )
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    _write_records(records, fmt, out)
    return 0


def cmd_calibrate(args) -> int:
    trunc = _truncation_from_args(args)
    if args.car is None and not args.nbar > 0:
        raise ValueError("calibration needs nbar > 0")
    car, nbar, source = _source_for(args.car, args.nbar)
    detector = ClickDetectorArray(
        efficiency=0.5,
        num_detectors=DEFAULT_NUM_DETECTORS,
        dark_count_prob=DEFAULT_DARK_COUNT,
    )
    rows = [
        ("car", car),
        ("nbar", nbar),
        ("lambda_sq", source.squeezing_magnitude),
    ]
    for clicks in (1, 2, 3):
        state = herald(HeraldConfig(source, detector, clicks, trunc))
        rows.append((f"mean_ns_k{clicks}", mean(state.statistics)))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {_fmt(value) or 'nan'}")
    print("# heralded means <n_s> are loss-corrected, at mu_h = 0.5")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
