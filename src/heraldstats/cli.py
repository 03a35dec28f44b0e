"""Command-line front end: single-point reports, sweeps from JSON specs, calibration.

Exit statuses: 0 success, 1 domain/numerical error, 2 usage or spec error,
including a value out of range or an output path that cannot be written.
Every command uses the default cutoff (adaptive, tail 1e-14, cap 4096)
and evaluates through ``run_sweep``; ``report`` and ``calibrate`` run it
with no axes.  ``report`` and ``sweep`` write its table: CSV (LF line
endings, '.' decimals) or JSON, with numbers serialized to 12 significant
digits so downstream tolerances are never limited by the serialization.
The table is written column by column: each float column is formatted in
one pass (non-finite cells empty in CSV, null in JSON), ``csv.writer``
quotes each distinct status once, and a CSV row is its cells joined by
commas.

Outside input is checked where it enters: ``_SPEC_SCHEMA`` declares every
spec section, its keys and each key's type (numbers must be finite), and
an output destination is checked before any point is evaluated.  Ranges
are checked once, by the library: ``run_sweep`` rejects a bad fixed value
before any point, and ``_sweep_table`` makes that a usage error prefixed
with the flag or spec key it concerns.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from itertools import repeat
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .detector import DEFAULT_DARK_COUNT, DEFAULT_NUM_DETECTORS
from .fock import TwinBeamSource
from .sweep import COLUMNS, SweepAxis, run_sweep

__all__ = ["main", "run"]


class SpecError(Exception):
    """Malformed sweep spec, flag combination or output path; maps to exit status 2."""


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        return ""
    return f"{value:.12g}"


def _csv_fields(texts: list[str]) -> list[str]:
    """Each text as ``csv.writer`` writes it inside a row, quoted where needed.

    Every distinct text is written once, after an empty first field: a row
    of one empty field is quoted whole, a field inside a row is not.
    """
    fields = {}
    for text in set(texts):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow(("", text))
        fields[text] = buffer.getvalue()[1:-1]
    return list(map(fields.__getitem__, texts))


def _columns(table: dict[str, np.ndarray], fmt: str) -> list[list]:
    """The table's columns, in COLUMNS order, as lists of cells for ``fmt``.

    ``fmt`` is "csv", "json" or "text".  A float cell is its value to 12
    significant digits (a float in JSON, else text); a non-finite one is
    empty in CSV, null in JSON and "nan" in text.  ``k`` and ``target``
    stay ints and ``status`` its text, except that every CSV cell is text
    with the status quoted by ``csv.writer``.
    """
    blank = {"csv": "", "json": None, "text": "nan"}[fmt]
    columns = []
    for name in COLUMNS:
        values = table[name]
        cells = values.tolist()
        if values.dtype == np.float64:
            cells = list(map(float.__format__, cells, repeat(".12g")))
            if fmt == "json":
                cells = list(map(float, cells))
            for row in np.flatnonzero(~np.isfinite(values)).tolist():
                cells[row] = blank
        elif fmt == "csv":
            cells = _csv_fields(cells) if name == "status" else list(map(str, cells))
        columns.append(cells)
    return columns


def _write_table(table: dict[str, np.ndarray], fmt: str, out: str | None) -> None:
    columns = _columns(table, fmt)
    if fmt == "csv":
        text = "\n".join([",".join(COLUMNS), *map(",".join, zip(*columns))]) + "\n"
    else:
        text = json.dumps([dict(zip(COLUMNS, row)) for row in zip(*columns)], indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise SpecError(f"cannot write {out!r}: {exc.strerror or exc}") from exc


def _check_destination(out: str | None) -> None:
    """Fail before any work when ``out`` names no file in an existing directory."""
    if out is not None and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        raise SpecError(f"cannot write {out!r}: not a file in an existing directory")


def _finite_float(text: str) -> float:
    """argparse type: a float flag must be finite, as spec numbers must."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="structured output format (default csv)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write structured output to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heraldstats",
        description="Heralded photon-number states from single-mode twin beams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="figures of merit for one parameter point")
    group = rep.add_mutually_exclusive_group(required=True)
    group.add_argument("--car", type=_finite_float, help="coincidences-to-accidentals ratio (> 2)")
    group.add_argument("--nbar", type=_finite_float, help="twin-beam mean photon number (>= 0)")
    rep.add_argument("--clicks", type=int, required=True, help="heralding click count k")
    rep.add_argument("--mu-h", type=_finite_float, required=True, help="heralding efficiency")
    rep.add_argument("--mu-s", type=_finite_float, required=True, help="signal-arm efficiency")
    rep.add_argument("--target", type=int, default=None,
                     help="target photon number m (default: k)")
    rep.add_argument("--detectors", type=int, default=DEFAULT_NUM_DETECTORS,
                     help="number of click detectors N")
    rep.add_argument("--nu", type=_finite_float, default=DEFAULT_DARK_COUNT,
                     help="dark-count parameter of the array")
    _output_options(rep)
    rep.set_defaults(func=cmd_report)

    swp = sub.add_parser("sweep", help="grid scan driven by a JSON spec file")
    swp.add_argument("spec", help="path to the sweep spec (JSON)")
    _output_options(swp)
    swp.set_defaults(func=cmd_sweep)

    cal = sub.add_parser("calibrate", help="CAR/nbar conversion table")
    group = cal.add_mutually_exclusive_group(required=True)
    group.add_argument("--car", type=_finite_float)
    group.add_argument("--nbar", type=_finite_float)
    cal.set_defaults(func=cmd_calibrate)
    return parser


#: The flag or spec key of each ``run_sweep`` keyword its errors name in ``exc.parameter``.
_REPORT_FLAGS = {"clicks": "--clicks", "target": "--target", "mu_h": "--mu-h", "mu_s": "--mu-s"}
_SPEC_KEYS = {"clicks": "herald.k", "target": "target.m", "mu_h": "detector.mu_h",
              "mu_s": "signal.mu_s"}


def _sweep_table(names: dict[str, str], axes: list[SweepAxis], **fixed) -> dict[str, np.ndarray]:
    """``run_sweep``'s table; any ValueError it raises is a usage error.

    The message is prefixed with the flag or key that ``names`` gives for
    the keyword the error concerns, as in ``--clicks: click count 5 ...``.
    """
    try:
        return run_sweep(axes, **fixed)
    except ValueError as exc:
        name = names.get(getattr(exc, "parameter", None))
        raise SpecError(f"{name}: {exc}" if name else str(exc)) from exc


def cmd_report(args) -> int:
    if args.format is not None and args.out is None:
        raise SpecError("--format needs --out")
    _check_destination(args.out)
    table = _sweep_table(
        _REPORT_FLAGS,
        [],
        clicks=args.clicks,
        target=args.target,
        num_detectors=args.detectors,
        dark_count_prob=args.nu,
        car=args.car,
        nbar=args.nbar,
        mu_h=args.mu_h,
        mu_s=args.mu_s,
    )
    status = table["status"][0]
    if status != "ok":
        print(status, file=sys.stderr)
        return 1
    width = max(len(name) for name in COLUMNS)
    for name, (text,) in zip(COLUMNS, _columns(table, "text")):
        print(f"{name:<{width}}  {text}")
    if args.out is not None:
        _write_table(table, args.format or "csv", args.out)
    return 0


#: Every spec section's keys and each key's type: "spec" is the top level and
#: "axis" one entry of its axes list.  A float key takes any finite JSON number.
_SPEC_SCHEMA: dict[str, dict[str, type]] = {
    "spec": {
        "detector": dict, "source": dict, "signal": dict, "herald": dict,
        "target": dict, "axes": list, "outputs": dict,
    },
    "detector": {"N": int, "nu": float, "mu_h": float},
    "source": {"car": float, "nbar": float},
    "signal": {"mu_s": float},
    "herald": {"k": int},
    "target": {"m": int},
    "outputs": {"format": str, "path": str},
    "axis": {"parameter": str, "min": float, "max": float, "steps": int, "scale": str},
}
#: Keys a section must give.
_SPEC_REQUIRED = {"herald": ("k",), "axis": ("parameter", "min", "max", "steps")}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", dict: "an object",
               list: "a list"}


def _section(obj: Any, name: str, where: str | None = None) -> dict[str, Any]:
    """The keys ``obj`` gives, each checked against the schema of section ``name``."""
    where = where or name
    if not isinstance(obj, dict):
        raise SpecError(f"{where} must be an object")
    keys = _SPEC_SCHEMA[name]
    unknown = set(obj) - set(keys)
    if unknown:
        raise SpecError(f"unknown key(s) {sorted(unknown)} in {where}")
    for key in _SPEC_REQUIRED.get(name, ()):
        if key not in obj:
            raise SpecError(f"{where} is missing {key!r}")
    values = {}
    for key, value in obj.items():
        kind = keys[key]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise SpecError(f"{where}.{key} must be {_TYPE_NAMES[kind]}")
        try:
            values[key] = kind(value)
        except OverflowError:  # an integer beyond the float range
            values[key] = math.inf
        if kind is float and not math.isfinite(values[key]):
            raise SpecError(f"{where}.{key} must be a finite number")
    return values


def _parse_axis(obj: Any, where: str) -> SweepAxis:
    try:
        return SweepAxis(**_section(obj, "axis", where))
    except ValueError as exc:
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
    return _section(spec, "spec")


def cmd_sweep(args) -> int:
    spec = _load_spec(args.spec)
    detector, source, signal, herald_section, target_section, outputs = (
        _section(spec.get(name, {}), name)
        for name in ("detector", "source", "signal", "herald", "target", "outputs")
    )
    axes = [_parse_axis(obj, f"axes[{i}]") for i, obj in enumerate(spec.get("axes", []))]
    if "car" in source and "nbar" in source:
        raise SpecError("source must give exactly one of car or nbar")
    fmt = args.format or outputs.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise SpecError(f"unknown output format {fmt!r}")
    out = args.out if args.out is not None else outputs.get("path")
    _check_destination(out)
    table = _sweep_table(
        _SPEC_KEYS,
        axes,
        clicks=herald_section["k"],
        target=target_section.get("m"),
        num_detectors=detector.get("N", DEFAULT_NUM_DETECTORS),
        dark_count_prob=detector.get("nu", DEFAULT_DARK_COUNT),
        car=source.get("car"),
        nbar=source.get("nbar"),
        mu_h=detector.get("mu_h"),
        mu_s=signal.get("mu_s"),
    )
    _write_table(table, fmt, out)
    return 0


def cmd_calibrate(args) -> int:
    """Print CAR, nbar, |lambda|^2 and the heralded means for k = 1..3.

    Each mean is ``run_sweep``'s ``mean_corrected`` at mu_h = 0.5, mu_s = 1
    and the default N and nu; an error row prints its status and exits 1.
    """
    if args.car is None and not args.nbar > 0:
        raise SpecError("calibration needs nbar > 0")
    means = []
    for clicks in (1, 2, 3):
        # target 0 lies within every cutoff and does not enter the mean
        table = _sweep_table({}, [], clicks=clicks, target=0,
                             num_detectors=DEFAULT_NUM_DETECTORS, car=args.car,
                             nbar=args.nbar, mu_h=0.5, mu_s=1.0)
        if table["status"][0] != "ok":
            print(table["status"][0], file=sys.stderr)
            return 1
        means.append((f"mean_ns_k{clicks}", float(table["mean_corrected"][0])))
    car, nbar = float(table["car"][0]), float(table["nbar"][0])
    rows = [("car", car), ("nbar", nbar),
            ("lambda_sq", TwinBeamSource(nbar).squeezing_magnitude), *means]
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


if __name__ == "__main__":
    run()
