"""Benchmark of heraldstats: end-to-end and per-layer metrics on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or ``all`` for every workload with tracing off and
then on.  The seed draws every input; the program sees only the generated
sweep specs and point lists.  Each repetition is a fresh process that runs
the real ``heraldstats`` code (see child.py), so interpreter start-up, imports
and cold caches count as a user sees them.  Repetitions run one at a time
from this one process, with BLAS limited to one thread, until S seconds are
spent.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer metrics: self time and calls of each layer's spans, cache hit
ratios, cutoff and loss-matrix counters, and the tracing overhead.  Every
repetition's output is checked against the independent reference in
check.py; a rejected point, a crash or a non-zero exit counts as failed.
Each run also corrupts one correct output in several ways and confirms that
the check rejects every copy.

Output: one line per metric (workload, name, value, unit), then a JSON line
of run details (seed, samples, high percentiles, versions, machine, commit),
then the result as the last line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The benchmark reads and writes only inside the checkout it lives in.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_work"

NU = 5e-4
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120
#: Relative jitter of the sweep axis endpoints: small enough to keep every
#: grid point's cutoff, and so the cost, the same.
JITTER = 1e-3

LANDSCAPE_STEPS = 100
FLOOR_CAR_STEPS = 3
FLOOR_MU_S_STEPS = 2
REPORT_CALLS = 2000
#: Rows whose figures of merit are checked in each repetition; the floor
#: grid is checked whole.
LANDSCAPE_SAMPLE = 100
REPORT_SAMPLE = 128

#: Span name -> (self-time metric, call-count metric or None)
LAYERS = {
    "cli.main": ("cli.self_s", None),
    "sweep.run_sweep": ("sweep.self_s", None),
    "merit.report": ("merit.self_s", "merit.report.calls"),
    "heralding.herald": ("heralding.self_s", "heralding.herald.calls"),
    "fock.thermal_distribution": ("fock.thermal.self_s", "fock.thermal.calls"),
    "detector.povm_diagonal": ("detector.povm.self_s", "detector.povm.calls"),
    "loss.apply_loss": ("loss.apply.self_s", "loss.apply.calls"),
}
CACHES = ("fock.thermal", "detector.weights", "loss.matrix")


@dataclass
class Inputs:
    """A workload's child job, the points it covers in output order, and its output file."""

    job: dict
    points: list[dict]
    sample_size: int
    out: Path | None = None


# ---------------------------------------------------------------- workloads


def _jitter(rng, value: float) -> float:
    return value * (1.0 + JITTER * rng.uniform(-1.0, 1.0))


def _grid(axis: dict) -> np.ndarray:
    if axis["steps"] == 1:
        return np.array([axis["min"]])
    space = np.geomspace if axis.get("scale") == "logarithmic" else np.linspace
    return space(axis["min"], axis["max"], axis["steps"])


def _sweep_inputs(spec: dict, fmt: str, sample_size: int, work: Path) -> Inputs:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = work / f"out.{fmt}"
    fixed = {"mu_h": spec["detector"].get("mu_h"), "mu_s": spec.get("signal", {}).get("mu_s")}
    names = [axis["parameter"] for axis in spec["axes"]]
    points = []
    for values in itertools.product(*(_grid(axis) for axis in spec["axes"])):
        coords = dict(fixed, **dict(zip(names, map(float, values))))
        points.append({
            **coords,
            "nbar": 1.0 / (coords["car"] - 2.0),
            "N": spec["detector"]["N"],
            "nu": spec["detector"]["nu"],
            "k": spec["herald"]["k"],
            "target": spec["target"]["m"],
        })
    argv = ["sweep", str(spec_path), "--format", fmt, "--out", str(out)]
    return Inputs({"mode": "sweep", "argv": argv}, points, sample_size, out)


def sweep_landscape(rng, work: Path) -> Inputs:
    """Log-CAR 2.5-500 x mu_h 0.01-1 at k=1, N=4, mu_s=0.7, CSV export.

    n_max stays below ~80, so per-point Python and numpy overhead dominates.
    mu_s is 0.7, not 1, because apply_loss returns early at mu_s = 1.
    """
    spec = {
        "detector": {"N": 4, "nu": NU},
        "signal": {"mu_s": 0.7},
        "herald": {"k": 1},
        "target": {"m": 1},
        "axes": [
            {"parameter": "car", "min": 2.0 + _jitter(rng, 0.5), "max": 2.0 + _jitter(rng, 498.0),
             "steps": LANDSCAPE_STEPS, "scale": "logarithmic"},
            {"parameter": "mu_h", "min": _jitter(rng, 0.01), "max": 1.0 - JITTER * rng.uniform(),
             "steps": LANDSCAPE_STEPS},
        ],
    }
    return _sweep_inputs(spec, "csv", LANDSCAPE_SAMPLE, work)


def sweep_floor(rng, work: Path) -> Inputs:
    """CAR 2.01-2.5 x mu_s 0.6-0.9 at mu_h=0.8, k=1, N=4, JSON export.

    At CAR 2.01 the cutoff reaches ~3240, so the dense O(n^2) loss matrix
    takes nearly all the time and memory.
    """
    spec = {
        "detector": {"N": 4, "nu": NU, "mu_h": 0.8},
        "herald": {"k": 1},
        "target": {"m": 1},
        "axes": [
            {"parameter": "car", "min": 2.0 + _jitter(rng, 0.01), "max": 2.0 + _jitter(rng, 0.5),
             "steps": FLOOR_CAR_STEPS},
            {"parameter": "mu_s", "min": _jitter(rng, 0.6), "max": _jitter(rng, 0.9),
             "steps": FLOOR_MU_S_STEPS},
        ],
    }
    return _sweep_inputs(spec, "json", FLOOR_CAR_STEPS * FLOOR_MU_S_STEPS, work)


def report_points(rng, work: Path) -> Inputs:
    """Independent report() calls: N in {2,4,6,8}, k in 1..min(3,N), nbar log-uniform in
    [0.002, 10], mu_h and mu_s uniform in [0, 1).

    No two calls share a cache entry, so the p50 measures per-call overhead
    and the p99, from nbar near 10 (n_max ~340), the loss layer.
    """
    log_nbar = np.log(0.002) + np.log(10.0 / 0.002) * _stratified(rng)
    mu_h, mu_s = _stratified(rng), _stratified(rng)
    points = []
    for i in range(REPORT_CALLS):
        n_det = int(rng.choice([2, 4, 6, 8]))
        k = int(rng.integers(1, min(3, n_det) + 1))
        points.append({
            "N": n_det,
            "k": k,
            "target": k,
            "nu": NU,
            "nbar": float(np.exp(log_nbar[i])),
            "mu_h": float(mu_h[i]),
            "mu_s": float(mu_s[i]),
        })
    path = work / "points.json"
    path.write_text(json.dumps(points), encoding="utf-8")
    job = {"mode": "report", "points": str(path), "results": str(work / "results.json")}
    return Inputs(job, points, REPORT_SAMPLE)


def _stratified(rng) -> np.ndarray:
    """REPORT_CALLS uniform draws on [0, 1), one per equal stratum, in random order.

    Stratifying keeps the expensive tail (nbar near 10) the same size for
    every seed, so the p99 does not depend on how many tail points a seed drew.
    """
    return rng.permutation((np.arange(REPORT_CALLS) + rng.uniform(size=REPORT_CALLS)) / REPORT_CALLS)


WORKLOADS = {f.__name__: f for f in (sweep_landscape, sweep_floor, report_points)}


# ---------------------------------------------------------------- outputs


def _number(cell) -> float:
    return math.nan if cell in ("", None) else float(cell)


def _row(cells: dict) -> dict:
    row = {name: _number(cells.get(name)) for name in check.COLUMNS[:-1]}
    row.update(k=int(cells["k"]), target=int(cells["target"]), status=cells["status"])
    return row


def read_sweep(path: Path) -> list[dict] | None:
    """Rows of a sweep export, or None when the file or its columns are not as specified."""
    try:
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".csv":
            reader = csv.reader(text.splitlines())
            if tuple(next(reader)) != check.COLUMNS:
                return None
            return [_row(dict(zip(check.COLUMNS, cells))) for cells in reader]
        rows = json.loads(text)
        if any(tuple(row) != check.COLUMNS for row in rows):
            return None
        return [_row(row) for row in rows]
    except (OSError, ValueError, KeyError, StopIteration):
        return None


def read_reports(path: Path) -> tuple[list[dict], list[int]]:
    results = json.loads(path.read_text(encoding="utf-8"))
    rows = [_row(row) for row in results["rows"]]
    return rows, results["latency_ns"]


# ---------------------------------------------------------------- running


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Rep:
    """One child process: its timings, output and check result."""

    traced: bool
    wall_s: float = math.nan
    setup_s: float = math.nan
    stats: dict = field(default_factory=dict)
    rows: list[dict] | None = None
    latency_ns: list[int] = field(default_factory=list)
    failed: int = 0
    max_dev: float = 0.0
    spans: dict | None = None


def run_child(argv: list[str], env: dict) -> tuple[float, float, int, str]:
    """(launch time, wall time, exit code, stderr) of one child process."""
    launched = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return launched, time.perf_counter() - launched, -1, "timed out"
    return launched, time.perf_counter() - launched, proc.returncode, proc.stderr


def run_rep(inputs: Inputs, work: Path, traced: bool, env: dict, rng) -> Rep:
    rep = Rep(traced)
    stats_path, spans_path = work / "stats.json", work / "spans.npz"
    job = dict(inputs.job, trace=traced, stats=str(stats_path), spans=str(spans_path))
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    for stale in (stats_path, spans_path, inputs.out, Path(job.get("results", stats_path))):
        if stale is not None:
            stale.unlink(missing_ok=True)

    launched, rep.wall_s, code, err = run_child([sys.executable, str(CHILD), str(job_path)], env)
    try:
        rep.stats = json.loads(stats_path.read_text(encoding="utf-8"))
        own_library = Path(rep.stats["module"]).resolve().is_relative_to(SRC.resolve())
    except (OSError, ValueError, KeyError):
        own_library = False
    if code != 0 or not own_library:
        print(f"child failed (exit {code}): {err.strip()[-2000:]}", file=sys.stderr)
        rep.failed = len(inputs.points)
        return rep
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child on Linux.
    rep.setup_s = rep.stats["imported_at"] - launched
    if inputs.out is not None:
        rep.rows = read_sweep(inputs.out)
    else:
        rep.rows, rep.latency_ns = read_reports(Path(job["results"]))
    if rep.rows is None:
        rep.failed = len(inputs.points)
        return rep
    rep.failed, rep.max_dev = check.check_rows(rep.rows, inputs.points, check_sample(inputs, rng))
    if traced:
        with np.load(spans_path) as spans:
            rep.spans = {key: spans[key] for key in spans.files}
    return rep


def check_sample(inputs: Inputs, rng) -> list[int]:
    """Seeded choice of the rows whose figures of merit are checked."""
    picked = rng.choice(len(inputs.points), size=inputs.sample_size, replace=False)
    return sorted(int(i) for i in picked)


def self_test(reps: list[Rep], inputs: Inputs, rng) -> list[str]:
    """Labels of corrupted copies of a correct output that the check failed to reject."""
    good = next((rep for rep in reps if rep.rows is not None and rep.failed == 0), None)
    if good is None:
        return ["no correct output to corrupt"]
    sample = check_sample(inputs, rng)
    return [
        label
        for label, rows in check.perturbations(good.rows, inputs.points, sample)
        if check.check_rows(rows, inputs.points, sample)[0] == 0
    ]


# ---------------------------------------------------------------- metrics


def high_percentile(values) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it (the maximum when there are fewer)."""
    n = len(values)
    if n < 11:
        return "max", float(np.max(values))
    q = 100.0 * (1.0 - 10.0 / n)
    return f"p{q:.4g}", float(np.percentile(values, q))


def end_to_end(workload: str, reps: list[Rep]) -> tuple[dict, dict]:
    done = [rep for rep in reps if rep.rows is not None]
    walls = [rep.wall_s for rep in done]
    setups = [rep.setup_s for rep in done]
    ops = len(done[0].rows)
    if workload == "report_points":
        latency_us = np.concatenate([rep.latency_ns for rep in done]) / 1e3
        per = "report() call"
    else:
        latency_us = np.array([rep.stats["eval_s"] / ops * 1e6 for rep in done])
        per = "grid point: evaluation time over points, one sample per run"
    metrics = {
        "wall_s": (float(np.median(walls)), "s"),
        "points_per_s": (float(np.median([ops / rep.stats["eval_s"] for rep in done])), "1/s"),
        "setup_s": (float(np.median(setups)), "s"),
        "latency_p50_us": (float(np.percentile(latency_us, 50)), "us"),
        "latency_p99_us": (float(np.percentile(latency_us, 99)), "us"),
        "peak_rss_mb": (float(np.median([rep.stats["maxrss_kb"] for rep in done])) / 1024.0, "MB"),
    }
    detail = {
        "wall_s": dict([high_percentile(walls)], samples=len(walls), all=walls),
        "setup_s": dict([high_percentile(setups)], samples=len(setups)),
        "latency_us": dict([high_percentile(latency_us)], samples=int(latency_us.size), per=per),
    }
    return metrics, detail


def span_totals(rep: Rep) -> dict:
    """Self time and calls of each span name in one traced run."""
    names = rep.stats["trace"]["span_names"]
    spans = rep.spans
    duration = spans["end"] - spans["start"]
    nested = spans["parent"] >= 0
    children = np.bincount(spans["parent"][nested], weights=duration[nested], minlength=duration.size)
    self_s = np.bincount(spans["name"], weights=duration - children, minlength=len(names))
    calls = np.bincount(spans["name"], minlength=len(names))
    return {name: (float(self_s[i]), int(calls[i])) for i, name in enumerate(names)}


def _hit_ratio(cache: dict) -> float:
    total = cache["hits"] + cache["misses"]
    return cache["hits"] / total if total else 0.0


def _median(values) -> float:
    return float(np.median(list(values)))


def per_layer(workload: str, reps: list[Rep]) -> tuple[dict, dict]:
    traced = [rep for rep in reps if rep.spans is not None]
    untraced = [rep for rep in reps if not rep.traced and rep.rows is not None]
    totals = [span_totals(rep) for rep in traced]
    trace = [rep.stats["trace"] for rep in traced]

    metrics = {}
    for span, (self_metric, calls_metric) in LAYERS.items():
        metrics[self_metric] = (_median(t.get(span, (0.0, 0))[0] for t in totals), "s")
        if calls_metric:
            metrics[calls_metric] = (_median(t.get(span, (0.0, 0))[1] for t in totals), "count")
    rows = traced[0].rows if workload != "report_points" else []
    metrics["sweep.points"] = (float(len(rows)), "count")
    metrics["sweep.error_rows"] = (float(sum(row["status"] != "ok" for row in rows)), "count")
    for label in CACHES:
        metrics[f"{label}.hit_ratio"] = (_median(_hit_ratio(t["caches"][label]) for t in trace), "ratio")
    metrics["fock.n_max.max"] = (float(max(t["n_max_max"] for t in trace)), "count")
    metrics["loss.matrix.bytes_computed"] = (_median(t["loss_bytes_computed"] for t in trace), "bytes")
    traced_wall = _median(rep.wall_s for rep in traced)
    untraced_wall = _median(rep.wall_s for rep in untraced)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["check.max_rel_err"] = (max(rep.max_dev for rep in reps), "ratio")

    # Where the wall time of a traced run goes: start-up and imports, the
    # layers' self times, the child's own work outside any span (reading
    # inputs, building configs, writing stats and spans), and interpreter exit.
    self_sum = sum(value for name, (value, _) in metrics.items() if name.endswith("self_s"))
    setup_s = _median(rep.setup_s for rep in traced)
    detail = {
        "traced_runs": len(traced),
        "untraced_runs": len(untraced),
        "accounting": {
            "untraced_wall_s": untraced_wall,
            "setup_s": setup_s,
            "self_sum_s": self_sum,
            "outside_spans_s": _median(rep.stats["eval_s"] for rep in traced) - self_sum,
            "exit_s": _median(rep.wall_s - rep.setup_s - rep.stats["finished_at"]
                              + rep.stats["imported_at"] for rep in traced),
        },
    }
    parts = detail["accounting"]
    parts["accounted"] = abs(untraced_wall - self_sum) <= (
        abs(metrics["trace.overhead_s"][0]) + setup_s + parts["outside_spans_s"] + parts["exit_s"]
    )
    return metrics, detail


# ---------------------------------------------------------------- main


def run_metadata() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": 1,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    rng = np.random.default_rng(seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        inputs = WORKLOADS[workload](rng, work)
        # Untimed warm-up: writes bytecode and fills the page cache.
        run_child([sys.executable, "-c", "import heraldstats.cli"], env)
        reps: list[Rep] = []
        min_reps = 2 if trace else 3
        begin = time.perf_counter()
        while True:
            reps.append(run_rep(inputs, work, trace and len(reps) % 2 == 1, env, rng))
            elapsed = time.perf_counter() - begin
            if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > seconds:
                break
        missed = self_test(reps, inputs, rng)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = len(inputs.points) * len(reps)
    failed = sum(rep.failed for rep in reps)
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "runs": len(reps),
        "failed_ratio": failed / attempted,
        "check_self_test_missed": missed,
        "meta": run_metadata(),
    }
    metrics = {}
    measured = any(rep.spans is not None for rep in reps) if trace else any(rep.rows for rep in reps)
    if measured:
        metrics, extra = per_layer(workload, reps) if trace else end_to_end(workload, reps)
        detail.update(extra)
    for name, (value, unit) in metrics.items():
        print(f"{workload:16s} {name:28s} {value:18.6f} {unit}")
    print(f"{workload:16s} {'failed_ratio':28s} {failed / attempted:18.6f} ratio")
    print(json.dumps(detail))
    return {
        "correct": failed == 0 and not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heraldstats" / "cli.py").is_file():
        print(f"error: no heraldstats sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        results = {
            f"{name}/trace{trace}": run_workload(name, args.seed, args.seconds, bool(trace))
            for name in WORKLOADS
            for trace in (0, 1)
        }
        print(json.dumps(results))
    else:
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
