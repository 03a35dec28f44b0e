"""One fresh heraldstats process, timed from inside.  Started by bench/run.py as

    python3 bench/child.py JOB.json

JOB.json gives the ``mode``:

- ``sweep``: call ``heraldstats.cli.main(argv)``, exactly what the
  ``heraldstats`` console script does;
- ``report``: call ``heraldstats.report`` once per point of a list and write
  every result and its latency,

whether to ``trace``, and the ``stats`` path this process writes before it
exits: the import and evaluation times, ``ru_maxrss``, and when tracing,
spans, counters and cache statistics.

Tracing wraps the names each consumer module imports from the next layer,
so every call across a layer boundary leaves a span (name, start, end,
parent).  Spans stay in memory until the run ends.  A boundary that no
longer exists is skipped: its layer then reports zero calls.
"""

import json
import resource
import sys
import time

#: (span name, consumer module, attribute it calls through)
BOUNDARIES = (
    ("sweep.run_sweep", "heraldstats.cli", "run_sweep"),
    ("merit.report", "heraldstats.sweep", "report"),
    ("heralding.herald", "heraldstats.merit", "herald"),
    ("loss.apply_loss", "heraldstats.merit", "apply_loss"),
    ("fock.thermal_distribution", "heraldstats.heralding", "thermal_distribution"),
    ("detector.povm_diagonal", "heraldstats.heralding", "povm_diagonal"),
)
SPAN_NAMES = ("cli.main",) + tuple(name for name, _, _ in BOUNDARIES)
#: (cache name, module, lru_cache-wrapped function)
CACHES = (
    ("fock.thermal", "heraldstats.fock", "thermal_distribution"),
    ("detector.weights", "heraldstats.detector", "_clipped_weights"),
    ("loss.matrix", "heraldstats.loss", "_loss_matrix"),
)


class Tracer:
    """Spans and boundary counters of one process, kept in memory."""

    def __init__(self):
        self.name, self.start, self.end, self.parent = [], [], [], []
        self.open = [-1]
        self.n_max_max = 0
        self.loss_bytes_computed = 0

    def wrap(self, span_name, fn, after=None):
        code = SPAN_NAMES.index(span_name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(code)
            self.parent.append(self.open[-1])
            self.end.append(0.0)
            self.open.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.open.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self):
        import importlib

        for span_name, module_name, attr in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                continue
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self.wrap(span_name, fn, self._counter(span_name)))

    def _counter(self, span_name):
        if span_name == "fock.thermal_distribution":
            def count_n_max(args, stats):
                self.n_max_max = max(self.n_max_max, len(stats.probabilities) - 1)
            return count_n_max
        if span_name == "loss.apply_loss":
            return self._count_loss_bytes()
        return None

    def _count_loss_bytes(self):
        # The loss matrix of a cache miss is (n_max + 1)^2 float64 entries.
        matrix = _cached("heraldstats.loss", "_loss_matrix")
        if matrix is None:
            return None
        seen = [matrix.cache_info().misses]

        def count(args, result):
            misses = matrix.cache_info().misses
            if misses > seen[0]:
                self.loss_bytes_computed += (misses - seen[0]) * 8 * len(args[1].probabilities) ** 2
                seen[0] = misses

        return count

    def dump(self, path):
        import numpy as np

        np.savez(
            path,
            name=np.array(self.name, dtype=np.int8),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
        )
        caches = {}
        for label, module_name, attr in CACHES:
            fn = _cached(module_name, attr)
            info = fn.cache_info() if fn is not None else None
            caches[label] = {"hits": info.hits if info else 0, "misses": info.misses if info else 0}
        return {
            "span_names": SPAN_NAMES,
            "n_max_max": self.n_max_max,
            "loss_bytes_computed": self.loss_bytes_computed,
            "caches": caches,
        }


def _cached(module_name, attr):
    module = sys.modules.get(module_name)
    fn = getattr(module, attr, None)
    return fn if hasattr(fn, "cache_info") else None


def run_points(job, tracer):
    """Call report() on every point; domain errors become status rows."""
    from heraldstats import ClickDetectorArray, HeraldConfig, LossChannel, TwinBeamSource, report

    if tracer is not None:
        report = tracer.wrap("merit.report", report)
    with open(job["points"], encoding="utf-8") as fh:
        points = json.load(fh)
    clock = time.perf_counter_ns
    rows, latencies_ns = [], []
    for p in points:
        config = HeraldConfig(
            TwinBeamSource(p["nbar"]), ClickDetectorArray(p["mu_h"], p["N"], p["nu"]), p["k"]
        )
        channel = LossChannel(p["mu_s"])
        row = {name: p[name] for name in ("nbar", "mu_h", "mu_s", "k", "target")}
        start = clock()
        try:
            rep = report(config, channel, p["target"])
        except (ValueError, ArithmeticError) as exc:
            latencies_ns.append(clock() - start)
            row["status"] = f"error: {exc}"
        else:
            latencies_ns.append(clock() - start)
            row.update(
                status="ok",
                fidelity=rep.fidelity,
                g2=rep.g2,
                g3=rep.g3,
                success_prob=rep.success_probability,
                parity=rep.parity,
                mean_lossy=rep.mean_lossy,
                mean_corrected=rep.mean_loss_corrected,
            )
        rows.append(row)
    with open(job["results"], "w", encoding="utf-8") as fh:
        json.dump({"rows": rows, "latency_ns": latencies_ns}, fh)
    return 0


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    import heraldstats.cli as cli

    imported = time.perf_counter()
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    if job["mode"] == "sweep":
        entry = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
        status = entry(job["argv"])
    else:
        status = run_points(job, tracer)
    done = time.perf_counter()
    stats = {
        "status": status,
        "imported_at": imported,
        "eval_s": done - imported,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": cli.__file__,
    }
    if tracer is not None:
        stats["trace"] = tracer.dump(job["spans"])
    stats["finished_at"] = time.perf_counter()
    with open(job["stats"], "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
