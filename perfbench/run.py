"""Repository benchmark: one simulator workload, end-to-end or per layer.

    python3 perfbench/run.py --workload serve-stream --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` a run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it measures the per-layer metrics from spans recorded
around each layer's public functions (``spans.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--smoke`` runs every workload at tiny sizes in both
modes and exits non-zero if a check fails or a metric is missing; it is the
benchmark's own test.  ``README.md`` describes workloads and metrics.

The benchmark is one process and one thread.  The collector stays on in
timed regions, as it is for users; each timed region starts right after a
``gc.collect()``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# Pin BLAS/OpenMP pools to one thread before numpy loads (as
# ``benchmarks/conftest.py`` does): thread pools are run-to-run noise and
# no measured path uses BLAS parallelism.
for _pool in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_pool, "1")

import gc
import json
import resource
import shutil
import statistics
import subprocess
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.report import paper_comparison  # noqa: E402
from repro.obs import profiling  # noqa: E402
from repro.perf import (  # noqa: E402
    load_snapshot,
    persistent_timing_cache,
    snapshot_path,
    timing_cache,
)
from repro.perf.cache import _derive_key_cached, design_fingerprint  # noqa: E402

import spans  # noqa: E402
from speed import Stopwatch  # noqa: E402
from workloads import WORKLOADS, Ledger, Workload, paper_error_pct  # noqa: E402

#: Input generation is repeated and its median reported.
SETUP_REPEATS = 3
#: Fresh interpreters that time the import of the package and the workload
#: code; the median is reported.
IMPORT_REPEATS = 7
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
    "import spans, workloads; print(time.perf_counter() - start)"
)
#: Fewest measured repetitions, whatever ``--seconds`` allows.
MIN_REPS = 3
#: Each repetition repeats the warm pass until the warm passes have taken at
#: least this share of the cold pass, so a warm path much faster than the
#: cold one (paper-models) still gets enough samples for a steady median.
WARM_SHARE = 0.25
#: Run-local scratch (snapshot cache directory, span dumps), inside the checkout.
WORK_DIR = ROOT / ".perfbench"

END_TO_END = {
    "wall_s": "s",
    "warm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_pct": "%",
    "paper_error_pct": "%",
}

PER_LAYER = {
    "traces.build_s": "s",
    "kernels.calls": "count",
    "kernels.busy_s": "s",
    "perf.lookups": "count",
    "perf.misses": "count",
    "perf.hit_ratio": "ratio",
    "perf.entries": "count",
    "perf.snapshot_load_s": "s",
    "perf.snapshot_save_s": "s",
    "perf.snapshot_mb": "MB",
    "perf.self_s": "s",
    "lowering.calls": "count",
    "lowering.build_s": "s",
    "lowering.lower_s": "s",
    "lowering.schedule_s": "s",
    "lowering.kernel_invocations": "count",
    "lowering.self_s": "s",
    "analysis.self_s": "s",
    "serving.run_s": "s",
    "serving.self_s": "s",
    "serving.requests": "count",
    "serving.iterations": "count",
    "serving.memo_misses": "count",
    "serving.memo_hit_ratio": "ratio",
    "serving.executed_iterations": "count",
    "serving.us_per_executed_iteration": "us",
    "serving.preemptions": "count",
    "serving.extrapolated_share": "ratio",
    "serving.epochs": "count",
    "serving.episode_runs": "count",
    "serving.us_per_request": "us",
    "fleet.run_s": "s",
    "fleet.self_s": "s",
    "fleet.dispatches": "count",
    "fleet.failed_dispatches": "count",
    "fleet.retries": "count",
    "fleet.failovers": "count",
    "fleet.memo_misses": "count",
    "fleet.executed_iterations": "count",
    "fleet.extrapolated_share": "ratio",
    "fleet.us_per_request": "us",
    "obs.phase_coverage_pct": "%",
    "bench.trace_overhead_pct": "%",
    "bench.calibration_s": "s",
    "bench.repetitions": "count",
    "sim.total_cycles": "cycles",
    "sim.p50_latency_cycles": "cycles",
    "sim.p99_latency_cycles": "cycles",
    "sim.goodput": "ratio",
    "sim.energy_uj": "uJ",
    "sim.mac_utilization_pct": "%",
}


@dataclass
class Rep:
    """One cold + warm repetition of a workload.

    ``wall_s`` and ``warm_s`` are reference seconds; ``cold`` is the cold
    run's :class:`Stopwatch`, whose ``factor`` also scales the spans.
    """

    cold: Stopwatch
    summary: Dict[str, object]
    cache: Dict[str, int]
    snapshot_bytes: int
    cold_spans: List[spans.Span] = field(default_factory=list)
    warm: List[Stopwatch] = field(default_factory=list)
    warm_spans: List[spans.Span] = field(default_factory=list)
    coverage: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.cold.seconds

    @property
    def warm_s(self) -> List[float]:
        return [clock.seconds for clock in self.warm]


def import_s() -> float:
    """Median reference seconds to import the package, each in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        with Stopwatch() as clock:
            probe = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
                capture_output=True, text=True, check=True, timeout=120,
            )
        times.append(float(probe.stdout) * clock.factor)
    return median(times)


def clear_process_caches() -> None:
    """Start from what a fresh process has: an empty timing cache (and with
    it the serving iteration memo) and no memoized timing-cache keys."""
    timing_cache().clear()
    _derive_key_cached.cache_clear()
    design_fingerprint.cache_clear()


@contextmanager
def recording(recorder: Optional[spans.SpanRecorder], run_id: str) -> Iterator[None]:
    if recorder is None:
        yield
        return
    recorder.reset(run_id)
    try:
        yield
    finally:
        recorder.run_id = None


def repetition(
    workload: Workload,
    inputs,
    ledger: Ledger,
    cache_dir: Path,
    warm: bool = True,
    recorder: Optional[spans.SpanRecorder] = None,
) -> Rep:
    """A cold run (the first ``--cache-dir`` invocation), then warm ones.

    The cold run starts from an empty timing cache and writes its snapshot
    under ``persistent_timing_cache``; each warm run clears the cache again,
    reloads that snapshot and repeats the same calls -- what a second
    invocation of ``serve --cache-dir`` pays.  Results are checked outside
    the timed regions, and every warm run must match the cold one's content.
    """
    path = snapshot_path(cache_dir)
    clear_process_caches()
    path.unlink(missing_ok=True)
    profiler = spans.StampedProfiler() if recorder is not None else None
    gc.collect()
    with recording(recorder, "cold"), (profiling(profiler) if profiler else nullcontext()):
        with Stopwatch() as cold, persistent_timing_cache(cache_dir):
            outputs = workload.run(inputs, ledger)
    cold_spans = recorder.spans if recorder is not None else []
    cache = timing_cache().stats()
    snapshot_bytes = path.stat().st_size if path.exists() else 0
    summary = workload.summary(inputs, outputs, ledger)
    del outputs
    rep = Rep(cold, summary, cache, snapshot_bytes, cold_spans)
    if profiler is not None:
        covered, total = spans.phase_coverage(cold_spans, profiler)
        rep.coverage = 100.0 * covered / total if total else 0.0
    if not warm:
        return rep

    while not rep.warm or sum(rep.warm_s) < WARM_SHARE * rep.wall_s:
        clear_process_caches()
        gc.collect()
        with recording(recorder, "warm"), Stopwatch() as warm_clock:
            load_snapshot(path)
            outputs = workload.run(inputs, ledger)
        rep.warm.append(warm_clock)
        rep.warm_spans = recorder.spans if recorder is not None else []
        if workload.summary(inputs, outputs, ledger)["digest"] != summary["digest"]:
            ledger.fail("warm run", "result differs from the cold run")
        del outputs
    return rep


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(workload: Workload, inputs, ledger, cache_dir, seconds, setup_s, min_reps):
    reps: List[Rep] = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        reps.append(repetition(workload, inputs, ledger, cache_dir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    error = reps[-1].summary.get("paper_error_pct")
    if error is None:
        comparison = ledger.call("paper_comparison", paper_comparison)
        error = paper_error_pct(comparison) if comparison else 0.0
    print(
        f"{workload.name}: {len(reps)} cold/warm repetitions; host seconds: "
        f"wall {median(rep.cold.host_s for rep in reps):.4f} "
        f"warm {median(clock.host_s for rep in reps for clock in rep.warm):.4f}; "
        f"kernel {median(rep.cold.kernel_s for rep in reps) * 1e3:.2f} ms",
        file=sys.stderr,
    )
    return {
        "wall_s": median(rep.wall_s for rep in reps),
        "warm_s": median(warm for rep in reps for warm in rep.warm_s),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "paper_error_pct": error,
    }


def rep_layers(rep: Rep) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (reference seconds)."""
    factor = rep.cold.factor
    totals = spans.layer_totals(rep.cold_spans)
    selfs = {
        layer: seconds * factor
        for layer, seconds in spans.self_time_by_layer(rep.cold_spans).items()
    }
    warm_totals = spans.layer_totals(rep.warm_spans)

    def total(name: str, key: str = "seconds", table=totals) -> float:
        value = table.get(name, {}).get(key, 0.0)
        return value * factor if key in ("seconds", "self_s") else value

    cache = rep.cache
    lookups = cache["hits"] + cache["misses"]
    layers = dict(rep.summary["layers"])
    metrics = {
        "kernels.calls": total("run_gemm", "calls") + total("run_flash_attention", "calls"),
        "kernels.busy_s": selfs.get("kernels", 0.0),
        "perf.lookups": lookups,
        "perf.misses": cache["misses"],
        "perf.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "perf.entries": cache["entries"],
        "perf.snapshot_load_s": total("load_snapshot", table=warm_totals),
        "perf.snapshot_save_s": total("save_snapshot"),
        "perf.snapshot_mb": rep.snapshot_bytes / 1e6,
        "perf.self_s": selfs.get("perf", 0.0),
        "lowering.calls": total("execute_schedule", "calls"),
        "lowering.build_s": total("build_model", "self_s"),
        "lowering.lower_s": total("lower_graph", "self_s"),
        "lowering.schedule_s": total("execute_schedule", "self_s"),
        "lowering.kernel_invocations": total("execute_schedule", "count"),
        "lowering.self_s": selfs.get("lowering", 0.0),
        "analysis.self_s": selfs.get("analysis", 0.0),
        "serving.run_s": total("run_serving"),
        "serving.self_s": selfs.get("serving", 0.0),
        "fleet.run_s": total("run_fleet"),
        "fleet.self_s": selfs.get("fleet", 0.0),
        "obs.phase_coverage_pct": rep.coverage,
    }
    serving_run = metrics["serving.run_s"]
    executed = layers.get("serving.executed_iterations", 0)
    requests = layers.get("serving.requests", 0)
    metrics["serving.us_per_executed_iteration"] = 1e6 * serving_run / executed if executed else 0.0
    metrics["serving.us_per_request"] = 1e6 * serving_run / requests if requests else 0.0
    fleet_requests = layers.pop("fleet.requests", 0)
    metrics["fleet.us_per_request"] = (
        1e6 * metrics["fleet.run_s"] / fleet_requests if fleet_requests else 0.0
    )
    metrics.update(layers)
    metrics.update(rep.summary["sim"])
    return metrics


def per_layer(workload: Workload, inputs, ledger, cache_dir, seconds, build_s, min_reps, seed):
    recorder = spans.SpanRecorder()
    untraced: List[float] = []
    traced: List[Rep] = []
    start = time.perf_counter()
    while len(traced) < min_reps or time.perf_counter() - start < seconds:
        untraced.append(
            repetition(workload, inputs, ledger, cache_dir, warm=False).wall_s
        )
        with spans.instrument(recorder):
            traced.append(
                repetition(workload, inputs, ledger, cache_dir, recorder=recorder)
            )
    print(f"{workload.name}: {len(traced)} traced/untraced repetition pairs", file=sys.stderr)
    write_spans(workload.name, seed, traced[-1])

    samples = [rep_layers(rep) for rep in traced]
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in samples[0]:
        metrics[name] = median(sample[name] for sample in samples)
    metrics["traces.build_s"] = build_s
    metrics["bench.calibration_s"] = median(rep.cold.kernel_s for rep in traced)
    metrics["bench.repetitions"] = len(traced)
    base = median(untraced)
    metrics["bench.trace_overhead_pct"] = (
        100.0 * (median(rep.wall_s for rep in traced) - base) / base
    )
    return metrics


def write_spans(name: str, seed: int, rep: Rep) -> None:
    """Dump the last traced repetition's spans (cold then warm)."""
    out = WORK_DIR / "traces" / f"{name}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    records = []
    for run_spans in (rep.cold_spans, rep.warm_spans):
        if run_spans:
            origin = run_spans[0].start
            offset = len(records)
            for span in run_spans:
                record = span.to_dict(origin)
                if record["parent"] >= 0:
                    record["parent"] += offset
                records.append(record)
    out.write_text(json.dumps({"workload": name, "seed": seed, "spans": records}))


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
) -> Dict[str, object]:
    workload = WORKLOADS[name]
    ledger = Ledger()
    build_times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None  # never hold two generations of inputs at once
        with Stopwatch() as build:
            inputs = workload.build(seed, smoke)
        build_times.append(build.seconds)
    build_s = median(build_times)
    min_reps = 1 if smoke else MIN_REPS
    cache_dir = WORK_DIR / f"cache-{os.getpid()}"
    try:
        if trace:
            metrics = per_layer(
                workload, inputs, ledger, cache_dir, seconds, build_s, min_reps, seed
            )
            units = PER_LAYER
        else:
            metrics = end_to_end(
                workload, inputs, ledger, cache_dir, seconds, import_s() + build_s, min_reps
            )
            units = END_TO_END
        workload.oracle(inputs, ledger)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if not trace:
        metrics["success_pct"] = 100.0 * (ledger.attempted - ledger.failed) / ledger.attempted
    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def smoke() -> int:
    """Every workload, tiny sizes, both modes: checks pass, metrics match the spec."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in spec["workloads"]:
        for trace in (False, True):
            start = time.perf_counter()
            result = run_workload(workload["name"], seed=1, seconds=0, trace=trace, smoke=True)
            label = f"{workload['name']} trace={int(trace)}"
            units = {key: value["unit"] for key, value in result["metrics"].items()}
            if not result["correct"]:
                failures.append(f"{label}: {result['failed']} failed operations")
            if units != expected[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json")
            print(f"{label}: ok={result['correct']} ({time.perf_counter() - start:.1f} s)")
    for failure in failures:
        print(f"SMOKE FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
