"""Latency analysis for continuous-batching serving runs.

Consumes a :class:`repro.workloads.serving.ServingRunResult` and produces the
per-request latency report the CLI ``serve`` subcommand prints: p50/p95/p99
end-to-end latency, time to first token, queueing delay, decode throughput
and per-unit occupancy under load -- the serving-scale analogue of the
per-model breakdown in :mod:`repro.analysis.model_breakdown`.

Percentiles use the nearest-rank definition (the smallest value with at
least ``p`` percent of the sample at or below it): deterministic, exact on
the small request counts serving traces carry, and dependency-free.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.obs import occupancy_percent
from repro.workloads.serving import ServingRunResult

REQUEST_HEADERS = [
    "request",
    "model",
    "arrival",
    "queue",
    "TTFT",
    "latency",
    "steps",
]

#: The percentiles every latency summary reports.
PERCENTILES = (50, 95, 99)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (p in 0..100, values non-empty).

    The rank is ``ceil(p * n / 100)``, computed in exact integer arithmetic
    for integral ``p``: the float form ``ceil(p / 100 * n)`` overshoots
    whenever ``p / 100`` rounds up in binary (p55 of 100 samples must be the
    55th value, but ``0.55 * 100`` is ``55.000000000000007`` and ceils to
    56).  Small samples are the visible casualty -- with one value every
    percentile is that value, and with two, p50 must be the lower one --
    which the explicit edge-case tests pin down.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    n = len(ordered)
    if float(p).is_integer():
        rank = (int(p) * n + 99) // 100
    else:
        rank = math.ceil(p * n / 100.0)
    rank = min(max(1, rank), n)
    return ordered[rank - 1]


def latency_summary(values: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99 plus mean and max of one metric across requests.

    An empty sample (every request shed under a control-plane policy or a
    degraded fleet, so no finished request carries the metric) reports
    all-zero -- the report must stay serializable even when a run degrades
    to zero completions.  The emptiness test is an explicit length check:
    ``if not values`` raises on the numpy arrays bulk request paths hand in
    (ambiguous truth value), which is exactly the all-shed traceback this
    guard exists to prevent.
    """
    if len(values) == 0:
        return {**{f"p{p}": 0.0 for p in PERCENTILES}, "mean": 0.0, "max": 0.0}
    # One numpy sort serves every percentile: the old per-percentile
    # ``percentile(values, p)`` calls re-sorted (and, fed a numpy array,
    # re-listed) the sample three times per metric, which dominated report
    # time on million-request runs.  Ranks reuse the exact integer
    # nearest-rank arithmetic of :func:`percentile`, and the regression
    # suite pins both paths to identical output.
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = int(ordered.size)
    summary: Dict[str, float] = {
        f"p{p}": float(ordered[min(max(1, (p * n + 99) // 100), n) - 1])
        for p in PERCENTILES
    }
    # Builtin sum on purpose: the mean is a strict left fold over the
    # sample, while ``np.sum`` is pairwise and can differ in the last ulp.
    summary["mean"] = sum(values) / len(values)
    summary["max"] = float(ordered[-1])
    return summary


def serving_latency_report(result: ServingRunResult) -> Dict[str, object]:
    """The full latency report: percentiles per metric plus load metrics.

    ``unit_occupancy_percent`` is each resource's busy share of the *serving*
    span (iterations only, arrival gaps excluded), so it reports occupancy
    under load rather than diluting it with trace idle time.
    """
    # Percentiles cover finished requests only: a shed request has no
    # latency, and folding zeros in would *flatter* the percentiles exactly
    # when the system is degrading.  Goodput accounts for the unfinished.
    # The samples come straight from the stamp columns, in trace order.
    table = result.requests
    latencies = table.cycles_from_arrival(table.finish)
    ttfts = table.cycles_from_arrival(table.first_token, table.finished)
    queueing = table.cycles_from_arrival(table.admitted)
    report: Dict[str, object] = {
        "kind": "serving_latency",
        "trace": result.trace,
        "design": result.design_name,
        "heterogeneous": result.heterogeneous,
        "requests": len(result.requests),
        "iterations": result.iteration_count,
        "makespan_cycles": result.total_cycles,
        "serving_cycles": result.serving_cycles,
        "decode_steps": result.decode_steps_executed,
        "mean_batch": result.mean_batch,
        "tokens_per_kilocycle": result.tokens_per_kilocycle,
        "latency_cycles": latency_summary(latencies),
        "ttft_cycles": latency_summary(ttfts),
        "queueing_cycles": latency_summary(queueing),
        "unit_occupancy_percent": occupancy_percent(
            result.resource_busy, result.serving_cycles
        ),
    }
    # Control-plane keys ride along only when the control plane was active,
    # keeping the default report byte-identical to its golden.
    if result.control_active:
        report["policy"] = result.policy
        report["goodput"] = result.goodput
        report["dispositions"] = dict(result.dispositions)
        report["preemption_count"] = result.preemption_count
    return report


def serving_perf_stats(result: ServingRunResult) -> Dict[str, Dict[str, int]]:
    """Run-local perf diagnostics: iteration-memo and timing-cache activity.

    Kept out of :func:`serving_latency_report` deliberately -- that report
    (like ``ServingRunResult.to_dict``) is a canonical, golden-pinned
    encoding that must stay byte-stable across cache and memo states, while
    these counters describe how *this* process happened to execute the run.
    """
    return {
        "iteration_memo": dict(result.iteration_memo),
        "timing_cache": dict(result.timing_cache),
        "epochs": dict(result.epochs),
    }


def _cycles_cell(value) -> str:
    return f"{value:,}" if value is not None else "-"


def serving_request_rows(result: ServingRunResult) -> List[List[str]]:
    """One formatted row per request for the CLI table.

    Shed / timed-out requests have no TTFT or latency; their cells render as
    ``-``.  A disposition column is appended only on control-plane runs so
    the default table layout is unchanged.
    """
    control = result.control_active
    rows = []
    for request in result.requests:
        row = [
            request.request_id,
            request.model_family,
            f"{request.arrival_cycle:,}",
            _cycles_cell(request.queueing_cycles),
            _cycles_cell(request.ttft_cycles),
            _cycles_cell(request.latency_cycles),
            str(request.decode_steps),
        ]
        if control:
            row.append(request.disposition or "-")
        rows.append(row)
    return rows


def format_latency_report(result: ServingRunResult) -> str:
    """Human-readable latency report for the CLI ``--latency-report`` flag."""
    report = serving_latency_report(result)

    def line(metric: str, summary: Dict[str, float]) -> str:
        return (
            f"{metric}: p50 {summary['p50']:,.0f}  p95 {summary['p95']:,.0f}  "
            f"p99 {summary['p99']:,.0f}  mean {summary['mean']:,.0f}  "
            f"max {summary['max']:,.0f} cycles"
        )

    occupancy = "  ".join(
        f"{resource} {percent:.1f}%"
        for resource, percent in report["unit_occupancy_percent"].items()
    )
    perf = serving_perf_stats(result)
    memo, cache = perf["iteration_memo"], perf["timing_cache"]
    lines = [
        (
            f"{report['requests']} requests over {report['iterations']} iterations: "
            f"makespan {report['makespan_cycles']:,} cycles "
            f"({report['serving_cycles']:,} serving), "
            f"mean batch {report['mean_batch']:.2f}, "
            f"{report['tokens_per_kilocycle']:.2f} tokens/kcycle"
        ),
        line("latency", report["latency_cycles"]),
        line("ttft", report["ttft_cycles"]),
        line("queueing", report["queueing_cycles"]),
        f"unit occupancy (serving span): {occupancy}",
    ]
    # Total degradation (every request shed / timed out) leaves the latency
    # and TTFT summaries empty; say so instead of letting the all-zero
    # percentiles read as a suspiciously fast run.
    if report["requests"] and not result.requests.finished.any():
        lines.insert(
            1,
            "no request finished (all shed or timed out): latency and ttft "
            "percentiles are empty, zeros below are placeholders",
        )
    if result.control_active:
        dispositions = "  ".join(
            f"{name} {count}" for name, count in report["dispositions"].items()
        )
        lines.insert(
            1,
            (
                f"policy {report['policy']}: goodput {report['goodput']:.3f} "
                f"({dispositions}; {report['preemption_count']} preemptions)"
            ),
        )
    lines.append(
        f"iteration memo: {memo.get('hits', 0)} hits, "
        f"{memo.get('misses', 0)} misses; timing cache: "
        f"{cache.get('hits', 0)} hits, {cache.get('misses', 0)} misses"
    )
    epochs = perf["epochs"]
    if epochs.get("enabled"):
        executed = int(epochs.get("executed_iterations", 0))
        extrapolated = int(epochs.get("extrapolated_iterations", 0))
        lines.append(
            f"epoch compression: {epochs.get('epochs', 0)} epochs, "
            f"{epochs.get('episode_runs', 0)} episode runs; "
            f"{extrapolated}/{executed + extrapolated} iterations extrapolated"
        )
    return "\n".join(lines)
