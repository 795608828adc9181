"""Command-line interface: regenerate the paper's experiments from a shell.

Examples
--------
    python -m repro gemm --design virgo --size 1024
    python -m repro gemm --all-designs --size 512
    python -m repro flash
    python -m repro table --number 3
    python -m repro compare          # full paper-vs-measured report
    python -m repro hetero
    python -m repro model --name gpt-prefill --design virgo
    python -m repro model --name moe-decode --design virgo --hetero --moe-breakdown
    python -m repro model --batch --names gpt-prefill,gpt-decode --designs virgo,ampere
    python -m repro serve --trace poisson-mixed --latency-report
    python -m repro serve --trace uniform-moe --trace-out trace.json --metrics
    python -m repro trace-report --input trace.json --validate
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from typing import Sequence

from repro.analysis.figures import (
    figure7_area_breakdown,
    figure8_power_energy,
    figure9_soc_power_breakdown,
    figure10_core_power_breakdown,
    figure11_matrix_unit_energy,
    figure12_flash_attention,
)
from repro.analysis.report import paper_comparison
from repro.analysis.tables import (
    format_table,
    table1_scaling_trends,
    table2_hardware_configuration,
    table3_mac_utilization,
    table4_smem_footprint,
)
from repro.analysis.model_breakdown import (
    LAYER_HEADERS,
    compare_models,
    format_overlap_report,
    model_breakdown_report,
    model_layer_rows,
    model_phase_summary,
)
from repro.analysis.fleet import (
    FLEET_REQUEST_HEADERS,
    fleet_perf_stats,
    fleet_report,
    fleet_request_rows,
    format_fleet_report,
)
from repro.analysis.serving import (
    REQUEST_HEADERS,
    format_latency_report,
    serving_latency_report,
    serving_perf_stats,
    serving_request_rows,
)
from repro.analysis.trace_report import (
    format_trace_summary,
    load_trace,
    trace_summary,
    validate_chrome_trace,
)
from repro.obs import PhaseProfiler, TraceRecorder, profiling, tracing
from repro.config.presets import DesignKind
from repro.kernels.heterogeneous import heterogeneous_summary, simulate_heterogeneous
from repro.perf import persistent_timing_cache, timing_cache
from repro.runner import run_flash_attention, run_gemm
from repro.workloads import (
    POLICIES,
    ROUTER_POLICIES,
    RouterConfig,
    fleet_names,
    model_names,
    resolve_fleet,
    resolve_spec,
    resolve_trace,
    run_batch,
    run_fleet,
    run_model,
    run_serving,
    sweep_jobs,
    trace_names,
)


def _run(args: argparse.Namespace, label: str, body, *, persist: bool = True):
    """Run ``body()`` under ``--trace-out`` / ``--metrics`` and, with
    ``persist``, the ``--cache-dir`` timing-cache snapshot.

    ``KeyError`` / ``ValueError`` (unknown names, bad flag combinations;
    their messages name the valid choices) exit with the message.  Returns
    ``(result, recorder, profiler)``, ``None`` for an unrequested context.
    """
    recorder = TraceRecorder(label=label) if args.trace_out else None
    profiler = PhaseProfiler() if args.metrics else None
    try:
        with ExitStack() as stack:
            if recorder is not None:
                stack.enter_context(tracing(recorder))
            if profiler is not None:
                stack.enter_context(profiling(profiler))
            if persist and args.cache_dir is not None:
                stack.enter_context(persistent_timing_cache(args.cache_dir))
            result = body()
    except (KeyError, ValueError) as error:
        raise SystemExit(error.args[0] if error.args else str(error)) from error
    return result, recorder, profiler


def _report_observability(args, result, recorder, profiler) -> None:
    """Write the trace file and print the metrics / phase-profile blocks.

    With ``--json`` the blocks go to stderr so stdout stays one parseable
    JSON document.
    """
    out = sys.stderr if args.json else sys.stdout
    if recorder is not None:
        recorder.write(args.trace_out)
        print(
            f"trace: {len(recorder.spans)} spans -> {args.trace_out} "
            "(load in ui.perfetto.dev or chrome://tracing)",
            file=out,
        )
    if profiler is not None:
        print("\nmetrics:", file=out)
        for name, value in result.metrics.snapshot(include_diagnostic=True).items():
            if isinstance(value, dict):
                value = "  ".join(f"{key}={entry:g}" for key, entry in value.items())
            print(f"  {name} = {value}", file=out)
        print("\nphase profile (wall clock):", file=out)
        print(profiler.format_totals(), file=out)


def _design_from_name(name: str) -> DesignKind:
    try:
        return DesignKind(name.lower())
    except ValueError as error:
        valid = ", ".join(kind.value for kind in DesignKind)
        raise SystemExit(f"unknown design {name!r}; choose one of: {valid}") from error


def _cmd_gemm(args: argparse.Namespace) -> None:
    kinds = list(DesignKind) if args.all_designs else [_design_from_name(args.design)]
    headers = ["design", "cycles", "MAC util %", "power mW", "energy uJ", "instructions"]
    rows = []
    for kind in kinds:
        run = run_gemm(kind, args.size)
        rows.append(
            [
                run.design_name,
                f"{run.total_cycles:,}",
                f"{run.mac_utilization_percent:.1f}",
                f"{run.active_power_mw:.1f}",
                f"{run.active_energy_uj:.1f}",
                f"{run.retired_instructions:,}",
            ]
        )
    print(f"GEMM {args.size}^3 (FP16)")
    print(format_table(headers, rows))


def _cmd_flash(args: argparse.Namespace) -> None:
    headers = ["design", "cycles", "MAC util %", "power mW", "energy uJ"]
    rows = []
    for kind in (DesignKind.AMPERE, DesignKind.VIRGO):
        run = run_flash_attention(kind)
        rows.append(
            [
                run.design_name,
                f"{run.total_cycles:,}",
                f"{run.mac_utilization_percent:.1f}",
                f"{run.active_power_mw:.1f}",
                f"{run.active_energy_uj:.1f}",
            ]
        )
    print("FlashAttention-3 forward (seq 1024, head dim 64, FP32)")
    print(format_table(headers, rows))


def _cmd_table(args: argparse.Namespace) -> None:
    generators = {
        1: table1_scaling_trends,
        2: table2_hardware_configuration,
        3: table3_mac_utilization,
        4: table4_smem_footprint,
    }
    if args.number not in generators:
        raise SystemExit("the paper has tables 1 through 4")
    print(json.dumps(generators[args.number](), indent=2, default=str))


def _cmd_figure(args: argparse.Namespace) -> None:
    generators = {
        7: figure7_area_breakdown,
        8: figure8_power_energy,
        9: figure9_soc_power_breakdown,
        10: figure10_core_power_breakdown,
        11: figure11_matrix_unit_energy,
        12: figure12_flash_attention,
    }
    if args.number not in generators:
        raise SystemExit("evaluation figures are 7 through 12")
    print(json.dumps(generators[args.number](), indent=2, default=str))


def _cmd_compare(_: argparse.Namespace) -> None:
    print(json.dumps(paper_comparison(), indent=2))


def _cmd_hetero(_: argparse.Namespace) -> None:
    summary = heterogeneous_summary(simulate_heterogeneous())
    print(json.dumps(summary, indent=2))


def _print_run_json(result, latency_report, perf_stats) -> None:
    """Print a serve/fleet run as one JSON document.  The run-local perf
    diagnostics ride outside ``to_dict()``, whose canonical encoding must
    stay byte-stable across cache and memo states."""
    report = result.to_dict()
    report["latency_report"] = latency_report(result)
    report["perf"] = perf_stats(result)
    print(json.dumps(report, indent=2))


def _cmd_model(args: argparse.Namespace) -> None:
    if args.list:
        for name in model_names():
            spec = resolve_spec(name)
            print(
                f"{name:<18} family={spec.family:<5} phase={spec.phase:<8} "
                f"batch={spec.batch} seq={spec.seq_len} hidden={spec.hidden} "
                f"blocks={spec.blocks} heads={spec.heads}"
                + (f" kv_heads={spec.kv_heads}" if spec.kv_heads else "")
                + (
                    f" experts={spec.experts} top_k={spec.top_k}"
                    + (f" cap={spec.capacity_factor:g}" if spec.capacity_factor != 1.0 else "")
                    + (f" shared={spec.shared_experts}" if spec.shared_experts else "")
                    if spec.experts
                    else ""
                )
            )
        return

    if args.batch:
        if args.trace_out or args.metrics:
            raise SystemExit(
                "--trace-out/--metrics need a single in-process run; "
                "they are not available with --batch (worker processes)"
            )
        names = [name.strip() for name in args.names.split(",") if name.strip()]
        designs = [name.strip() for name in args.designs.split(",") if name.strip()]
        if not names or not designs:
            raise SystemExit("--batch requires --names and --designs")
        for design in designs:
            _design_from_name(design)  # fail fast on typos
        # run_batch persists the timing cache itself, next to its results.
        report, _, _ = _run(
            args, "batch",
            lambda: run_batch(
                sweep_jobs(names, designs, heterogeneous=args.hetero),
                cache_dir=args.cache_dir, max_workers=args.workers,
            ),
            persist=False,
        )
        headers = ["job", "total cycles", "MAC util %", "energy uJ", "cached"]
        rows = [
            [
                outcome.job.label,
                f"{outcome.result['total_cycles']:,}",
                f"{outcome.result['mac_utilization_percent']:.1f}",
                f"{outcome.result['active_energy_uj']:.1f}",
                "yes" if outcome.from_cache else "no",
            ]
            for outcome in report.outcomes
        ]
        print(format_table(headers, rows))
        print(f"\n{report.computed} computed, {report.cached} from cache")
        return

    kind = _design_from_name(args.design)
    result, recorder, profiler = _run(
        args, args.name, lambda: run_model(args.name, kind, heterogeneous=args.hetero)
    )
    if args.json:
        print(json.dumps(model_breakdown_report(result), indent=2))
        _report_observability(args, result, recorder, profiler)
        return

    spec = resolve_spec(args.name)
    print(
        f"{args.name} on {result.design_name}"
        + (" (heterogeneous dual unit)" if result.heterogeneous else "")
        + f": batch={spec.batch} seq={spec.seq_len} hidden={spec.hidden} "
        f"blocks={spec.blocks} heads={spec.heads}\n"
    )
    print(format_table(LAYER_HEADERS, model_layer_rows(result)))
    print()
    if args.moe_breakdown:
        print(format_overlap_report(result))
        print()
    for phase, summary in model_phase_summary(result).items():
        print(
            f"phase {phase}: {summary['busy_cycles']:,.0f} busy cycles, "
            f"{summary['energy_uj']:.1f} uJ "
            f"({summary['energy_share_percent']:.1f}% of energy)"
        )
    headers, rows = compare_models([result])
    print()
    print(format_table(headers, rows))
    stats = result.timing_cache
    print(
        f"\ntiming cache: {stats.get('hits', 0)} hits, {stats.get('misses', 0)} misses "
        f"({len(timing_cache())} entries in process)"
    )
    _report_observability(args, result, recorder, profiler)


def _cmd_serve(args: argparse.Namespace) -> None:
    if args.list:
        for name in trace_names():
            trace = resolve_trace(name)
            families = sorted({request.model.family for request in trace.requests})
            last = max(request.arrival_cycle for request in trace.requests)
            print(
                f"{name:<16} requests={len(trace):<3} "
                f"decode_steps={trace.total_decode_steps:<4} "
                f"families={'/'.join(families):<12} "
                f"arrivals=0..{last:,} bucket={trace.context_bucket}"
            )
        return

    kind = _design_from_name(args.design)
    result, recorder, profiler = _run(
        args, args.trace,
        lambda: run_serving(
            args.trace, kind, heterogeneous=args.hetero,
            iteration_memo=not args.no_iteration_memo,
            policy=args.policy, kv_budget=args.kv_budget,
            faults=args.inject, fault_seed=args.fault_seed,
            epoch_compression=args.epoch_compression,
        ),
    )
    if args.json:
        _print_run_json(result, serving_latency_report, serving_perf_stats)
        _report_observability(args, result, recorder, profiler)
        return

    print(
        f"{result.trace} on {result.design_name}"
        + (" (heterogeneous dual unit)" if result.heterogeneous else "")
        + f": {len(result.requests)} requests, {result.iteration_count} iterations, "
        f"KV bucket {result.context_bucket}\n"
    )
    headers = REQUEST_HEADERS + ["disposition"] if result.control_active else REQUEST_HEADERS
    print(format_table(headers, serving_request_rows(result)))
    print()
    if result.control_active and not args.latency_report:
        dispositions = "  ".join(
            f"{name} {count}" for name, count in result.dispositions.items()
        )
        print(
            f"policy {result.policy}: goodput {result.goodput:.3f} "
            f"({dispositions}; {result.preemption_count} preemptions)"
        )
    if args.latency_report:
        # The report already carries the makespan/batch/throughput header and
        # the iteration-memo and epoch-compression lines.
        print(format_latency_report(result))
        print()
        print(f"energy: {result.energy_uj:.1f} uJ")
    else:
        print(
            f"makespan {result.total_cycles:,} cycles "
            f"({result.serving_cycles:,} serving), mean batch {result.mean_batch:.2f}, "
            f"{result.tokens_per_kilocycle:.2f} tokens/kcycle, "
            f"{result.energy_uj:.1f} uJ"
        )
        stats = result.timing_cache
        memo = result.iteration_memo
        print(
            f"iteration memo: {memo.get('hits', 0)} hits, {memo.get('misses', 0)} misses; "
            f"timing cache: {stats.get('hits', 0)} hits, {stats.get('misses', 0)} misses "
            f"({len(timing_cache())} entries in process)"
        )
        epochs = result.epochs
        if epochs.get("enabled"):
            executed = int(epochs.get("executed_iterations", 0))
            extrapolated = int(epochs.get("extrapolated_iterations", 0))
            print(
                f"epoch compression: {epochs.get('epochs', 0)} epochs, "
                f"{epochs.get('episode_runs', 0)} episode runs; "
                f"{extrapolated}/{executed + extrapolated} iterations extrapolated"
            )
    _report_observability(args, result, recorder, profiler)


def _cmd_fleet(args: argparse.Namespace) -> None:
    if args.list:
        print("traces:")
        for name in trace_names():
            trace = resolve_trace(name)
            print(f"  {name:<16} requests={len(trace)}")
        print("fleets:")
        for name in fleet_names():
            print(f"  {name:<16} {' + '.join(resolve_fleet(name))}")
        print("policies:")
        for name in sorted(ROUTER_POLICIES):
            print(f"  {name}")
        return

    fleet = int(args.fleet) if args.fleet.isdigit() else args.fleet
    result, recorder, profiler = _run(
        args, f"fleet:{args.trace}",
        lambda: run_fleet(
            args.trace, fleet, heterogeneous=args.hetero, policy=args.policy,
            config=RouterConfig(
                failover=not args.no_failover,
                max_retries=args.max_retries,
                seed=args.router_seed,
            ),
            faults=args.inject, fault_seed=args.fault_seed,
            iteration_memo=not args.no_iteration_memo,
            epoch_extrapolation=args.epoch_compression,
        ),
    )
    if args.json:
        _print_run_json(result, fleet_report, fleet_perf_stats)
        _report_observability(args, result, recorder, profiler)
        return

    print(
        f"{result.trace} across {len(result.replicas)} replicas "
        f"({', '.join(result.fleet)}) under {result.policy}"
        + (" (heterogeneous dual unit)" if result.heterogeneous else "")
        + f": {len(result.requests)} requests\n"
    )
    print(format_table(FLEET_REQUEST_HEADERS, fleet_request_rows(result)))
    print()
    if args.latency_report:
        print(format_fleet_report(result))
    else:
        dispositions = "  ".join(
            f"{name} {count}" for name, count in result.dispositions.items()
        )
        print(
            f"goodput {result.goodput:.3f}  availability {result.availability:.3f}  "
            f"({dispositions})\n"
            f"makespan {result.total_cycles:,} cycles; "
            f"{result.dispatch_count} dispatches "
            f"({result.failed_dispatches} failed), "
            f"{result.retry_count} retries, {result.failover_count} failovers"
        )
    _report_observability(args, result, recorder, profiler)


def _cmd_trace_report(args: argparse.Namespace) -> None:
    try:
        trace = load_trace(args.input)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"cannot load {args.input}: {error}") from error
    errors = validate_chrome_trace(trace)
    if args.validate:
        for message in errors:
            print(message, file=sys.stderr)
        if errors:
            raise SystemExit(f"{args.input}: {len(errors)} trace-event schema errors")
        print(f"{args.input}: valid trace-event JSON ({len(trace['traceEvents'])} events)")
        return
    if errors:
        raise SystemExit(
            f"{args.input}: not a valid trace ({errors[0]}; --validate lists all)"
        )
    summary = trace_summary(trace, top=args.top)
    if args.json:
        print(json.dumps(summary, indent=2))
        return
    print(format_trace_summary(summary, title=str(args.input)))


def _add_design_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--design", default="virgo", help="volta | ampere | hopper | virgo")


def _add_run_flags(
    parser: argparse.ArgumentParser, *, report: str, listing: str, hetero: str, schedule: str
) -> None:
    """Flags of ``model``/``serve``/``fleet``; the keywords are the
    command's own help phrases."""
    parser.add_argument("--hetero", action="store_true", help=hetero)
    parser.add_argument("--json", action="store_true", help=f"emit the full JSON {report}")
    parser.add_argument("--list", action="store_true", help=listing)
    parser.add_argument("--cache-dir", default=None,
                        help="persist the kernel-timing cache here so repeat "
                             "invocations start warm")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help=f"write the {schedule} as Chrome trace-event "
                             "JSON (open in ui.perfetto.dev)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics-registry snapshot (including "
                             "diagnostics) and a wall-clock phase profile")


def _add_serving_flags(
    parser: argparse.ArgumentParser, *, trace: str, policy: str, policy_help: str,
    latency: str, inject: str,
) -> None:
    """Flags of ``serve``/``fleet``: ``trace`` and ``policy`` are the
    command's defaults, the other keywords its own help phrases."""
    parser.add_argument("--trace", default=trace, help="serving-trace zoo entry (see --list)")
    parser.add_argument("--policy", default=policy, help=policy_help)
    parser.add_argument("--latency-report", action="store_true", help=f"print {latency}")
    parser.add_argument("--no-iteration-memo", action="store_true",
                        help="merge and schedule every iteration afresh "
                             "(disables the iteration-level memo)")
    parser.add_argument("--epoch-compression", default=True,
                        action=argparse.BooleanOptionalAction,
                        help="extrapolate invariant batch compositions in "
                             "closed form instead of simulating every "
                             "iteration (results are byte-identical either "
                             "way; --no-epoch-compression forces the exact "
                             "per-iteration loop)")
    parser.add_argument("--inject", default=None, metavar="SPEC", help=inject)
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the --inject fault plan (same seed => "
                             "byte-identical run)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Virgo (ASPLOS 2025) reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gemm = sub.add_parser("gemm", help="simulate a square GEMM")
    _add_design_flag(gemm)
    gemm.add_argument("--size", type=int, default=512)
    gemm.add_argument("--all-designs", action="store_true")
    gemm.set_defaults(func=_cmd_gemm)

    flash = sub.add_parser("flash", help="simulate FlashAttention-3 (Virgo vs Ampere-style)")
    flash.set_defaults(func=_cmd_flash)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("--number", type=int, required=True)
    table.set_defaults(func=_cmd_table)

    figure = sub.add_parser("figure", help="regenerate a paper figure's data series")
    figure.add_argument("--number", type=int, required=True)
    figure.set_defaults(func=_cmd_figure)

    compare = sub.add_parser("compare", help="full paper-vs-measured comparison (JSON)")
    compare.set_defaults(func=_cmd_compare)

    hetero = sub.add_parser("hetero", help="Section 6.3 heterogeneous dual-unit experiment")
    hetero.set_defaults(func=_cmd_hetero)

    model = sub.add_parser(
        "model",
        help="simulate an end-to-end model workload (see repro.workloads)",
        description=(
            "Lower a whole model (GPT prefill/decode, BERT encoder, GEMM chain) "
            "to a kernel schedule and report per-layer cycles, MAC utilization "
            "and energy.  The repro.workloads module docstring documents the "
            "layer-graph IR, the model zoo and the batch runner in detail."
        ),
        epilog=(
            "batch mode: --batch --names a,b --designs x,y fans the cross "
            "product over a process pool; --cache-dir makes re-runs free via "
            "a content-hashed on-disk result cache."
        ),
    )
    model.add_argument("--name", default="gpt-prefill", help="model zoo entry (see --list)")
    _add_design_flag(model)
    _add_run_flags(
        model, report="breakdown", listing="list the model zoo and exit",
        hetero="route small GEMMs onto a half-size secondary matrix unit",
        schedule="kernel schedule",
    )
    model.add_argument("--moe-breakdown", action="store_true",
                       help="report per-unit occupancy and measured overlap "
                            "(makespan vs. serialized kernel time)")
    model.add_argument("--batch", action="store_true", help="run a (models x designs) sweep")
    model.add_argument("--names", default="", help="comma-separated models for --batch")
    model.add_argument("--designs", default="", help="comma-separated designs for --batch")
    model.add_argument("--workers", type=int, default=None,
                       help="process-pool size for --batch (default: cpu count)")
    model.set_defaults(func=_cmd_model)

    serve = sub.add_parser(
        "serve",
        help="continuous-batch a serving trace (see repro.workloads.serving)",
        description=(
            "Run a stream of decode-phase requests (GPT/GQA/MoE mixes with "
            "arrival cycles, prompt lengths and decode budgets) through the "
            "iteration-level continuous-batching scheduler: every in-flight "
            "request's next decode step is merged into one kernel schedule, "
            "so independent requests overlap on the matrix and SIMT units.  "
            "Reports per-request latency, time to first token and queueing "
            "delay."
        ),
    )
    _add_serving_flags(
        serve, trace="poisson-mixed", policy="fcfs",
        policy_help="scheduling policy: " + " | ".join(sorted(POLICIES)),
        latency="p50/p95/p99 latency, TTFT and queueing percentiles",
        inject="fault-injection spec, comma-separated kind:rate:magnitude "
               "tokens, e.g. 'spike:0.3:4.0,stall:0.2:5000,burst:0.5:30000'",
    )
    _add_design_flag(serve)
    serve.add_argument("--kv-budget", type=int, default=None, metavar="BYTES",
                       help="resident-KV HBM budget for the budgeted policies "
                            "(default: the design's hbm_capacity_bytes)")
    _add_run_flags(
        serve, report="serving report", listing="list the serving-trace zoo and exit",
        hetero="serve on the dual-matrix-unit configuration",
        schedule="serving schedule (request lifecycles, iterations, per-unit kernels)",
    )
    serve.set_defaults(func=_cmd_serve)

    fleet = sub.add_parser(
        "fleet",
        help="route a serving trace across a replica fleet under chaos",
        description=(
            "Run a request stream through a router in front of N serving "
            "replicas: health checks with timeouts, retries with capped "
            "exponential backoff, failover of in-flight work (the crashed "
            "replica's KV is lost, so failed-over requests pay an explicit "
            "re-prefill), draining on recovery and load shedding when no "
            "believed-healthy capacity remains.  --inject applies a seeded "
            "replica-level fault plan (crash / slow / partition); the same "
            "seed reproduces the run byte-identically."
        ),
    )
    fleet.add_argument("--fleet", default="duo-virgo",
                       help="fleet zoo entry (see --list) or a replica count "
                            "(N identical virgos)")
    _add_serving_flags(
        fleet, trace="bursty-gpt", policy="round-robin",
        policy_help="router policy: " + " | ".join(sorted(ROUTER_POLICIES)),
        latency="fleet p50/p95/p99 latency, goodput, availability and "
                "per-replica occupancy",
        inject="replica fault plan, comma-separated tokens: fleet-wide "
               "'crash:RATE:DOWN_CYCLES', 'slow:RATE:SCALE:CYCLES', "
               "'partition:RATE:CYCLES', or targeted 'crash@R:AT:DOWN_CYCLES', "
               "'slow@R:AT:SCALE:CYCLES', 'partition@R:AT:CYCLES'",
    )
    fleet.add_argument("--no-failover", action="store_true",
                       help="do not fail over in-flight work from a crashed "
                            "replica; its requests are lost (disposition "
                            "'failed')")
    fleet.add_argument("--max-retries", type=int, default=4,
                       help="dispatch retry budget per request before it "
                            "times out")
    fleet.add_argument("--router-seed", type=int, default=0,
                       help="seed for the router's jittered backoff and "
                            "power-of-two sampling")
    _add_run_flags(
        fleet, report="fleet report",
        listing="list traces, fleet presets and router policies; exit",
        hetero="every replica uses the dual-matrix-unit configuration",
        schedule="fleet schedule (router decisions plus one track per replica)",
    )
    fleet.set_defaults(func=_cmd_fleet)

    trace_report = sub.add_parser(
        "trace-report",
        help="summarize or validate a --trace-out trace without a viewer",
        description=(
            "Digest a Chrome trace-event JSON file recorded with "
            "'model --trace-out' or 'serve --trace-out': the longest spans, "
            "a per-unit occupancy timeline and the per-iteration batch "
            "composition.  --validate only checks the trace-event schema "
            "(what Perfetto / chrome://tracing require to load the file) "
            "and exits non-zero on violations."
        ),
    )
    trace_report.add_argument("--input", required=True, metavar="FILE",
                              help="trace-event JSON file to read")
    trace_report.add_argument("--top", type=int, default=10,
                              help="how many of the longest spans to list")
    trace_report.add_argument("--json", action="store_true",
                              help="emit the summary as JSON")
    trace_report.add_argument("--validate", action="store_true",
                              help="schema-check only; exit non-zero on errors")
    trace_report.set_defaults(func=_cmd_trace_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
