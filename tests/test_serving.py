"""Tests for the continuous-batching serving scenario: traces, merge, run, CLI."""

import json

import pytest

from repro.__main__ import main
from repro.config.presets import DesignKind
from repro.analysis.serving import (
    format_latency_report,
    latency_summary,
    percentile,
    serving_latency_report,
)
from repro.workloads import (
    ModelSpec,
    RequestSpec,
    ServingScheduler,
    ServingTrace,
    lower_graph,
    build_model,
    merge_schedules,
    resolve_trace,
    run_serving,
    scaled_spec,
    trace_names,
)
from repro.workloads.lowering import MATRIX_RESOURCE, SMALL_MATRIX_RESOURCE
from repro.workloads.models import REQUEST_MODELS

#: A deliberately tiny request network so serving tests stay fast.
TINY_GPT = ModelSpec(family="gpt", phase="decode", batch=1, seq_len=32,
                     hidden=128, blocks=1, heads=4)
TINY_MOE = ModelSpec(family="moe", phase="decode", batch=1, seq_len=32,
                     hidden=128, blocks=1, heads=4, experts=4, top_k=2)


def tiny_trace(arrivals=(0, 0), decode_steps=2, prompt_len=32, bucket=32):
    requests = tuple(
        RequestSpec(
            request_id=f"q{index}",
            model=TINY_GPT if index % 2 == 0 else TINY_MOE,
            arrival_cycle=arrival,
            prompt_len=prompt_len,
            decode_steps=decode_steps,
        )
        for index, arrival in enumerate(arrivals)
    )
    return ServingTrace(name="tiny", requests=requests, context_bucket=bucket)


class TestTraceLayer:
    def test_request_validation(self):
        with pytest.raises(ValueError, match="positive prompt_len"):
            RequestSpec(request_id="r", model=TINY_GPT, prompt_len=0)
        with pytest.raises(ValueError, match="arrival_cycle"):
            RequestSpec(request_id="r", model=TINY_GPT, arrival_cycle=-1)
        with pytest.raises(ValueError, match="non-empty request_id"):
            RequestSpec(request_id="", model=TINY_GPT)

    def test_request_id_slash_rejected(self):
        # "a" and "a/b" would make one request's kernel namespace a string
        # prefix of the other's and misattribute layer completions.
        with pytest.raises(ValueError, match="must not contain '/'"):
            RequestSpec(request_id="a/b", model=TINY_GPT)

    def test_non_decode_family_rejected(self):
        bert = ModelSpec(family="bert", phase="encode", seq_len=32, hidden=128, heads=4)
        with pytest.raises(ValueError, match="no .* decode phase|has no"):
            RequestSpec(request_id="r", model=bert)

    def test_duplicate_request_ids_rejected(self):
        request = RequestSpec(request_id="dup", model=TINY_GPT)
        with pytest.raises(ValueError, match="duplicate request id"):
            ServingTrace(name="bad", requests=(request, request))

    def test_sorted_requests_orders_by_arrival_then_id(self):
        # Same arrival cycle: construction order is legal either way and the
        # id breaks the tie deterministically.
        requests = (
            RequestSpec(request_id="qa", model=TINY_GPT, arrival_cycle=100),
            RequestSpec(request_id="qb", model=TINY_MOE, arrival_cycle=100),
        )
        trace = ServingTrace(name="tie", requests=requests, context_bucket=32)
        assert [r.request_id for r in trace.sorted_requests()] == ["qa", "qb"]

    def test_unsorted_trace_rejected(self):
        with pytest.raises(ValueError, match="not sorted by arrival"):
            tiny_trace(arrivals=(500, 0))

    def test_context_bucketing_rounds_up(self):
        trace = tiny_trace(bucket=64)
        assert trace.bucketed_context(1) == 64
        assert trace.bucketed_context(64) == 64
        assert trace.bucketed_context(65) == 128

    def test_trace_to_dict_round_trips_through_json(self):
        trace = tiny_trace()
        encoded = json.loads(json.dumps(trace.to_dict()))
        assert encoded["name"] == "tiny"
        assert len(encoded["requests"]) == 2
        assert encoded["requests"][0]["model"]["family"] == "gpt"

    def test_zoo_traces_resolve_and_validate(self):
        for name in trace_names():
            trace = resolve_trace(name)
            assert len(trace) > 0
            assert trace.name == name

    def test_zoo_traces_are_deterministic(self):
        # Builders must be pure functions of their arguments: the batch
        # runner content-hashes traces, so re-imports may not drift.
        first = resolve_trace("poisson-mixed").to_dict()
        from repro.workloads.models import poisson_trace, _mixed_models

        rebuilt = poisson_trace("poisson-mixed", _mixed_models()).to_dict()
        assert first == rebuilt

    def test_unknown_trace_lists_alternatives(self):
        with pytest.raises(KeyError, match="poisson-mixed"):
            resolve_trace("nope")


class TestMergeSchedules:
    def _schedules(self, heterogeneous=False):
        design = DesignKind.VIRGO
        spec_a = scaled_spec(TINY_GPT, context_len=64)
        spec_b = scaled_spec(TINY_MOE, context_len=64)
        a = lower_graph(build_model(spec_a), design, heterogeneous=heterogeneous)
        b = lower_graph(build_model(spec_b), design, heterogeneous=heterogeneous)
        return a, b

    def test_merged_names_are_disjoint_and_complete(self):
        a, b = self._schedules()
        merged = merge_schedules([("a/", a), ("b/", b)], model="m")
        names = [inv.name for inv in merged.invocations]
        assert len(names) == len(set(names)) == len(a.invocations) + len(b.invocations)
        assert all(name.startswith(("a/", "b/")) for name in names)

    def test_merged_deps_stay_within_namespace(self):
        a, b = self._schedules()
        merged = merge_schedules([("a/", a), ("b/", b)], model="m")
        for inv in merged.invocations:
            prefix = inv.name.split("/", 1)[0] + "/"
            assert all(dep.startswith(prefix) for dep in inv.deps)

    def test_merged_ideal_cycles_sum(self):
        a, b = self._schedules()
        merged = merge_schedules([("a/", a), ("b/", b)], model="m")
        assert merged.ideal_mac_cycles == pytest.approx(
            a.ideal_mac_cycles + b.ideal_mac_cycles
        )

    def test_interleaves_by_position(self):
        a, b = self._schedules()
        merged = merge_schedules([("a/", a), ("b/", b)], model="m")
        assert merged.invocations[0].name.startswith("a/")
        assert merged.invocations[1].name.startswith("b/")

    def test_duplicate_prefixes_rejected(self):
        a, b = self._schedules()
        with pytest.raises(ValueError, match="distinct"):
            merge_schedules([("a/", a), ("a/", b)], model="m")

    def test_mixed_unit_layout_rejected(self):
        a, _ = self._schedules(heterogeneous=False)
        _, b = self._schedules(heterogeneous=True)
        with pytest.raises(ValueError, match="unit layout"):
            merge_schedules([("a/", a), ("b/", b)], model="m")

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_schedules([], model="m")


class TestServingRun:
    def test_all_requests_finish_with_consistent_stamps(self):
        result = run_serving(tiny_trace(arrivals=(0, 100)), DesignKind.VIRGO)
        assert len(result.requests) == 2
        for request in result.requests:
            assert request.arrival_cycle <= request.admitted_cycle
            assert request.admitted_cycle < request.first_token_cycle
            assert request.first_token_cycle <= request.finish_cycle
            assert request.queueing_cycles >= 0
            assert request.ttft_cycles <= request.latency_cycles

    def test_decode_steps_conserved(self):
        trace = tiny_trace(arrivals=(0, 0, 50), decode_steps=3)
        result = run_serving(trace, DesignKind.VIRGO)
        assert result.decode_steps_executed == trace.total_decode_steps
        assert sum(r.decode_steps for r in result.requests) == trace.total_decode_steps

    def test_late_arrival_waits_for_iteration_boundary(self):
        # The second request arrives mid-iteration and must queue until the
        # first iteration completes.
        first_alone = run_serving(tiny_trace(arrivals=(0,), decode_steps=1))
        span = first_alone.total_cycles
        result = run_serving(tiny_trace(arrivals=(0, span // 2), decode_steps=2))
        late = next(r for r in result.requests if r.arrival_cycle > 0)
        assert late.queueing_cycles > 0

    def test_idle_gap_skips_to_next_arrival(self):
        result = run_serving(tiny_trace(arrivals=(0, 10_000_000), decode_steps=1))
        late = next(r for r in result.requests if r.arrival_cycle > 0)
        assert late.admitted_cycle == late.arrival_cycle
        assert result.total_cycles > 10_000_000
        assert result.serving_cycles < result.total_cycles

    def test_merged_serving_not_worse_than_isolated_sum(self):
        trace = tiny_trace(arrivals=(0, 0, 0))
        scheduler = ServingScheduler(DesignKind.VIRGO)
        result = scheduler.run(trace)
        isolated = sum(
            scheduler.isolated_cycles(request, trace.context_bucket)
            for request in trace.requests
        )
        assert result.serving_cycles <= isolated

    def test_latency_never_below_isolated(self):
        trace = tiny_trace(arrivals=(0, 0, 200), decode_steps=2)
        scheduler = ServingScheduler(DesignKind.VIRGO)
        result = scheduler.run(trace)
        by_id = {request.request_id: request for request in result.requests}
        for request in trace.requests:
            isolated = scheduler.isolated_cycles(request, trace.context_bucket)
            assert by_id[request.request_id].latency_cycles >= isolated

    def test_schedule_memoization_hits_timing_cache(self):
        scheduler = ServingScheduler(DesignKind.VIRGO)
        trace = tiny_trace(arrivals=(0, 0), decode_steps=4)
        result = scheduler.run(trace)
        # Bucketed contexts repeat across iterations, so after the first few
        # iterations every kernel resolves from the timing cache.
        assert result.timing_cache["hits"] > result.timing_cache["misses"]

    def test_hetero_spreads_requests_across_both_units(self):
        trace = tiny_trace(arrivals=(0,) * 6, decode_steps=2)
        result = run_serving(trace, DesignKind.VIRGO, heterogeneous=True)
        assert result.resource_busy[MATRIX_RESOURCE] > 0
        assert result.resource_busy[SMALL_MATRIX_RESOURCE] > 0

    def test_hetero_beats_single_unit_on_coresident_batch(self):
        trace = tiny_trace(arrivals=(0,) * 6, decode_steps=2)
        single = run_serving(trace, DesignKind.VIRGO)
        dual = run_serving(trace, DesignKind.VIRGO, heterogeneous=True)
        assert dual.total_cycles < single.total_cycles

    def test_result_to_dict_is_canonical_json(self):
        result = run_serving(tiny_trace(), DesignKind.VIRGO)
        encoded = json.loads(json.dumps(result.to_dict()))
        assert encoded["kind"] == "serving"
        assert encoded["decode_steps_executed"] == 4
        assert "timing_cache" not in encoded  # diagnostic only, never cached


class TestLatencyAnalysis:
    def test_percentile_nearest_rank(self):
        values = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert percentile(values, 50) == 50
        assert percentile(values, 95) == 100
        assert percentile(values, 99) == 100
        assert percentile([42], 50) == 42

    def test_percentile_single_sample(self):
        # n=1 degenerate: every percentile is the one value, including the
        # low tail (rank clamps to 1, never 0).
        for p in (1, 50, 95, 99, 100, 0.5, 37.5):
            assert percentile([42], p) == 42

    def test_percentile_two_samples(self):
        # n=2 degenerate: p50 is exactly the lower value (rank ceil(1.0)=1);
        # anything above the midpoint is the upper one.
        assert percentile([10, 20], 50) == 10
        assert percentile([10, 20], 50.5) == 20
        assert percentile([10, 20], 95) == 20
        assert percentile([10, 20], 99) == 20
        assert percentile([10, 20], 100) == 20

    def test_percentile_integral_p_has_no_float_overshoot(self):
        # ceil(p / 100 * n) in floats overshoots whenever p / 100 rounds up
        # in binary: 0.55 * 100 == 55.000000000000007 would make p55 of 100
        # samples the 56th value.  Integral p must rank exactly.
        values = list(range(1, 101))
        assert percentile(values, 55) == 55
        assert percentile(values, 7) == 7
        assert percentile(values, 29) == 29
        assert percentile(list(range(1, 51)), 14) == 7

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)
        with pytest.raises(ValueError, match="percentile"):
            percentile([1], 0)

    def test_latency_summary_fields(self):
        summary = latency_summary([1.0, 2.0, 3.0, 4.0])
        assert set(summary) == {"p50", "p95", "p99", "mean", "max"}
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["max"] == 4.0

    def test_report_percentiles_match_request_records(self):
        result = run_serving(tiny_trace(arrivals=(0, 0, 100)), DesignKind.VIRGO)
        report = serving_latency_report(result)
        latencies = sorted(r.latency_cycles for r in result.requests)
        assert report["latency_cycles"]["max"] == latencies[-1]
        assert report["requests"] == 3
        assert report["latency_cycles"]["p50"] in latencies

    def test_occupancy_uses_serving_span(self):
        result = run_serving(tiny_trace(arrivals=(0, 10_000_000)), DesignKind.VIRGO)
        report = serving_latency_report(result)
        # Excluding the idle arrival gap keeps occupancy a load metric.
        busy = result.resource_busy[MATRIX_RESOURCE]
        expected = 100.0 * busy / result.serving_cycles
        assert report["unit_occupancy_percent"][MATRIX_RESOURCE] == pytest.approx(expected)

    def test_format_report_prints_percentiles(self):
        text = format_latency_report(run_serving(tiny_trace(), DesignKind.VIRGO))
        for needle in ("latency: p50", "ttft: p50", "queueing: p50", "p95", "p99"):
            assert needle in text


class TestServeCli:
    def test_list_traces(self, capsys):
        assert main(["serve", "--list"]) == 0
        out = capsys.readouterr().out
        for name in trace_names():
            assert name in out

    def test_default_run_prints_request_table(self, capsys):
        assert main(["serve", "--trace", "uniform-moe"]) == 0
        out = capsys.readouterr().out
        assert "uniform-moe on Virgo" in out
        assert "TTFT" in out and "latency" in out
        assert "timing cache:" in out

    def test_latency_report_flag(self, capsys):
        assert main(["serve", "--trace", "uniform-moe", "--latency-report"]) == 0
        out = capsys.readouterr().out
        assert "latency: p50" in out and "p95" in out and "p99" in out
        assert "ttft: p50" in out

    def test_latency_report_prints_each_summary_line_once(self, capsys):
        assert main(["serve", "--trace", "uniform-moe", "--latency-report"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for prefix in ("iteration memo:", "epoch compression:"):
            assert sum(line.startswith(prefix) for line in lines) == 1, prefix

    def test_json_report(self, capsys):
        assert main(["serve", "--trace", "uniform-moe", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "serving"
        assert report["latency_report"]["latency_cycles"]["p99"] > 0

    def test_unknown_trace_exits_with_choices(self):
        with pytest.raises(SystemExit, match="poisson-mixed"):
            main(["serve", "--trace", "bogus"])

    def test_unknown_design_exits_with_choices(self):
        with pytest.raises(SystemExit, match="virgo"):
            main(["serve", "--design", "bogus"])


class TestServingZooRequestModels:
    def test_request_models_are_decode_phase_singletons(self):
        for name, spec in REQUEST_MODELS.items():
            assert spec.phase == "decode", name
            assert spec.batch == 1, name
