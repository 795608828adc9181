"""Per-request serving results: episode replay reports what the exact loop does.

A compressed serving run replays most requests of a sparse stream from
learned episode templates instead of stepping them.  Every request record
it reports -- stamps, disposition, SLO class, preemptions, terminal cycle --
must equal the record the fully exact path (no iteration memo, no epoch or
episode extrapolation) reports for the same request.  The cases cover:

* an episode-heavy poisson stream under the default policy;
* the same stream with SLO classes under every scheduling policy, with one
  class tight enough that episode-replayed requests land in ``violated``;
* a contended SLO mix under ``preemptive-slo`` with a KV budget and
  spike/stall faults, so shed, timed-out and preempted rows occur.

The run reports those records as a :class:`RequestTable` over stamp
columns; the sequence-protocol cases pin that it behaves like the list of
records it replaces, and a counter gate pins the exact work of two cold
runs, including that assembling a result builds no record at all.
"""

from dataclasses import fields

import pytest

from differential import assert_byte_identical
from repro.perf import timing_cache
from repro.workloads import (
    REQUEST_MODELS,
    RequestResult,
    SloClass,
    poisson_stream_trace,
    poisson_trace,
    run_serving,
    slo_trace,
)
from repro.workloads import serving
from repro.workloads.serving import RequestTable

#: Every stored field plus the derived ones a reader sees.
FIELDS = tuple(field.name for field in fields(RequestResult)) + (
    "latency_cycles",
    "ttft_cycles",
    "queueing_cycles",
    "finished",
)

#: 300 sparse arrivals: all but a handful are replayed from episodes.
STREAM = poisson_stream_trace("request-table", requests=300, seed=3)

#: A solo request's first token takes ~94k cycles, so every request of
#: this class misses its TTFT target, episode-replayed ones included.
TIGHT = SloClass(name="tight", priority=1, ttft_target_cycles=50_000)

POLICIES = ("fcfs", "kv-budget", "preemptive-slo")


def record(request):
    assert type(request) is RequestResult
    return tuple(getattr(request, name) for name in FIELDS)


def assert_same_requests(fast, exact):
    assert len(fast.requests) == len(exact.requests)
    for index in range(len(exact.requests)):
        assert record(fast.requests[index]) == record(exact.requests[index]), index
    assert_byte_identical(fast, exact)


def exact_run(trace, **options):
    return run_serving(
        trace, "virgo", epoch_compression=False, iteration_memo=False, **options
    )


def test_stream_episode_requests_match_the_exact_path():
    fast = run_serving(STREAM, "virgo")
    assert fast.epochs["extrapolated_requests"] > 0
    assert_same_requests(fast, exact_run(STREAM))


@pytest.mark.parametrize("policy", POLICIES)
def test_slo_stream_dispositions_match_the_exact_path(policy):
    trace = slo_trace("request-table-slo", STREAM, classes=("interactive", TIGHT, "batch"))
    fast = run_serving(trace, "virgo", policy=policy)
    replayed = fast.epochs["extrapolated_requests"]
    assert replayed > 0
    # More violations than exactly stepped requests: some replayed ones.
    assert fast.dispositions["violated"] > len(trace) - replayed
    assert fast.dispositions["met"] > 0
    assert_same_requests(fast, exact_run(trace, policy=policy))


#: The serve-contended workload's control plane and fault mix.
CONTENDED = dict(
    policy="preemptive-slo",
    kv_budget=300_000,
    faults="spike:0.02:3.0,stall:0.02:20000",
    fault_seed=3,
)


def contended_trace(mean_interarrival):
    models = (
        REQUEST_MODELS["gpt-request"],
        REQUEST_MODELS["moe-request"],
        REQUEST_MODELS["gqa-request"],
    )
    return slo_trace(
        f"request-table-contended-{mean_interarrival:.0f}",
        poisson_trace(
            "contended", models, requests=300, mean_interarrival=mean_interarrival, seed=3
        ),
    )


def test_faulted_control_plane_rows_match_the_exact_path():
    # Four times the serve-contended arrival rate: requests are shed too.
    trace = contended_trace(300_000.0)
    fast = run_serving(trace, "virgo", **CONTENDED)
    for disposition in ("met", "violated", "shed", "timed_out"):
        assert fast.dispositions[disposition] > 0, disposition
    assert any(request.preemptions for request in fast.requests)
    assert_same_requests(fast, exact_run(trace, **CONTENDED))


def test_request_table_behaves_like_the_list_it_replaces():
    table = run_serving(STREAM, "virgo").requests
    assert isinstance(table, RequestTable)
    assert len(table) == len(STREAM)
    records = [table[index] for index in range(len(table))]
    assert list(table) == records
    assert table[-1] == records[-1]
    assert table[-len(table)] == records[0]
    assert table[3:9] == records[3:9]
    assert table[::50] == records[::50]
    assert table[-4:] == records[-4:]
    for index in (len(table), -len(table) - 1):
        with pytest.raises(IndexError):
            table[index]
    assert table == records and records == table
    assert table != records[:-1]
    assert table == run_serving(STREAM, "virgo").requests
    # Records are fresh values: mutating one does not write back.
    first = table[0]
    first.finish_cycle = -5
    assert table[0] is not first
    assert table[0].finish_cycle == records[0].finish_cycle


class TestServingWorkGate:
    """Exact, machine-independent work counters of cold serving runs.

    Memo activity is a property of the simulated run; the epoch counters
    measure how it was stepped: a change that ends epochs or episode runs
    early raises ``executed_iterations``.  The construction count keeps
    result assembly columnar: a run builds no per-request record.
    """

    def test_cold_stream_counters(self, monkeypatch):
        built = []

        class CountingResult(serving.RequestResult):
            # Counted in __new__, which a dataclass-__init__ bypass calls too.
            def __new__(cls, *args, **kwargs):
                built.append(1)
                return super().__new__(cls)

        monkeypatch.setattr(serving, "RequestResult", CountingResult)
        timing_cache().clear()
        result = run_serving(poisson_stream_trace("g", requests=2000, seed=3), "virgo")
        assert not built, f"assembly built {len(built)} request records"
        assert result.requests[0].request_id == "p0000"
        assert len(built) == 1  # the counter sees records built on access
        assert result.iteration_memo == {"hits": 47117, "misses": 3}
        assert result.epochs == {
            "enabled": True,
            "epochs": 187,
            "episode_runs": 65,
            "executed_iterations": 19,
            "extrapolated_iterations": 47101,
            "extrapolated_requests": 1865,
        }

    def test_cold_contended_counters(self):
        timing_cache().clear()
        result = run_serving(contended_trace(1_200_000.0), "virgo", **CONTENDED)
        assert result.preemption_count == 38
        assert result.epochs["executed_iterations"] == 456
