"""Differential: fleet epoch extrapolation is exact across router events.

A fleet replica extrapolates whole epochs of memoized iterations while
other replicas receive arrivals, retries, failovers and fault transitions.
Whatever the router does, the canonical encoding must be byte-identical to
stepping every iteration one at a time.  The property covers every router
policy, seeded fault plans and one to three replicas on traces long enough
that epochs straddle router events; the fixed case runs a seeded chaos plan
with targeted crashes against the fully exact path (no iteration memo, no
extrapolation).  A unit test pins what a split leaves behind, and a
counter gate pins the cold chaos run's exact work.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from differential import assert_byte_identical
from repro.perf import timing_cache
from repro.workloads import (
    ROUTER_POLICIES,
    RequestSpec,
    ServingTrace,
    poisson_stream_trace,
    run_fleet,
)
from repro.workloads.serving import ReplicaEngine, ServingScheduler
from test_fleet_properties import TINY_GPT, fault_plans, fleet_traces

#: One slowdown and one partition window per replica, plus two crashes that
#: land on busy replicas, so failover moves in-flight work.
CHAOS = (
    "slow:1.0:2.5:300000,partition:1.0:200000,"
    "crash@0:30000000:400000,crash@1:80000000:400000"
)


def chaos_trace(requests: int):
    return poisson_stream_trace(
        f"fleet-epochs-{requests}",
        requests=requests,
        mean_interarrival=1_000_000.0,
        seed=5,
    )


@given(
    trace=fleet_traces(max_requests=6, max_decode_steps=24, max_arrival=400_000),
    plan=fault_plans(),
    policy=st.sampled_from(sorted(ROUTER_POLICIES)),
    replicas=st.integers(1, 3),
)
@settings(deadline=None, max_examples=100)
def test_extrapolation_matches_iteration_stepping(trace, plan, policy, replicas):
    compressed = run_fleet(trace, replicas, policy=policy, faults=plan)
    stepped = run_fleet(
        trace, replicas, policy=policy, faults=plan, epoch_extrapolation=False
    )
    assert_byte_identical(compressed, stepped, context=f"{policy} x{replicas}")


def test_chaos_run_matches_the_exact_path():
    trace = chaos_trace(120)
    compressed = run_fleet(
        trace, "trio-virgo", policy="least-outstanding", faults=CHAOS, fault_seed=3
    )
    exact = run_fleet(
        trace,
        "trio-virgo",
        policy="least-outstanding",
        faults=CHAOS,
        fault_seed=3,
        iteration_memo=False,
        epoch_extrapolation=False,
    )
    assert compressed.failover_count > 0
    assert compressed.perf["epochs"]["extrapolated_iterations"] > 0
    assert_byte_identical(compressed, exact, context="trio-virgo chaos")


def _engine_totals(engine):
    return (
        engine.now,
        engine.iterations,
        engine.serving_cycles,
        engine.kernel_count,
        engine.energy_uj,
        dict(engine.resource_busy),
        dict(engine.memo_stats),
        dict(engine.cache_stats),
    )


def test_split_keeps_the_straddling_iteration_begun():
    # One request serving alone: after its first bucket crossing every
    # step is a memo hit, so the engine begins one long epoch.  Cutting it
    # mid-way through its third iteration retires two iterations and keeps
    # the third begun alone; the run's totals, memo and timing-cache
    # credits included, stay those of the uncut epoch.
    trace = ServingTrace(
        name="split",
        requests=(
            RequestSpec(request_id="s", model=TINY_GPT, prompt_len=32, decode_steps=24),
        ),
        context_bucket=32,
    )
    scheduler = ServingScheduler(design="virgo")
    totals = []
    for cut in (False, False, True):  # the first pass warms the memo
        engine = ReplicaEngine(scheduler, trace, compress=True, label="split")
        engine.admit(trace.requests[0])
        while engine.active:
            engine.begin(hold=False, next_arrival=None)
            if cut and engine.horizon > 2:
                start, span = engine.now, engine.outcome.span_cycles
                iterations = engine.iterations
                kv = scheduler.resident_kv_bytes(trace, engine.active)
                engine.split(start + 2 * span + span // 2)
                assert engine.now == start + 2 * span
                assert engine.iterations == iterations + 2
                assert (engine.horizon, engine.end_cycle) == (1, start + 3 * span)
                # Bucket-granular KV is constant inside an epoch, which is
                # why the router reads it without splitting.
                assert scheduler.resident_kv_bytes(trace, engine.active) == kv
                cut = False
            engine.retire()
        assert not cut, "the run never began a splittable epoch"
        totals.append(_engine_totals(engine))
    assert totals[1] == totals[2]


class TestFleetEpochWorkGate:
    """Exact, machine-independent work counters of a cold fleet chaos run.

    Memo and timing-cache activity is a property of the simulated run, not
    of how it was stepped, so those counters must never move.  The epoch
    counters measure the stepping: a change that splits epochs at router
    events that do not touch a replica raises ``executed_iterations``.
    """

    def test_cold_chaos_counters(self):
        timing_cache().clear()
        result = run_fleet(
            chaos_trace(300), "trio-virgo", policy="least-outstanding",
            faults=CHAOS, fault_seed=3,
        )
        assert result.failover_count > 0
        assert result.perf["iteration_memo"] == {"hits": 5206, "misses": 11}
        assert result.perf["timing_cache"] == {"hits": 93629, "misses": 10}
        # Capping every replica's epoch at every router event ran 642
        # epochs, 4,427 extrapolated and 788 executed iterations.
        assert result.perf["epochs"] == {
            "epochs": 411,
            "extrapolated_iterations": 5013,
            "executed_iterations": 202,
        }
