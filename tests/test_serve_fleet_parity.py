"""Differential: a one-replica, fault-free fleet *is* a serve run.

``run_fleet`` with a single replica and no fault plan routes every request
straight to that replica on arrival, so the replica must step the exact
continuous-batching iterations ``run_serving`` steps: the same per-request
stamps, the same serving span, kernel count, energy (bit-for-bit, it is a
sequential float sum on both sides), busy cycles and iteration count.  The
check runs over the whole trace zoo plus poisson streams at three load
levels (episode replay, mixed, epoch-heavy contention), with epoch
compression on and off.
"""

import pytest

from differential import assert_byte_identical
from repro.workloads import TRACE_ZOO, poisson_stream_trace, run_fleet, run_serving

STREAMS = {
    f"stream-gap{gap}": poisson_stream_trace(
        f"parity-{gap}", requests=300, mean_interarrival=float(gap), seed=13
    )
    for gap in (60_000_000, 1_000_000, 200_000)
}
TRACES = {**TRACE_ZOO, **STREAMS}


def _serve_view(result):
    return {
        "requests": [
            [r.request_id, r.arrival_cycle, r.admitted_cycle, r.first_token_cycle, r.finish_cycle]
            for r in result.requests
        ],
        "serving_cycles": result.serving_cycles,
        "kernel_count": result.kernel_count,
        "energy_uj": result.energy_uj,
        "resource_busy": dict(sorted(result.resource_busy.items())),
        "iterations": result.iteration_count,
    }


def _fleet_view(result):
    (replica,) = result.replicas
    return {
        "requests": [
            [r.request_id, r.arrival_cycle, r.admitted_cycle, r.first_token_cycle, r.finish_cycle]
            for r in result.requests
        ],
        "serving_cycles": replica.serving_cycles,
        "kernel_count": replica.kernel_count,
        "energy_uj": replica.energy_uj,
        "resource_busy": dict(sorted(replica.resource_busy.items())),
        "iterations": replica.iterations,
    }


@pytest.mark.parametrize("compress", [True, False], ids=["compressed", "exact"])
@pytest.mark.parametrize("name", sorted(TRACES))
def test_single_replica_fleet_equals_serve(name, compress):
    trace = TRACES[name]
    served = run_serving(trace, "virgo", epoch_compression=compress)
    fleet = run_fleet(trace, 1, epoch_extrapolation=compress)
    assert fleet.failover_count == 0 and fleet.retry_count == 0
    assert_byte_identical(
        _serve_view(served), _fleet_view(fleet), context=f"{name} compress={compress}"
    )
