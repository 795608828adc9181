"""Fleet-scale serving: a replica router over N simulated SoCs.

The ROADMAP's top open item made concrete: N :class:`ServingScheduler`
replicas (homogeneous or mixed design presets) behind a router with
pluggable load-balancing policies, where fault tolerance is first-class --
replicas crash and recover, slow down, and partition from the router
(:class:`repro.faults.FleetFaultPlan`), and the router reacts the way a
production ingress does: periodic health checks with timeouts, retries of
failed dispatches under capped exponential backoff with seeded jitter,
failover of orphaned in-flight work (the crashed replica's KV is gone, so
the re-dispatched request pays an explicit re-prefill cost through the same
pending-penalty path preemption re-admission uses), re-admission of traffic
on recovery, and graceful degradation by shedding lowest-SLO-class traffic
when healthy capacity drops below demand.

Determinism contract: every source of randomness (fault materialization,
backoff jitter, power-of-two-choices picks) draws from a fresh
``random.Random(f"{seed}:{kind}:{key}")`` -- SHA-512 seeded, stable across
platforms and draw order -- so a fleet run is a pure function of
``(trace, fleet, policy, config, fault plan)`` and two runs with the same
seed are byte-identical.

Scale contract: each replica steps the same
:class:`~repro.workloads.serving.ReplicaEngine` a single-SoC ``serve`` run
steps, *incrementally* between router events (arrivals, fault transitions,
health-check beliefs, retries).  Replicas share the process-wide iteration
memo; on memo hits with a stable composition a replica extrapolates a whole
epoch up to its own next transient -- a finish or a KV-bucket crossing
(:func:`repro.workloads.epochs.epoch_horizon`) -- and runs straight through
router events that do not touch it.  An event that does (a dispatch to the
replica, or a fault window opening or closing on it) splits the epoch
(:meth:`~repro.workloads.serving.ReplicaEngine.split`), so the event lands
between iterations exactly as under one-at-a-time stepping.  This is what
keeps million-request fleet sweeps tractable.  A one-replica fleet without faults
reproduces ``run_serving`` exactly.

Every request ends in exactly one terminal disposition --
``met``/``violated`` (finished, judged against its SLO), ``shed`` (dropped
at the router under degradation), ``timed_out`` (retry budget exhausted or
router-queue deadline passed), or ``failed`` (lost to a crash with failover
disabled) -- enforced at result assembly, not just asserted in tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.config.presets import DesignKind
from repro.config.soc import DataType
from repro.faults import FleetFaultPlan, ReplicaFaultEvent
from repro.obs import MetricsRegistry, occupancy_percent, phase, trace_recorder
from repro.workloads.control import evaluate_disposition
from repro.workloads.graph import RequestSpec, ServingTrace
from repro.workloads.models import resolve_trace
from repro.workloads.serving import ReplicaEngine, ServingScheduler, _InFlight

__all__ = [
    "FLEET_DISPOSITIONS",
    "ROUTER_POLICIES",
    "FleetRequestResult",
    "FleetRunResult",
    "ReplicaReport",
    "RouterConfig",
    "backoff_cycles",
    "resolve_fleet_designs",
    "resolve_router_policy",
    "run_fleet",
]

#: Perfetto process name for router-level events (dispatches, beliefs).
ROUTER_PROCESS = "router"

#: Every terminal state a fleet request can end in -- exactly one each.
FLEET_DISPOSITIONS = ("met", "violated", "shed", "timed_out", "failed")

#: Processing order for same-cycle events: a fault window that ends at t is
#: applied before one that starts at t; beliefs update before the router
#: acts on them; failover re-dispatch precedes plain retries; deadlines are
#: strict (they beat the drain pass at the same cycle).
_ORD_FAULT_END = 0
_ORD_FAULT_START = 1
_ORD_BELIEF_UP = 2
_ORD_BELIEF_DOWN = 3
_ORD_FAILOVER = 4
_ORD_RETRY = 5
_ORD_DEADLINE = 6
_ORD_DRAIN = 7

_INF = math.inf


def backoff_cycles(attempt: int, *, base: int, cap: int, seed: int, request_id: str) -> int:
    """Capped exponential backoff with seeded half-jitter, in cycles.

    The backoff window doubles per attempt (``base * 2**attempt``) and
    saturates at ``cap``; the returned delay lands in ``[window/2, window)``
    via a jitter drawn from ``random.Random(f"{seed}:backoff:{id}:{n}")`` --
    deterministic per (seed, request, attempt), independent of every other
    draw, and never below 1 cycle.
    """
    if attempt < 0:
        raise ValueError(f"backoff attempt must be >= 0, got {attempt}")
    if base <= 0:
        raise ValueError(f"backoff base must be > 0, got {base}")
    if cap < base:
        raise ValueError(f"backoff cap must be >= base, got cap={cap} base={base}")
    # Exponentiate under the cap without overflowing: past log2(cap/base)
    # doublings the window is saturated anyway.
    if attempt >= (cap // base).bit_length():
        window = cap
    else:
        window = min(cap, base * (1 << attempt))
    jitter = random.Random(f"{seed}:backoff:{request_id}:{attempt}").random()
    return max(1, int(window * (0.5 + 0.5 * jitter)))


@dataclass(frozen=True)
class RouterConfig:
    """Router behavior knobs: health checking, retries, capacity, failover.

    All times are simulation cycles.  ``max_outstanding`` caps dispatched-
    but-unfinished requests per replica (None = unbounded, so shedding only
    triggers when *no* replica is believed healthy); ``failover=False``
    turns crash orphans into ``failed`` dispositions -- the baseline the
    chaos CI compares goodput against.
    """

    health_check_interval: int = 50_000
    health_check_timeout: int = 10_000
    dispatch_timeout: int = 5_000
    retry_base_cycles: int = 2_000
    retry_cap_cycles: int = 64_000
    max_retries: int = 4
    failover: bool = True
    max_outstanding: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        for label in (
            "health_check_interval",
            "health_check_timeout",
            "dispatch_timeout",
            "retry_base_cycles",
        ):
            if getattr(self, label) <= 0:
                raise ValueError(f"{label} must be > 0, got {getattr(self, label)}")
        if self.retry_cap_cycles < self.retry_base_cycles:
            raise ValueError(
                f"retry_cap_cycles must be >= retry_base_cycles, got "
                f"{self.retry_cap_cycles} < {self.retry_base_cycles}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_outstanding is not None and self.max_outstanding < 1:
            raise ValueError(f"max_outstanding must be >= 1, got {self.max_outstanding}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "health_check_interval": self.health_check_interval,
            "health_check_timeout": self.health_check_timeout,
            "dispatch_timeout": self.dispatch_timeout,
            "retry_base_cycles": self.retry_base_cycles,
            "retry_cap_cycles": self.retry_cap_cycles,
            "max_retries": self.max_retries,
            "failover": self.failover,
            "max_outstanding": self.max_outstanding,
            "seed": self.seed,
        }


def _request_priority(request: RequestSpec) -> int:
    return request.slo.priority if request.slo is not None else 0


@dataclass
class _FleetRequest:
    """Router-side lifecycle state of one request across replicas."""

    spec: RequestSpec
    priority: int
    attempts: int = 0
    retries: int = 0
    failovers: int = 0
    steps_done: int = 0
    needs_reprefill: bool = False
    reprefill_cycles: int = 0
    admitted_cycle: Optional[int] = None
    first_token_cycle: Optional[int] = None
    finish_cycle: Optional[int] = None
    terminal_cycle: Optional[int] = None
    disposition: Optional[str] = None
    replica: Optional[int] = None
    enqueued_cycle: Optional[int] = None

    @property
    def terminal(self) -> bool:
        return self.disposition is not None


class _Replica:
    """One simulated SoC: a :class:`ReplicaEngine` plus fleet-only state.

    The engine owns the replica's clock, batch, stepping and accounting;
    the replica adds what only a fleet has: the dispatched-but-unadmitted
    ``pending`` queue, crash/partition/slow truth, and in-flight parking.
    It advances up to the router's clock; a step whose end would cross it
    stays begun and retires on a later advance.  The router splits a begun
    epoch when an event touches this replica, leaving the one iteration
    that straddles the event begun (iterations are atomic); a crash aborts
    that iteration and discards its work.  Router reads need no split:
    ``outstanding`` and ``resident_kv`` are constant inside a begun step,
    because requests finish only at its end and an epoch never crosses a
    KV bucket.
    """

    def __init__(
        self,
        index: int,
        design_name: str,
        scheduler: ServingScheduler,
        trace: ServingTrace,
        compress: bool,
    ) -> None:
        self.index = index
        self.design_name = design_name
        self.engine = ReplicaEngine(
            scheduler,
            trace,
            compress=compress,
            label=f"replica{index}",
            process=self._process,
        )
        self.pending: List[Tuple[int, _FleetRequest]] = []
        self.by_id: Dict[str, _FleetRequest] = {}
        self.down_depth = 0
        self.partition_depth = 0
        self.slow_scales: List[float] = []
        self.believed_up = True
        self.dispatched = 0
        self.completed = 0
        self.crashes = 0
        self.slowdowns = 0
        self.partitions = 0

    @property
    def down(self) -> bool:
        return self.down_depth > 0

    @property
    def reachable(self) -> bool:
        """Truth: the router can actually deliver a dispatch right now."""
        return self.down_depth == 0 and self.partition_depth == 0

    @property
    def slow_scale(self) -> float:
        return max(self.slow_scales, default=1.0)

    @property
    def outstanding(self) -> int:
        return len(self.engine.active) + len(self.pending)

    @property
    def resident_kv(self) -> int:
        engine = self.engine
        if not engine.active:
            return 0
        return engine.scheduler.resident_kv_bytes(engine.trace, engine.active)

    def advance(self, limit: Union[int, float]) -> None:
        """Run this replica until its next iteration boundary would cross ``limit``."""
        engine = self.engine
        while not self.down:
            if engine.outcome is not None:
                if engine.end_cycle > limit:
                    return
                for state in engine.retire() or ():
                    self._finish(state)
                continue
            if not engine.active:
                if not self.pending:
                    return
                boundary = min(at for at, _ in self.pending)
                if boundary >= limit:
                    return
                engine.now = max(engine.now, boundary)
            # Admit every dispatch delivered by this boundary.  A failed-over
            # request re-prefills through the preemption re-admission path:
            # its KV state died with the crashed replica.
            now = engine.now
            ready = [(at, fr) for at, fr in self.pending if at <= now]
            if ready:
                ready.sort(key=lambda item: (item[0], item[1].spec.request_id))
                self.pending = [(at, fr) for at, fr in self.pending if at > now]
                for _, fr in ready:
                    if fr.admitted_cycle is None:
                        fr.admitted_cycle = now
                    fr.replica = self.index
                    fr.reprefill_cycles += engine.admit(
                        fr.spec,
                        admitted_cycle=fr.admitted_cycle,
                        steps_done=fr.steps_done,
                        first_token_cycle=fr.first_token_cycle,
                        preemptions=fr.failovers,
                        reload=fr.needs_reprefill,
                    )
                    fr.needs_reprefill = False
                    self.by_id[fr.spec.request_id] = fr
            with phase("fleet.iteration", replica=self.index, batch=len(engine.active)):
                engine.begin(
                    hold=bool(self.pending),
                    next_arrival=None,
                    duration_scale=self.slow_scale,
                )

    def _finish(self, state: _InFlight) -> None:
        fr = self.by_id.pop(state.request.request_id)
        fr.steps_done = state.steps_done
        fr.first_token_cycle = state.first_token_cycle
        fr.finish_cycle = state.finish_cycle
        fr.terminal_cycle = state.finish_cycle
        self.completed += 1

    def crash(self, at: int) -> List[_FleetRequest]:
        """Take the replica down; return the orphaned requests.

        The in-flight iteration is aborted (its work is discarded, not
        accounted), admitted requests keep their decode progress but lose
        KV residency (``needs_reprefill``), and dispatched-but-unadmitted
        requests are simply returned to the router (no KV to lose).
        """
        engine = self.engine
        self.crashes += 1
        self.down_depth += 1
        engine.abort()
        orphans: List[_FleetRequest] = []
        for state in engine.active:
            fr = self.by_id.pop(state.request.request_id)
            fr.steps_done = state.steps_done
            fr.first_token_cycle = state.first_token_cycle
            fr.needs_reprefill = True
            orphans.append(fr)
        engine.active = []
        for _, fr in self.pending:
            orphans.append(fr)
        self.pending = []
        engine.now = max(engine.now, at)
        orphans.sort(key=lambda fr: fr.spec.request_id)
        return orphans

    def recover(self, at: int) -> None:
        self.down_depth -= 1
        if self.down_depth == 0:
            self.engine.now = max(self.engine.now, at)

    @property
    def _process(self) -> str:
        return f"replica{self.index} ({self.design_name})"


@dataclass
class FleetRequestResult:
    """Terminal record of one request's trip through the fleet."""

    request_id: str
    model_family: str
    arrival_cycle: int
    admitted_cycle: Optional[int]
    first_token_cycle: Optional[int]
    finish_cycle: Optional[int]
    prompt_len: int
    decode_steps: int
    disposition: str
    slo_class: Optional[str]
    terminal_cycle: Optional[int]
    replica: Optional[int]
    attempts: int
    retries: int
    failovers: int
    reprefill_cycles: int

    @property
    def latency_cycles(self) -> Optional[int]:
        if self.finish_cycle is None:
            return None
        return self.finish_cycle - self.arrival_cycle

    @property
    def ttft_cycles(self) -> Optional[int]:
        if self.first_token_cycle is None:
            return None
        return self.first_token_cycle - self.arrival_cycle

    @property
    def queueing_cycles(self) -> Optional[int]:
        if self.admitted_cycle is None:
            return None
        return self.admitted_cycle - self.arrival_cycle

    @property
    def finished(self) -> bool:
        return self.finish_cycle is not None

    def to_dict(self) -> Dict[str, object]:
        return {
            "request_id": self.request_id,
            "model_family": self.model_family,
            "arrival_cycle": self.arrival_cycle,
            "admitted_cycle": self.admitted_cycle,
            "first_token_cycle": self.first_token_cycle,
            "finish_cycle": self.finish_cycle,
            "prompt_len": self.prompt_len,
            "decode_steps": self.decode_steps,
            "latency_cycles": self.latency_cycles,
            "ttft_cycles": self.ttft_cycles,
            "queueing_cycles": self.queueing_cycles,
            "disposition": self.disposition,
            "slo_class": self.slo_class,
            "terminal_cycle": self.terminal_cycle,
            "replica": self.replica,
            "attempts": self.attempts,
            "retries": self.retries,
            "failovers": self.failovers,
            "reprefill_cycles": self.reprefill_cycles,
        }


@dataclass
class ReplicaReport:
    """Per-replica accounting surfaced in the fleet report."""

    index: int
    design: str
    iterations: int
    epochs: int
    aborted_iterations: int
    serving_cycles: int
    kernel_count: int
    energy_uj: float
    resource_busy: Dict[str, int]
    dispatched: int
    completed: int
    crashes: int
    slowdowns: int
    partitions: int
    unreachable_cycles: int

    def to_dict(self) -> Dict[str, object]:
        # ``epochs`` is deliberately absent: how many iterations were
        # *extrapolated* (rather than executed) depends on the process's
        # memo state, and the canonical encoding must stay byte-identical
        # across warm and cold caches.  It lives in the run's ``perf``
        # diagnostics instead.
        return {
            "index": self.index,
            "design": self.design,
            "iterations": self.iterations,
            "aborted_iterations": self.aborted_iterations,
            "serving_cycles": self.serving_cycles,
            "kernel_count": self.kernel_count,
            "energy_uj": self.energy_uj,
            "resource_busy": dict(sorted(self.resource_busy.items())),
            "unit_occupancy_percent": occupancy_percent(
                self.resource_busy, self.serving_cycles
            ),
            "dispatched": self.dispatched,
            "completed": self.completed,
            "crashes": self.crashes,
            "slowdowns": self.slowdowns,
            "partitions": self.partitions,
            "unreachable_cycles": self.unreachable_cycles,
        }


@dataclass
class FleetRunResult:
    """Outcome of one trace served by a fleet under a router policy."""

    trace: str
    policy: str
    fleet: Tuple[str, ...]
    heterogeneous: bool
    config: RouterConfig
    fault_plan: Optional[FleetFaultPlan]
    fault_events: Tuple[ReplicaFaultEvent, ...]
    total_cycles: int
    requests: List[FleetRequestResult]
    replicas: List[ReplicaReport]
    dispositions: Dict[str, int]
    goodput: float
    availability: float
    dispatch_count: int
    failed_dispatches: int
    retry_count: int
    failover_count: int
    metrics: MetricsRegistry
    #: Process-local perf diagnostics (memo/cache activity), deliberately
    #: outside :meth:`to_dict` -- the canonical encoding must stay
    #: byte-identical across warm and cold caches.
    perf: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "fleet_run",
            "trace": self.trace,
            "policy": self.policy,
            "fleet": list(self.fleet),
            "heterogeneous": self.heterogeneous,
            "router": self.config.to_dict(),
            "faults": self.fault_plan.to_dict() if self.fault_plan else None,
            "fault_events": [event.to_dict() for event in self.fault_events],
            "total_cycles": self.total_cycles,
            "dispositions": dict(self.dispositions),
            "goodput": self.goodput,
            "availability": self.availability,
            "dispatch_count": self.dispatch_count,
            "failed_dispatches": self.failed_dispatches,
            "retry_count": self.retry_count,
            "failover_count": self.failover_count,
            "requests": [request.to_dict() for request in self.requests],
            "replicas": [replica.to_dict() for replica in self.replicas],
            "metrics": self.metrics.snapshot(),
        }


class _RoundRobin:
    """Cycle through believed-healthy replicas in index order."""

    name = "round-robin"

    def __init__(self, seed: int) -> None:
        self._cursor = -1

    def choose(self, candidates: List[_Replica], fr: _FleetRequest, now: int) -> _Replica:
        chosen = None
        for rep in candidates:
            if rep.index > self._cursor:
                chosen = rep
                break
        if chosen is None:
            chosen = candidates[0]
        self._cursor = chosen.index
        return chosen


class _LeastOutstanding:
    """Fewest dispatched-but-unfinished requests wins (ties by index)."""

    name = "least-outstanding"

    def __init__(self, seed: int) -> None:
        pass

    def choose(self, candidates: List[_Replica], fr: _FleetRequest, now: int) -> _Replica:
        return min(candidates, key=lambda rep: (rep.outstanding, rep.index))


class _LeastKv:
    """Smallest resident KV footprint wins (ties by index)."""

    name = "least-kv"

    def __init__(self, seed: int) -> None:
        pass

    def choose(self, candidates: List[_Replica], fr: _FleetRequest, now: int) -> _Replica:
        return min(candidates, key=lambda rep: (rep.resident_kv, rep.index))


class _PowerOfTwo:
    """Seeded two random picks; the less-loaded of the pair wins."""

    name = "power-of-two"

    def __init__(self, seed: int) -> None:
        self._seed = seed

    def choose(self, candidates: List[_Replica], fr: _FleetRequest, now: int) -> _Replica:
        if len(candidates) == 1:
            return candidates[0]
        rng = random.Random(f"{self._seed}:p2c:{fr.spec.request_id}:{fr.attempts}")
        first = rng.randrange(len(candidates))
        second = rng.randrange(len(candidates))
        if second == first:
            second = (second + 1) % len(candidates)
        a, b = candidates[first], candidates[second]
        return a if (a.outstanding, a.index) <= (b.outstanding, b.index) else b


ROUTER_POLICIES = {
    policy.name: policy
    for policy in (_RoundRobin, _LeastOutstanding, _LeastKv, _PowerOfTwo)
}


def resolve_router_policy(name: str, seed: int):
    try:
        factory = ROUTER_POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(ROUTER_POLICIES))
        raise ValueError(f"unknown router policy {name!r}; known policies: {known}") from None
    return factory(seed)


def resolve_fleet_designs(
    fleet: Union[int, str, Sequence[Union[str, DesignKind]]],
) -> Tuple[str, ...]:
    """Normalize a fleet description into a tuple of design preset names.

    An int is that many ``virgo`` replicas; a string is a fleet-zoo name
    (:data:`repro.workloads.models.FLEET_ZOO`); a sequence names each
    replica's design preset directly.
    """
    if isinstance(fleet, int):
        if fleet < 1:
            raise ValueError(f"fleet must have at least one replica, got {fleet}")
        return (DesignKind.VIRGO.value,) * fleet
    if isinstance(fleet, str):
        from repro.workloads.models import resolve_fleet

        return resolve_fleet(fleet)
    designs = tuple(
        member.value if isinstance(member, DesignKind) else DesignKind(str(member).lower()).value
        for member in fleet
    )
    if not designs:
        raise ValueError("fleet sequence must name at least one design preset")
    return designs


class _FleetRun:
    """One fleet execution: the event loop and all router state."""

    def __init__(
        self,
        trace: ServingTrace,
        designs: Tuple[str, ...],
        heterogeneous: bool,
        dtype: DataType,
        policy_name: str,
        config: RouterConfig,
        plan: Optional[FleetFaultPlan],
        iteration_memo: bool,
        epoch_extrapolation: bool,
    ) -> None:
        self.trace = trace
        self.designs = designs
        self.heterogeneous = heterogeneous
        self.config = config
        self.plan = plan
        self.policy_name = policy_name
        self.policy = resolve_router_policy(policy_name, config.seed)
        self.recorder = trace_recorder()
        self.replicas = [
            _Replica(
                index,
                name,
                ServingScheduler(
                    design=name,
                    heterogeneous=heterogeneous,
                    dtype=dtype,
                    iteration_memo=iteration_memo,
                    epoch_compression=epoch_extrapolation,
                ),
                trace,
                compress=epoch_extrapolation,
            )
            for index, name in enumerate(designs)
        ]
        self.arrivals = list(trace.sorted_requests())
        self.queue: List[_FleetRequest] = []
        self.all_requests: List[_FleetRequest] = []
        self.events: List[tuple] = []
        self._seq = 0
        self._drain_armed = False
        self.dispatch_count = 0
        self.failed_dispatches = 0
        self.retry_count = 0
        self.failover_count = 0
        horizon = self.arrivals[-1].arrival_cycle + 1 if self.arrivals else 1
        self.fault_events = plan.materialize(len(designs), horizon) if plan else ()
        self._schedule_faults()

    # -- Event plumbing --------------------------------------------------

    def _push(self, at: int, order: int, kind: str, payload: object) -> None:
        self._seq += 1
        heappush(self.events, (at, order, self._seq, kind, payload))

    def _first_check_at(self, replica_index: int, t: int) -> int:
        """The first health-check tick for a replica at or after ``t``.

        Ticks are staggered across replicas so a fleet-wide probe storm
        never lands on one cycle.
        """
        interval = self.config.health_check_interval
        offset = (replica_index * interval) // max(1, len(self.replicas))
        if t <= offset:
            return offset
        return offset + (-((t - offset) // -interval)) * interval

    def _schedule_faults(self) -> None:
        """Turn materialized fault windows into truth + belief events.

        Truth transitions land exactly at window edges.  Belief follows the
        health checker: a window is *detected* at the first check tick at or
        after its start plus the check timeout (an outage shorter than that
        is never believed), and belief recovers at the first tick at or
        after the window's end -- both scheduled closed-form, so health
        checking costs O(windows), not O(time / interval).
        """
        per_replica: Dict[int, List[Tuple[int, int]]] = {}
        for event in self.fault_events:
            self._push(event.at_cycle, _ORD_FAULT_START, "fault_start", event)
            self._push(event.end_cycle, _ORD_FAULT_END, "fault_end", event)
            if event.kind in ("crash", "partition"):
                per_replica.setdefault(event.replica, []).append(
                    (event.at_cycle, event.end_cycle)
                )
        timeout = self.config.health_check_timeout
        for replica_index, windows in per_replica.items():
            for start, end in _merge_windows(windows):
                detect = self._first_check_at(replica_index, start) + timeout
                if detect < end:
                    self._push(detect, _ORD_BELIEF_DOWN, "belief_down", replica_index)
                self._push(
                    self._first_check_at(replica_index, end),
                    _ORD_BELIEF_UP,
                    "belief_up",
                    replica_index,
                )

    # -- Router actions --------------------------------------------------

    def _candidates(self) -> List[_Replica]:
        cap = self.config.max_outstanding
        return [
            rep
            for rep in self.replicas
            if rep.believed_up and (cap is None or rep.outstanding < cap)
        ]

    def _dispatch(self, fr: _FleetRequest, now: int) -> None:
        if fr.terminal:
            return
        candidates = self._candidates()
        if not candidates:
            self._park_or_shed(fr, now)
            return
        rep = self.policy.choose(candidates, fr, now)
        fr.attempts += 1
        if rep.reachable:
            rep.engine.split(now)
            rep.pending.append((now, fr))
            rep.dispatched += 1
            fr.replica = rep.index
            self.dispatch_count += 1
            return
        # The dispatch times out against a believed-up but unreachable
        # replica: mark the belief down once the timeout fires, and retry
        # elsewhere after a backoff -- unless the retry budget is gone.
        self.failed_dispatches += 1
        detected = now + self.config.dispatch_timeout
        self._push(detected, _ORD_BELIEF_DOWN, "belief_down", rep.index)
        if self.recorder is not None:
            self.recorder.add_span(
                f"dispatch timeout ({fr.spec.request_id} -> r{rep.index})",
                process=ROUTER_PROCESS,
                track="dispatch",
                start=now,
                duration=self.config.dispatch_timeout,
                category="fault",
                args={"request": fr.spec.request_id, "replica": rep.index},
            )
        attempt = fr.retries
        fr.retries += 1
        self.retry_count += 1
        if fr.retries > self.config.max_retries:
            self._finalize(fr, "timed_out", detected)
            return
        delay = backoff_cycles(
            attempt,
            base=self.config.retry_base_cycles,
            cap=self.config.retry_cap_cycles,
            seed=self.config.seed,
            request_id=fr.spec.request_id,
        )
        self._push(detected + delay, _ORD_RETRY, "retry", fr)

    def _park_or_shed(self, fr: _FleetRequest, now: int) -> None:
        """No believed-healthy capacity: degrade gracefully.

        Lowest-SLO-class traffic (priority 0 -- the batch tier and SLO-free
        requests) is shed outright; higher classes park in the router queue
        and re-dispatch on recovery, the next drain tick, or a belief
        change, subject to their queue deadline.
        """
        if fr.priority == 0:
            self._finalize(fr, "shed", now)
            return
        if fr.enqueued_cycle is None:
            fr.enqueued_cycle = now
            deadline = fr.spec.slo.queue_deadline_cycles if fr.spec.slo else None
            if deadline is not None:
                self._push(fr.enqueued_cycle + deadline, _ORD_DEADLINE, "deadline", fr)
        self.queue.append(fr)

    def _finalize(self, fr: _FleetRequest, disposition: str, at: int) -> None:
        fr.disposition = disposition
        fr.terminal_cycle = at
        if self.recorder is not None:
            self.recorder.add_span(
                f"{disposition} ({fr.spec.request_id})",
                process=ROUTER_PROCESS,
                track="dispositions",
                start=at,
                duration=0,
                category="disposition",
                args={"request": fr.spec.request_id},
            )

    def _drain(self, now: int) -> None:
        if not self.queue:
            return
        parked = [fr for fr in self.queue if not fr.terminal]
        self.queue = []
        for fr in parked:
            self._dispatch(fr, now)

    def _advance_all(self, limit: Union[int, float]) -> None:
        for rep in self.replicas:
            rep.advance(limit)

    # -- Event handlers --------------------------------------------------

    def _on_fault_start(self, event: ReplicaFaultEvent, now: int) -> None:
        rep = self.replicas[event.replica]
        rep.engine.split(now)
        if self.recorder is not None:
            self.recorder.add_span(
                event.kind,
                process=rep._process,
                track="faults",
                start=event.at_cycle,
                duration=event.duration_cycles,
                category="fault",
                args={"scale": event.duration_scale},
            )
        if event.kind == "crash":
            orphans = rep.crash(now)
            if not orphans:
                return
            if self.config.failover:
                detected = min(
                    self._first_check_at(event.replica, now) + self.config.health_check_timeout,
                    event.end_cycle,
                )
                self._push(detected, _ORD_FAILOVER, "failover", orphans)
            else:
                for fr in orphans:
                    self._finalize(fr, "failed", now)
        elif event.kind == "slow":
            rep.slowdowns += 1
            rep.slow_scales.append(event.duration_scale)
        elif event.kind == "partition":
            rep.partitions += 1
            rep.partition_depth += 1

    def _on_fault_end(self, event: ReplicaFaultEvent, now: int) -> None:
        rep = self.replicas[event.replica]
        rep.engine.split(now)
        if event.kind == "crash":
            rep.recover(now)
        elif event.kind == "slow":
            rep.slow_scales.remove(event.duration_scale)
        elif event.kind == "partition":
            rep.partition_depth -= 1

    def _on_failover(self, orphans: List[_FleetRequest], now: int) -> None:
        for fr in orphans:
            if fr.terminal:
                continue
            fr.failovers += 1
            self.failover_count += 1
            self._dispatch(fr, now)

    def run(self) -> None:
        arrival_index = 0
        clock = 0
        while self.events or arrival_index < len(self.arrivals):
            next_event = self.events[0][0] if self.events else _INF
            next_arrival = (
                self.arrivals[arrival_index].arrival_cycle
                if arrival_index < len(self.arrivals)
                else _INF
            )
            now = int(min(next_event, next_arrival))
            clock = max(clock, now)
            self._advance_all(now)
            while self.events and self.events[0][0] == now:
                _, _, _, kind, payload = heappop(self.events)
                if kind == "fault_start":
                    self._on_fault_start(payload, now)
                elif kind == "fault_end":
                    self._on_fault_end(payload, now)
                elif kind == "belief_up":
                    rep = self.replicas[payload]
                    if rep.reachable:
                        rep.believed_up = True
                elif kind == "belief_down":
                    rep = self.replicas[payload]
                    if not rep.reachable:
                        rep.believed_up = False
                elif kind == "failover":
                    self._on_failover(payload, now)
                elif kind == "retry":
                    self._dispatch(payload, now)
                elif kind == "deadline":
                    fr = payload
                    if not fr.terminal and fr in self.queue:
                        self.queue.remove(fr)
                        self._finalize(fr, "timed_out", now)
                elif kind == "drain":
                    self._drain_armed = False
                    self._drain(now)
            while (
                arrival_index < len(self.arrivals)
                and self.arrivals[arrival_index].arrival_cycle == now
            ):
                spec = self.arrivals[arrival_index]
                arrival_index += 1
                fr = _FleetRequest(spec=spec, priority=_request_priority(spec))
                self.all_requests.append(fr)
                self._dispatch(fr, now)
            self._drain(now)
            if self.queue and not self._drain_armed:
                self._drain_armed = True
                self._push(now + self.config.health_check_interval, _ORD_DRAIN, "drain", None)
        self._advance_all(_INF)

    # -- Result assembly -------------------------------------------------

    def result(self, trace_name: str, plan: Optional[FleetFaultPlan]) -> FleetRunResult:
        requests: List[FleetRequestResult] = []
        dispositions = {name: 0 for name in FLEET_DISPOSITIONS}
        for fr in self.all_requests:
            if fr.disposition is None:
                if fr.finish_cycle is not None:
                    fr.disposition = evaluate_disposition(
                        fr.spec,
                        fr.first_token_cycle - fr.spec.arrival_cycle,
                        fr.finish_cycle - fr.spec.arrival_cycle,
                    )
                    fr.terminal_cycle = fr.finish_cycle
                else:
                    raise RuntimeError(
                        f"request {fr.spec.request_id} ended the fleet run without a "
                        "terminal disposition -- the router lost it"
                    )
            dispositions[fr.disposition] += 1
            requests.append(
                FleetRequestResult(
                    request_id=fr.spec.request_id,
                    model_family=fr.spec.model.family,
                    arrival_cycle=fr.spec.arrival_cycle,
                    admitted_cycle=fr.admitted_cycle,
                    first_token_cycle=fr.first_token_cycle,
                    finish_cycle=fr.finish_cycle,
                    prompt_len=fr.spec.prompt_len,
                    decode_steps=fr.spec.decode_steps,
                    disposition=fr.disposition,
                    slo_class=fr.spec.slo.name if fr.spec.slo else None,
                    terminal_cycle=fr.terminal_cycle,
                    replica=fr.replica,
                    attempts=fr.attempts,
                    retries=fr.retries,
                    failovers=fr.failovers,
                    reprefill_cycles=fr.reprefill_cycles,
                )
            )
        total_cycles = 0
        for rep in self.replicas:
            total_cycles = max(total_cycles, rep.engine.now)
        for request in requests:
            if request.terminal_cycle is not None:
                total_cycles = max(total_cycles, request.terminal_cycle)

        unreachable: Dict[int, int] = {}
        for index in range(len(self.replicas)):
            windows = [
                (event.at_cycle, event.end_cycle)
                for event in self.fault_events
                if event.replica == index and event.kind in ("crash", "partition")
            ]
            unreachable[index] = sum(
                max(0, min(end, total_cycles) - min(start, total_cycles))
                for start, end in _merge_windows(windows)
            )
        replica_time = len(self.replicas) * max(1, total_cycles)
        availability = 1.0 - sum(unreachable.values()) / replica_time

        total = len(requests)
        goodput = dispositions["met"] / total if total else 0.0

        metrics = MetricsRegistry()
        metrics.counter("fleet.requests").inc(total)
        for name in FLEET_DISPOSITIONS:
            metrics.counter(f"fleet.dispositions.{name}").inc(dispositions[name])
        metrics.counter("fleet.dispatches").inc(self.dispatch_count)
        metrics.counter("fleet.failed_dispatches").inc(self.failed_dispatches)
        metrics.counter("fleet.retries").inc(self.retry_count)
        metrics.counter("fleet.failovers").inc(self.failover_count)
        metrics.gauge("fleet.goodput").set(goodput)
        metrics.gauge("fleet.availability").set(availability)
        for rep in self.replicas:
            metrics.counter(f"fleet.replica{rep.index}.completed").inc(rep.completed)
            metrics.counter(f"fleet.replica{rep.index}.iterations").inc(rep.engine.iterations)

        engines = [rep.engine for rep in self.replicas]
        reports = [
            ReplicaReport(
                index=rep.index,
                design=rep.design_name,
                iterations=engine.iterations,
                epochs=engine.epoch_stats["epochs"],
                aborted_iterations=engine.aborted_iterations,
                serving_cycles=engine.serving_cycles,
                kernel_count=engine.kernel_count,
                energy_uj=engine.energy_uj,
                resource_busy=dict(engine.resource_busy),
                dispatched=rep.dispatched,
                completed=rep.completed,
                crashes=rep.crashes,
                slowdowns=rep.slowdowns,
                partitions=rep.partitions,
                unreachable_cycles=unreachable[rep.index],
            )
            for rep, engine in zip(self.replicas, engines)
        ]
        perf = {
            "iteration_memo": {
                key: sum(engine.memo_stats[key] for engine in engines)
                for key in ("hits", "misses")
            },
            "timing_cache": {
                key: sum(engine.cache_stats[key] for engine in engines)
                for key in ("hits", "misses")
            },
            "epochs": {
                key: sum(engine.epoch_stats[key] for engine in engines)
                for key in ("epochs", "extrapolated_iterations", "executed_iterations")
            },
        }
        return FleetRunResult(
            trace=trace_name,
            policy=self.policy_name,
            fleet=self.designs,
            heterogeneous=self.heterogeneous,
            config=self.config,
            fault_plan=plan,
            fault_events=self.fault_events,
            total_cycles=total_cycles,
            requests=requests,
            replicas=reports,
            dispositions=dispositions,
            goodput=goodput,
            availability=availability,
            dispatch_count=self.dispatch_count,
            failed_dispatches=self.failed_dispatches,
            retry_count=self.retry_count,
            failover_count=self.failover_count,
            metrics=metrics,
            perf=perf,
        )


def _merge_windows(windows: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge overlapping/adjacent [start, end) windows into disjoint spans."""
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def run_fleet(
    trace: Union[str, ServingTrace],
    fleet: Union[int, str, Sequence[Union[str, DesignKind]]] = 2,
    *,
    heterogeneous: bool = False,
    dtype: DataType = DataType.FP16,
    policy: str = "round-robin",
    config: Optional[RouterConfig] = None,
    faults: Union[FleetFaultPlan, str, None] = None,
    fault_seed: int = 0,
    iteration_memo: bool = True,
    epoch_extrapolation: bool = True,
) -> FleetRunResult:
    """Serve one trace with a replica fleet behind the router.

    ``fleet`` is a replica count (homogeneous virgo), a fleet-zoo name, or
    an explicit sequence of design preset names.  ``faults`` takes a
    :class:`FleetFaultPlan` or a ``fleet --inject`` spec string (parsed with
    ``fault_seed``).  The run is deterministic: identical arguments produce
    a byte-identical :meth:`FleetRunResult.to_dict`.
    """
    resolved_trace = resolve_trace(trace) if isinstance(trace, str) else trace
    designs = resolve_fleet_designs(fleet)
    plan = FleetFaultPlan.parse(faults, fault_seed) if isinstance(faults, str) else faults
    run = _FleetRun(
        trace=resolved_trace,
        designs=designs,
        heterogeneous=heterogeneous,
        dtype=dtype,
        policy_name=policy,
        config=config or RouterConfig(),
        plan=plan,
        iteration_memo=iteration_memo,
        epoch_extrapolation=epoch_extrapolation,
    )
    with phase("fleet.run", trace=resolved_trace.name, replicas=len(designs)):
        run.run()
    return run.result(resolved_trace.name, plan)
