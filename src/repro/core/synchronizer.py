"""Cluster-wide synchronizer (Section 3.3).

The synchronizer interfaces with the warp scheduler of every SIMT core in the
cluster.  When the designated warps of a core reach a ``vx_bar`` instruction,
the core sends a barrier-release request; the synchronizer replies once every
participating core has arrived.  The model tracks per-barrier arrival times,
reports the stall each core experiences, and supports multiple concurrently
outstanding barrier IDs (the kernel uses different barriers for the producer
and consumer warp groups).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.sim.stats import Counters


@dataclass
class BarrierResult:
    """Outcome of one completed cluster barrier."""

    barrier_id: int
    release_cycle: int
    arrival_cycles: Dict[int, int]

    @property
    def stall_cycles(self) -> Dict[int, int]:
        """Cycles each core waited between its arrival and the release."""
        return {core: self.release_cycle - cycle for core, cycle in self.arrival_cycles.items()}

    @property
    def total_stall(self) -> int:
        return sum(self.stall_cycles.values())


@dataclass
class _PendingBarrier:
    expected: int
    arrivals: Dict[int, int] = field(default_factory=dict)


class ClusterSynchronizer:
    """Collects barrier-release requests from the cluster's cores."""

    def __init__(self, cores: int, release_latency: int = 4) -> None:
        if cores <= 0:
            raise ValueError("the cluster must contain at least one core")
        self.cores = cores
        self.release_latency = release_latency
        self.counters = Counters()
        self._pending: Dict[int, _PendingBarrier] = {}
        self.completed: List[BarrierResult] = []

    def arrive(
        self,
        barrier_id: int,
        core_id: int,
        cycle: int,
        participating_cores: int | None = None,
    ) -> BarrierResult | None:
        """Record that ``core_id`` reached ``barrier_id`` at ``cycle``.

        Returns the :class:`BarrierResult` when this arrival releases the
        barrier, else ``None``.  ``participating_cores`` defaults to every
        core in the cluster and must be consistent across arrivals.
        """
        if not (0 <= core_id < self.cores):
            raise ValueError(f"core {core_id} outside the cluster of {self.cores} cores")
        expected = participating_cores if participating_cores is not None else self.cores
        pending = self._pending.setdefault(barrier_id, _PendingBarrier(expected=expected))
        if pending.expected != expected:
            raise ValueError(
                f"barrier {barrier_id} was opened for {pending.expected} cores, "
                f"got an arrival expecting {expected}"
            )
        if core_id in pending.arrivals:
            raise ValueError(f"core {core_id} arrived twice at barrier {barrier_id}")
        pending.arrivals[core_id] = cycle
        self.counters.add("sync.barrier_requests", 1)

        if len(pending.arrivals) < pending.expected:
            return None

        release = max(pending.arrivals.values()) + self.release_latency
        result = BarrierResult(
            barrier_id=barrier_id,
            release_cycle=release,
            arrival_cycles=dict(pending.arrivals),
        )
        self.completed.append(result)
        self.counters.add("sync.barriers_released", 1)
        self.counters.add("sync.stall_cycles", result.total_stall)
        del self._pending[barrier_id]
        return result

    @property
    def outstanding(self) -> int:
        return len(self._pending)
