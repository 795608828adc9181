"""Contended hardware resources used by the operation-graph scheduler.

Two flavours are provided:

* :class:`Resource` -- an exclusive unit (a DMA engine, a matrix unit, the
  SIMT issue slots of a core group).  Operations occupy it back-to-back; the
  resource remembers when it becomes free and accumulates busy cycles so that
  utilization can be reported afterwards.
* :class:`ThroughputResource` -- a bandwidth-style resource (shared-memory
  bytes/cycle, DRAM bytes/cycle).  Demands are expressed in "work units"
  (typically bytes); the resource converts them to cycles of occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class Reservation:
    """One granted interval on a resource."""

    start: int
    end: int
    label: str = ""

    @property
    def duration(self) -> int:
        return self.end - self.start


class Resource:
    """An exclusive, serially-occupied hardware unit.

    ``record_reservations`` keeps the per-operation :class:`Reservation`
    list for inspection (timelines, tests); it is opt-in because large
    schedules otherwise allocate one record per operation that nobody reads.
    """

    def __init__(self, name: str, count: int = 1, record_reservations: bool = False) -> None:
        if count < 1:
            raise ValueError("resource must have at least one instance")
        self.name = name
        self.count = count
        self.record_reservations = record_reservations
        # Earliest-free time per instance.
        self._free_at: List[int] = [0] * count
        self.busy_cycles = 0
        self.reservations: List[Reservation] = []

    def reserve(self, ready: int, duration: int, label: str = "") -> Tuple[int, int]:
        """Grant ``duration`` cycles on the least-loaded instance.

        Returns the (start, end) cycle pair and records the busy time.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        index = min(range(self.count), key=lambda i: self._free_at[i])
        start = max(ready, self._free_at[index])
        end = start + duration
        self._free_at[index] = end
        self.busy_cycles += duration
        if self.record_reservations:
            self.reservations.append(Reservation(start=start, end=end, label=label))
        return start, end

    def utilization(self, total_cycles: int) -> float:
        """Fraction of total capacity-cycles spent busy."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / float(total_cycles * self.count))

    def reset(self) -> None:
        self._free_at = [0] * self.count
        self.busy_cycles = 0
        self.reservations.clear()

    def __repr__(self) -> str:
        return f"Resource({self.name!r}, count={self.count}, busy={self.busy_cycles})"


class ThroughputResource(Resource):
    """A bandwidth-limited resource; demand is expressed in work units.

    ``units_per_cycle`` converts demand into cycles of occupancy, rounded up.
    """

    def __init__(
        self,
        name: str,
        units_per_cycle: float,
        count: int = 1,
        record_reservations: bool = False,
    ) -> None:
        super().__init__(name, count=count, record_reservations=record_reservations)
        if units_per_cycle <= 0:
            raise ValueError("units_per_cycle must be positive")
        self.units_per_cycle = units_per_cycle
        self.units_served = 0.0

    def cycles_for(self, units: float) -> int:
        """Cycles needed to move ``units`` of work at peak bandwidth."""
        if units < 0:
            raise ValueError("work units must be non-negative")
        if units == 0:
            return 0
        return max(1, int(-(-units // self.units_per_cycle)))

    def reserve_units(self, ready: int, units: float, label: str = "") -> Tuple[int, int]:
        """Reserve enough cycles to serve ``units`` of demand."""
        self.units_served += units
        return self.reserve(ready, self.cycles_for(units), label=label)

    def reset(self) -> None:
        super().reset()
        self.units_served = 0.0


@dataclass
class ResourcePool:
    """A named collection of resources shared by an operation graph."""

    resources: Dict[str, Resource] = field(default_factory=dict)

    def add(self, resource: Resource) -> Resource:
        if resource.name in self.resources:
            raise ValueError(f"duplicate resource {resource.name!r}")
        self.resources[resource.name] = resource
        return resource

    def __getitem__(self, name: str) -> Resource:
        return self.resources[name]

    def __contains__(self, name: str) -> bool:
        return name in self.resources

    def reset(self) -> None:
        for resource in self.resources.values():
            resource.reset()
