"""Cycle-level issue-stage simulator for one Vortex SIMT core.

The simulator replays per-warp instruction streams through a warp scheduler,
modelling the hazards that throttle core-coupled matrix units:

* **Issue bandwidth** -- one instruction per cycle per core (Vortex single
  issue).  Designs that need many instructions per tile (Volta/Ampere-style
  HMMA set/step sequences plus explicit shared-memory loads and address
  generation) saturate this before they saturate the MAC array.
* **Structural hazards** -- the per-core tensor core serializes HMMA steps
  (2 cycles each); the load/store unit accepts one memory instruction per
  cycle; the FPU accepts one FP instruction per cycle.
* **Latency hazards** -- warps block on dependent long-latency results
  (shared/global loads feeding the next instruction, synchronous matrix
  waits, barriers, MMIO polls).  Multithreading across the other warps hides
  the latency when enough eligible warps exist, exactly the mechanism whose
  limits Section 6.2 discusses.

The simulator is deliberately register-agnostic: whether a warp blocks after
a long-latency instruction is decided by the instruction class (see
``_BLOCKING``), which matches how the kernel models encode dependent
sequences (a load immediately followed by its consumer is emitted as a
blocking load; independent prefetches are emitted as non-blocking).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config.soc import CoreConfig
from repro.isa.instructions import Instruction, OpClass
from repro.isa.program import WarpProgram
from repro.simt.scheduler import GreedyThenOldestScheduler, RoundRobinScheduler
from repro.simt.warp import WarpState

#: Instruction classes whose latency blocks the issuing warp (dependent use).
_BLOCKING = {
    OpClass.LOAD_SHARED,
    OpClass.LOAD_GLOBAL,
    OpClass.WGMMA_WAIT,
    OpClass.MMIO_POLL,
    OpClass.BARRIER,
    OpClass.VX_BAR,
    OpClass.BRANCH,
}

#: Execution-unit occupancy (cycles the unit is busy per instruction).
_UNIT_OCCUPANCY = {
    OpClass.ALU: ("alu", 1),
    OpClass.FPU: ("fpu", 1),
    OpClass.SFU: ("fpu", 2),
    OpClass.LOAD_GLOBAL: ("lsu", 1),
    OpClass.STORE_GLOBAL: ("lsu", 1),
    OpClass.LOAD_SHARED: ("lsu", 1),
    OpClass.STORE_SHARED: ("lsu", 1),
    OpClass.MMIO_STORE: ("lsu", 1),
    OpClass.MMIO_POLL: ("lsu", 1),
    OpClass.DMA_PROGRAM: ("lsu", 1),
    OpClass.HMMA_SET: ("tensor", 1),
    OpClass.HMMA_STEP: ("tensor", 2),
    OpClass.WGMMA_INIT: ("tensor", 1),
}


@dataclass
class IssueResult:
    """Outcome of replaying an instruction stream on one core."""

    cycles: int
    instructions_issued: int
    stall_cycles: int
    issued_by_class: Dict[OpClass, int] = field(default_factory=dict)
    unit_busy_cycles: Dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions_issued / self.cycles if self.cycles else 0.0


class IssueSimulator:
    """Replays warp programs through the issue stage of one SIMT core."""

    def __init__(self, core: CoreConfig, scheduler: str = "round_robin") -> None:
        self.core = core
        self.scheduler_kind = scheduler

    def _make_scheduler(self):
        if self.scheduler_kind == "round_robin":
            return RoundRobinScheduler()
        if self.scheduler_kind == "gto":
            return GreedyThenOldestScheduler()
        raise ValueError(f"unknown scheduler {self.scheduler_kind!r}")

    def simulate(
        self,
        programs: Sequence[WarpProgram],
        max_cycles: int = 50_000_000,
    ) -> IssueResult:
        """Simulate one program per warp until every warp has drained.

        ``programs`` holds the stream of each active warp; pass the same
        program multiple times for warps that execute identical code.
        """
        if not programs:
            return IssueResult(cycles=0, instructions_issued=0, stall_cycles=0)
        if len(programs) > self.core.warps:
            raise ValueError(
                f"{len(programs)} warp programs exceed the core's {self.core.warps} warp slots"
            )

        warps: List[WarpState] = [
            WarpState(warp_id=index, program=list(program.instructions))
            for index, program in enumerate(programs)
        ]
        scheduler = self._make_scheduler()
        unit_free_at: Dict[str, int] = {"alu": 0, "fpu": 0, "lsu": 0, "tensor": 0}
        unit_busy: Dict[str, int] = {"alu": 0, "fpu": 0, "lsu": 0, "tensor": 0}
        issued_by_class: Dict[OpClass, int] = {}

        cycle = 0
        issued_total = 0
        stall_cycles = 0
        while any(not warp.done for warp in warps):
            if cycle > max_cycles:
                raise RuntimeError("issue simulation exceeded the cycle limit")
            warp = self._select_issuable(scheduler, warps, unit_free_at, cycle)
            if warp is None:
                stall_cycles += 1
                cycle += 1
                continue

            instruction = warp.advance(cycle)
            issued_total += 1
            issued_by_class[instruction.op_class] = (
                issued_by_class.get(instruction.op_class, 0) + 1
            )

            unit = _UNIT_OCCUPANCY.get(instruction.op_class)
            if unit is not None:
                unit_name, occupancy = unit
                start = max(cycle, unit_free_at[unit_name])
                unit_free_at[unit_name] = start + occupancy
                unit_busy[unit_name] += occupancy

            if instruction.op_class in _BLOCKING:
                warp.block(cycle + instruction.latency)
            cycle += 1

        return IssueResult(
            cycles=cycle,
            instructions_issued=issued_total,
            stall_cycles=stall_cycles,
            issued_by_class=issued_by_class,
            unit_busy_cycles=unit_busy,
        )

    def _select_issuable(
        self,
        scheduler,
        warps: Sequence[WarpState],
        unit_free_at: Dict[str, int],
        cycle: int,
    ) -> Optional[WarpState]:
        """Pick an eligible warp whose next instruction has no structural hazard."""
        considered = 0
        while considered < len(warps):
            warp = scheduler.select(warps, cycle)
            if warp is None:
                return None
            instruction = warp.peek()
            unit = _UNIT_OCCUPANCY.get(instruction.op_class)
            if unit is None or unit_free_at[unit[0]] <= cycle:
                return warp
            # Structural hazard: temporarily block this warp for this cycle so
            # the scheduler considers others, then retry.
            warp.block(cycle + 1)
            considered += 1
        return None
