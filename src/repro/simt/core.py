"""The Vortex SIMT core: issue timing plus energy-event accounting.

``VortexCore.execute`` replays a set of warp programs through the issue-stage
simulator and, alongside the cycle count, emits the energy events the core
generates while doing so.  Event names follow the component grouping of the
paper's Figure 10 breakdown:

* ``core.issue.*``      -- instruction fetch/decode/scoreboard/scheduling and
  register-file reads (operand collection happens at issue in Vortex).
* ``core.alu.*``        -- integer ALU operations (address generation, loops).
* ``core.fpu.*``        -- SIMT floating-point operations.
* ``core.lsu.*``        -- load/store unit occupancy.
* ``core.writeback.*``  -- register-file writes.
* ``core.other.*``      -- branches, barriers, everything else.

Execution is memoized process-wide on its full content -- the frozen
``CoreConfig``, the scheduler kind and every warp's instruction tuple -- so
each distinct warp-program set goes through the issue simulator once.  The
table follows the timing cache's lifecycle (it empties when
``timing_cache().generation`` changes and stores nothing while the cache is
disabled) but is not part of its snapshot; see ``docs/perf-contract.md``
section 7.  Results are shared: treat them and their counters as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.config.soc import CoreConfig
from repro.isa.instructions import Instruction, OpClass
from repro.isa.program import WarpProgram
from repro.perf.cache import timing_cache
from repro.sim.stats import Counters
from repro.simt.issue import IssueResult, IssueSimulator

#: Map from instruction class to the Figure 10 component that executes it.
_EXECUTION_COMPONENT: Dict[OpClass, str] = {
    OpClass.ALU: "alu",
    OpClass.BRANCH: "other",
    OpClass.FPU: "fpu",
    OpClass.SFU: "fpu",
    OpClass.LOAD_GLOBAL: "lsu",
    OpClass.STORE_GLOBAL: "lsu",
    OpClass.LOAD_SHARED: "lsu",
    OpClass.STORE_SHARED: "lsu",
    OpClass.MMIO_STORE: "lsu",
    OpClass.MMIO_POLL: "lsu",
    OpClass.DMA_PROGRAM: "lsu",
    OpClass.BARRIER: "other",
    OpClass.VX_BAR: "other",
    OpClass.HMMA_SET: "other",
    OpClass.HMMA_STEP: "other",
    OpClass.WGMMA_INIT: "other",
    OpClass.WGMMA_WAIT: "other",
    OpClass.NOP: "other",
}


@dataclass
class CoreExecutionResult:
    """Cycles and energy events for one core executing a set of warp programs."""

    issue: IssueResult
    counters: Counters

    @property
    def cycles(self) -> int:
        return self.issue.cycles

    @property
    def instructions(self) -> int:
        return self.issue.instructions_issued


#: Execution memo, valid for timing-cache generation ``_MEMO_GENERATION``.
_MEMO: Dict[Tuple, CoreExecutionResult] = {}
_MEMO_GENERATION = -1


class VortexCore:
    """One Vortex SIMT core: issue timing + per-instruction energy events."""

    def __init__(self, config: CoreConfig, scheduler: str = "round_robin") -> None:
        self.config = config
        self._issue_simulator = IssueSimulator(config, scheduler=scheduler)

    def execute(self, programs: Sequence[WarpProgram]) -> CoreExecutionResult:
        """Replay ``programs`` (one per active warp) and collect energy events.

        The result is a pure function of the core config, the scheduler kind
        and the warps' instructions, so it is memoized on exactly those and
        returned by reference.
        """
        global _MEMO_GENERATION
        cache = timing_cache()
        if not cache.enabled:
            return self._execute(programs)
        if cache.generation != _MEMO_GENERATION:
            _MEMO.clear()
            _MEMO_GENERATION = cache.generation
        key = (
            self.config,
            self._issue_simulator.scheduler_kind,
            tuple(tuple(program.instructions) for program in programs),
        )
        result = _MEMO.get(key)
        if result is None:
            result = _MEMO.setdefault(key, self._execute(programs))
        return result

    def _execute(self, programs: Sequence[WarpProgram]) -> CoreExecutionResult:
        issue = self._issue_simulator.simulate(programs)
        counters = Counters()
        for program in programs:
            self._count_program(program, counters)
        return CoreExecutionResult(issue=issue, counters=counters)

    def _count_program(self, program: WarpProgram, counters: Counters) -> None:
        lanes = self.config.lanes
        for instruction in program.instructions:
            self._count_instruction(instruction, lanes, counters)

    def _count_instruction(
        self, instruction: Instruction, lanes: int, counters: Counters
    ) -> None:
        counters.add("core.issue.instructions", 1)
        # Operand collection: register reads are per-lane for SIMT operands.
        counters.add("core.issue.rf_read_words", instruction.reg_reads * lanes)
        counters.add("core.writeback.rf_write_words", instruction.reg_writes * lanes)

        component = _EXECUTION_COMPONENT[instruction.op_class]
        if component == "alu":
            counters.add("core.alu.ops", lanes)
        elif component == "fpu":
            counters.add("core.fpu.ops", lanes)
        elif component == "lsu":
            counters.add("core.lsu.requests", 1)
            counters.add("core.lsu.bytes", instruction.bytes_accessed)
        else:
            counters.add("core.other.ops", 1)

        if instruction.op_class in (OpClass.LOAD_SHARED, OpClass.STORE_SHARED):
            counters.add("smem.core_words", max(1, instruction.bytes_accessed // 4))
        elif instruction.op_class in (OpClass.LOAD_GLOBAL, OpClass.STORE_GLOBAL):
            counters.add("l1.requests", 1)
            counters.add("l1.bytes", instruction.bytes_accessed)
