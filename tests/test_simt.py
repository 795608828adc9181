"""Tests for the SIMT core models: warps, schedulers, issue simulator, core events."""

import pytest

from repro.config.soc import CoreConfig, DataType, RegisterFileConfig
from repro.isa.instructions import Instruction, OpClass
from repro.isa.program import WarpProgram
from repro.simt.core import VortexCore
from repro.simt.issue import IssueSimulator
from repro.simt.register_file import (
    RegisterAllocationError,
    RegisterFile,
    max_tile_for_register_space,
)
from repro.simt.scheduler import GreedyThenOldestScheduler, RoundRobinScheduler
from repro.simt.warp import WarpState


def _program(op_class, count, **kwargs):
    return WarpProgram().emit_class(op_class, repeat=count, **kwargs)


class TestWarpState:
    def test_eligibility_and_advance(self):
        warp = WarpState(warp_id=0, program=[Instruction(op_class=OpClass.ALU)])
        assert warp.eligible(0)
        warp.advance(0)
        assert warp.done
        assert not warp.eligible(1)

    def test_blocking(self):
        warp = WarpState(warp_id=0, program=[Instruction(op_class=OpClass.ALU)] * 2)
        warp.block(10)
        assert not warp.eligible(5)
        assert warp.eligible(10)

    def test_advance_past_end_raises(self):
        warp = WarpState(warp_id=0, program=[])
        with pytest.raises(IndexError):
            warp.peek()


class TestSchedulers:
    def _warps(self, count):
        return [
            WarpState(warp_id=index, program=[Instruction(op_class=OpClass.ALU)] * 4)
            for index in range(count)
        ]

    def test_round_robin_rotates(self):
        warps = self._warps(3)
        scheduler = RoundRobinScheduler()
        picks = []
        for cycle in range(3):
            warp = scheduler.select(warps, cycle)
            warp.advance(cycle)
            picks.append(warp.warp_id)
        assert picks == [0, 1, 2]

    def test_round_robin_skips_blocked(self):
        warps = self._warps(2)
        warps[0].block(100)
        scheduler = RoundRobinScheduler()
        assert scheduler.select(warps, 0).warp_id == 1

    def test_round_robin_returns_none_when_all_blocked(self):
        warps = self._warps(2)
        for warp in warps:
            warp.block(100)
        assert RoundRobinScheduler().select(warps, 0) is None

    def test_gto_sticks_to_current_warp(self):
        warps = self._warps(3)
        scheduler = GreedyThenOldestScheduler()
        first = scheduler.select(warps, 0)
        first.advance(0)
        second = scheduler.select(warps, 1)
        assert second.warp_id == first.warp_id


class TestIssueSimulator:
    def test_single_warp_alu_throughput(self):
        core = CoreConfig()
        simulator = IssueSimulator(core)
        result = simulator.simulate([_program(OpClass.ALU, 100)])
        assert result.instructions_issued == 100
        assert result.cycles == 100  # one per cycle, no stalls

    def test_multithreading_hides_load_latency(self):
        """With more warps the same per-warp stream finishes in fewer cycles/warp."""
        core = CoreConfig()
        simulator = IssueSimulator(core)
        program = WarpProgram()
        for _ in range(10):
            program.emit_class(OpClass.LOAD_SHARED, bytes_accessed=32)
            program.emit_class(OpClass.FPU)
        single = simulator.simulate([program])
        multi = IssueSimulator(core).simulate([program] * 4)
        assert multi.cycles < 4 * single.cycles

    def test_tensor_unit_structural_hazard(self):
        """HMMA steps from many warps serialize on the single tensor core."""
        core = CoreConfig()
        program = _program(OpClass.HMMA_STEP, 8)
        result = IssueSimulator(core).simulate([program] * 4)
        # 32 steps x 2 cycles of tensor occupancy keep the unit busy 64 cycles,
        # so issue stretches to (just under) that occupancy despite 4 warps.
        assert result.unit_busy_cycles["tensor"] == 64
        assert result.cycles >= 62

    def test_ipc_bounded_by_one(self):
        result = IssueSimulator(CoreConfig()).simulate([_program(OpClass.ALU, 50)] * 4)
        assert result.ipc <= 1.0 + 1e-9

    def test_too_many_warps_rejected(self):
        core = CoreConfig(warps=2)
        with pytest.raises(ValueError):
            IssueSimulator(core).simulate([_program(OpClass.ALU, 1)] * 3)

    def test_empty_input(self):
        result = IssueSimulator(CoreConfig()).simulate([])
        assert result.cycles == 0

    def test_issued_by_class_accounting(self):
        program = WarpProgram()
        program.emit_class(OpClass.ALU, repeat=3)
        program.emit_class(OpClass.FPU, repeat=2)
        result = IssueSimulator(CoreConfig()).simulate([program])
        assert result.issued_by_class[OpClass.ALU] == 3
        assert result.issued_by_class[OpClass.FPU] == 2

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            IssueSimulator(CoreConfig(), scheduler="magic").simulate([_program(OpClass.ALU, 1)])

    def test_gto_scheduler_works(self):
        result = IssueSimulator(CoreConfig(), scheduler="gto").simulate(
            [_program(OpClass.ALU, 10)] * 2
        )
        assert result.instructions_issued == 20


class TestVortexCore:
    def test_execute_counts_issue_events(self):
        core = VortexCore(CoreConfig())
        result = core.execute([_program(OpClass.ALU, 10)])
        assert result.counters["core.issue.instructions"] == 10
        assert result.counters["core.alu.ops"] == 10 * 8  # per-lane

    def test_memory_instructions_feed_lsu_and_smem(self):
        core = VortexCore(CoreConfig())
        program = _program(OpClass.LOAD_SHARED, 4, bytes_accessed=32)
        counters = core.execute([program]).counters
        assert counters["core.lsu.requests"] == 4
        assert counters["smem.core_words"] == 4 * 8

    def test_global_loads_touch_l1(self):
        core = VortexCore(CoreConfig())
        counters = core.execute([_program(OpClass.LOAD_GLOBAL, 2, bytes_accessed=64)]).counters
        assert counters["l1.requests"] == 2
        assert counters["l1.bytes"] == 128

    def test_register_traffic_scales_with_lanes(self):
        core = VortexCore(CoreConfig(lanes=8))
        counters = core.execute(
            [WarpProgram().emit_class(OpClass.FPU, repeat=1, reg_reads=3, reg_writes=1)]
        ).counters
        assert counters["core.issue.rf_read_words"] == 24
        assert counters["core.writeback.rf_write_words"] == 8

    def test_execute_reports_issue_cycles(self):
        core = VortexCore(CoreConfig())
        assert core.execute([_program(OpClass.ALU, 10)]).cycles == 10


class TestRegisterFile:
    def test_allocation_within_budget(self):
        rf = RegisterFile(RegisterFileConfig(), warps=8)
        rf.allocate(0, "a_frag", 256)
        rf.allocate(0, "b_frag", 256)
        assert rf.free_bytes(0) == 1024 - 512

    def test_over_allocation_raises(self):
        rf = RegisterFile(RegisterFileConfig(), warps=8)
        with pytest.raises(RegisterAllocationError):
            rf.allocate(0, "too_big", 2048)

    def test_warps_are_isolated(self):
        rf = RegisterFile(RegisterFileConfig(), warps=8)
        rf.allocate(0, "x", 1024)
        rf.allocate(1, "x", 1024)  # a different warp's slice

    def test_release(self):
        rf = RegisterFile(RegisterFileConfig(), warps=8)
        rf.allocate(0, "x", 512)
        rf.release(0, "x")
        assert rf.free_bytes(0) == 1024

    def test_release_missing_raises(self):
        rf = RegisterFile(RegisterFileConfig(), warps=8)
        with pytest.raises(KeyError):
            rf.release(0, "missing")


class TestMaxTileDerivation:
    def test_tightly_coupled_tile_is_8x8x16(self):
        """1 KiB per warp with operands + accumulator in the RF -> 8x8x16 (Section 5.1.1)."""
        tile = max_tile_for_register_space(
            1024, DataType.FP16, operands_in_register_file=True, accumulator_in_register_file=True
        )
        assert tile == (8, 8, 16)

    def test_operand_decoupled_tile_is_16x16x32(self):
        """Only the accumulator in the RF -> 16x16x32 (Section 5.1.3)."""
        tile = max_tile_for_register_space(
            1024, DataType.FP16, operands_in_register_file=False, accumulator_in_register_file=True
        )
        assert tile == (16, 16, 32)

    def test_disaggregated_unbounded_by_register_file(self):
        tile = max_tile_for_register_space(
            1024,
            DataType.FP16,
            operands_in_register_file=False,
            accumulator_in_register_file=False,
        )
        assert tile[0] >= 128

    def test_invalid_budget_raises(self):
        with pytest.raises(ValueError):
            max_tile_for_register_space(0, DataType.FP16, True, True)
