"""GEMM kernel model for the tightly-coupled designs (Volta- and Ampere-style).

Both designs drive per-core tensor cores with synchronous HMMA set/step
instruction sequences and stage every operand and accumulator fragment
through the register file.  They differ only in data delivery:

* **Volta-style** -- the SIMT warps themselves copy the next K tile from
  global memory into shared memory with load/store instructions (relying on
  the memory coalescer), and the copy serializes with compute at the
  inter-iteration barrier.
* **Ampere-style** -- a cluster DMA engine performs the copy asynchronously,
  overlapping it with compute (double buffering), and the copy instructions
  disappear from the warps' streams.

The steady-state iteration is timed by replaying the per-warp instruction
streams through the issue-stage simulator (which also enforces the tensor
core's structural occupancy), and the whole kernel is assembled as an
operation graph so prologue, epilogue and (for Ampere) DMA overlap are
captured.
"""

from __future__ import annotations

from repro.config.soc import DesignConfig, IntegrationStyle
from repro.kernels.gemm.base import GemmKernelResult, GemmWorkload, ideal_mac_cycles
from repro.kernels.gemm.instruction_streams import volta_iteration_streams
from repro.kernels.gemm.schedule_loops import GemmLoopSpec, execute_gemm_loop
from repro.kernels.gemm.tiling import ThreadBlockTiling, tiling_for_design
from repro.memory.dma import DmaEngine, DmaDirection
from repro.memory.dram import DramChannel
from repro.sim.stats import Counters
from repro.simt.core import VortexCore
from repro.tensorcore.volta import VoltaTensorCore


class TightlyCoupledGemmKernel:
    """Tiled GEMM on the Volta-style or Ampere-style design."""

    def __init__(self, design: DesignConfig) -> None:
        if design.style not in (
            IntegrationStyle.TIGHTLY_COUPLED,
            IntegrationStyle.TIGHTLY_COUPLED_DMA,
        ):
            raise ValueError("this kernel models the tightly-coupled designs")
        self.design = design
        self.has_dma = design.style is IntegrationStyle.TIGHTLY_COUPLED_DMA
        self.tensor_core = VoltaTensorCore(design.matrix_unit)
        self.core = VortexCore(design.cluster.core)
        self.dram = DramChannel(design.soc.dram)

    # ------------------------------------------------------------------ #
    # Steady-state iteration
    # ------------------------------------------------------------------ #

    def _iteration(self, tiling: ThreadBlockTiling):
        streams = volta_iteration_streams(
            self.design, tiling, self.tensor_core, include_copy=not self.has_dma
        )
        execution = self.core.execute(streams.programs_for_core())

        # Per-core cycles: the issue simulator already serializes HMMA steps
        # on the core's tensor unit, so its cycle count covers both the
        # instruction-processing and matrix-unit-occupancy bounds.
        compute_cycles = execution.cycles

        # Data delivery for the *next* iteration.
        if self.has_dma:
            dma_cycles = self._dma_cycles(tiling.input_bytes_per_iteration)
        else:
            dma_cycles = 0  # the copy is inside the instruction streams

        # Global-memory streaming bound (applies either way).
        dram_cycles = self.dram.transfer_cycles(
            tiling.input_bytes_per_iteration, include_latency=False
        )

        # Shared-memory bandwidth bound: every tile operation re-reads its
        # operand fragments from the shared memory.  This is the bound the
        # paper relieves with 2x more aggressive banking for the
        # tightly-coupled designs (Section 6.1.3).
        smem = self.design.cluster.shared_memory
        tile_ops = streams.tile_ops_per_core * self.design.cluster.cores
        fragment_bytes = tile_ops * self.design.matrix_unit.operand_bytes_per_tile
        smem_cycles = -(-fragment_bytes // smem.peak_bytes_per_cycle)
        compute_cycles = max(compute_cycles, smem_cycles)

        counters = self._iteration_counters(streams, execution.counters, tiling)
        instructions = streams.instructions_per_core() * self.design.cluster.cores
        return streams, compute_cycles, dma_cycles, dram_cycles, counters, instructions

    def _dma_cycles(self, nbytes: int) -> int:
        dma = DmaEngine(self.design.cluster.dma, self.dram)
        return dma.transfer_cycles(nbytes)

    def _iteration_counters(
        self, streams, core_counters: Counters, tiling: ThreadBlockTiling
    ) -> Counters:
        counters = Counters()
        # Core-side events for every core in the cluster.
        counters.merge(core_counters.scaled(self.design.cluster.cores))
        # Matrix-unit events for every tile operation in the iteration.
        tile_ops = streams.tile_ops_per_core * self.design.cluster.cores
        per_tile = Counters()
        self.tensor_core.record_tile_events(per_tile)
        counters.merge(per_tile.scaled(tile_ops))
        counters.add("matrix_unit.pe.macs", tile_ops * self.design.matrix_unit.tile_macs)
        # Data delivery traffic.
        nbytes = tiling.input_bytes_per_iteration
        counters.add("l2.bytes", nbytes)
        counters.add("dram.bytes", nbytes)
        if self.has_dma:
            counters.add("dma.bytes", nbytes)
            counters.add("dma.descriptors", 2)
            counters.add("smem.dma.write_words", nbytes // 4)
        else:
            counters.add("l1.bytes", nbytes)
            counters.add("l1.requests", nbytes // 64)
            counters.add("smem.core.write_words", nbytes // 4)
        return counters

    def _epilogue(self, tiling: ThreadBlockTiling):
        """Result write-back of one output tile (register file -> global).

        The accumulators live in the register file, so the warps store them
        to global memory with store instructions at the end of the K loop and
        zero-initialize them for the next output tile.
        """
        nbytes = tiling.output_tile_bytes
        store_instructions = -(-nbytes // 32) * 2  # address + store per 32 B
        cluster = self.design.cluster
        elements_per_core = tiling.block_m * tiling.block_n // cluster.cores
        init_instructions_per_core = -(-elements_per_core // cluster.core.lanes)
        issue_cycles = -(-store_instructions // cluster.cores)
        dram_cycles = self.dram.transfer_cycles(nbytes, include_latency=False)
        cycles = max(issue_cycles, dram_cycles) + init_instructions_per_core

        counters = Counters()
        init_instructions = init_instructions_per_core * cluster.cores
        counters.add("core.issue.instructions", store_instructions + init_instructions)
        counters.add("core.alu.ops", store_instructions // 2 * cluster.core.lanes)
        counters.add("core.writeback.rf_write_words", init_instructions * cluster.core.lanes)
        counters.add("core.lsu.requests", store_instructions // 2)
        counters.add("core.issue.rf_read_words", store_instructions * cluster.core.lanes)
        counters.add("l2.bytes", nbytes)
        counters.add("dram.bytes", nbytes)
        return cycles, counters, store_instructions + init_instructions

    # ------------------------------------------------------------------ #
    # Whole-kernel simulation
    # ------------------------------------------------------------------ #

    def simulate(self, workload: GemmWorkload, full_expansion: bool = False) -> GemmKernelResult:
        tiling = tiling_for_design(self.design, workload)
        (
            streams,
            compute_cycles,
            dma_cycles,
            dram_cycles,
            iter_counters,
            iter_instructions,
        ) = self._iteration(tiling)
        epilogue_cycles, epilogue_counters, epilogue_instructions = self._epilogue(tiling)

        prologue = self._dma_cycles(tiling.input_bytes_per_iteration) if self.has_dma else max(
            dram_cycles, compute_cycles // 4
        )
        # Each cluster works on its share of the (M, N) output tiles; the
        # slowest cluster's schedule determines the kernel runtime.  With a
        # DMA, the loads double buffer (fetch while the compute two
        # iterations back still runs) and the first load of a new output
        # tile waits for the previous tile's epilogue; without one the same
        # warps copy the next tile, so the inter-iteration barrier exposes
        # the global-memory streaming time inside the compute duration.
        spec = GemmLoopSpec(
            cluster_tiles=tiling.output_tiles_per_cluster(self.design.soc.clusters),
            k_iterations=tiling.k_iterations,
            compute_resource="compute",
            compute_cycles=compute_cycles if self.has_dma else compute_cycles + dram_cycles,
            load_cycles=max(dma_cycles, dram_cycles) if self.has_dma else None,
            epilogue_cycles=epilogue_cycles,
            epilogue_resource="compute",
            double_buffer_deps=True,
            epilogue_advances_chain=True,
            first_compute_ready=prologue,
        )
        schedule = execute_gemm_loop(spec, full_expansion=full_expansion)

        iterations = tiling.total_iterations
        counters = iter_counters.scaled(iterations)
        counters.merge(epilogue_counters.scaled(tiling.output_tiles))
        instructions = iter_instructions * iterations + epilogue_instructions * tiling.output_tiles

        return GemmKernelResult(
            design=self.design,
            workload=workload,
            total_cycles=schedule.total_cycles,
            ideal_mac_cycles=ideal_mac_cycles(self.design, workload),
            counters=counters,
            retired_instructions=instructions,
            iteration_cycles=compute_cycles,
            phase_cycles=schedule.kind_cycles,
            resource_busy=schedule.resource_busy,
            schedule_stats=schedule.stats(),
        )
