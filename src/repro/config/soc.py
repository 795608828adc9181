"""Hardware configuration dataclasses for the evaluated GPU designs.

The values mirror Table 2 of the Virgo paper.  Every component model in the
package is parameterized by these dataclasses, so alternative design points
(more cores, different bank counts, larger systolic arrays) can be explored
by constructing a modified :class:`DesignConfig`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Tuple


class DataType(enum.Enum):
    """Numeric data types supported by the matrix units."""

    FP16 = "fp16"
    FP32 = "fp32"

    @property
    def bytes(self) -> int:
        """Size of one element in bytes."""
        return 2 if self is DataType.FP16 else 4


class IntegrationStyle(enum.Enum):
    """How the matrix unit is integrated with the SIMT core (Section 2.5)."""

    TIGHTLY_COUPLED = "tightly_coupled"          # Volta-style
    TIGHTLY_COUPLED_DMA = "tightly_coupled_dma"  # Ampere-style
    OPERAND_DECOUPLED = "operand_decoupled"      # Hopper-style
    DISAGGREGATED = "disaggregated"              # Virgo


@dataclass(frozen=True)
class RegisterFileConfig:
    """Per-core register file, SIMT-privatized across warps."""

    int_bytes: int = 8 * 1024
    fp_bytes: int = 8 * 1024
    read_ports: int = 3
    write_ports: int = 1
    banks: int = 4

    @property
    def total_bytes(self) -> int:
        return self.int_bytes + self.fp_bytes

    def bytes_per_warp(self, warps_per_core: int) -> int:
        """Register space privatized to one warp (used for tile sizing)."""
        if warps_per_core <= 0:
            raise ValueError("warps_per_core must be positive")
        return self.fp_bytes // warps_per_core


@dataclass(frozen=True)
class CacheConfig:
    """A simple set-associative cache."""

    size_bytes: int
    line_bytes: int = 64
    ways: int = 4
    hit_latency: int = 4
    miss_penalty: int = 30
    mshrs: int = 8

    @property
    def sets(self) -> int:
        return max(1, self.size_bytes // (self.line_bytes * self.ways))


@dataclass(frozen=True)
class DramConfig:
    """Off-chip main memory channel."""

    bandwidth_bytes_per_cycle: float = 32.0
    latency_cycles: int = 100
    #: HBM capacity available for resident KV-cache state.  The serving
    #: control plane (``repro.workloads.control``) bounds admission against
    #: this budget; the default is generous enough that it never binds on the
    #: trace zoo unless a tighter budget is passed explicitly.
    hbm_capacity_bytes: int = 8 * 1024 ** 3


@dataclass(frozen=True)
class SharedMemoryConfig:
    """Cluster-level shared memory with two-dimensional banking (Section 3.2.1)."""

    size_bytes: int = 128 * 1024
    banks: int = 4
    subbanks: int = 8
    word_bytes: int = 4
    access_latency: int = 2

    @property
    def bank_width_bytes(self) -> int:
        """Width of a single wide (matrix-unit) access to one bank."""
        return self.subbanks * self.word_bytes

    @property
    def peak_bytes_per_cycle(self) -> int:
        """Aggregate read bandwidth across all banks."""
        return self.banks * self.bank_width_bytes

    def scaled_banking(self, factor: int) -> "SharedMemoryConfig":
        """Return a copy with ``factor``-times more aggressive subbanking.

        This models the 2x bandwidth scaling the paper applies to the Volta
        and Ampere-style designs (Section 6.1.3).
        """
        return replace(self, subbanks=self.subbanks * factor)


@dataclass(frozen=True)
class DmaConfig:
    """Cluster DMA engine for global <-> shared memory transfers."""

    present: bool = True
    bytes_per_cycle: float = 32.0
    program_latency: int = 20
    max_outstanding: int = 4


@dataclass(frozen=True)
class MatrixUnitConfig:
    """Configuration of one matrix unit instance.

    For core-coupled designs (Volta/Ampere/Hopper style) one instance exists
    per SIMT core; for Virgo a single instance exists per cluster.
    """

    style: IntegrationStyle
    dtype: DataType = DataType.FP16
    macs_per_cycle: int = 32
    tile_m: int = 8
    tile_n: int = 8
    tile_k: int = 16
    # Systolic-array geometry; only meaningful for the disaggregated unit.
    systolic_rows: int = 16
    systolic_cols: int = 16
    accumulator_bytes: int = 32 * 1024
    operand_buffer_bytes: int = 2 * 1024
    # Timing of the instruction-driven units (Volta/Ampere): cycles per HMMA
    # step instruction.
    cycles_per_step: int = 2

    @property
    def tile_shape(self) -> Tuple[int, int, int]:
        return (self.tile_m, self.tile_n, self.tile_k)

    @property
    def hmma_steps_per_tile(self) -> int:
        """HMMA step instructions needed per tile operation (Volta/Ampere).

        Each step occupies the dot-product units for ``cycles_per_step``
        cycles at ``macs_per_cycle`` MACs/cycle, so the step count follows
        from the tile's total MAC count.
        """
        return max(1, -(-self.tile_macs // (self.macs_per_cycle * self.cycles_per_step)))

    @property
    def tile_macs(self) -> int:
        """MAC operations in one tile-granular operation."""
        return self.tile_m * self.tile_n * self.tile_k

    @property
    def tile_cycles_ideal(self) -> float:
        """Ideal cycles to compute one tile at full MAC throughput."""
        return self.tile_macs / float(self.macs_per_cycle)

    @property
    def operand_bytes_per_tile(self) -> int:
        """Bytes of A and B operand data consumed by one tile operation."""
        elem = self.dtype.bytes
        return elem * (self.tile_m * self.tile_k + self.tile_k * self.tile_n)

    @property
    def accumulator_bytes_per_tile(self) -> int:
        """Bytes of accumulator (C) data produced by one tile operation.

        Accumulators are always kept at FP32 precision, matching both the
        Tensor Core and Gemmini behaviour.
        """
        return 4 * self.tile_m * self.tile_n


@dataclass(frozen=True)
class CoreConfig:
    """A Vortex-like SIMT core."""

    warps: int = 8
    lanes: int = 8
    alus_per_lane: int = 2
    fpus_per_lane: int = 1
    lsq_entries: int = 32
    issue_width: int = 1
    register_file: RegisterFileConfig = field(default_factory=RegisterFileConfig)
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=16 * 1024))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=16 * 1024))

    @property
    def threads(self) -> int:
        return self.warps * self.lanes


@dataclass(frozen=True)
class ClusterConfig:
    """A SIMT core cluster (Streaming Multiprocessor / Compute Unit analogue)."""

    cores: int = 8
    core: CoreConfig = field(default_factory=CoreConfig)
    shared_memory: SharedMemoryConfig = field(default_factory=SharedMemoryConfig)
    dma: DmaConfig = field(default_factory=DmaConfig)
    matrix_unit: MatrixUnitConfig = field(
        default_factory=lambda: MatrixUnitConfig(style=IntegrationStyle.TIGHTLY_COUPLED)
    )
    # Number of matrix unit instances in the cluster.  For core-coupled
    # styles this equals ``cores``; for Virgo it is typically 1.
    matrix_units: int = 8

    @property
    def total_macs_per_cycle(self) -> int:
        return self.matrix_units * self.matrix_unit.macs_per_cycle


@dataclass(frozen=True)
class SoCConfig:
    """Whole-SoC configuration: clusters, L2 and DRAM."""

    clusters: int = 1
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=512 * 1024, hit_latency=20, miss_penalty=80)
    )
    dram: DramConfig = field(default_factory=DramConfig)
    clock_mhz: float = 400.0

    @property
    def clock_period_ns(self) -> float:
        return 1000.0 / self.clock_mhz

    @property
    def total_macs_per_cycle(self) -> int:
        return self.clusters * self.cluster.total_macs_per_cycle

    def peak_matrix_tflops(self) -> float:
        """Peak matrix throughput in TFLOP/s (1 MAC = 2 FLOPs)."""
        return 2.0 * self.total_macs_per_cycle * self.clock_mhz * 1e6 / 1e12


@dataclass(frozen=True)
class DesignConfig:
    """A named design point: an SoC configuration plus its integration style."""

    name: str
    style: IntegrationStyle
    soc: SoCConfig

    @property
    def cluster(self) -> ClusterConfig:
        return self.soc.cluster

    @property
    def matrix_unit(self) -> MatrixUnitConfig:
        return self.soc.cluster.matrix_unit

    @property
    def has_dma(self) -> bool:
        return self.style is not IntegrationStyle.TIGHTLY_COUPLED

    @property
    def operands_from_shared_memory(self) -> bool:
        """True when the matrix unit reads operands directly from shared memory."""
        return self.style in (
            IntegrationStyle.OPERAND_DECOUPLED,
            IntegrationStyle.DISAGGREGATED,
        )

    @property
    def accumulator_in_register_file(self) -> bool:
        """True when accumulator tiles live in the core register file."""
        return self.style is not IntegrationStyle.DISAGGREGATED

    def validate(self) -> None:
        """Raise ``ValueError`` for internally inconsistent configurations."""
        cluster = self.soc.cluster
        if cluster.cores <= 0:
            raise ValueError("cluster must have at least one core")
        if cluster.matrix_units <= 0:
            raise ValueError("cluster must have at least one matrix unit")
        if self.style is IntegrationStyle.DISAGGREGATED:
            if cluster.matrix_unit.systolic_rows <= 0 or cluster.matrix_unit.systolic_cols <= 0:
                raise ValueError("disaggregated unit requires a systolic array geometry")
        else:
            if cluster.matrix_units != cluster.cores:
                raise ValueError(
                    "core-coupled designs must have one matrix unit per core "
                    f"(got {cluster.matrix_units} units for {cluster.cores} cores)"
                )
        if self.style is IntegrationStyle.TIGHTLY_COUPLED and cluster.dma.present:
            raise ValueError("Volta-style design must not instantiate a DMA engine")
