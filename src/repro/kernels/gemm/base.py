"""Common GEMM workload and result types shared by all design-specific kernels."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.config.soc import DataType, DesignConfig
from repro.sim.stats import Counters


@dataclass(frozen=True)
class GemmWorkload:
    """A C = A x B GEMM problem (C is MxN, A is MxK, B is KxN)."""

    m: int
    n: int
    k: int
    dtype: DataType = DataType.FP16

    def __post_init__(self) -> None:
        if self.m <= 0 or self.n <= 0 or self.k <= 0:
            raise ValueError("GEMM dimensions must be positive")

    @property
    def macs(self) -> int:
        return self.m * self.n * self.k

    @property
    def flops(self) -> int:
        return 2 * self.macs

    @property
    def input_bytes(self) -> int:
        return self.dtype.bytes * (self.m * self.k + self.k * self.n)

    @property
    def output_bytes(self) -> int:
        return 4 * self.m * self.n

    @property
    def name(self) -> str:
        return f"{self.m}x{self.n}x{self.k}"

    @classmethod
    def square(cls, size: int, dtype: DataType = DataType.FP16) -> "GemmWorkload":
        return cls(m=size, n=size, k=size, dtype=dtype)


#: GEMM sizes evaluated in the paper (Table 3, Figure 8).
GEMM_SIZES = (256, 512, 1024)


@dataclass
class GemmKernelResult:
    """Outcome of simulating one GEMM kernel on one design."""

    design: DesignConfig
    workload: GemmWorkload
    total_cycles: int
    ideal_mac_cycles: float
    counters: Counters
    retired_instructions: int = 0
    iteration_cycles: int = 0
    phase_cycles: Dict[str, int] = field(default_factory=dict)
    #: Busy cycles per scheduler resource ("matrix"/"compute", "dma").
    resource_busy: Dict[str, int] = field(default_factory=dict)
    #: Operation-graph size bookkeeping from the schedule executor:
    #: ``executed_operations`` (materialized), ``extrapolated_operations``
    #: (covered by steady-state compression) and their ``operation_count``.
    schedule_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def mac_utilization(self) -> float:
        """MAC hardware utilization: ideal MAC cycles over achieved cycles."""
        if self.total_cycles <= 0:
            return 0.0
        return min(1.0, self.ideal_mac_cycles / self.total_cycles)

    @property
    def mac_utilization_percent(self) -> float:
        return 100.0 * self.mac_utilization

    def summary(self) -> str:
        return (
            f"{self.design.name:<14s} GEMM {self.workload.name:>14s}: "
            f"{self.total_cycles:>10d} cycles, "
            f"{self.mac_utilization_percent:5.1f}% MAC utilization, "
            f"{self.retired_instructions} instructions"
        )


def ideal_mac_cycles(design: DesignConfig, workload: GemmWorkload) -> float:
    """Cycles the SoC's MAC arrays would need at 100% utilization.

    Accounts for every cluster in the SoC, so multi-cluster configurations
    report utilization against their full aggregate throughput.
    """
    macs_per_cycle = design.soc.total_macs_per_cycle
    return workload.macs / float(macs_per_cycle)
