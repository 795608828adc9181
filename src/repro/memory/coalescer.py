"""Memory coalescing unit (Section 3.2.3).

Vortex originally issued one memory request per SIMT lane; the paper adds a
coalescer that merges the per-lane requests of a warp into L1-line-sized
requests.  The model takes the per-lane byte addresses of one warp memory
instruction and reports how many line-sized requests remain after merging.
The Volta-style (no-DMA) GEMM kernel depends on this unit for its data
delivery rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Set


@dataclass
class CoalesceResult:
    """Outcome of coalescing one warp-wide memory access."""

    lane_requests: int
    merged_requests: int
    line_bytes: int
    unaligned_lanes: int = 0

    @property
    def efficiency(self) -> float:
        """Ratio of ideal (fully merged) requests to actual requests."""
        if self.merged_requests == 0:
            return 1.0
        ideal = max(1, -(-self.lane_requests * 4 // self.line_bytes))
        return ideal / self.merged_requests


class Coalescer:
    """Merges per-lane accesses of one warp into line-sized memory requests."""

    def __init__(self, line_bytes: int = 64, word_bytes: int = 4) -> None:
        if line_bytes <= 0 or line_bytes % word_bytes != 0:
            raise ValueError("line_bytes must be a positive multiple of word_bytes")
        self.line_bytes = line_bytes
        self.word_bytes = word_bytes

    def coalesce(self, lane_addresses: Sequence[int]) -> CoalesceResult:
        """Coalesce the byte addresses issued by the lanes of one warp."""
        lines: Set[int] = set()
        unaligned = 0
        for address in lane_addresses:
            if address < 0:
                raise ValueError("addresses must be non-negative")
            if address % self.word_bytes != 0:
                unaligned += 1
            lines.add(address // self.line_bytes)
        return CoalesceResult(
            lane_requests=len(lane_addresses),
            merged_requests=len(lines),
            line_bytes=self.line_bytes,
            unaligned_lanes=unaligned,
        )

    def requests_for_contiguous(self, nbytes: int) -> int:
        """Requests needed for a contiguous region accessed warp-by-warp."""
        if nbytes < 0:
            raise ValueError("size must be non-negative")
        return -(-nbytes // self.line_bytes) if nbytes else 0
