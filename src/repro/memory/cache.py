"""Set-associative cache model (L1 data/instruction caches and the shared L2).

The cache is functional at the tag level: it tracks which lines are resident
(LRU replacement), classifies accesses into hits and misses, and reports the
cycles and DRAM traffic the access stream implies.  Data values are not
stored -- the functional kernels keep their data in numpy arrays -- but the
tag behaviour is enough to reproduce the bandwidth and energy effects the
paper's memory hierarchy has on matrix-unit utilization.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from repro.config.soc import CacheConfig
from repro.sim.stats import Counters


@dataclass
class CacheStats:
    """Aggregate access statistics of one cache instance."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class Cache:
    """A blocking set-associative cache with LRU replacement."""

    def __init__(self, name: str, config: CacheConfig) -> None:
        self.name = name
        self.config = config
        self.stats = CacheStats()
        # Per-set ordered dict: tag -> dirty flag.  Ordering encodes recency.
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}

    def _index_and_tag(self, address: int) -> Tuple[int, int]:
        line = address // self.config.line_bytes
        return line % self.config.sets, line // self.config.sets

    def lookup(self, address: int) -> bool:
        """True if the line holding ``address`` is resident (no state change)."""
        index, tag = self._index_and_tag(address)
        return tag in self._sets.get(index, {})

    def access(self, address: int, is_write: bool = False) -> bool:
        """Access one address; returns True on hit.  Updates LRU state."""
        index, tag = self._index_and_tag(address)
        ways = self._sets.setdefault(index, OrderedDict())
        if tag in ways:
            ways.move_to_end(tag)
            if is_write:
                ways[tag] = True
            self.stats.hits += 1
            return True

        self.stats.misses += 1
        if len(ways) >= self.config.ways:
            _, dirty = ways.popitem(last=False)
            if dirty:
                self.stats.writebacks += 1
        ways[tag] = is_write
        return False

    def access_stream(
        self, addresses: Iterable[int], is_write: bool = False
    ) -> Tuple[int, int]:
        """Access a whole address stream; returns (hits, misses)."""
        hits = misses = 0
        for address in addresses:
            if self.access(address, is_write=is_write):
                hits += 1
            else:
                misses += 1
        return hits, misses

    def access_cycles(self, hits: int, misses: int) -> int:
        """Cycles for a given hit/miss mix, assuming misses overlap via MSHRs."""
        if hits < 0 or misses < 0:
            raise ValueError("hit/miss counts must be non-negative")
        hit_cycles = hits * self.config.hit_latency
        # Misses overlap up to the MSHR count.
        overlapped_groups = -(-misses // max(1, self.config.mshrs)) if misses else 0
        miss_cycles = overlapped_groups * self.config.miss_penalty + misses
        return hit_cycles + miss_cycles

    def record(self, counters: Counters, prefix: str) -> None:
        """Export access counts as energy events under ``prefix``."""
        counters.add(f"{prefix}.hits", self.stats.hits)
        counters.add(f"{prefix}.misses", self.stats.misses)
        counters.add(f"{prefix}.accesses", self.stats.accesses)
        counters.add(
            f"{prefix}.bytes",
            self.stats.accesses * self.config.line_bytes,
        )

    def reset(self) -> None:
        self.stats = CacheStats()
        self._sets.clear()

    def __repr__(self) -> str:
        return (
            f"Cache({self.name!r}, {self.config.size_bytes // 1024}KiB, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )


@dataclass
class CacheHierarchy:
    """L1 (per core) backed by a shared L2 backed by DRAM.

    Provides a convenience path for the Volta-style kernels whose SIMT loads
    traverse the full hierarchy, returning the total cycles and DRAM bytes.
    """

    l1: Cache
    l2: Cache
    dram_latency: int = 100
    stats_counters: Counters = field(default_factory=Counters)

    def load(self, address: int) -> int:
        """Load one address through L1 -> L2 -> DRAM; returns latency cycles."""
        if self.l1.access(address):
            return self.l1.config.hit_latency
        if self.l2.access(address):
            return self.l1.config.hit_latency + self.l2.config.hit_latency
        self.stats_counters.add("dram.bytes", self.l2.config.line_bytes)
        return self.l1.config.hit_latency + self.l2.config.hit_latency + self.dram_latency
