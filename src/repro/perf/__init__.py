"""In-process memoization of kernel timing results (the *timing cache*).

Model workloads re-simulate the same kernel shapes over and over: every
transformer block of a GPT lowers to the same handful of GEMM / attention /
SIMT shapes, so a 24-layer model needs ~3 distinct kernel simulations, not
~75.  This subsystem makes that reuse automatic: the runner entry points
(:func:`repro.runner.run_gemm`, :func:`repro.runner.run_flash_attention`)
and the SIMT cost model in :mod:`repro.workloads.lowering` consult a
process-wide :class:`TimingCache` before simulating, and publish their
results into it afterwards.

Cache-key contract
------------------
An entry is keyed by a SHA-256 over the canonical JSON encoding of:

* ``SCHEMA_VERSION`` -- bump it whenever a timing model changes behaviour,
  so snapshots from older code can never satisfy newer lookups;
* the kernel *kind* (``"gemm"``, ``"flash"``, ``"simt"``, ...);
* the **full design configuration content** -- every field of the
  :class:`~repro.config.soc.DesignConfig` tree, via
  :func:`canonical_value`, so any hardware parameter change (bank counts,
  MAC widths, clock, DMA, ...) transparently invalidates exactly the
  affected entries;
* the workload content: all fields of the workload dataclass (including
  its dtype) for GEMM and FlashAttention, or ``elements`` and
  ``flops_per_element`` for SIMT kernels.

Nothing else may influence a timing result; if a new input does, it must be
folded into the key (that is the invalidation rule).  Entries are returned
**by reference** -- treat cached result objects and their counters as
immutable.

Persistence
-----------
Entries live for the process lifetime by default, but a snapshot of the
cache can be persisted next to the batch runner's on-disk result cache:
:func:`persistent_timing_cache` loads ``<dir>/timing-cache.pkl`` on entry
and atomically merges/flushes it on exit (temp-file + rename, union with
whatever another process flushed in the meantime).  The snapshot container
is stamped with ``SCHEMA_VERSION`` and ``SNAPSHOT_FORMAT_VERSION``;
:meth:`TimingCache.load` orphans (skips wholesale) snapshots from any other
schema or container format, so stale entries can never satisfy fresh
lookups -- per-entry invalidation still rides the key contract above
(design fingerprint + workload content + schema version inside every key).
The CLI ``serve`` and ``model`` subcommands opt in via ``--cache-dir``.

Registering a new kernel kind
-----------------------------
A new timing model opts in by wrapping its entry point::

    cache = timing_cache()
    key = cache.key("mykernel", design, {"field": value, ...})
    return cache.get_or_compute(key, lambda: simulate_mykernel(...))

where the payload dict contains every workload parameter the result depends
on.  ``canonical_value`` handles dataclasses and enums, so passing the
workload object itself is usually enough.

SIMT execution memo
-------------------
Below the timing cache, :meth:`repro.simt.core.VortexCore.execute` memoizes
each distinct warp-program set, keyed by the frozen ``CoreConfig``, the
scheduler kind and every warp's instruction tuple, so the issue simulator
runs once per distinct input.  The table is a module-level dict bound to
:attr:`TimingCache.generation` (it empties on :meth:`TimingCache.clear`)
and stores nothing while the cache is disabled.  It is deliberately not a
:meth:`TimingCache.namespace`: warm processes hit the timing cache first
and never read it, so persisting it would only grow the snapshot.  Shared
results are immutable, as above.  See ``docs/perf-contract.md`` section 7.

Worker seeding
--------------
The batch runner (:mod:`repro.workloads.batch`) serializes a
:meth:`TimingCache.snapshot` of the parent's warm cache into each process
pool worker via the executor initializer, so sweeps start warm instead of
re-simulating shared shapes per worker.
"""

from repro.perf.cache import (
    SCHEMA_VERSION,
    SNAPSHOT_FILENAME,
    SNAPSHOT_FORMAT_VERSION,
    TimingCache,
    cache_disabled,
    canonical_value,
    design_fingerprint,
    load_snapshot,
    persistent_timing_cache,
    save_snapshot,
    snapshot_path,
    timing_cache,
)

__all__ = [
    "SCHEMA_VERSION",
    "SNAPSHOT_FILENAME",
    "SNAPSHOT_FORMAT_VERSION",
    "TimingCache",
    "cache_disabled",
    "canonical_value",
    "design_fingerprint",
    "load_snapshot",
    "persistent_timing_cache",
    "save_snapshot",
    "snapshot_path",
    "timing_cache",
]
