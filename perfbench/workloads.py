"""The benchmark's workloads: seeded inputs, the timed calls, the checks.

Each workload turns a seed into inputs (:meth:`build`), makes its public
calls through a :class:`Ledger` (:meth:`run`), and afterwards checks what
came back -- invariants read from the results themselves, and one small
held slice replayed through the program's own exact oracle path, compared
byte for byte on ``to_dict()``.  No check fixes an expected simulated
value, so a fidelity fix that moves the numbers still passes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.analysis.report import PAPER_VALUES, paper_comparison
from repro.analysis.serving import percentile
from repro.config.presets import DesignKind, make_design
from repro.config.soc import DataType
from repro.faults import FaultPlan, FleetFaultPlan
from repro.kernels.flash_attention import FlashAttentionWorkload, simulate_flash_attention
from repro.kernels.gemm import GemmWorkload, simulate_gemm
from repro.perf import timing_cache
from repro.workloads import (
    MODEL_ZOO,
    REQUEST_MODELS,
    ServingTrace,
    poisson_stream_trace,
    poisson_trace,
    run_fleet,
    run_model,
    run_serving,
    scaled_spec,
    slo_trace,
)

DESIGNS: Tuple[DesignKind, ...] = tuple(DesignKind)


def derived_seed(seed: int, purpose: str) -> int:
    """An independent sub-seed (trace, faults, variants) of the workload seed."""
    return random.Random(f"{seed}:{purpose}").randrange(2**31)


def canonical(result: Any) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def kernel_encoding(result: Any) -> str:
    """Every field of a kernel result, as ``canonical`` encodes a run result.

    ``schedule_stats`` is left out: it records how the loop was scheduled
    (executed versus extrapolated operations), which is the one thing the
    compressed and the fully expanded path are meant to differ in.
    """
    fields = dataclasses.asdict(result)
    fields.pop("schedule_stats")
    fields["counters"] = result.counters.as_dict()
    return json.dumps(fields, sort_keys=True, default=str)


def digest(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Ledger:
    """Counts operations (public calls) and the ones that failed.

    An operation fails when it raises or when a check on its result finds a
    problem; each operation fails at most once.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def call(self, label: str, fn: Callable, *args, **kwargs) -> Any:
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failed operation is counted, never fatal
            self.fail(label, traceback.format_exc(limit=3))
            return None

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        self.problems.append(f"{label}: {reason}")

    def verify(self, label: str, problems: Sequence[str]) -> None:
        """Record an already-counted operation as failed if ``problems``."""
        if problems:
            self.fail(label, "; ".join(problems))

    def oracle(
        self,
        label: str,
        fast: Callable[[], Any],
        exact: Callable[[], Any],
        encode: Callable[[Any], str] = canonical,
    ) -> None:
        """One operation: the default path must match the exact oracle byte for byte."""
        self.attempted += 1
        try:
            same = encode(fast()) == encode(exact())
        except Exception:
            self.fail(label, traceback.format_exc(limit=3))
            return
        if not same:
            self.fail(label, "encoding differs from the exact oracle path")


def paper_error_pct(comparison: Dict[str, Dict[str, Dict[str, float]]]) -> float:
    """Mean absolute % deviation of every measured value from ``PAPER_VALUES``."""
    errors = [
        100.0 * abs(entry["measured"] - entry["paper"]) / abs(entry["paper"])
        for section in comparison.values()
        for entry in section.values()
    ]
    return sum(errors) / len(errors)


def cache_problems() -> List[str]:
    stats = timing_cache().stats()
    if stats["misses"] > stats["entries"]:
        return [f"timing cache has {stats['misses']} misses but {stats['entries']} entries"]
    return []


def latency_cycles(requests: Sequence[Any]) -> Tuple[float, float]:
    values = [r.latency_cycles for r in requests if r.latency_cycles is not None]
    if not values:
        return 0.0, 0.0
    return float(percentile(values, 50)), float(percentile(values, 99))


@dataclass
class Inputs:
    """What :meth:`Workload.build` generates from the seed."""

    seed: int
    payload: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """Interface every workload implements."""

    name: str = ""

    def build(self, seed: int, smoke: bool) -> Inputs:
        raise NotImplementedError

    def run(self, inputs: Inputs, ledger: Ledger) -> Any:
        raise NotImplementedError

    def summary(self, inputs: Inputs, outputs: Any, ledger: Ledger) -> Dict[str, Any]:
        """Check ``outputs`` and reduce them to what the metrics need.

        Returns ``{"digest", "sim", "layers"}``: a content digest (cold and
        warm runs must agree on it), the deterministic simulated outputs,
        and the per-layer counts read from the results.
        """
        raise NotImplementedError

    def oracle(self, inputs: Inputs, ledger: Ledger) -> None:
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# paper-models
# --------------------------------------------------------------------------- #


class PaperModels(Workload):
    """Figure regeneration: ``paper_comparison`` plus the model zoo, cold."""

    name = "paper-models"
    #: Seed-drawn ``gpt-prefill`` variants: one per sequence-length stratum,
    #: so every seed adds the same amount of fresh kernel shapes.
    SEQ_STRATA = (256, 512, 768, 1024)
    HIDDENS = (512, 640, 768, 896)

    def build(self, seed: int, smoke: bool) -> Inputs:
        rng = random.Random(derived_seed(seed, "variants"))
        base = MODEL_ZOO["gpt-prefill"]
        strata = self.SEQ_STRATA[:1] if smoke else self.SEQ_STRATA
        hiddens = rng.sample(self.HIDDENS, len(strata))
        variants = [
            scaled_spec(
                base,
                seq_len=seq + 64 * rng.randrange(4),
                hidden=hidden,
                heads=hidden // 64,
                blocks=rng.randrange(2, 5),
            )
            for seq, hidden in zip(strata, hiddens)
        ]
        names = list(MODEL_ZOO)[:2] if smoke else list(MODEL_ZOO)
        designs = DESIGNS[-2:] if smoke else DESIGNS
        jobs: List[Tuple[str, Any, DesignKind]] = [
            (name, name, design) for name in names for design in designs
        ]
        for index, spec in enumerate(variants):
            jobs.extend((f"variant{index}", spec, design) for design in designs)
        slice_spec = variants[0]
        return Inputs(
            seed,
            {
                "jobs": jobs,
                "gemm": (
                    rng.choice(DESIGNS),
                    GemmWorkload(m=slice_spec.seq_len, n=slice_spec.hidden, k=slice_spec.hidden),
                ),
                "flash": (
                    rng.choice((DesignKind.VIRGO, DesignKind.AMPERE)),
                    FlashAttentionWorkload(seq_len=slice_spec.seq_len, causal=True),
                ),
            },
        )

    def run(self, inputs: Inputs, ledger: Ledger) -> Any:
        comparison = ledger.call("paper_comparison", paper_comparison)
        models = [
            ledger.call(f"run_model {label}@{design.value}", run_model, spec, design)
            for label, spec, design in inputs.payload["jobs"]
        ]
        return comparison, models

    def summary(self, inputs: Inputs, outputs: Any, ledger: Ledger) -> Dict[str, Any]:
        comparison, models = outputs
        if comparison is not None:
            missing = [key for key in PAPER_VALUES if key not in comparison]
            ledger.verify("paper_comparison", [f"missing {key}" for key in missing])
        for (label, _, design), result in zip(inputs.payload["jobs"], models):
            if result is None:
                continue
            problems = []
            if result.total_cycles <= 0 or result.kernel_count <= 0:
                problems.append("empty schedule")
            if sum(layer.cycles for layer in result.layers) < result.total_cycles:
                problems.append("layers cover less than the makespan")
            ledger.verify(f"run_model {label}@{design.value}", problems)
        ledger.verify("timing cache", cache_problems())
        done = [m for m in models if m is not None]
        return {
            "digest": digest([comparison, [m.to_dict() for m in done]]),
            "paper_error_pct": paper_error_pct(comparison) if comparison else None,
            "sim": {
                "sim.total_cycles": sum(m.total_cycles for m in done),
                "sim.energy_uj": sum(m.active_energy_uj for m in done),
                "sim.mac_utilization_pct": (
                    sum(m.mac_utilization_percent for m in done) / max(1, len(done))
                ),
            },
            "layers": {},
        }

    def oracle(self, inputs: Inputs, ledger: Ledger) -> None:
        design, workload = inputs.payload["gemm"]
        gemm_config = make_design(design, workload.dtype)
        ledger.oracle(
            f"gemm full_expansion {workload.name}@{design.value}",
            lambda: simulate_gemm(gemm_config, workload, workload.dtype),
            lambda: simulate_gemm(gemm_config, workload, workload.dtype, full_expansion=True),
            kernel_encoding,
        )
        design, flash = inputs.payload["flash"]
        flash_config = make_design(design, DataType.FP32)
        ledger.oracle(
            f"flash full_expansion seq{flash.seq_len}@{design.value}",
            lambda: simulate_flash_attention(flash_config, flash),
            lambda: simulate_flash_attention(flash_config, flash, full_expansion=True),
            kernel_encoding,
        )


# --------------------------------------------------------------------------- #
# Serving workloads
# --------------------------------------------------------------------------- #


def prefix_trace(trace: ServingTrace, requests: int) -> ServingTrace:
    return ServingTrace(
        name=f"{trace.name}-prefix",
        requests=tuple(trace.requests[:requests]),
        context_bucket=trace.context_bucket,
    )


def serving_problems(trace: ServingTrace, result: Any) -> List[str]:
    problems = []
    if len(result.requests) != len(trace):
        problems.append(f"{len(result.requests)} results for {len(trace)} requests")
    if result.dispositions:
        census = sum(result.dispositions.values())
    else:  # default fcfs runs assign no disposition: every request finishes
        census = sum(1 for request in result.requests if request.finished)
    if census != len(trace):
        problems.append(f"disposition census {census} != {len(trace)} requests")
    epochs = result.epochs
    covered = epochs["executed_iterations"] + epochs["extrapolated_iterations"]
    if covered != result.iteration_count:
        problems.append(
            f"executed + extrapolated = {covered} != {result.iteration_count} iterations"
        )
    return problems


def serving_layers(result: Any) -> Dict[str, float]:
    epochs = result.epochs
    memo = result.iteration_memo
    lookups = memo["hits"] + memo["misses"]
    return {
        "serving.memo_misses": memo["misses"],
        "serving.memo_hit_ratio": memo["hits"] / lookups if lookups else 0.0,
        "serving.executed_iterations": epochs["executed_iterations"],
        "serving.preemptions": result.preemption_count,
        "serving.extrapolated_share": (
            epochs["extrapolated_iterations"] / result.iteration_count
            if result.iteration_count else 0.0
        ),
        "serving.epochs": epochs["epochs"],
        "serving.episode_runs": epochs["episode_runs"],
        "serving.requests": len(result.requests),
        "serving.iterations": result.iteration_count,
    }


class ServeContended(Workload):
    """Exact serving loop near saturation: SLO mix, preemption, light faults."""

    name = "serve-contended"
    REQUESTS = 3000
    #: Mean poisson gap in simulated cycles, 2x above the cliff: at 0.45M
    #: epoch extrapolation stops and host time grows ~10x (see README).
    MEAN_GAP = 1_200_000.0
    KV_BUDGET = 300_000
    FAULTS = "spike:0.02:3.0,stall:0.02:20000"
    PREFIX = 48

    def build(self, seed: int, smoke: bool) -> Inputs:
        models = (
            REQUEST_MODELS["gpt-request"],
            REQUEST_MODELS["moe-request"],
            REQUEST_MODELS["gqa-request"],
        )
        base = poisson_trace(
            "serve-contended",
            models,
            requests=60 if smoke else self.REQUESTS,
            mean_interarrival=self.MEAN_GAP,
            seed=derived_seed(seed, "trace"),
        )
        trace = slo_trace("serve-contended", base)
        plan = FaultPlan.parse(self.FAULTS, seed=derived_seed(seed, "faults"))
        return Inputs(seed, {"trace": trace, "faults": plan})

    def _serve(self, trace: ServingTrace, faults: FaultPlan, **exact):
        return run_serving(
            trace, "virgo", policy="preemptive-slo", kv_budget=self.KV_BUDGET,
            faults=faults, **exact,
        )

    def run(self, inputs: Inputs, ledger: Ledger) -> Any:
        p = inputs.payload
        return ledger.call("run_serving", self._serve, p["trace"], p["faults"])

    def summary(self, inputs: Inputs, outputs: Any, ledger: Ledger) -> Dict[str, Any]:
        ledger.verify("timing cache", cache_problems())
        if outputs is None:
            return {"digest": None, "sim": {}, "layers": {}}
        ledger.verify("run_serving", serving_problems(inputs.payload["trace"], outputs))
        p50, p99 = latency_cycles(outputs.requests)
        return {
            "digest": digest(outputs.to_dict()),
            "sim": {
                "sim.total_cycles": outputs.total_cycles,
                "sim.p50_latency_cycles": p50,
                "sim.p99_latency_cycles": p99,
                "sim.goodput": outputs.goodput,
                "sim.energy_uj": outputs.energy_uj,
            },
            "layers": serving_layers(outputs),
        }

    def oracle(self, inputs: Inputs, ledger: Ledger) -> None:
        trace = prefix_trace(inputs.payload["trace"], self.PREFIX)
        faults = inputs.payload["faults"]
        ledger.oracle(
            f"run_serving exact prefix {self.PREFIX}",
            lambda: self._serve(trace, faults),
            lambda: self._serve(trace, faults, epoch_compression=False, iteration_memo=False),
        )


class ServeStream(Workload):
    """Request-stream scale: epochs, episode replay and result assembly."""

    name = "serve-stream"
    REQUESTS = 250_000
    PREFIX = 64

    def build(self, seed: int, smoke: bool) -> Inputs:
        trace = poisson_stream_trace(
            "serve-stream",
            requests=2_000 if smoke else self.REQUESTS,
            seed=derived_seed(seed, "trace"),
        )
        return Inputs(seed, {"trace": trace})

    def run(self, inputs: Inputs, ledger: Ledger) -> Any:
        return ledger.call("run_serving", run_serving, inputs.payload["trace"], "virgo")

    def summary(self, inputs: Inputs, outputs: Any, ledger: Ledger) -> Dict[str, Any]:
        ledger.verify("timing cache", cache_problems())
        if outputs is None:
            return {"digest": None, "sim": {}, "layers": {}}
        ledger.verify("run_serving", serving_problems(inputs.payload["trace"], outputs))
        finishes = [request.finish_cycle for request in outputs.requests]
        p50, p99 = latency_cycles(outputs.requests)
        # The full to_dict() expands every extrapolated iteration; the
        # digest covers the run totals and every request's finish instead.
        return {
            "digest": digest(
                [
                    outputs.total_cycles,
                    outputs.serving_cycles,
                    outputs.iteration_count,
                    outputs.decode_steps_executed,
                    outputs.energy_uj,
                    outputs.resource_busy,
                    hashlib.sha256(repr(finishes).encode()).hexdigest(),
                ]
            ),
            "sim": {
                "sim.total_cycles": outputs.total_cycles,
                "sim.p50_latency_cycles": p50,
                "sim.p99_latency_cycles": p99,
                "sim.energy_uj": outputs.energy_uj,
            },
            "layers": serving_layers(outputs),
        }

    def oracle(self, inputs: Inputs, ledger: Ledger) -> None:
        trace = prefix_trace(inputs.payload["trace"], self.PREFIX)
        ledger.oracle(
            f"run_serving exact prefix {self.PREFIX}",
            lambda: run_serving(trace, "virgo"),
            lambda: run_serving(trace, "virgo", epoch_compression=False, iteration_memo=False),
        )


class FleetChaos(Workload):
    """The fleet router under seeded replica crashes, slowdowns and partitions."""

    name = "fleet-chaos"
    REQUESTS = 10_000
    #: ~75% replica utilisation on trio-virgo; 0.7M is past saturation.
    MEAN_GAP = 1_000_000.0
    FLEET = "trio-virgo"
    POLICY = "least-outstanding"
    #: Seeded one-per-replica slowdown and partition windows.
    RATE_FAULTS = "slow:1.0:2.5:300000,partition:1.0:200000"
    #: Targeted crashes: two per replica, one in each sixth of the horizon,
    #: so failover always has in-flight work to move.
    CRASHES = 6
    CRASH_DOWN = 400_000
    PREFIX = 64

    def plan(self, seed: int, trace: ServingTrace) -> FleetFaultPlan:
        rng = random.Random(derived_seed(seed, "crashes"))
        horizon = trace.requests[-1].arrival_cycle
        crashes = [
            f"crash@{index % 3}:{int(horizon * (index + 0.2 + 0.6 * rng.random()) / self.CRASHES)}"
            f":{self.CRASH_DOWN}"
            for index in range(self.CRASHES)
        ]
        spec = ",".join([self.RATE_FAULTS, *crashes])
        return FleetFaultPlan.parse(spec, seed=derived_seed(seed, "faults"))

    def build(self, seed: int, smoke: bool) -> Inputs:
        trace = poisson_stream_trace(
            "fleet-chaos",
            requests=400 if smoke else self.REQUESTS,
            mean_interarrival=self.MEAN_GAP,
            seed=derived_seed(seed, "trace"),
        )
        return Inputs(seed, {"trace": trace, "faults": self.plan(seed, trace)})

    def _fleet(self, trace: ServingTrace, faults: FleetFaultPlan, **exact):
        return run_fleet(trace, self.FLEET, policy=self.POLICY, faults=faults, **exact)

    def run(self, inputs: Inputs, ledger: Ledger) -> Any:
        p = inputs.payload
        return ledger.call("run_fleet", self._fleet, p["trace"], p["faults"])

    def summary(self, inputs: Inputs, outputs: Any, ledger: Ledger) -> Dict[str, Any]:
        ledger.verify("timing cache", cache_problems())
        if outputs is None:
            return {"digest": None, "sim": {}, "layers": {}}
        trace = inputs.payload["trace"]
        problems = []
        census = sum(outputs.dispositions.values())
        if census != len(trace) or len(outputs.requests) != len(trace):
            problems.append(f"disposition census {census} != {len(trace)} requests")
        epochs = outputs.perf["epochs"]
        iterations = sum(replica.iterations for replica in outputs.replicas)
        covered = epochs["executed_iterations"] + epochs["extrapolated_iterations"]
        if covered != iterations:
            problems.append(f"executed + extrapolated = {covered} != {iterations} iterations")
        if outputs.failover_count <= 0:
            problems.append("the chaos plan moved no in-flight request (0 failovers)")
        ledger.verify("run_fleet", problems)
        p50, p99 = latency_cycles(outputs.requests)
        memo = outputs.perf["iteration_memo"]
        return {
            "digest": digest(outputs.to_dict()),
            "sim": {
                "sim.total_cycles": outputs.total_cycles,
                "sim.p50_latency_cycles": p50,
                "sim.p99_latency_cycles": p99,
                "sim.goodput": outputs.goodput,
                "sim.energy_uj": sum(replica.energy_uj for replica in outputs.replicas),
            },
            "layers": {
                "fleet.dispatches": outputs.dispatch_count,
                "fleet.failed_dispatches": outputs.failed_dispatches,
                "fleet.retries": outputs.retry_count,
                "fleet.failovers": outputs.failover_count,
                "fleet.memo_misses": memo["misses"],
                "fleet.executed_iterations": epochs["executed_iterations"],
                "fleet.extrapolated_share": (
                    epochs["extrapolated_iterations"] / iterations if iterations else 0.0
                ),
                "fleet.requests": len(outputs.requests),
            },
        }

    def oracle(self, inputs: Inputs, ledger: Ledger) -> None:
        trace = prefix_trace(inputs.payload["trace"], self.PREFIX)
        faults = self.plan(inputs.seed, trace)
        ledger.oracle(
            f"run_fleet exact prefix {self.PREFIX}",
            lambda: self._fleet(trace, faults),
            lambda: self._fleet(trace, faults, iteration_memo=False, epoch_extrapolation=False),
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (PaperModels(), ServeContended(), ServeStream(), FleetChaos())
}
