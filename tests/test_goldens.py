"""Golden-file regression tests for every ``to_dict()``/``to_json`` surface.

Each test renders one canonical serialization -- the encodings the CLI
prints and the batch runner's on-disk cache stores -- and compares it byte
for byte against a committed file under ``tests/goldens/``.  Any drift in
field names, value computation or float formatting fails here, at review
time, instead of surfacing later as silently-invalidated (or worse,
misread) cache entries.

Regenerate after an intentional change with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens

and commit the resulting diff.  On an unchanged tree regeneration is
byte-identical (the simulation stack and the encoding are deterministic),
which ``test_goldens_are_reproducible`` enforces directly.
"""

import json

from repro.analysis.model_breakdown import model_overlap_report
from repro.analysis.serving import serving_latency_report, serving_perf_stats
from repro.config.presets import DesignKind
from repro.analysis.trace_report import trace_summary
from repro.obs import TraceRecorder, tracing
from repro.perf import timing_cache
from repro.runner import run_flash_attention, run_gemm, to_json
from repro.workloads import (
    REQUEST_MODELS,
    ModelSpec,
    RequestSpec,
    ServingTrace,
    build_request_stream,
    build_stream_trace,
    run_fleet,
    run_model,
    run_serving,
)

#: Tiny, fixed workloads: goldens must be fast to regenerate and stable.
GPT_TINY = ModelSpec(family="gpt", phase="decode", batch=1, seq_len=32,
                     hidden=128, blocks=1, heads=4, context_len=64)
MOE_TINY = ModelSpec(family="moe", phase="decode", batch=2, seq_len=32,
                     hidden=128, blocks=1, heads=4, context_len=64,
                     experts=4, top_k=2)

SERVING_TRACE = ServingTrace(
    name="golden-trace",
    requests=(
        RequestSpec(request_id="g0", model=GPT_TINY, arrival_cycle=0,
                    prompt_len=32, decode_steps=2),
        RequestSpec(request_id="g1", model=MOE_TINY, arrival_cycle=1_000,
                    prompt_len=64, decode_steps=3),
    ),
    context_bucket=32,
)


def test_gemm_run_result_golden(golden):
    golden("gemm_virgo_128", run_gemm(DesignKind.VIRGO, 128).to_dict())


def test_gemm_power_report_golden(golden):
    golden("gemm_virgo_128_power", run_gemm(DesignKind.VIRGO, 128).power.to_dict())


def test_flash_run_result_golden(golden):
    golden("flash_virgo_default", run_flash_attention(DesignKind.VIRGO).to_dict())


def test_model_run_result_golden(golden):
    golden("model_gpt_decode_tiny", run_model(GPT_TINY, DesignKind.VIRGO).to_dict())


#: Masked-attention variants (PR 9): chunked prefill over prior context,
#: sliding-window, and ragged varlen packing.  Tiny mirrors of the zoo's
#: ``gpt-prefill-history`` / ``gpt-prefill-sw`` / ``gpt-prefill-varlen``.
HISTORY_TINY = ModelSpec(family="gpt", phase="prefill", batch=1, seq_len=32,
                         hidden=128, blocks=1, heads=4, context_len=96)
SW_TINY = ModelSpec(family="gpt", phase="prefill", batch=1, seq_len=64,
                    hidden=128, blocks=1, heads=4, window=16)
VARLEN_TINY = ModelSpec(family="gpt", phase="prefill", batch=1, seq_len=80,
                        hidden=128, blocks=1, heads=4, seq_lens=(24, 40, 16))


def test_model_masked_history_golden(golden):
    golden("model_gpt_history_tiny", run_model(HISTORY_TINY, DesignKind.VIRGO).to_dict())


def test_model_masked_window_golden(golden):
    golden("model_gpt_sw_tiny", run_model(SW_TINY, DesignKind.VIRGO).to_dict())


def test_model_masked_varlen_golden(golden):
    golden("model_gpt_varlen_tiny", run_model(VARLEN_TINY, DesignKind.VIRGO).to_dict())


def test_model_overlap_report_golden(golden):
    result = run_model(MOE_TINY, DesignKind.VIRGO, heterogeneous=True)
    golden("overlap_moe_decode_tiny_hetero", model_overlap_report(result))


def test_serving_run_result_golden(golden):
    golden("serving_trace_tiny", run_serving(SERVING_TRACE, DesignKind.VIRGO).to_dict())


def test_serving_latency_report_golden(golden):
    result = run_serving(SERVING_TRACE, DesignKind.VIRGO)
    golden("serving_latency_tiny", serving_latency_report(result))


#: Widely spaced solo requests: the shape epoch compression serves entirely
#: through learned episodes, so its diagnostics and trace are non-trivial.
EPOCH_TRACE = build_stream_trace(
    "golden-epochs",
    build_request_stream(
        REQUEST_MODELS["gpt-request"],
        [index * 3_000_000 for index in range(4)],
        prompt_len=105,
        decode_steps=24,
    ),
)


def test_serving_seed_parity_without_compression(golden):
    """``epoch_compression=False`` reproduces the pre-epoch (PR 7) serving
    output byte for byte: same golden file as the compressed default."""
    golden(
        "serving_trace_tiny",
        run_serving(
            SERVING_TRACE, DesignKind.VIRGO, epoch_compression=False
        ).to_dict(),
    )


def test_serving_perf_stats_epoch_golden(golden):
    """The ``serve --json`` perf section (cold run): cache, memo and epoch
    diagnostics.  Cleared cache first -- the stats are process-state."""
    timing_cache().clear()
    result = run_serving(EPOCH_TRACE, DesignKind.VIRGO)
    golden("serving_epoch_perf_tiny", serving_perf_stats(result))


def test_epoch_trace_summary_golden(golden):
    """trace-report's summary over a run whose tail is epoch/episode
    compressed: extrapolated runs export as single annotated spans."""
    timing_cache().clear()
    run_serving(EPOCH_TRACE, DesignKind.VIRGO)  # learn the episode template
    recorder = TraceRecorder(capture_phases=False)
    with tracing(recorder):
        result = run_serving(EPOCH_TRACE, DesignKind.VIRGO)
    assert result.epochs["episode_runs"] >= 1
    golden("trace_summary_epochs", trace_summary(recorder.chrome_trace(), top=5))


#: Seeded crash + slowdown + partition chaos on a three-replica fleet over
#: the SLO-classed bursty trace: this seed crashes replicas with work in
#: flight (failovers and re-prefill), times out dispatches against a
#: partitioned replica (retries) and sheds a batch-class request.
FLEET_CHAOS_FAULTS = "crash:0.6:400000,slow:0.5:2.5:300000,partition:0.4:250000"


def test_fleet_chaos_golden(golden):
    result = run_fleet(
        "bursty-slo",
        "trio-virgo",
        policy="least-outstanding",
        faults=FLEET_CHAOS_FAULTS,
        fault_seed=3,
    )
    assert result.failover_count > 0 and result.retry_count > 0
    golden("fleet_chaos_tiny", result.to_dict())


def test_to_json_matches_to_dict_encoding():
    """``to_json`` is the sorted-keys JSON of ``to_dict`` -- the exact bytes
    the result cache stores (modulo indentation)."""
    run = run_gemm(DesignKind.VIRGO, 128)
    assert json.loads(to_json(run)) == run.to_dict()


def test_goldens_are_reproducible():
    """Two renderings of the same surface are byte-identical: goldens can be
    regenerated on an unchanged tree without spurious diffs."""
    first = json.dumps(run_serving(SERVING_TRACE, DesignKind.VIRGO).to_dict(),
                       indent=2, sort_keys=True)
    second = json.dumps(run_serving(SERVING_TRACE, DesignKind.VIRGO).to_dict(),
                        indent=2, sort_keys=True)
    assert first == second
