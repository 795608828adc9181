"""Tests for the cached parallel batch runner."""

import dataclasses
import json

import pytest

import repro.workloads.batch as batch_module
from repro.workloads import (
    BatchJob,
    FleetJob,
    ModelSpec,
    RequestSpec,
    ResultCache,
    ServingJob,
    ServingTrace,
    run_batch,
    resolve_spec,
    scaled_spec,
    serving_sweep_jobs,
    sweep_jobs,
)

#: A deliberately tiny spec so batch tests stay fast.
TINY = scaled_spec(resolve_spec("gpt-decode"), blocks=1, hidden=128, heads=4, context_len=64)

#: A two-request serving trace sized for sub-second job execution.
TINY_TRACE = ServingTrace(
    name="batch-tiny",
    requests=(
        RequestSpec(
            request_id="t0",
            model=ModelSpec(family="gpt", phase="decode", batch=1, seq_len=32,
                            hidden=128, blocks=1, heads=4),
            arrival_cycle=0, prompt_len=32, decode_steps=2,
        ),
        RequestSpec(
            request_id="t1",
            model=ModelSpec(family="moe", phase="decode", batch=1, seq_len=32,
                            hidden=128, blocks=1, heads=4, experts=4, top_k=2),
            arrival_cycle=100, prompt_len=32, decode_steps=2,
        ),
    ),
    context_bucket=32,
)


class TestCacheKeys:
    def test_key_is_deterministic(self):
        assert BatchJob(TINY, "virgo").key() == BatchJob(TINY, "virgo").key()

    def test_key_depends_on_design_and_flags(self):
        base = BatchJob(TINY, "virgo")
        assert base.key() != BatchJob(TINY, "ampere").key()
        assert base.key() != BatchJob(TINY, "virgo", heterogeneous=True).key()

    def test_key_depends_on_spec_content(self):
        other = scaled_spec(TINY, context_len=128)
        assert BatchJob(TINY, "virgo").key() != BatchJob(other, "virgo").key()

    def test_name_and_spec_spellings_share_a_key(self):
        by_name = BatchJob("gpt-decode", "virgo")
        by_spec = BatchJob(resolve_spec("gpt-decode"), "virgo")
        assert by_name.key() == by_spec.key()

    @pytest.mark.parametrize(
        "job, expected",
        [
            (
                BatchJob("gpt-decode", "virgo"),
                "13e948d9a182b2a9aca1d38189f6edb787b10d0e559d10cb271310f8d6071cb9",
            ),
            (
                ServingJob(TINY_TRACE, "virgo", policy="kv-budget", kv_budget=300_000),
                "15e109c7ddcda22e5d7ea10c6500dabdde0eef55ddca7c3d0a137859ec85441c",
            ),
            (
                FleetJob(TINY_TRACE, "duo-virgo", faults="crash:0.5:200000", fault_seed=3),
                "ad395246ac2f88ce6d276a1c0fc43523947fc98a1b074e0052d7517931178a54",
            ),
        ],
        ids=["model", "serving", "fleet"],
    )
    def test_key_is_pinned_per_kind(self, job, expected):
        """The exact hex key of one job per kind.  A moved key orphans every
        on-disk cache entry of that kind, so it must only move on purpose
        (a ``CACHE_SCHEMA_VERSION`` bump or a job-content change)."""
        assert job.key() == expected

    @pytest.mark.parametrize(
        "job, perturbed",
        [
            (
                BatchJob(TINY, "virgo"),
                {
                    "model": scaled_spec(TINY, context_len=128),
                    "design": "ampere",
                    "heterogeneous": True,
                    "dtype": "fp32",
                },
            ),
            (
                ServingJob(TINY_TRACE, "virgo"),
                {
                    "trace": dataclasses.replace(TINY_TRACE, context_bucket=64),
                    "design": "ampere",
                    "heterogeneous": True,
                    "dtype": "fp32",
                    "policy": "kv-budget",
                    "kv_budget": 300_000,
                    "epoch_compression": False,
                },
            ),
            (
                FleetJob(TINY_TRACE, "duo-virgo", faults="crash:0.5:200000", fault_seed=3),
                {
                    "trace": dataclasses.replace(TINY_TRACE, context_bucket=64),
                    "fleet": "trio-virgo",
                    "policy": "least-outstanding",
                    "heterogeneous": True,
                    "dtype": "fp32",
                    "faults": "crash:0.25:200000",
                    "fault_seed": 4,
                    "failover": False,
                },
            ),
        ],
        ids=["model", "serving", "fleet"],
    )
    def test_every_job_field_reaches_the_key(self, job, perturbed):
        """Changing any one dataclass field of a job moves its key.  A new
        field left out of ``content()`` fails here instead of silently
        sharing cache entries with jobs that differ only in that field."""
        assert set(perturbed) == {field.name for field in dataclasses.fields(job)}
        for name, value in perturbed.items():
            other = dataclasses.replace(job, **{name: value})
            assert other.key() != job.key(), name

    def test_fault_seed_without_faults_keeps_the_key(self):
        """The seed only parameterizes a fault plan; without one it is inert."""
        assert FleetJob(TINY_TRACE).key() == FleetJob(TINY_TRACE, fault_seed=9).key()


class TestResultCache:
    def test_missing_entry_is_none(self, tmp_path):
        assert ResultCache(tmp_path).get("deadbeef") is None

    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"total_cycles": 42})
        assert cache.get("k") == {"total_cycles": 42}
        assert len(cache) == 1

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("bad").write_text("{not json", encoding="utf-8")
        assert cache.get("bad") is None


class TestRunBatch:
    def test_second_run_hits_cache_without_recomputation(self, tmp_path, monkeypatch):
        jobs = [BatchJob(TINY, "virgo"), BatchJob(TINY, "ampere")]

        first = run_batch(jobs, cache_dir=tmp_path, max_workers=1)
        assert first.computed == 2 and first.cached == 0

        # Any recomputation on the second run would call the worker; poison it.
        def explode(job):
            raise AssertionError(f"job {job.label} recomputed despite warm cache")

        monkeypatch.setattr(batch_module, "_execute_job", explode)
        second = run_batch(jobs, cache_dir=tmp_path, max_workers=1)
        assert second.computed == 0 and second.cached == 2
        assert [o.result for o in second.outcomes] == [o.result for o in first.outcomes]

    def test_results_match_direct_run(self, tmp_path):
        job = BatchJob(TINY, "virgo")
        report = run_batch([job], cache_dir=tmp_path, max_workers=1)
        direct = batch_module.run_model(TINY, "virgo").to_dict()
        assert report.outcomes[0].result == direct

    def test_no_cache_dir_disables_caching(self):
        report = run_batch([BatchJob(TINY, "virgo")], cache_dir=None, max_workers=1)
        assert report.computed == 1
        report_again = run_batch([BatchJob(TINY, "virgo")], cache_dir=None, max_workers=1)
        assert report_again.computed == 1

    def test_spec_change_invalidates_only_affected_entries(self, tmp_path):
        job_a = BatchJob(TINY, "virgo")
        run_batch([job_a], cache_dir=tmp_path, max_workers=1)
        job_b = BatchJob(scaled_spec(TINY, context_len=128), "virgo")
        report = run_batch([job_a, job_b], cache_dir=tmp_path, max_workers=1)
        assert report.cached == 1 and report.computed == 1

    def test_process_pool_path(self, tmp_path):
        """Misses fan out over worker processes and still land in the cache."""
        jobs = [BatchJob(TINY, "virgo"), BatchJob(TINY, "ampere")]
        report = run_batch(jobs, cache_dir=tmp_path, max_workers=2)
        assert report.computed == 2
        assert len(ResultCache(tmp_path)) == 2
        for outcome in report.outcomes:
            json.dumps(outcome.result)

    def test_cached_entries_are_canonical_json_files(self, tmp_path):
        job = BatchJob(TINY, "virgo")
        run_batch([job], cache_dir=tmp_path, max_workers=1)
        path = ResultCache(tmp_path).path_for(job.key())
        assert path.exists()
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk["kind"] == "model"
        assert on_disk["design"] == "Virgo"


class TestSweepJobs:
    def test_cross_product(self):
        jobs = sweep_jobs(["gpt-prefill", "gpt-decode"], ["virgo", "ampere"])
        assert len(jobs) == 4
        assert {job.label for job in jobs} == {
            "gpt-prefill@virgo",
            "gpt-prefill@ampere",
            "gpt-decode@virgo",
            "gpt-decode@ampere",
        }

    def test_unknown_model_fails_at_key_time(self):
        with pytest.raises(KeyError):
            BatchJob("not-a-model", "virgo").key()

    def test_heterogeneous_sequence_crosses_into_jobs(self):
        jobs = sweep_jobs(["gpt-decode"], ["virgo"], heterogeneous=(False, True))
        assert len(jobs) == 2
        assert [job.heterogeneous for job in jobs] == [False, True]
        assert {job.label for job in jobs} == {"gpt-decode@virgo", "gpt-decode@virgo+hetero"}

    def test_heterogeneous_bool_keeps_single_flag(self):
        jobs = sweep_jobs(["gpt-decode"], ["virgo"], heterogeneous=True)
        assert [job.heterogeneous for job in jobs] == [True]


class TestCacheSchemaBump:
    def test_old_schema_entries_are_ignored_not_misread(self, tmp_path, monkeypatch):
        """A schema bump must orphan old entries entirely: a result cached
        under the previous schema version is never returned for the same
        job content under the current one."""
        job = BatchJob(TINY, "virgo")
        monkeypatch.setattr(batch_module, "CACHE_SCHEMA_VERSION", 2)
        old_key = job.key()
        poisoned = {"kind": "model", "total_cycles": -1, "schema": "stale"}
        ResultCache(tmp_path).put(old_key, poisoned)
        monkeypatch.undo()

        assert job.key() != old_key  # the bump moved the key namespace
        report = run_batch([job], cache_dir=tmp_path, max_workers=1)
        assert report.computed == 1 and report.cached == 0
        assert report.outcomes[0].result != poisoned
        assert report.outcomes[0].result["total_cycles"] > 0

    def test_schema_version_is_part_of_every_key(self, monkeypatch):
        model_key = BatchJob(TINY, "virgo").key()
        serving_key = ServingJob(TINY_TRACE, "virgo").key()
        monkeypatch.setattr(batch_module, "CACHE_SCHEMA_VERSION", 999)
        assert BatchJob(TINY, "virgo").key() != model_key
        assert ServingJob(TINY_TRACE, "virgo").key() != serving_key

    def test_model_and_serving_keys_never_collide(self):
        # The "kind" discriminator keeps the two job namespaces disjoint
        # even if a trace payload ever mirrored a spec payload.
        assert BatchJob(TINY, "virgo").key() != ServingJob(TINY_TRACE, "virgo").key()


class TestTimingCacheSnapshotAcrossProcesses:
    def test_snapshot_round_trips_deterministically_across_processes(self, tmp_path):
        """Worker processes seeded from the parent's warm timing cache must
        produce byte-identical results to an inline run: the snapshot is a
        faithful, deterministic transport of the parent's entries."""
        from repro.perf import timing_cache

        timing_cache().clear()
        try:
            inline = run_batch(
                [BatchJob(TINY, "virgo"), BatchJob(TINY, "ampere")],
                cache_dir=None, max_workers=1,
            )
            assert timing_cache().snapshot()  # the parent cache is warm now
            pooled = run_batch(
                [BatchJob(TINY, "virgo"), BatchJob(TINY, "ampere")],
                cache_dir=None, max_workers=2,
            )
        finally:
            timing_cache().clear()
        inline_results = [outcome.result for outcome in inline.outcomes]
        pooled_results = [outcome.result for outcome in pooled.outcomes]
        assert json.dumps(pooled_results, sort_keys=True) == json.dumps(
            inline_results, sort_keys=True
        )

    def test_seeded_worker_result_matches_unseeded(self):
        """Seeding is a pure accelerator: loading a snapshot into a fresh
        cache changes hit/miss accounting, never results."""
        from repro.perf import timing_cache

        timing_cache().clear()
        try:
            cold = batch_module._execute_job(BatchJob(TINY, "virgo"))
            snapshot = timing_cache().snapshot()
            timing_cache().clear()
            batch_module._seed_worker_cache(snapshot)
            hits_before = timing_cache().hits
            warm = batch_module._execute_job(BatchJob(TINY, "virgo"))
            assert timing_cache().hits > hits_before
            assert timing_cache().misses == 0
            assert warm == cold
        finally:
            timing_cache().clear()


class TestDuplicateSweepCells:
    def test_sweep_jobs_rejects_repeated_model(self):
        with pytest.raises(ValueError, match="duplicate sweep cell"):
            sweep_jobs(["gpt-decode", "gpt-decode"], ["virgo"])

    def test_sweep_jobs_rejects_name_and_spec_spelling_the_same_content(self):
        with pytest.raises(ValueError, match="duplicate sweep cell"):
            sweep_jobs(["gpt-decode", resolve_spec("gpt-decode")], ["virgo"])

    def test_moe_sweep_rejects_repeated_knob_value(self):
        with pytest.raises(ValueError, match="duplicate sweep cell"):
            batch_module.moe_sweep_jobs(experts=(8, 8), top_ks=(2,), heterogeneous=False)

    def test_serving_sweep_rejects_repeated_trace(self):
        with pytest.raises(ValueError, match="duplicate sweep cell"):
            serving_sweep_jobs([TINY_TRACE, TINY_TRACE], ["virgo"], heterogeneous=False)

    def test_distinct_cells_still_pass(self):
        jobs = sweep_jobs(["gpt-decode"], ["virgo", "ampere"], heterogeneous=False)
        assert len(jobs) == 2

    def test_cli_batch_reports_duplicate_as_clean_exit(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="duplicate sweep cell"):
            main(["model", "--batch", "--names", "gpt-decode,gpt-decode",
                  "--designs", "virgo"])


class TestServingJobs:
    def test_key_is_deterministic_and_content_addressed(self):
        assert ServingJob(TINY_TRACE, "virgo").key() == ServingJob(TINY_TRACE, "virgo").key()
        assert (
            ServingJob(TINY_TRACE, "virgo").key()
            != ServingJob(TINY_TRACE, "ampere").key()
        )
        assert (
            ServingJob(TINY_TRACE, "virgo").key()
            != ServingJob(TINY_TRACE, "virgo", heterogeneous=True).key()
        )

    def test_trace_content_changes_key(self):
        import dataclasses

        shifted = dataclasses.replace(
            TINY_TRACE,
            requests=(
                TINY_TRACE.requests[0],
                dataclasses.replace(TINY_TRACE.requests[1], arrival_cycle=999),
            ),
        )
        assert ServingJob(TINY_TRACE, "virgo").key() != ServingJob(shifted, "virgo").key()

    def test_name_and_trace_spellings_share_a_key(self):
        by_name = ServingJob("poisson-mixed", "virgo")
        by_trace = ServingJob(batch_module.resolve_trace("poisson-mixed"), "virgo")
        assert by_name.key() == by_trace.key()

    def test_label_names_trace_design_and_units(self):
        assert ServingJob(TINY_TRACE, "virgo").label == "serve:batch-tiny@virgo"
        assert (
            ServingJob(TINY_TRACE, "ampere", heterogeneous=True).label
            == "serve:batch-tiny@ampere+hetero"
        )

    def test_serving_sweep_cross_product(self):
        jobs = serving_sweep_jobs([TINY_TRACE], ["virgo"], heterogeneous=(False, True))
        assert [job.heterogeneous for job in jobs] == [False, True]

    def test_run_batch_executes_and_caches_serving_jobs(self, tmp_path, monkeypatch):
        job = ServingJob(TINY_TRACE, "virgo")
        first = run_batch([job], cache_dir=tmp_path, max_workers=1)
        assert first.computed == 1
        result = first.outcomes[0].result
        assert result["kind"] == "serving"
        assert result["decode_steps_executed"] == TINY_TRACE.total_decode_steps

        def explode(job):
            raise AssertionError("serving job recomputed despite warm cache")

        monkeypatch.setattr(batch_module, "_execute_job", explode)
        second = run_batch([job], cache_dir=tmp_path, max_workers=1)
        assert second.cached == 1
        assert second.outcomes[0].result == result

    def test_serving_result_matches_direct_run(self, tmp_path):
        report = run_batch([ServingJob(TINY_TRACE, "virgo")], cache_dir=tmp_path,
                           max_workers=1)
        direct = batch_module.run_serving(TINY_TRACE, "virgo").to_dict()
        assert report.outcomes[0].result == direct


class TestSpecResolution:
    def test_spec_resolved_once_per_job(self, monkeypatch):
        calls = []
        real = batch_module.resolve_spec

        def counting(name):
            calls.append(name)
            return real(name)

        monkeypatch.setattr(batch_module, "resolve_spec", counting)
        job = BatchJob("gpt-decode", "virgo")
        job.key()
        job.key()
        assert job.spec is job.spec
        assert calls == ["gpt-decode"]

    def test_explicit_spec_never_resolves(self, monkeypatch):
        monkeypatch.setattr(
            batch_module, "resolve_spec", lambda name: pytest.fail("resolved a ModelSpec job")
        )
        assert BatchJob(TINY, "virgo").spec is TINY


class TestWorkerCacheSeeding:
    def test_seed_worker_cache_loads_entries(self):
        from repro.perf import timing_cache
        from repro.runner import run_gemm
        from repro.config.presets import DesignKind

        timing_cache().clear()
        try:
            run_gemm(DesignKind.VIRGO, 128)
            snapshot = timing_cache().snapshot()
            assert snapshot
            timing_cache().clear()
            batch_module._seed_worker_cache(snapshot)
            assert len(timing_cache()) == len(snapshot["entries"])
            # A seeded lookup is a hit, not a recomputation.
            run_gemm(DesignKind.VIRGO, 128)
            assert timing_cache().hits == 1 and timing_cache().misses == 0
        finally:
            timing_cache().clear()

    def test_snapshot_is_picklable_for_pool_initargs(self):
        import pickle

        from repro.perf import timing_cache
        from repro.runner import run_flash_attention, run_gemm
        from repro.config.presets import DesignKind

        timing_cache().clear()
        try:
            run_gemm(DesignKind.VIRGO, 128)
            run_flash_attention(DesignKind.VIRGO)
            restored = pickle.loads(pickle.dumps(timing_cache().snapshot()))
            assert len(restored["entries"]) == 2
        finally:
            timing_cache().clear()
