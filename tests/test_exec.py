"""Tests for the plan/materialize/execute dataplane (``repro.exec``).

Covers the hard requirements of the refactor: serial and parallel
executors must produce bit-identical reports; the artifact cache must
eliminate repeated pre-selections and join builds; cache entries must
die when the source's data generation changes; and a parallel
executor must survive a dead worker and never serve one matcher
configuration's memoized report for another.
"""

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.columnar import ColumnarIndex, shm
from repro.core.matching.base import CandidateIndex, JobMatch, MatchResult
from repro.core.matching.pipeline import MatchingPipeline
from repro.core.matching.rm2 import RM2Matcher
from repro.core.matching.rm3 import RM3Matcher
from repro.core.matching.subset import SubsetMatcher
from repro.core.matching.windows import growing_window_curve, multi_method_sweep
from repro.exec import (
    ArtifactCache,
    ParallelExecutor,
    SerialExecutor,
    WindowPlan,
    default_matchers,
    growing_plans,
    make_executor,
    sliding_plans,
)
from repro.exec.analysis import AnalysisSpec, run_analyses
from repro.exec.executor import matcher_key
from repro.metastore.opensearch import OpenSearchLike

from tests.helpers import make_file, make_job, make_transfer, matching_triple, row_report


def tiny_source() -> OpenSearchLike:
    """A private one-job source (safe to mutate, unlike the fixtures)."""
    job, files, transfers = matching_triple()
    source = OpenSearchLike()
    source.jobs.ingest([job])
    source.files.ingest(files)
    source.transfers.ingest(transfers)
    source.store.freeze()
    return source


class TestWindowPlan:
    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            WindowPlan(10.0, 5.0)

    def test_key_includes_generation(self):
        plan = WindowPlan(0.0, 10.0)
        assert plan.key(1) != plan.key(2)
        assert plan.key(3) == (0.0, 10.0, True, 3)

    def test_plans_are_hashable_and_ordered(self):
        plans = sliding_plans(0.0, 100.0, 25.0)
        assert len(set(plans)) == len(plans) == 4
        assert sorted(plans) == plans

    def test_growing_plans_end_at_full_window(self):
        plans = growing_plans(0.0, 60.0, n_points=3)
        assert [p.t1 for p in plans] == [20.0, 40.0, 60.0]
        assert all(p.t0 == 0.0 for p in plans)

    def test_growing_plans_need_two_points(self):
        with pytest.raises(ValueError):
            growing_plans(0.0, 60.0, n_points=1)


class TestArtifactCache:
    def test_hit_returns_same_artifacts(self):
        cache = ArtifactCache(tiny_source())
        plan = WindowPlan(0.0, 10_000.0)
        first = cache.get(plan)
        assert cache.get(plan) is first
        assert cache.stats == {"hits": 1, "misses": 1, "entries": 1, "evictions": 0}

    @pytest.mark.parametrize("path,counter", [
        ("row", CandidateIndex),
        ("columnar", ColumnarIndex),
    ])
    def test_cache_eliminates_index_rebuilds(self, path, counter):
        """The build-counter requirement: N methods, one join build — for
        the production kernels and for the row oracle reading the same
        cached artifacts."""
        known = {"SITE-A"}
        pipeline = MatchingPipeline(tiny_source(), known_sites=known)
        before = counter.build_count
        if path == "columnar":
            pipeline.run(0.0, 10_000.0)  # exact + rm1 + rm2
            pipeline.run(0.0, 10_000.0, matchers=[SubsetMatcher(known)])
            growing_window_curve(pipeline, 0.0, 10_000.0, n_points=2)
        else:
            full = pipeline.artifacts(0.0, 10_000.0)
            row_report(full, default_matchers(known))
            row_report(full, [SubsetMatcher(known)])
            for plan in growing_plans(0.0, 10_000.0, n_points=2):
                row_report(pipeline.cache.get(plan), default_matchers(known))
        # one build for [0, 10000) shared by all five matcher runs, plus
        # one for the curve's half window [0, 5000).
        assert counter.build_count - before == 2

    def test_generation_change_invalidates(self):
        source = tiny_source()
        cache = ArtifactCache(source)
        plan = WindowPlan(0.0, 10_000.0)
        stale = cache.get(plan)
        assert len(stale.jobs) == 1

        job2 = make_job(pandaid=2, jeditaskid=200)
        source.jobs.ingest([job2])
        source.files.ingest([make_file(pandaid=2, jeditaskid=200, lfn="g0")])
        source.store.freeze()

        fresh = cache.get(plan)
        assert fresh is not stale
        assert len(fresh.jobs) == 2
        assert cache.misses == 2
        # the stale generation's entry was evicted, not retained
        assert len(cache) == 1

    def test_lru_bound(self):
        cache = ArtifactCache(tiny_source(), max_entries=2)
        for k in range(4):
            cache.get(WindowPlan(0.0, 1000.0 * (k + 1)))
        assert len(cache) == 2

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            ArtifactCache(tiny_source(), max_entries=0)

    def test_per_job_fallback_for_bare_sources(self):
        """Sources without files_of_jobs still materialize correctly."""
        source = tiny_source()

        class Bare:
            generation = 0
            user_jobs_completed_in = source.user_jobs_completed_in
            transfers_started_in = source.transfers_started_in
            files_of_job = source.files_of_job

        artifacts = ArtifactCache(Bare()).get(WindowPlan(0.0, 10_000.0))
        assert len(artifacts.files) == 3


def _report_fingerprint(report):
    """Everything the parity requirement names, per method."""
    return {
        "n_jobs": report.n_jobs,
        "n_transfers": report.n_transfers,
        "n_transfers_with_taskid": report.n_transfers_with_taskid,
        "methods": {
            m: {
                "pairs": report[m].matched_pairs(),
                "n_matched_jobs": report[m].n_matched_jobs,
                "n_matched_transfers": report[m].n_matched_transfers,
                "by_class": report[m].jobs_by_class(),
                "local_remote": report[m].local_remote_split(),
            }
            for m in report.methods
        },
    }


class TestExecutorParity:
    """Serial and parallel execution must be bit-identical (seeded workload)."""

    @pytest.fixture(scope="class")
    def plans(self, small_study):
        t0, t1 = small_study.harness.window
        return growing_plans(t0, t1, n_points=3)

    @pytest.mark.parametrize("matcher_set", ["default", "subset"])
    def test_reports_identical(self, small_study, plans, matcher_set):
        known = small_study.harness.known_site_names()
        matchers = None if matcher_set == "default" else [SubsetMatcher(known)]
        serial = SerialExecutor().execute(
            small_study.source, plans, matchers=matchers, known_sites=known)
        parallel = ParallelExecutor(workers=2).execute(
            small_study.source, plans, matchers=matchers, known_sites=known)
        assert len(serial) == len(parallel) == len(plans)
        for s, p in zip(serial, parallel):
            assert _report_fingerprint(s) == _report_fingerprint(p)

    def test_pipeline_run_with_parallel_executor(self, small_study):
        t0, t1 = small_study.harness.window
        pipeline = MatchingPipeline(
            small_study.source, known_sites=small_study.harness.known_site_names())
        serial = pipeline.run(t0, t1)
        parallel = pipeline.run(t0, t1, executor=ParallelExecutor(workers=2))
        assert _report_fingerprint(serial) == _report_fingerprint(parallel)

    def test_multi_method_sweep_parity(self, small_study, plans):
        pipeline = MatchingPipeline(
            small_study.source, known_sites=small_study.harness.known_site_names())
        serial = multi_method_sweep(pipeline, plans)
        parallel = multi_method_sweep(
            pipeline, plans, executor=ParallelExecutor(workers=2))
        for s, p in zip(serial, parallel):
            assert _report_fingerprint(s) == _report_fingerprint(p)

    def test_empty_plan_list(self, small_study):
        assert ParallelExecutor(workers=2).execute(small_study.source, []) == []

    def test_parallel_map(self):
        assert ParallelExecutor(workers=2).map(abs, [-1, 2, -3]) == [1, 2, 3]

    def test_serial_map(self):
        assert SerialExecutor().map(abs, [-1, 2, -3]) == [1, 2, 3]


class TestMakeExecutor:
    def test_serial_for_one_worker(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)

    def test_parallel_above_one(self):
        ex = make_executor(3)
        assert isinstance(ex, ParallelExecutor)
        assert ex.workers == 3

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)


class TestMatchedPairsUniqueness:
    """The double-counting satellite: pairs are always unique."""

    def test_duplicate_transfers_deduped(self):
        job, files, transfers = matching_triple()
        dup = MatchResult(
            method="bad",
            matches=[JobMatch(job=job, transfers=[transfers[0], transfers[0], transfers[1]])],
            n_jobs_considered=1,
            n_transfers_considered=3,
        )
        pairs = dup.matched_pairs()
        assert len(pairs) == len(set(pairs)) == 2
        assert dup.n_matched_transfers == 2

    def test_pairs_unique_on_seeded_workload(self, small_report):
        for method in small_report.methods:
            pairs = small_report[method].matched_pairs()
            assert len(pairs) == len(set(pairs))

    def test_order_preserved(self):
        job, files, transfers = matching_triple()
        res = MatchResult(
            method="ok",
            matches=[JobMatch(job=job, transfers=list(reversed(transfers)))],
            n_jobs_considered=1,
            n_transfers_considered=3,
        )
        pairs = res.matched_pairs()
        assert pairs == [(job.pandaid, t.row_id) for t in reversed(transfers)]


class TestBatchedPreselection:
    """The N+1 satellite: one files query per window, same rows."""

    def test_files_of_jobs_matches_per_job_union(self, small_study):
        t0, t1 = small_study.harness.window
        jobs = small_study.source.user_jobs_completed_in(t0, t1)[:50]
        batched = small_study.source.files_of_jobs([j.pandaid for j in jobs])
        per_job = []
        for j in jobs:
            per_job.extend(small_study.source.files_of_job(j.pandaid))
        assert sorted(map(id, batched)) == sorted(map(id, per_job))

    def test_pipeline_preselect_files_batched(self, small_study):
        pipeline = MatchingPipeline(small_study.source)
        t0, t1 = small_study.harness.window
        jobs = pipeline.preselect_jobs(t0, t1)
        files = pipeline.preselect_files(jobs)
        assert {f.pandaid for f in files} <= {j.pandaid for j in jobs}


class TestPersistentPool:
    """The zero-rebuild pool: one initialization per (source, generation)."""

    def test_pool_survives_execute_and_map(self):
        source = tiny_source()
        plans = sliding_plans(0.0, 20_000.0, 10_000.0)
        with ParallelExecutor(workers=2) as ex:
            ex.execute(source, plans[:1])
            ex.execute(source, plans)
            assert ex.map(abs, [-1, 2, -3]) == [1, 2, 3]
            ex.execute(source, plans)
            assert ex.pool_inits == 1
            assert ex.pool_rebuilds == 0

    def test_close_releases_pool(self):
        source = tiny_source()
        ex = ParallelExecutor(workers=2)
        ex.execute(source, [WindowPlan(0.0, 10_000.0)])
        ex.close()
        assert ex._pool is None
        ex.execute(source, [WindowPlan(0.0, 10_000.0)])
        ex.close()
        assert ex.pool_inits == 2

    def test_generation_bump_reinitializes(self):
        source = tiny_source()
        plan = WindowPlan(0.0, 10_000.0)
        with ParallelExecutor(workers=2) as ex:
            before = ex.execute(source, [plan])[0]
            job2, files2, _ = matching_triple()
            job2 = make_job(pandaid=999_999, creation=1.0, start=2.0, end=3.0)
            source.jobs.ingest([job2])
            source.store.freeze()
            after = ex.execute(source, [plan])[0]
            assert ex.pool_inits == 2
            assert after.n_jobs >= before.n_jobs



def _die(_):
    os._exit(1)


def _double(x):
    return 2 * x


class TestBrokenPoolRecovery:
    """A dead worker breaks one call, never the executor."""

    def test_map_recovers_after_worker_death(self):
        with ParallelExecutor(workers=2) as ex:
            with pytest.raises(BrokenProcessPool):
                ex.map(_die, [1, 2])
            assert ex.map(_double, [1, 2, 3]) == [2, 4, 6]
            assert ex.pool_rebuilds == 1
            assert ex.pool_inits == 2

    def test_execute_recovers_after_worker_death(self):
        source = tiny_source()
        plan = WindowPlan(0.0, 10_000.0)
        expected = _report_fingerprint(SerialExecutor().execute(source, [plan])[0])
        with ParallelExecutor(workers=2) as ex:
            assert _report_fingerprint(ex.execute(source, [plan])[0]) == expected
            assert ex.seed_mode == "shm"
            with pytest.raises(BrokenProcessPool):
                ex.map_with_source(_die, [1, 2], source)
            assert _report_fingerprint(ex.execute(source, [plan])[0]) == expected
            assert ex.pool_rebuilds == 1
            assert ex.pool_inits == 2
            # the rebuilt pool re-acquired a live archive for its key
            (archive,) = shm.active_archives().values()
            assert archive.exists()
        assert not shm.active_archives()


class TestWorkerReportMemo:
    """The per-worker report memo keys on matcher configuration, not names."""

    def test_matcher_key_tracks_parameters_not_counters(self):
        known = {"SITE-A"}
        assert matcher_key(RM3Matcher(known, threshold=0.0)) != matcher_key(
            RM3Matcher(known, threshold=0.9))
        assert matcher_key(RM2Matcher(known)) != matcher_key(RM2Matcher(set()))
        assert matcher_key(RM2Matcher(known)) == matcher_key(RM2Matcher(set(known)))
        counted = SubsetMatcher(known)
        counted.fallbacks = 5
        assert matcher_key(counted) == matcher_key(SubsetMatcher(known))

    def test_matcher_key_without_readable_parameters(self):
        class Renamed(RM2Matcher):
            def __init__(self, sites):
                super().__init__(sites)

        assert matcher_key(Renamed({"SITE-A"})) != matcher_key(Renamed({"SITE-B"}))
        assert matcher_key(Renamed({"SITE-A"})) == matcher_key(Renamed({"SITE-A"}))

    @staticmethod
    def _assert_fresh_reports(source, plan, method, matchers):
        """Back-to-back analyses with same-named matchers on one pool
        must each see their own matcher's report."""
        specs = [AnalysisSpec(name="headline", method=method)]
        serial = [run_analyses(source, plan, specs, matchers=[m]) for m in matchers]
        assert serial[0]["headline"] != serial[1]["headline"]
        with ParallelExecutor(workers=1) as ex:
            parallel = [
                run_analyses(source, plan, specs, matchers=[m], executor=ex)
                for m in matchers
            ]
            assert ex.pool_inits == 1
        assert parallel == serial

    def test_rm3_thresholds(self, small_study):
        known = small_study.harness.known_site_names()
        self._assert_fresh_reports(
            small_study.source,
            WindowPlan(*small_study.harness.window),
            "rm3",
            [RM3Matcher(known, threshold=0.0), RM3Matcher(known, threshold=0.9)],
        )

    def test_rm2_known_sites(self):
        # Transfers labelled with a site outside the known set: RM2
        # tolerates the label only when it knows the valid sites.
        job, files, transfers = matching_triple()
        source = OpenSearchLike()
        source.jobs.ingest([job])
        source.files.ingest(files)
        source.transfers.ingest([
            make_transfer(row_id=t.row_id, lfn=t.lfn, size=t.file_size,
                          src="SITE-Z", dst="SITE-Z", start=t.starttime, end=t.endtime)
            for t in transfers
        ])
        source.store.freeze()
        self._assert_fresh_reports(
            source,
            WindowPlan(0.0, 10_000.0),
            "rm2",
            [RM2Matcher(set()), RM2Matcher({"SITE-A"})],
        )


class TestArtifactCacheThreadSafety:
    """The serving layer shares one cache across worker threads."""

    def test_hammer_accounting_is_exact(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        source = tiny_source()
        cache = ArtifactCache(source, max_entries=4)
        plans = [WindowPlan(0.0, 5_000.0 + 1_000.0 * k) for k in range(3)]
        threads, rounds = 8, 60
        barrier = threading.Barrier(threads)

        def work(i):
            barrier.wait()
            got = []
            for k in range(rounds):
                got.append(cache.get(plans[(i + k) % len(plans)]))
            return got

        with ThreadPoolExecutor(threads) as pool:
            results = [f.result() for f in
                       [pool.submit(work, i) for i in range(threads)]]
        # no lost accounting: every get is either a hit or a miss
        assert cache.hits + cache.misses == threads * rounds
        assert len(cache) <= 4
        # every caller got artifacts for the generation it asked under
        for got in results:
            assert all(a.generation == source.generation for a in got)

    def test_racing_misses_converge_to_one_entry(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        source = tiny_source()
        cache = ArtifactCache(source)
        plan = WindowPlan(0.0, 10_000.0)
        barrier = threading.Barrier(8)

        def work(_):
            barrier.wait()
            return cache.get(plan)

        with ThreadPoolExecutor(8) as pool:
            got = [f.result() for f in [pool.submit(work, i) for i in range(8)]]
        # first insert wins: late racers adopt the cached object, so at
        # most one materialization survives and later gets share it
        assert len(cache) == 1
        survivor = cache.get(plan)
        assert sum(1 for a in got if a is survivor) >= 1
        assert cache.get(plan) is survivor
