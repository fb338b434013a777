"""Tests for the streaming ingest + incremental matching subsystem.

The load-bearing requirement is **bit-identical accumulation**: after a
streaming replay of a window — in any delivery order, at any micro-batch
size, with any sufficient lateness bound — the accumulated state equals
the batch pipeline's report via dataclass ``==``, for Exact/RM1/RM2.
The hypothesis suite drives exactly that property; the unit tests cover
the building blocks (event log, watermark, incremental index freeze,
``ingest_batch``, folds, metrics, the live collector tap).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis.summary import headline_stats
from repro.core.analysis.thresholds import threshold_sweep, threshold_sweep_result
from repro.core.matching.base import BaseMatcher
from repro.core.matching.pipeline import MatchingPipeline
from repro.exec import ArtifactCache, WindowPlan
from repro.grid.presets import build_mini
from repro.metastore.index import FieldIndex
from repro.metastore.opensearch import OpenSearchLike
from repro.metastore.query import Range
from repro.scenarios.runtime import HarnessConfig, SimulationHarness
from repro.stream import (
    EventKind,
    EventLog,
    IncrementalMatcher,
    StreamingCollector,
    StreamProcessor,
    WatermarkTracker,
)
from repro.workload.generator import WorkloadConfig

from tests.helpers import make_file, make_job, make_transfer, row_headline, row_timings

# -- shared material --------------------------------------------------------------
#
# One 24-hour mini-campaign, streamed live through StreamingCollector.
# Small enough to simulate in under a second, big enough to produce
# real matches (dozens per method) — every replay-parity test below
# reuses its event log and batch report.


@pytest.fixture(scope="module")
def live_harness() -> SimulationHarness:
    cfg = HarnessConfig(
        seed=11,
        workload=WorkloadConfig(
            duration=24 * 3600.0,
            analysis_tasks_per_hour=6.0,
            production_tasks_per_hour=0.5,
            background_transfers_per_hour=30.0,
        ),
        drain=12 * 3600.0,
    )
    harness = SimulationHarness(
        cfg, topology=build_mini(seed=11), collector_factory=StreamingCollector
    )
    harness.run()
    return harness


@pytest.fixture(scope="module")
def live_log(live_harness) -> EventLog:
    return live_harness.collector.log


@pytest.fixture(scope="module")
def live_batch(live_harness, live_log):
    """The batch pipeline over exactly the log's records."""
    source = OpenSearchLike()
    source.ingest_batch(
        jobs=[e.record for e in live_log if e.kind is EventKind.JOB],
        files=[f for e in live_log if e.kind is EventKind.JOB for f in e.files],
        transfers=[e.record for e in live_log if e.kind is EventKind.TRANSFER],
    )
    t0, t1 = live_harness.window
    return MatchingPipeline(
        source, known_sites=live_harness.known_site_names()
    ).run(t0, t1)


def _disorder_bound(events) -> float:
    """Max lateness any transfer in this delivery order exhibits."""
    seen = float("-inf")
    bound = 0.0
    for e in events:
        if e.kind is EventKind.TRANSFER:
            seen = max(seen, e.time)
            bound = max(bound, seen - e.time)
    return bound


def _stream(live_harness, events, batches, lateness=0.0) -> StreamProcessor:
    t0, t1 = live_harness.window
    proc = StreamProcessor(
        t0, t1, known_sites=live_harness.known_site_names(), lateness=lateness
    )
    proc.run(batches)
    return proc


# -- watermark --------------------------------------------------------------------


class TestWatermarkTracker:
    def test_starts_at_minus_inf(self):
        w = WatermarkTracker()
        assert w.watermark == float("-inf")
        assert w.max_event_time == float("-inf")
        assert not w.closed

    def test_watermark_trails_max_by_lateness(self):
        w = WatermarkTracker(lateness=5.0)
        w.observe(10.0)
        assert w.max_event_time == 10.0
        assert w.watermark == 5.0
        assert w.lag == 5.0

    def test_watermark_is_monotone(self):
        w = WatermarkTracker()
        w.observe(10.0)
        w.observe(3.0)  # out-of-order event cannot move it backwards
        assert w.watermark == 10.0

    def test_late_and_close_predicates(self):
        w = WatermarkTracker(lateness=5.0)
        w.observe(10.0)
        assert w.is_late(4.9)
        assert not w.is_late(5.0)
        assert w.can_close(5.0)
        assert not w.can_close(5.1)

    def test_close_flushes_everything(self):
        w = WatermarkTracker(lateness=100.0)
        w.observe(10.0)
        w.close()
        assert w.closed
        assert w.watermark == float("inf")
        assert w.lag == 0.0
        assert w.can_close(1e18)

    def test_rejects_negative_lateness(self):
        with pytest.raises(ValueError):
            WatermarkTracker(lateness=-1.0)

    def test_lag_is_zero_before_first_event(self):
        # Regression: both terms are -inf pre-event and the raw
        # subtraction is NaN; the defined pre-event lag is 0.0.
        w = WatermarkTracker(lateness=5.0)
        assert w.lag == 0.0
        assert not np.isnan(w.lag)
        assert not w.has_observed
        w.observe(10.0)
        assert w.has_observed
        assert w.lag == 5.0


# -- event log --------------------------------------------------------------------


class TestEventLog:
    def _telemetry(self, live_harness):
        return live_harness.telemetry()

    def test_seqs_are_snapshot_positions(self, live_harness):
        """Sequence numbers equal bulk-ingest doc ids, even after the
        time sort and even for kinds whose earlier rows were filtered."""
        tele = self._telemetry(live_harness)
        t0, t1 = live_harness.window
        log = EventLog.from_telemetry(tele, t0, t1)
        for ev in log:
            snapshot = tele.jobs if ev.kind is EventKind.JOB else tele.transfers
            assert snapshot[ev.seq] is ev.record

    def test_events_are_time_ordered(self, live_harness):
        tele = self._telemetry(live_harness)
        t0, t1 = live_harness.window
        log = EventLog.from_telemetry(tele, t0, t1)
        times = [e.time for e in log]
        assert times == sorted(times)

    def test_transfers_sort_before_jobs_at_equal_time(self):
        job = make_job(pandaid=1, end=100.0)
        transfer = make_transfer(row_id=1, start=100.0, end=150.0)
        log = EventLog.from_telemetry(
            type("T", (), {"jobs": [job], "files": [], "transfers": [transfer]})(),
            0.0,
            1000.0,
        )
        assert [e.kind for e in log] == [EventKind.TRANSFER, EventKind.JOB]

    def test_window_bounds_trim_like_preselection(self):
        jobs = [make_job(pandaid=1, end=50.0), make_job(pandaid=2, end=150.0),
                make_job(pandaid=3, end=None)]
        transfers = [make_transfer(row_id=1, start=50.0, end=60.0),
                     make_transfer(row_id=2, start=99.9, end=110.0),
                     make_transfer(row_id=3, start=100.0, end=110.0)]
        tele = type("T", (), {"jobs": jobs, "files": [], "transfers": transfers})()
        log = EventLog.from_telemetry(tele, 0.0, 100.0)
        assert {(e.kind, e.record.pandaid if e.kind is EventKind.JOB
                 else e.record.row_id) for e in log} == {
            (EventKind.JOB, 1), (EventKind.TRANSFER, 1), (EventKind.TRANSFER, 2),
        }

    def test_job_events_carry_their_file_rows(self, live_harness):
        tele = self._telemetry(live_harness)
        t0, t1 = live_harness.window
        log = EventLog.from_telemetry(tele, t0, t1)
        by_pid = {}
        for f in tele.files:
            by_pid.setdefault(f.pandaid, []).append(f)
        job_events = [e for e in log if e.kind is EventKind.JOB]
        assert job_events
        for ev in job_events:
            assert list(ev.files) == by_pid.get(ev.record.pandaid, [])

    def test_count_batches_partition_the_log(self, live_log):
        batches = list(live_log.micro_batches(batch_events=97))
        assert sum(len(b) for b in batches) == len(live_log)
        assert all(len(b) <= 97 for b in batches)
        assert all(len(b) == 97 for b in batches[:-1])
        flat = [e for b in batches for e in b]
        assert flat == list(live_log)

    def test_time_batches_partition_and_bound_spans(self, live_log):
        span = 2 * 3600.0
        batches = list(live_log.micro_batches(batch_seconds=span))
        assert [e for b in batches for e in b] == list(live_log)
        assert all(b for b in batches)
        # the log is time-ordered, so every batch covers < one span
        for b in batches:
            assert b[-1].time - b[0].time < span

    def test_batching_requires_exactly_one_mode(self, live_log):
        with pytest.raises(ValueError):
            list(live_log.micro_batches())
        with pytest.raises(ValueError):
            list(live_log.micro_batches(batch_seconds=10.0, batch_events=5))
        with pytest.raises(ValueError):
            list(live_log.micro_batches(batch_events=0))
        with pytest.raises(ValueError):
            list(live_log.micro_batches(batch_seconds=0.0))


# -- incremental index freeze -----------------------------------------------------


def _bulk_source(jobs=(), files=(), transfers=()) -> OpenSearchLike:
    source = OpenSearchLike()
    source.jobs.ingest(jobs)
    source.files.ingest(files)
    source.transfers.ingest(transfers)
    source.store.freeze()
    source.warm_interner()
    return source


class TestIncrementalFreeze:
    def test_appends_do_not_trigger_full_rebuilds(self):
        transfers = [make_transfer(row_id=i, start=float(i)) for i in range(20)]
        source = _bulk_source(transfers=transfers[:10])
        # Force the sorted columns to exist, then count rebuilds.
        source.transfers.search(Range("starttime", gte=0.0, lt=100.0))
        before = FieldIndex.full_builds
        for i in range(10, 20):
            source.transfers.append([transfers[i]])
            source.transfers.search(Range("starttime", gte=0.0, lt=100.0))
        assert FieldIndex.full_builds == before

    def test_incremental_range_parity_with_bulk(self):
        rng = random.Random(5)
        starts = [rng.uniform(0.0, 1000.0) for _ in range(200)]
        # duplicates exercise the equal-value doc-id ordering
        starts[50:60] = [starts[0]] * 10
        transfers = [make_transfer(row_id=i, start=s) for i, s in enumerate(starts)]

        bulk = _bulk_source(transfers=transfers)
        inc = _bulk_source(transfers=transfers[:37])
        for i in range(37, 200, 13):
            inc.transfers.append(transfers[i : i + 13])

        for lo, hi in [(0.0, 1000.0), (100.0, 400.0), (starts[0], starts[0] + 1e-9)]:
            q = Range("starttime", gte=lo, lt=hi)
            assert inc.transfers.search(q) == bulk.transfers.search(q)

    def test_non_numeric_flip_still_correct(self):
        idx = FieldIndex("x")
        idx.add(0, 1.5)
        idx.freeze()
        idx.add(1, "oops")  # column flips non-numeric after a freeze
        idx.freeze()
        assert idx.term("oops") == {1}
        with pytest.raises(TypeError):
            idx.range_ids(gte=0.0)

    def test_append_bumps_generation(self):
        source = _bulk_source(transfers=[make_transfer(row_id=1)])
        gen = source.generation
        source.transfers.append([make_transfer(row_id=2)])
        assert source.generation > gen


class TestIngestBatch:
    def _chunks(self, seq, n):
        return [seq[i : i + n] for i in range(0, len(seq), n)]

    def test_matches_bulk_ingest(self, live_harness):
        tele = live_harness.telemetry()
        bulk = OpenSearchLike.from_telemetry(tele)
        inc = OpenSearchLike()
        for jobs, files, transfers in zip(
            self._chunks(tele.jobs, 7) + [[]] * 99,
            self._chunks(tele.files, 19) + [[]] * 99,
            self._chunks(tele.transfers, 23) + [[]] * 99,
        ):
            inc.ingest_batch(jobs=jobs, files=files, transfers=transfers)

        t0, t1 = live_harness.window
        assert inc.user_jobs_completed_in(t0, t1) == bulk.user_jobs_completed_in(t0, t1)
        assert inc.transfers_started_in(t0, t1) == bulk.transfers_started_in(t0, t1)
        assert inc.files_of_jobs(
            [j.pandaid for j in bulk.user_jobs_completed_in(t0, t1)]
        ) == bulk.files_of_jobs([j.pandaid for j in bulk.user_jobs_completed_in(t0, t1)])

    def test_extends_packs_in_place(self):
        source = _bulk_source(transfers=[make_transfer(row_id=1, start=1.0)])
        packs = source.column_packs()
        source.ingest_batch(transfers=[make_transfer(row_id=2, start=2.0)])
        extended = source.column_packs()
        assert len(extended.transfers.starttime) == 2
        # extension happened inside ingest_batch, no lazy rebuild needed
        assert extended is not packs
        np.testing.assert_array_equal(extended.transfers.row_id, [1, 2])

    def test_pack_extension_matches_full_lower(self, live_harness):
        tele = live_harness.telemetry()
        bulk = OpenSearchLike.from_telemetry(tele)
        inc = OpenSearchLike()
        inc.ingest_batch(
            jobs=tele.jobs[:5], files=tele.files[:9], transfers=tele.transfers[:11]
        )
        inc.column_packs()  # lower now, then extend via later batches
        inc.ingest_batch(
            jobs=tele.jobs[5:], files=tele.files[9:], transfers=tele.transfers[11:]
        )
        a, b = inc.column_packs(), bulk.column_packs()
        np.testing.assert_array_equal(a.jobs.pandaid, b.jobs.pandaid)
        np.testing.assert_array_equal(a.transfers.starttime, b.transfers.starttime)
        # string codes are interner-local; compare the decoded values
        assert [inc.interner.decode(c) for c in a.files.lfn] == [
            bulk.interner.decode(c) for c in b.files.lfn
        ]
        assert [inc.interner.decode(c) for c in a.transfers.lfn] == [
            bulk.interner.decode(c) for c in b.transfers.lfn
        ]

    def test_invalidates_artifact_cache(self):
        job = make_job(end=2000.0)
        source = _bulk_source(
            jobs=[job], files=[make_file()], transfers=[make_transfer()]
        )
        cache = ArtifactCache(source)
        plan = WindowPlan(0.0, 10_000.0)
        stale = cache.get(plan)
        source.ingest_batch(jobs=[make_job(pandaid=2, jeditaskid=200, end=2100.0)])
        fresh = cache.get(plan)
        assert fresh is not stale
        assert len(fresh.jobs) == 2
        assert cache.misses == 2


# -- collector window query -------------------------------------------------------


class TestTransfersInWindow:
    def test_parity_with_linear_scan(self, live_harness):
        collector = live_harness.collector
        events = collector.transfer_events
        t0, t1 = live_harness.window
        for lo, hi in [(t0, t1), (t0 + 3600.0, t0 + 7200.0), (t1, t1 + 10.0)]:
            expected = [e for e in events if lo <= e.starttime < hi]
            assert collector.transfers_in_window(lo, hi) == expected

    def test_append_invalidates_sorted_order(self):
        from repro.telemetry.collector import TelemetryCollector

        class _Ev:
            def __init__(self, s):
                self.starttime = s

        collector = TelemetryCollector(catalog=None)
        for s in (5.0, 1.0, 3.0):
            collector.on_transfer(_Ev(s))
        assert [e.starttime for e in collector.transfers_in_window(0.0, 10.0)] == [
            5.0, 1.0, 3.0,
        ]
        collector.on_transfer(_Ev(2.0))
        assert [e.starttime for e in collector.transfers_in_window(0.0, 4.0)] == [
            1.0, 3.0, 2.0,
        ]


# -- streaming vs batch parity ----------------------------------------------------


class TestStreamingParity:
    def test_in_order_replay_is_bit_identical(self, live_harness, live_log, live_batch):
        proc = _stream(
            live_harness, None, live_log.micro_batches(batch_seconds=2 * 3600.0)
        )
        stream = proc.report()
        assert set(stream.results) == {"exact", "rm1", "rm2"}
        for m in stream.results:
            assert stream[m].matched_pairs() == live_batch[m].matched_pairs()
            assert stream[m] == live_batch[m]
        assert stream == live_batch
        assert any(stream[m].matches for m in stream.results)

    def test_single_batch_replay(self, live_harness, live_log, live_batch):
        proc = _stream(live_harness, None, [list(live_log)])
        assert proc.report() == live_batch

    def test_full_study_stream_matches_batch(self, small_study, small_report):
        proc = small_study.stream(batch_seconds=6 * 3600.0)
        assert proc.report() == small_report

    def test_jobs_finalized_exactly_once(self, live_harness, live_log):
        t0, t1 = live_harness.window
        proc = StreamProcessor(t0, t1, known_sites=live_harness.known_site_names())
        deltas = [proc.process(b) for b in live_log.micro_batches(batch_events=150)]
        deltas.append(proc.finish())
        final = proc.results()
        for method in final:
            finalized = [f for d in deltas for f in d.matches[method]]
            seqs = [f.seq for f in finalized]
            assert len(seqs) == len(set(seqs))  # no double finalization
            # union of deltas, replayed in seq order == accumulated state
            assert [
                f.match for f in sorted(finalized, key=lambda f: f.seq)
            ] == final[method].matches
        # watermark is monotone over deltas
        marks = [d.watermark for d in deltas]
        assert marks == sorted(marks)

    def test_metrics_account_every_event(self, live_harness, live_log):
        proc = _stream(live_harness, None, live_log.micro_batches(batch_events=200))
        m = proc.metrics()
        assert m.n_events == len(live_log)
        assert m.n_job_events + m.n_transfer_events == m.n_events
        assert m.n_pending_jobs == 0  # finish() flushed everything
        assert m.watermark == float("inf")
        assert m.n_late_events == 0  # in-order replay is never late
        assert m.total_matched == {
            name: len(r.matches) for name, r in proc.results().items()
        }
        assert m.events_per_sec > 0

    def test_process_after_finish_raises(self, live_harness):
        proc = _stream(live_harness, None, [])
        with pytest.raises(RuntimeError):
            proc.process([])
        with pytest.raises(RuntimeError):
            proc.finish()

    def test_rejects_non_columnar_matcher(self):
        class Weird(BaseMatcher):
            name = "weird"

            def time_ok(self, job, transfer):  # pragma: no cover
                return True

        with pytest.raises(TypeError):
            IncrementalMatcher(0.0, 1.0, matchers=[Weird()])

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        batch_events=st.integers(min_value=1, max_value=400),
        extra_lateness=st.floats(min_value=0.0, max_value=7200.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_shuffled_replay_is_bit_identical(
        self, live_harness, live_log, live_batch, seed, batch_events, extra_lateness
    ):
        """THE property: any delivery order, any micro-batch size, any
        lateness at least the order's disorder bound → the accumulated
        state equals the batch report, dataclass-``==`` identical."""
        events = list(live_log)
        random.Random(seed).shuffle(events)
        lateness = _disorder_bound(events) + extra_lateness
        proc = _stream(
            live_harness,
            None,
            (events[i : i + batch_events] for i in range(0, len(events), batch_events)),
            lateness=lateness,
        )
        stream = proc.report()
        for m in stream.results:
            assert stream[m].matched_pairs() == live_batch[m].matched_pairs()
        assert stream == live_batch

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_insufficient_lateness_is_observable(
        self, live_harness, live_log, live_batch, seed
    ):
        """With zero lateness under shuffle, divergence is allowed — but
        the violation must show up in the late-event counter, and the
        stream's matches must be a subset of the batch's (closing early
        can only miss transfers, never invent them)."""
        events = list(live_log)
        random.Random(seed).shuffle(events)
        if _disorder_bound(events) == 0.0:  # pathological: still in order
            return
        proc = _stream(
            live_harness,
            None,
            (events[i : i + 100] for i in range(0, len(events), 100)),
            lateness=0.0,
        )
        assert proc.metrics().n_late_events > 0
        stream = proc.report()
        for m in stream.results:
            assert set(stream[m].matched_pairs()) <= set(live_batch[m].matched_pairs())


# -- folds ------------------------------------------------------------------------


class TestFolds:
    @pytest.fixture(scope="class")
    def streamed(self, live_harness, live_log):
        return _stream(
            live_harness, None, live_log.micro_batches(batch_seconds=3 * 3600.0)
        )

    def test_summary_fold_matches_batch_headline(self, streamed, live_batch):
        assert streamed.headline() == row_headline(live_batch, "exact")
        assert streamed.headline() == headline_stats(live_batch, "exact")

    def test_threshold_fold_matches_batch_sweep(self, streamed, live_batch):
        expected = threshold_sweep(row_timings(live_batch["exact"]))
        assert streamed.folds["thresholds"].snapshot() == expected
        assert threshold_sweep_result(live_batch["exact"]) == expected

    def test_queuing_fold_matches_batch_tallies(self, streamed, live_batch):
        fold = streamed.folds["queuing"]
        assert fold.jobs_by_class() == live_batch["exact"].jobs_by_class()
        assert fold.local_remote_split() == live_batch["exact"].local_remote_split()

    def test_headline_requires_summary_fold(self, live_harness):
        from repro.stream import FoldSet

        t0, t1 = live_harness.window
        proc = StreamProcessor(t0, t1, folds=FoldSet({}))
        with pytest.raises(KeyError):
            proc.headline()


# -- the live tap -----------------------------------------------------------------


class TestStreamingCollector:
    def test_live_log_streams_to_batch_parity(self, live_harness, live_log, live_batch):
        """The live-collected log, streamed, equals the batch pipeline
        over the same records — and actually matches something."""
        proc = _stream(
            live_harness, None, live_log.micro_batches(batch_events=250)
        )
        assert proc.report() == live_batch
        assert any(len(r.matches) > 0 for r in proc.results().values())

    def test_collector_is_a_droppin_telemetry_collector(self, live_harness):
        collector = live_harness.collector
        assert isinstance(collector, StreamingCollector)
        # the base-class sinks still accumulated ground truth
        assert collector.n_jobs > 0
        assert collector.n_transfers > 0
        # one job event per completed job, one transfer event per
        # (lossless) transfer record
        job_events = [e for e in collector.log if e.kind is EventKind.JOB]
        assert len(job_events) == collector.n_jobs
        transfer_events = [
            e for e in collector.log if e.kind is EventKind.TRANSFER
        ]
        assert len(transfer_events) == collector.n_transfers

    def test_live_events_are_sequenced_in_arrival_order(self, live_log):
        for kind in EventKind:
            seqs = [e.seq for e in live_log if e.kind is kind]
            assert seqs == list(range(len(seqs)))
