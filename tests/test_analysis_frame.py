"""Parity tests for the analysis dataplane.

The contract mirrors the matching-engine one: for any window —
including degraded ones — every vectorized analysis over the
:class:`~repro.columnar.frame.MatchFrame` must return **bit-identical**
output to the reference per-record loops (the row oracle, called
directly), for every matching method, on results produced by the
columnar kernels and by the row engine.  Floats are compared with
``==``, never with tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.analysis.matrix import build_transfer_matrix
from repro.core.analysis.queuing import (
    correlation_size_vs_time,
    geomean_transfer_pct,
    mean_transfer_pct,
    timing_table,
    timings_for_result,
    top_jobs_breakdown,
)
from repro.core.analysis.sites import build_dashboards
from repro.core.analysis.summary import (
    activity_breakdown,
    headline_stats,
    method_comparison_jobs,
    method_comparison_transfers,
)
from repro.core.analysis.temporal import submission_profile, transfer_volume_profile
from repro.core.analysis.thresholds import (
    StatusCombo,
    threshold_sweep,
    threshold_sweep_result,
)
from repro.exec import (
    ArtifactCache,
    ParallelExecutor,
    SerialExecutor,
    WindowPlan,
    default_matchers,
    run_analyses,
)
from repro.telemetry.records import UNKNOWN_SITE

from tests.helpers import (
    row_analyses,
    row_artifacts,
    row_headline,
    row_method_tables,
    row_report,
    row_timings,
)
from tests.test_columnar import KNOWN, _ingest, degraded_windows

PLAN = WindowPlan(0.0, 10_000.0)


def _reports(source):
    """The production report and the row oracle's, over the same window."""
    col = SerialExecutor().execute(source, [PLAN], known_sites=KNOWN)[0]
    row = row_report(row_artifacts(source, PLAN), default_matchers(KNOWN))
    return {"columnar": col, "row": row}




def _decoded(frame, name):
    return [frame.interner.decode(c) for c in getattr(frame, name).tolist()]


def assert_frames_equal(a, b):
    """Field-by-field equality, decoding interned columns (the two
    builders may hold different interners)."""
    assert a.pandaid.tolist() == b.pandaid.tolist()
    for name in ("status", "taskstatus", "site"):
        assert _decoded(a, name) == _decoded(b, name), name
    for name in ("creation", "start", "end", "t_start", "t_end"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    for name in (
        "n_transfers",
        "n_local",
        "transfer_bytes",
        "class_code",
        "job_offsets",
        "t_row_id",
        "t_size",
        "t_local",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestFrameBuilders:
    @given(degraded_windows())
    @settings(max_examples=30, deadline=None)
    def test_engine_frame_matches_row_lowering(self, window):
        """from_candidates (engine-attached) == from_matches (fallback)."""
        reports = _reports(_ingest(*window))
        for method in reports["columnar"].methods:
            eager = reports["columnar"][method].frame()
            lazy = reports["row"][method].frame()
            assert_frames_equal(eager, lazy)
            assert eager.matched_row_ids().tolist() == lazy.matched_row_ids().tolist()
            assert eager.n_matched_transfers == lazy.n_matched_transfers
            assert eager.local_remote_split() == lazy.local_remote_split()
            assert eager.jobs_by_class() == lazy.jobs_by_class()

    def test_frame_and_timing_table_cached(self, small_report):
        result = small_report["exact"]
        assert result.frame() is result.frame()
        assert timing_table(result) is timing_table(result)

    @given(degraded_windows())
    @settings(max_examples=20, deadline=None)
    def test_frame_summaries_match_result(self, window):
        """Frame-level counts == the MatchResult reference methods."""
        for result in _reports(_ingest(*window))["columnar"].results.values():
            frame = result.frame()
            assert len(frame) == result.n_matched_jobs
            assert frame.n_matched_transfers == result.n_matched_transfers
            assert frame.local_remote_split() == result.local_remote_split()
            assert frame.jobs_by_class() == result.jobs_by_class()


class TestTimingParity:
    @given(degraded_windows())
    @settings(max_examples=30, deadline=None)
    def test_timings_bit_identical(self, window):
        for report in _reports(_ingest(*window)).values():
            for method in report.methods:
                result = report[method]
                row = row_timings(result)
                col = timings_for_result(result)
                assert col == row  # frozen dataclasses: exact floats

    @given(degraded_windows())
    @settings(max_examples=20, deadline=None)
    def test_aggregates_bit_identical(self, window):
        for report in _reports(_ingest(*window)).values():
            result = report["exact"]
            row = row_timings(result)
            table = timing_table(result)
            assert mean_transfer_pct(table) == mean_transfer_pct(row)
            assert geomean_transfer_pct(table) == geomean_transfer_pct(row)
            assert correlation_size_vs_time(table) == correlation_size_vs_time(row)

    @given(degraded_windows())
    @settings(max_examples=20, deadline=None)
    def test_top_jobs_bit_identical(self, window):
        for report in _reports(_ingest(*window)).values():
            for method in report.methods:
                result = report[method]
                row = row_timings(result)
                table = timing_table(result)
                for locality in ("local", "remote"):
                    assert table.top_jobs(locality, top=5) == top_jobs_breakdown(
                        row, locality, top=5
                    )


class TestThresholdParity:
    @given(degraded_windows())
    @settings(max_examples=25, deadline=None)
    def test_sweep_bit_identical(self, window):
        for report in _reports(_ingest(*window)).values():
            for method in report.methods:
                result = report[method]
                row = threshold_sweep(row_timings(result))
                col = threshold_sweep_result(result)
                assert col.thresholds == row.thresholds
                assert col.n_jobs == row.n_jobs
                for combo in StatusCombo:
                    assert col.cumulative[combo] == row.cumulative[combo]


class TestSummaryParity:
    @given(degraded_windows())
    @settings(max_examples=25, deadline=None)
    def test_headline_and_method_tables(self, window):
        for report in _reports(_ingest(*window)).values():
            assert headline_stats(report) == row_headline(report)
            transfers, jobs = row_method_tables(report)
            assert method_comparison_transfers(report) == transfers
            assert method_comparison_jobs(report) == jobs

    @given(degraded_windows())
    @settings(max_examples=25, deadline=None)
    def test_activity_breakdown_with_columns(self, window):
        source = _ingest(*window)
        artifacts = ArtifactCache(source).get(PLAN)
        reports = _reports(source)
        for report in reports.values():
            result = report["exact"]
            assert activity_breakdown(
                result, artifacts.transfers, columns=artifacts.columns
            ) == activity_breakdown(result, artifacts.transfers)


class TestWindowAnalysesParity:
    """Analyses over the window's packs (no match frame involved)."""

    @given(degraded_windows())
    @settings(max_examples=25, deadline=None)
    def test_site_dashboards(self, window):
        jobs, files, transfers = window
        artifacts = ArtifactCache(_ingest(*window)).get(PLAN)
        fast = build_dashboards(artifacts.jobs, artifacts.transfers, columns=artifacts.columns)
        ref = build_dashboards(artifacts.jobs, artifacts.transfers)
        assert list(fast) == list(ref)  # incl. insertion order
        for site in ref:
            f, r = fast[site], ref[site]
            assert (f.site, f.n_jobs, f.n_failed) == (r.site, r.n_jobs, r.n_failed)
            assert f.queue_times == r.queue_times
            assert (f.bytes_in, f.bytes_out, f.bytes_local) == (
                r.bytes_in, r.bytes_out, r.bytes_local)
            assert f.error_mix == r.error_mix

    @given(degraded_windows())
    @settings(max_examples=25, deadline=None)
    def test_matrix_and_temporal(self, window):
        artifacts = ArtifactCache(_ingest(*window)).get(PLAN)
        names = sorted({*KNOWN, UNKNOWN_SITE})
        fast = build_transfer_matrix(artifacts.transfers, names, columns=artifacts.columns)
        ref = build_transfer_matrix(artifacts.transfers, names)
        assert np.array_equal(fast.volume, ref.volume)
        for fn, records in (
            (transfer_volume_profile, artifacts.transfers),
            (submission_profile, artifacts.jobs),
        ):
            fast_p = fn(records, PLAN.t0, PLAN.t1, columns=artifacts.columns)
            ref_p = fn(records, PLAN.t0, PLAN.t1)
            assert np.array_equal(fast_p.volume, ref_p.volume)


class TestRunAnalyses:
    """The fan-out entry point: same numbers serial, parallel, row oracle."""

    def _assert_batches_equal(self, a, b):
        assert list(a) == list(b)
        for key in a:
            if key == "thresholds":
                assert a[key].cumulative == b[key].cumulative
                assert a[key].n_jobs == b[key].n_jobs
            elif key in ("volume", "submissions"):
                assert np.array_equal(a[key].volume, b[key].volume)
            elif key == "sites":
                assert list(a[key]) == list(b[key])
                for site in a[key]:
                    assert a[key][site].n_jobs == b[key][site].n_jobs
                    assert a[key][site].queue_times == b[key][site].queue_times
            else:
                assert a[key] == b[key], key

    def test_serial_equals_row_frame(self, small_study):
        t0, t1 = small_study.harness.window
        plan = WindowPlan(t0, t1)
        known = small_study.harness.known_site_names()
        col = run_analyses(small_study.source, plan, known_sites=known)
        artifacts = row_artifacts(small_study.source, plan)
        row = row_analyses(row_report(artifacts, default_matchers(known)), artifacts)
        self._assert_batches_equal(col, row)

    def test_parallel_equals_serial_on_one_pool(self, small_study):
        t0, t1 = small_study.harness.window
        plan = WindowPlan(t0, t1)
        known = small_study.harness.known_site_names()
        serial = run_analyses(small_study.source, plan, known_sites=known)
        with ParallelExecutor(workers=2) as ex:
            # interleave: a sweep, the analysis batch, and a bare map
            ex.execute(small_study.source, [plan], known_sites=known)
            parallel = run_analyses(
                small_study.source, plan, known_sites=known, executor=ex
            )
            assert ex.map(abs, [-2, 3]) == [2, 3]
            assert ex.pool_inits == 1
        self._assert_batches_equal(serial, parallel)

    def test_unknown_spec_rejected(self, small_study):
        t0, t1 = small_study.harness.window
        with pytest.raises(ValueError):
            run_analyses(
                small_study.source,
                WindowPlan(t0, t1),
                ["no_such_analysis"],
                known_sites=small_study.harness.known_site_names(),
            )

    def test_study_analyses_entry_point(self, small_study):
        batch = small_study.analyses(specs=("headline", "thresholds"))
        assert set(batch) == {"headline", "thresholds"}
        assert batch["headline"].n_matched_jobs > 0
