"""Tests for the columnar engine (``repro.columnar``).

The contract under test is *bit-identical parity*: for any window —
including degraded ones with missing sites, zero ``jeditaskid``, and
duplicate LFNs or row ids — the vectorized kernels must return exactly
the row engine's ``matched_pairs()``, for every stock matcher, whether
executed serially or across processes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnarIndex, StringInterner, supports_columnar
from repro.columnar.packs import WindowColumns
from repro.core.matching.base import BaseMatcher, CandidateIndex
from repro.core.matching.exact import ExactMatcher
from repro.core.matching.rm1 import RM1Matcher
from repro.core.matching.rm2 import RM2Matcher
from repro.core.matching.subset import SubsetMatcher
from repro.exec import ParallelExecutor, SerialExecutor, WindowPlan, default_matchers
from repro.metastore.opensearch import OpenSearchLike
from repro.telemetry.records import UNKNOWN_SITE

from tests.helpers import (
    make_file,
    make_job,
    make_transfer,
    matching_triple,
    row_artifacts,
    row_report,
)


KNOWN = {"SITE-A", "SITE-B"}


def all_matchers():
    return [
        ExactMatcher(KNOWN),
        RM1Matcher(KNOWN),
        RM2Matcher(KNOWN),
        RM2Matcher(set()),
        SubsetMatcher(KNOWN),
    ]


# -- interner ---------------------------------------------------------------------


class TestStringInterner:
    def test_codes_are_dense_and_stable(self):
        it = StringInterner()
        assert it.intern("a") == 0
        assert it.intern("b") == 1
        assert it.intern("a") == 0
        assert len(it) == 2
        assert it.decode(1) == "b"

    def test_encode_interns_unseen(self):
        it = StringInterner()
        codes = it.encode(["x", "y", "x"])
        assert codes.tolist() == [0, 1, 0]
        assert it.code_of("y") == 1
        assert it.code_of("never") == -1

    def test_container_protocol(self):
        it = StringInterner()
        it.intern("s")
        assert "s" in it and "t" not in it
        assert list(it) == ["s"]


# -- packs ------------------------------------------------------------------------


class TestPacks:
    def test_none_endtime_lowers_to_nan(self):
        cols = WindowColumns.lower([make_job(end=None)], [], [])
        assert np.isnan(cols.jobs.endtime[0])

    def test_take_gathers_rows(self):
        job, files, transfers = matching_triple()
        cols = WindowColumns.lower([job], files, transfers)
        rows = np.array([2, 0], dtype=np.int64)
        cut = cols.transfers.take(rows)
        assert cut.row_id.tolist() == [transfers[2].row_id, transfers[0].row_id]

    def test_take_full_selection_is_identity(self):
        job, files, transfers = matching_triple()
        cols = WindowColumns.lower([job], files, transfers)
        all_rows = np.arange(len(transfers), dtype=np.int64)
        assert cols.transfers.take(all_rows) is cols.transfers


# -- engine selection -------------------------------------------------------------


class TestEngineSelection:
    def test_stock_matchers_supported(self):
        for m in all_matchers():
            assert supports_columnar(m)

    def test_custom_site_ok_not_supported(self):
        class Weird(BaseMatcher):
            name = "weird"

            def site_ok(self, transfer, job):
                return True

        assert not supports_columnar(Weird())

    def test_run_rejects_unsupported_matcher(self):
        class Weird(BaseMatcher):
            name = "weird"

            def time_ok(self, transfer, job):
                return True

        job, files, transfers = matching_triple()
        index = ColumnarIndex([job], files, transfers)
        with pytest.raises(TypeError):
            index.run(Weird(), n_transfers_considered=0)


# -- parity -----------------------------------------------------------------------


def assert_engines_agree(jobs, files, transfers):
    """Row and columnar runs must be indistinguishable, per matcher."""
    row_index = CandidateIndex(files, transfers)
    col_index = ColumnarIndex(jobs, files, transfers)
    for matcher in all_matchers():
        row = matcher.run(jobs, row_index, n_transfers_considered=7)
        col = col_index.run(matcher, n_transfers_considered=7)
        assert col.matched_pairs() == row.matched_pairs()
        assert col.n_matched_jobs == row.n_matched_jobs
        assert col.n_matched_transfers == row.n_matched_transfers
        assert col.n_jobs_considered == row.n_jobs_considered
        assert col.n_transfers_considered == row.n_transfers_considered
        # full structure, including per-job transfer ordering
        assert [
            (m.job.pandaid, [t.row_id for t in m.transfers]) for m in col.matches
        ] == [
            (m.job.pandaid, [t.row_id for t in m.transfers]) for m in row.matches
        ]


SITES = st.sampled_from(["SITE-A", "SITE-B", "", UNKNOWN_SITE])
LFNS = st.sampled_from(["f0", "f1", "f2", "f3"])
TASKIDS = st.sampled_from([0, 100, 200])
SIZES = st.sampled_from([500, 1000])
DATASETS = st.sampled_from(["ds", "ds2"])


@st.composite
def degraded_windows(draw):
    """Small windows exercising the nasty cases: jobs with no endtime,
    zero/foreign task ids, blank and UNKNOWN sites, duplicate LFNs and
    duplicate transfer row ids."""
    jobs, files, transfers = [], [], []
    for i in range(draw(st.integers(1, 4))):
        tid = draw(TASKIDS)
        jobs.append(make_job(
            pandaid=i + 1,
            jeditaskid=tid,
            site=draw(SITES),
            end=draw(st.one_of(st.none(), st.floats(0.0, 5000.0, allow_nan=False))),
            nin=draw(st.sampled_from([0, 1000, 1500, 2000])),
            nout=draw(st.sampled_from([0, 1000])),
        ))
        for _ in range(draw(st.integers(0, 3))):
            files.append(make_file(
                pandaid=i + 1,
                jeditaskid=tid,
                lfn=draw(LFNS),
                dataset=draw(DATASETS),
                size=draw(SIZES),
            ))
    for _ in range(draw(st.integers(0, 10))):
        transfers.append(make_transfer(
            row_id=draw(st.integers(1, 8)),  # duplicates allowed
            lfn=draw(LFNS),
            dataset=draw(DATASETS),
            size=draw(SIZES),
            jeditaskid=draw(TASKIDS),
            src=draw(SITES),
            dst=draw(SITES),
            download=draw(st.booleans()),
            upload=draw(st.booleans()),
            start=draw(st.floats(0.0, 5000.0, allow_nan=False)),
        ))
    return jobs, files, transfers


class TestParity:
    def test_clean_triple(self):
        job, files, transfers = matching_triple()
        assert_engines_agree([job], files, transfers)

    def test_empty_window(self):
        assert_engines_agree([], [], [])

    def test_jobs_without_candidates(self):
        assert_engines_agree([make_job()], [], [make_transfer(jeditaskid=0)])

    @given(degraded_windows())
    @settings(max_examples=60, deadline=None)
    def test_degraded_windows(self, window):
        jobs, files, transfers = window
        assert_engines_agree(jobs, files, transfers)

    @given(degraded_windows())
    @settings(max_examples=40, deadline=None)
    def test_shared_interner_does_not_change_results(self, window):
        """Pre-warmed codes (ingest-time interning) are cosmetic."""
        jobs, files, transfers = window
        warm = StringInterner()
        for name in ("zzz", "SITE-B", UNKNOWN_SITE, "f2", ""):
            warm.intern(name)
        cold = ColumnarIndex(jobs, files, transfers)
        shared = ColumnarIndex(jobs, files, transfers, interner=warm)
        for matcher in all_matchers():
            assert (
                cold.run(matcher, n_transfers_considered=0).matched_pairs()
                == shared.run(matcher, n_transfers_considered=0).matched_pairs()
            )


def _ingest(jobs, files, transfers) -> OpenSearchLike:
    source = OpenSearchLike()
    source.jobs.ingest(jobs)
    source.files.ingest(files)
    source.transfers.ingest(transfers)
    source.store.freeze()
    source.warm_interner()
    return source


class TestMaterializeWindowFastPath:
    def test_matches_individual_queries(self):
        job, files, transfers = matching_triple()
        source = _ingest([job], files, transfers)
        t0, t1 = 0.0, 10_000.0
        jobs_f, files_f, transfers_f, cols = source.materialize_window(t0, t1)
        assert jobs_f == source.user_jobs_completed_in(t0, t1)
        assert transfers_f == source.transfers_started_in(t0, t1)
        assert files_f == source.files_of_jobs([j.pandaid for j in jobs_f])
        assert cols.transfers.row_id.tolist() == [t.row_id for t in transfers_f]

    def test_partial_window_gathers_subset(self):
        job, files, transfers = matching_triple()
        source = _ingest([job], files, transfers)
        _, _, transfers_f, cols = source.materialize_window(0.0, 101.5)
        assert len(transfers_f) == 2
        assert cols.transfers.row_id.tolist() == [t.row_id for t in transfers_f]

    def test_packs_rebuilt_after_ingest(self):
        job, files, transfers = matching_triple()
        source = _ingest([job], files, transfers)
        first = source.column_packs()
        assert source.column_packs() is first
        source.transfers.ingest([make_transfer(row_id=99, start=50.0)])
        second = source.column_packs()
        assert second is not first
        assert len(second.transfers) == len(first.transfers) + 1

    @given(degraded_windows())
    @settings(max_examples=40, deadline=None)
    def test_fast_path_parity_with_per_window_lowering(self, window):
        jobs, files, transfers = window
        source = _ingest(jobs, files, transfers)
        plan = WindowPlan(0.0, 10_000.0)
        serial = SerialExecutor().execute(source, [plan], known_sites=KNOWN)[0]
        row = row_report(row_artifacts(source, plan), default_matchers(KNOWN))
        assert serial.methods == row.methods
        for m in serial.methods:
            assert serial[m].matched_pairs() == row[m].matched_pairs()


class TestExecutorParity:
    """Both executors against the row oracle, one seeded degraded source."""

    @given(degraded_windows())
    @settings(max_examples=5, deadline=None)
    def test_parallel_matches_serial_both_engines(self, window):
        jobs, files, transfers = window
        source = _ingest(jobs, files, transfers)
        plans = [WindowPlan(0.0, 2500.0), WindowPlan(0.0, 10_000.0)]

        def pairs(reports):
            return [{m: rep[m].matched_pairs() for m in rep.methods} for rep in reports]

        oracle = pairs(
            row_report(row_artifacts(source, plan), default_matchers(KNOWN))
            for plan in plans
        )
        serial = SerialExecutor().execute(source, plans, known_sites=KNOWN)
        with ParallelExecutor(workers=2) as ex:
            parallel = ex.execute(source, plans, known_sites=KNOWN)
        assert pairs(serial) == oracle
        assert pairs(parallel) == oracle
