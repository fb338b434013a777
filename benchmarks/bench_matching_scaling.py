"""Algorithm throughput — the scalability §5.5 calls for.

The paper processes ~1M jobs and ~7M transfers; §5.5 notes that
"the volume of metadata imposes the need for efficient computing for
scalability".  This benchmark measures the matching pipeline's
throughput (candidate-join construction plus all three matchers) so
regressions in the hash-join implementation are caught, and compares
the plan/execute dataplane (cached window artifacts + sweep executor,
``--workers N``) against the pre-refactor per-run-rebuild architecture.
"""

import time

from conftest import write_comparison

from repro.columnar import ColumnarIndex
from repro.core.matching.base import CandidateIndex
from repro.core.matching.exact import ExactMatcher
from repro.core.matching.pipeline import MatchingPipeline
from repro.exec import WindowArtifacts, WindowPlan, default_matchers, growing_plans

from tests.helpers import row_artifacts, row_report


def test_candidate_index_build_throughput(benchmark, eightday):
    telemetry = eightday.telemetry

    index = benchmark(CandidateIndex, telemetry.files, telemetry.transfers)
    assert index is not None


def test_exact_matcher_throughput(benchmark, eightday):
    telemetry = eightday.telemetry
    t0, t1 = eightday.harness.window
    jobs = eightday.source.user_jobs_completed_in(t0, t1)
    index = CandidateIndex(telemetry.files, telemetry.transfers)
    matcher = ExactMatcher(eightday.harness.known_site_names())

    result = benchmark(matcher.run, jobs, index, len(telemetry.transfers))

    assert result.n_jobs_considered == len(jobs)

    # An explicit timed run: pytest-benchmark's stats are unavailable
    # under ``--benchmark-disable`` (how CI runs this file), and the
    # artifact must always carry throughput numbers.
    start = time.perf_counter()
    matcher.run(jobs, index, len(telemetry.transfers))
    wall = time.perf_counter() - start

    write_comparison(
        "matching_scaling",
        paper={"note": "paper reports no timings; §5.5 demands scalability"},
        measured={
            "jobs_considered": result.n_jobs_considered,
            "transfers_in_store": len(eightday.telemetry.transfers),
            "files_in_store": len(eightday.telemetry.files),
            "wall_seconds": round(wall, 4),
            "jobs_per_sec": round(len(jobs) / wall, 1) if wall else 0.0,
        },
        notes="wall_seconds/jobs_per_sec are a single in-process Exact "
              "run; the pytest-benchmark table has the distribution.",
    )


def test_full_pipeline_throughput(benchmark, eightday):
    pipeline = MatchingPipeline(
        eightday.source, known_sites=eightday.harness.known_site_names())
    t0, t1 = eightday.harness.window

    report = benchmark(pipeline.run, t0, t1)
    assert report["exact"].n_matched_jobs >= 0


def test_sweep_executor_vs_rebuild(eightday, executor, workers, results_dir):
    """The dataplane's win: a methods × windows sweep, old vs new.

    Old architecture: every (window, method) run re-ran the
    pre-selection and rebuilt the candidate join.  New: each window is
    materialized once into cached artifacts shared by all methods, and
    the sweep fans across ``--workers`` processes.  Results must be
    identical; wall-clock must improve.  The naive side is the row
    oracle (per-query pre-selection + ``CandidateIndex`` join, rebuilt
    per run); the executor side is the production columnar sweep, whose
    ``ColumnarIndex`` builds are counted (see ``test_engine_comparison``
    for the join-for-join row-vs-columnar gate).
    """
    source = eightday.source
    known = eightday.harness.known_site_names()
    t0, t1 = eightday.harness.window
    plans = growing_plans(t0, t1, n_points=6)
    matchers = default_matchers(known)

    builds_before = CandidateIndex.build_count
    start = time.perf_counter()
    naive = []
    for plan in plans:  # the pre-refactor shape: rebuild per (window, method)
        results = {}
        for matcher in matchers:
            artifacts = row_artifacts(source, plan)
            results[matcher.name] = row_report(artifacts, [matcher])[matcher.name]
        naive.append(results)
    t_naive = time.perf_counter() - start
    naive_builds = CandidateIndex.build_count - builds_before

    pipeline = MatchingPipeline(source, known_sites=known)
    builds_before = ColumnarIndex.build_count
    start = time.perf_counter()
    swept = pipeline.sweep(plans, matchers=matchers, executor=executor)
    t_exec = time.perf_counter() - start
    cached_builds = ColumnarIndex.build_count - builds_before

    for old, new in zip(naive, swept):
        for m in matchers:
            assert old[m.name].matched_pairs() == new[m.name].matched_pairs()
    # Parent-side builds: one per window when serial, zero when the
    # sweep ran in worker processes (their counters are per-process).
    assert cached_builds <= len(plans) < naive_builds
    speedup = t_naive / t_exec if t_exec > 0 else float("inf")
    # The architectural win (shared artifacts vs rebuild-per-run) is a
    # hard floor in-process.  With workers > 1 the wall-clock depends on
    # how many cores the host actually has — process spawn + source
    # pickling can swamp this small workload on a 1-core box — so the
    # multi-worker runs assert identical output above and record timing.
    # Floor: the FieldIndex refreeze fix made each materialization much
    # cheaper, which shrank the naive side (3x more materializations)
    # disproportionately; the structural guarantee is the build-count
    # assertion above, the wall-clock floor just catches gross
    # regressions.
    if workers == 1:
        assert speedup >= 1.2, (
            f"sweep executor must beat per-run rebuilds: {speedup:.2f}x "
            f"(naive {t_naive:.2f}s, executor {t_exec:.2f}s)")

    write_comparison(
        "matching_sweep_executor",
        paper={"note": "paper reports no timings; §5.5 demands scalability"},
        measured={
            "windows": len(plans),
            "methods": [m.name for m in matchers],
            "workers": workers,
            "rebuild_seconds": round(t_naive, 3),
            "executor_seconds": round(t_exec, 3),
            "speedup": round(speedup, 2),
            "index_builds_rebuild": naive_builds,
            "index_builds_executor_parent": cached_builds,
        },
        notes="Plan/execute dataplane vs per-(window,method) rebuild; "
              "outputs verified identical.",
    )


def test_engine_comparison(eightday, results_dir):
    """Row oracle vs columnar over the largest seeded window — the CI gate.

    Both sides materialize the full 8-day window from scratch and run
    the Exact/RM1/RM2 ladder — the row oracle over its per-query
    pre-selection and dict join, production through
    ``artifacts.columnar.run``; ``matched_pairs()`` must be identical
    per method, and the columnar kernels must not be slower than the
    row join (locally they are >2x faster; the gate only demands
    parity-or-better so shared CI runners can't flake it).
    """
    source = eightday.source
    known = eightday.harness.known_site_names()
    t0, t1 = eightday.harness.window
    plan = WindowPlan(t0, t1)
    matchers = default_matchers(known)
    source.column_packs()  # ingest-time lowering, amortized across windows

    def oracle():
        return row_report(row_artifacts(source, plan), matchers)

    def columnar():
        artifacts = WindowArtifacts.materialize(source, plan)
        n = artifacts.n_transfers_with_taskid
        return {m.name: artifacts.columnar.run(m, n_transfers_considered=n) for m in matchers}

    def best_of(run, repeats=3):
        best, report = float("inf"), None
        for _ in range(repeats):
            start = time.perf_counter()
            report = run()
            best = min(best, time.perf_counter() - start)
        return best, report

    t_row, row = best_of(oracle)
    t_col, col = best_of(columnar)

    for m in row.methods:
        assert col[m].matched_pairs() == row[m].matched_pairs()

    speedup = t_row / t_col if t_col > 0 else float("inf")
    assert speedup >= 1.0, (
        f"columnar engine regressed below the row engine: {speedup:.2f}x "
        f"(row {t_row * 1e3:.1f} ms, columnar {t_col * 1e3:.1f} ms)")

    write_comparison(
        "matching_engine_comparison",
        paper={"note": "paper reports no timings; §5.5 demands scalability"},
        measured={
            "window_days": round((t1 - t0) / 86400.0, 2),
            "jobs": row.n_jobs,
            "transfers": row.n_transfers,
            "row_ms": round(t_row * 1e3, 2),
            "columnar_ms": round(t_col * 1e3, 2),
            "speedup": round(speedup, 2),
        },
        notes="Full-window Exact/RM1/RM2 ladder, best of 3, "
              "matched_pairs() verified identical per method.",
    )
