"""``paper_scale``: the synthesized 360k-job rung through the method ladder.

Set-up synthesizes the rung's telemetry (``workload.scale.synthesize``);
each repetition then materializes the window from a fresh artifact
cache, builds the join, runs Exact/RM1/RM2/RM3 serially, turns every
result into matched pairs and runs the §5 summaries.  No simulator
runs, so this workload carries result materialization at scale and
bypasses the simulator and telemetry ingest.
"""

from __future__ import annotations

import gc
import time

from repro.core.analysis.summary import (
    headline_stats,
    method_comparison_jobs,
    method_comparison_transfers,
)
from repro.core.matching.base import MatchingReport
from repro.exec.artifacts import ArtifactCache, match_artifacts
from repro.exec.executor import make_matchers
from repro.exec.plan import WindowPlan
from repro.workload.scale import ScaleConfig, synthesize

from perfbench.campaign import METHODS, ladder_nests, match_counters, zero_threshold_pairs
from perfbench.common import Outcome, RunContext, current_rss_mb, median, peak_rss_mb

N_JOBS = {"full": 360_000, "tiny": 3_600}
NOMINAL_REP_S = {"full": 9.0, "tiny": 0.2}
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
LAYERS = (
    "workload.synth_s",
    "metastore.window_s", "metastore.window_jobs", "metastore.window_transfers",
    "columnar.join_s", "columnar.pairs_s", "columnar.rss_mb", "analysis.run_s",
    "trace.overhead_s",
    *(f"columnar.{m}_{k}" for m in METHODS for k in ("s", "jobs")),
)


def pipeline(ds, rec) -> tuple:
    """The timed part: window → join → four matchers → pairs → summaries."""
    matchers = make_matchers(METHODS, ds.known_sites)
    rss_before = current_rss_mb()
    with rec.span("metastore.window_s"):
        artifacts = ArtifactCache(ds.source).get(WindowPlan(*ds.window))
    with rec.span("columnar.join_s"):
        artifacts.columnar
    results = {}
    for m in matchers:
        with rec.span(f"columnar.{m.name}_s"):
            results[m.name] = match_artifacts(m, artifacts)
    rss_growth = current_rss_mb() - rss_before
    with rec.span("columnar.pairs_s"):
        pairs = {name: r.matched_pairs() for name, r in results.items()}
    report = MatchingReport(
        window=artifacts.window,
        n_jobs=len(artifacts.jobs),
        n_transfers=len(artifacts.transfers),
        n_transfers_with_taskid=artifacts.n_transfers_with_taskid,
        results=results,
    )
    with rec.span("analysis.run_s"):
        summaries = (
            headline_stats(report, method="exact"),
            method_comparison_transfers(report),
            method_comparison_jobs(report),
        )
    return artifacts, report, pairs, summaries, rss_growth


def expected_counts_hold(report, expected: dict) -> list:
    """Per-method matched jobs against the synthesizer's exact ground truth."""
    return [
        f"{m} matched {report[m].n_matched_jobs} jobs, expected {n}"
        for m, n in expected.items()
        if report[m].n_matched_jobs != n
    ]


def run(ctx: RunContext) -> Outcome:
    out = Outcome()
    config = ScaleConfig(n_jobs=N_JOBS[ctx.size], seed=ctx.seed)
    setups = []
    for _ in range(SETUPS):
        ds = None  # one rung in memory at a time
        gc.collect()
        t = time.perf_counter()
        ds = synthesize(config)
        setups.append(time.perf_counter() - t)

    # Untimed warm-up on a small rung: every lazy path runs once.
    pipeline(synthesize(ScaleConfig(n_jobs=N_JOBS["tiny"], seed=ctx.seed)), ctx.recorder)
    n = max(2, round(ctx.seconds / NOMINAL_REP_S[ctx.size]))
    traced_ids, growth = [], []
    rm3_zero = None
    traced_walls, untraced_walls = [], []
    for run_id, (_, traced) in enumerate(ctx.reps(n)):
        gc.collect()
        with ctx.traced(traced, run_id):
            start = time.perf_counter()
            with ctx.recorder.span("paper_scale.rep"):
                artifacts, report, pairs, summaries, rss_growth = pipeline(ds, ctx.recorder)
            wall = time.perf_counter() - start
        (traced_walls if traced else untraced_walls).append(wall)
        if traced:
            traced_ids.append(run_id)
            growth.append(rss_growth)

        if rm3_zero is None:  # one input per run: its bound is computed once
            rm3_zero = zero_threshold_pairs(ds.known_sites, artifacts)
        bad = expected_counts_hold(report, ds.expected_matches) + ladder_nests(pairs, rm3_zero)
        out.check(not bad, f"paper_scale seed {ctx.seed}: " + "; ".join(bad))
        counters = {
            "workload.jobs": ds.n_jobs,
            "workload.transfers": ds.n_transfers,
            "metastore.window_jobs": len(artifacts.jobs),
            "metastore.window_transfers": len(artifacts.transfers),
        }
        counters.update(match_counters(report, pairs))
        ctx.ledger.record(ctx.seed, counters)
        del artifacts, report, pairs, summaries

    out.end_to_end = {
        "setup_s": median(setups),
        "wall_s": median(untraced_walls),
        "peak_rss_mb": peak_rss_mb(),
    }
    if ctx.trace:
        layers = ctx.layer_medians(traced_ids)
        layers["workload.synth_s"] = median(setups)
        layers["columnar.rss_mb"] = median(growth)
        layers["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
        out.layers = layers
    return out
