"""``campaign``: a 2-simulated-day study, simulate through analyze.

Each repetition builds a fresh :class:`EightDayStudy` for its own input
seed and walks the paper's pipeline one public call at a time:
simulate → degrade → ingest → window → join → Exact/RM1/RM2/RM3 →
matched pairs → the §5 analyses.  The simulator is most of the time, so
this workload carries the simulator and bulk ingest; matching results
are small here.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time

from repro.core.matching.base import MatchingReport
from repro.core.matching.rm3 import RM3Matcher
from repro.exec.analysis import DEFAULT_ANALYSES, analyze_report
from repro.exec.artifacts import ArtifactCache, match_artifacts
from repro.exec.executor import make_matchers
from repro.exec.plan import WindowPlan
from repro.scenarios.eightday import EightDayConfig, EightDayStudy

from perfbench.common import ROOT, Outcome, RunContext, median, peak_rss_mb, rep_seed

METHODS = ("exact", "rm1", "rm2", "rm3")
#: Simulated campaign length (the harness adds one day of drain).
DAYS = {"full": 2.0, "tiny": 0.1}
#: Rough seconds per repetition on a 2-core x86 box; with ``--seconds``
#: it sets the repetition count (at least MIN_REPS).
NOMINAL_REP_S = {"full": 4.5, "tiny": 0.5}
MIN_REPS = 3
#: Cold starts per run; ``setup_s`` is their median.
SETUPS = 3
#: Length of the untimed warm-up campaign that runs every lazy path once.
WARMUP_DAYS = 0.05
#: Per-layer metrics this workload measures (every other one reads 0).
LAYERS = (
    "sim.run_s", "sim.jobs", "sim.transfers", "sim.sim_s_per_wall_s",
    "telemetry.degrade_s", "telemetry.records",
    "metastore.ingest_s", "metastore.rows",
    "metastore.window_s", "metastore.window_jobs", "metastore.window_transfers",
    "columnar.join_s", "columnar.pairs_s", "analysis.run_s", "trace.overhead_s",
    *(f"columnar.{m}_{k}" for m in METHODS for k in ("s", "jobs")),
)


def pipeline(study: EightDayStudy, rec) -> tuple:
    """The timed part: every layer call of one campaign, in order."""
    with rec.span("sim.run_s"):
        study.run()
    with rec.span("telemetry.degrade_s"):
        study.telemetry
    with rec.span("metastore.ingest_s"):
        source = study.source
    matchers = make_matchers(METHODS, study.harness.known_site_names())
    with rec.span("metastore.window_s"):
        artifacts = ArtifactCache(source).get(WindowPlan(*study.harness.window))
    with rec.span("columnar.join_s"):
        artifacts.columnar
    results = {}
    for m in matchers:
        with rec.span(f"columnar.{m.name}_s"):
            results[m.name] = match_artifacts(m, artifacts)
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
        analyses = analyze_report(report, artifacts, DEFAULT_ANALYSES)
    return artifacts, report, pairs, analyses


def ready(seed: int, days: float) -> None:
    """What a fresh process does before its first layer call: build the harness."""
    EightDayStudy(EightDayConfig(seed=seed, days=days))


def cold_start(seed: int, days: float) -> float:
    """Seconds for a fresh interpreter to import the program and build a study.

    This module's imports are the workload's imports, so the child pays
    the same module loading a campaign process pays before its first
    layer call, plus the harness and topology construction.
    """
    code = (f"import sys; sys.path[:0] = {[str(ROOT / 'src'), str(ROOT)]!r}; "
            f"from perfbench.campaign import ready; ready({seed}, {days})")
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - t


def zero_threshold_pairs(known_sites, artifacts) -> list:
    """RM3 at threshold 0: every time-gated directed candidate (the check's bound)."""
    return match_artifacts(RM3Matcher(known_sites, threshold=0.0), artifacts).matched_pairs()


def ladder_nests(pairs: dict, rm3_zero: list) -> list:
    """The violations of Exact ⊆ RM1 ⊆ RM2 ⊆ RM3@0 and RM3 ⊆ RM3@0 on pairs.

    RM3 at its default threshold is not a superset of Exact: raising
    the threshold only removes pairs, and containment is promised at
    threshold 0 (see ``repro.core.matching.rm3``).  So RM3 is checked
    against its zero-threshold run, and its gap to Exact is a counter.
    """
    sets = {m: set(p) for m, p in pairs.items()}
    sets["rm3@0"] = set(rm3_zero)
    bad = []
    for small, big in (("exact", "rm1"), ("rm1", "rm2"), ("rm2", "rm3@0"), ("rm3", "rm3@0")):
        extra = len(sets[small] - sets[big])
        if extra:
            bad.append(f"{extra} {small} pairs missing from {big}")
    return bad


def counters(study: EightDayStudy, artifacts, report, pairs) -> dict:
    tel = study.telemetry
    source = study.source
    out = {
        "sim.jobs": study.harness.collector.n_jobs,
        "sim.transfers": study.harness.collector.n_transfers,
        "telemetry.records": len(tel.jobs) + len(tel.files) + len(tel.transfers),
        "metastore.rows": len(source.jobs) + len(source.files) + len(source.transfers),
        "metastore.window_jobs": len(artifacts.jobs),
        "metastore.window_transfers": len(artifacts.transfers),
    }
    out.update(match_counters(report, pairs))
    return out


def match_counters(report, pairs) -> dict:
    """Matched jobs and pairs per method, and Exact pairs RM3 does not keep."""
    out = {}
    for m in METHODS:
        out[f"columnar.{m}_jobs"] = report[m].n_matched_jobs
        out[f"columnar.{m}_pairs"] = len(pairs[m])
    out["columnar.exact_pairs_not_rm3"] = len(set(pairs["exact"]) - set(pairs["rm3"]))
    return out


def run(ctx: RunContext) -> Outcome:
    out = Outcome()
    days = DAYS[ctx.size]
    n = max(MIN_REPS, round(ctx.seconds / NOMINAL_REP_S[ctx.size]))
    setups = [cold_start(rep_seed(ctx.seed, i), days) for i in range(SETUPS)]
    pipeline(EightDayStudy(EightDayConfig(seed=ctx.seed, days=WARMUP_DAYS)), ctx.recorder)
    traced_walls, untraced_walls, traced_ids = {}, {}, []
    for run_id, (idx, traced) in enumerate(ctx.reps(n)):
        seed = rep_seed(ctx.seed, idx)
        gc.collect()
        study = EightDayStudy(EightDayConfig(seed=seed, days=days))
        with ctx.traced(traced, run_id):
            start = time.perf_counter()
            with ctx.recorder.span("campaign.rep"):
                artifacts, report, pairs, analyses = pipeline(study, ctx.recorder)
            wall = time.perf_counter() - start
        (traced_walls if traced else untraced_walls)[idx] = wall
        if traced:
            traced_ids.append(run_id)

        bad = ladder_nests(pairs, zero_threshold_pairs(study.harness.known_site_names(),
                                                       artifacts))
        if len(analyses) != len(DEFAULT_ANALYSES):
            bad.append(f"{len(analyses)} of {len(DEFAULT_ANALYSES)} analyses returned")
        out.check(not bad, f"campaign seed {seed}: " + "; ".join(bad))
        ctx.ledger.record(seed, counters(study, artifacts, report, pairs))
        del artifacts, report, pairs, analyses

    # The mean, not the median: each repetition is another input seed,
    # and a campaign's cost varies by about ±10% with its seed.
    out.end_to_end = {
        "setup_s": median(setups),
        "wall_s": sum(untraced_walls.values()) / len(untraced_walls),
        "peak_rss_mb": peak_rss_mb(),
    }
    if ctx.trace:
        layers = ctx.layer_medians(traced_ids)
        simulated_s = study.harness.window[1]  # campaign plus drain, same for every rep
        layers["sim.sim_s_per_wall_s"] = simulated_s / layers["sim.run_s"]
        layers["trace.overhead_s"] = median(
            [traced_walls[i] - untraced_walls[i] for i in traced_walls]
        )
        out.layers = layers
    return out
