"""Analysis dataplane — phase timings and the MatchFrame speedup gate.

The §5 workflow decomposes into four phases: *simulate* (discrete-event
campaign), *ingest* (degrade + load into the query layer), *match*
(Algorithm 1 over a growing-window sweep), and *analyze* (the full
batch of Table-1/2 and Fig-5..9 analyses per window).  Simulate and
ingest are shared; match and analyze are timed for the production
dataplane (columnar kernels + ``MatchFrame`` analyses) and for the row
oracle (per-query pre-selection, ``CandidateIndex`` join and the
reference per-record analysis primitives, called directly), which
must produce bit-identical results.

Gates enforced here, beyond recording the timings:

* the columnar match+analyze path is at least 1.5x the row path;
* ``analyze`` alone is not slower columnar than row (the per-frame
  comparison CI smoke-checks on every push);
* the analysis fan-out re-uses one persistent pool — a single worker
  initialization across interleaved sweeps, analysis batches, and maps.
"""

import time

import pytest
from conftest import write_comparison

from repro.exec import (
    ParallelExecutor,
    SerialExecutor,
    analyze_report,
    default_matchers,
    growing_plans,
    run_analyses,
)
from repro.scenarios.eightday import EightDayConfig, EightDayStudy

from tests.helpers import row_analyses, row_artifacts, row_report

DAYS = 2.0
N_PLANS = 4
REPS = 3


def _match_columnar(source, plans, known):
    ex = SerialExecutor()
    reports = ex.execute(source, plans, known_sites=known)
    return reports, [ex.cache.get(plan) for plan in plans]


def _match_row(source, plans, known):
    artifacts = [row_artifacts(source, plan) for plan in plans]
    return [row_report(art, default_matchers(known)) for art in artifacts], artifacts


#: (match, analyze) per dataplane: production vs the row oracle.
MODES = {
    "row": (_match_row, row_analyses),
    "columnar": (_match_columnar, analyze_report),
}


def _time_mode(source, plans, known, mode):
    """Best-of-REPS (match, analyze) seconds for one dataplane.

    Each rep starts from a fresh cache so the window materialization
    (the mode's own lowering) is always inside the measured match phase.
    """
    match, analyze = MODES[mode]
    best = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        reports, artifacts = match(source, plans, known)
        t_match = time.perf_counter() - t0
        t0 = time.perf_counter()
        batches = [analyze(report, art) for report, art in zip(reports, artifacts)]
        t_analyze = time.perf_counter() - t0
        if best is None or t_match + t_analyze < best[0] + best[1]:
            best = (t_match, t_analyze, reports, batches)
    return best


@pytest.fixture(scope="module")
def phases():
    cfg = EightDayConfig(seed=2025, days=DAYS)
    study = EightDayStudy(cfg)

    t0 = time.perf_counter()
    study.run()
    t_simulate = time.perf_counter() - t0

    t0 = time.perf_counter()
    source = study.source
    t_ingest = time.perf_counter() - t0

    w0, w1 = study.harness.window
    plans = growing_plans(w0, w1, n_points=N_PLANS)
    known = study.harness.known_site_names()

    modes = {}
    for mode in MODES:
        t_match, t_analyze, reports, batches = _time_mode(source, plans, known, mode)
        modes[mode] = {
            "match_s": t_match,
            "analyze_s": t_analyze,
            "reports": reports,
            "batches": batches,
        }
    return {
        "simulate_s": t_simulate,
        "ingest_s": t_ingest,
        "modes": modes,
        "study": study,
        "source": source,
        "plans": plans,
        "known": known,
    }


def test_dataplane_speedup(phases):
    """The tentpole gate: columnar match+analyze >= 1.5x row, recorded."""
    row, col = phases["modes"]["row"], phases["modes"]["columnar"]
    t_row = row["match_s"] + row["analyze_s"]
    t_col = col["match_s"] + col["analyze_s"]
    speedup = t_row / t_col

    write_comparison(
        "analysis_dataplane",
        paper={
            "setting": "§4-5 workflow phases over the degraded window",
            "expectation": "columnar dataplane >= 1.5x on match+analyze",
        },
        measured={
            "days": DAYS,
            "n_windows": N_PLANS,
            "simulate_s": round(phases["simulate_s"], 3),
            "ingest_s": round(phases["ingest_s"], 3),
            "row": {
                "match_s": round(row["match_s"], 4),
                "analyze_s": round(row["analyze_s"], 4),
            },
            "columnar": {
                "match_s": round(col["match_s"], 4),
                "analyze_s": round(col["analyze_s"], 4),
            },
            "match_analyze_speedup": round(speedup, 2),
        },
        notes="simulate/ingest are dataplane-independent and excluded "
              "from the speedup; best-of-%d timings" % REPS,
    )
    assert speedup >= 1.5, (
        f"columnar dataplane speedup {speedup:.2f}x < 1.5x "
        f"(row {t_row:.3f}s vs columnar {t_col:.3f}s)"
    )


def test_frame_comparison(phases):
    """The analyze phase alone must not be slower columnar than row."""
    row, col = phases["modes"]["row"], phases["modes"]["columnar"]
    assert col["analyze_s"] <= row["analyze_s"] * 1.10, (
        f"columnar analyze {col['analyze_s']:.4f}s slower than "
        f"row {row['analyze_s']:.4f}s"
    )


def test_frame_parity_across_windows(phases):
    """Both dataplanes report the same numbers for every window."""
    row, col = phases["modes"]["row"], phases["modes"]["columnar"]
    for b_row, b_col in zip(row["batches"], col["batches"]):
        assert b_col["headline"] == b_row["headline"]
        assert b_col["table1"] == b_row["table1"]
        assert b_col["table2_transfers"] == b_row["table2_transfers"]
        assert b_col["table2_jobs"] == b_row["table2_jobs"]
        assert b_col["top_local"] == b_row["top_local"]
        assert b_col["top_remote"] == b_row["top_remote"]
        assert b_col["thresholds"].cumulative == b_row["thresholds"].cumulative


def test_persistent_pool_single_init(phases):
    """Interleaved sweep + analysis batch + map: one pool initialization."""
    source, plans, known = phases["source"], phases["plans"], phases["known"]
    with ParallelExecutor(workers=2) as ex:
        ex.execute(source, plans, known_sites=known)
        batch = run_analyses(source, plans[-1], known_sites=known, executor=ex)
        assert ex.map(abs, [-1]) == [1]
        ex.execute(source, plans[:1], known_sites=known)
        assert ex.pool_inits == 1
    serial = phases["modes"]["columnar"]["batches"][-1]
    assert batch["headline"] == serial["headline"]
