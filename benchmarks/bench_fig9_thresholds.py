"""Fig 9 — job counts of four status combinations vs transfer-time-% threshold.

Paper: of 7,907 exactly matched jobs, 6,365 (80.5%) succeeded; counts
accumulate rapidly at low thresholds (913 below 1%, +525 in 1-2%); at
T=75% a stubborn tail of 72 jobs remains, and "most of these extreme
cases correspond to failed jobs" — failures concentrate in the
high-transfer-time tail.

Reproduced claims: success fraction near 80%; cumulative curves
monotone; the >75% tail exists and is failure-enriched relative to the
overall failure rate.
"""

from conftest import write_comparison

from repro.core.analysis.thresholds import StatusCombo, threshold_sweep_result


def test_fig9_threshold_sweep(benchmark, eightday_report):
    sweep = benchmark(threshold_sweep_result, eightday_report["exact"])
    assert sweep.n_jobs

    success = sweep.success_fraction()
    assert 0.6 < success < 0.95

    for combo in StatusCombo:
        series = sweep.cumulative[combo]
        assert series == sorted(series), "cumulative counts must be monotone"

    tail = sweep.tail_total(75)
    enrichment = sweep.failure_enrichment(75) if tail else 0.0
    assert tail >= 1, "a >75% transfer-time tail must exist (stuck transfers)"
    if tail >= 3:
        assert enrichment > 1.0, "failures must concentrate in the tail"

    write_comparison(
        "fig9_thresholds",
        paper={
            "matched_jobs": 7907,
            "success_fraction": 0.805,
            "below_1pct_job_ok_task_ok": 913,
            "tail_above_75pct": 72,
            "finding": "tail dominated by failed jobs",
        },
        measured={
            "matched_jobs": sweep.n_jobs,
            "success_fraction": round(success, 3),
            "thresholds": sweep.thresholds,
            "cumulative": {c.value: sweep.cumulative[c] for c in StatusCombo},
            "tail_above_75pct": tail,
            "tail_failure_enrichment": round(enrichment, 2),
        },
    )
