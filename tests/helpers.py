"""Shared builders for unit tests: records, topologies, harnesses."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.analysis.queuing import (
    JobTransferTiming,
    compute_timing,
    geomean_transfer_pct,
    mean_transfer_pct,
    top_jobs_breakdown,
)
from repro.core.analysis.sites import build_dashboards
from repro.core.analysis.summary import (
    HeadlineStats,
    MethodJobRow,
    MethodTransferRow,
    activity_breakdown,
)
from repro.core.analysis.temporal import submission_profile, transfer_volume_profile
from repro.core.analysis.thresholds import threshold_sweep
from repro.core.matching.base import MatchingReport, MatchResult, TransferClass
from repro.exec.artifacts import WindowArtifacts
from repro.exec.plan import WindowPlan
from repro.grid.presets import build_mini
from repro.grid.topology import GridTopology
from repro.telemetry.records import FileRecord, JobRecord, TransferRecord


def make_job(
    pandaid: int = 1,
    jeditaskid: int = 100,
    site: str = "SITE-A",
    creation: float = 0.0,
    start: Optional[float] = 1000.0,
    end: Optional[float] = 2000.0,
    nin: int = 3000,
    nout: int = 0,
    status: str = "finished",
    taskstatus: str = "finished",
    label: str = "user",
) -> JobRecord:
    return JobRecord(
        pandaid=pandaid,
        jeditaskid=jeditaskid,
        computingsite=site,
        prodsourcelabel=label,
        status=status,
        taskstatus=taskstatus,
        creationtime=creation,
        starttime=start,
        endtime=end,
        ninputfilebytes=nin,
        noutputfilebytes=nout,
    )


def make_file(
    pandaid: int = 1,
    jeditaskid: int = 100,
    lfn: str = "f1",
    dataset: str = "ds",
    proddblock: str = "ds",
    scope: str = "user.x",
    size: int = 1000,
    ftype: str = "input",
) -> FileRecord:
    return FileRecord(
        pandaid=pandaid,
        jeditaskid=jeditaskid,
        lfn=lfn,
        dataset=dataset,
        proddblock=proddblock,
        scope=scope,
        file_size=size,
        ftype=ftype,
    )


def make_transfer(
    row_id: int = 1,
    lfn: str = "f1",
    dataset: str = "ds",
    proddblock: str = "ds",
    scope: str = "user.x",
    size: int = 1000,
    src: str = "SITE-A",
    dst: str = "SITE-A",
    activity: str = "Analysis Download",
    download: bool = True,
    upload: bool = False,
    start: float = 100.0,
    end: float = 200.0,
    jeditaskid: int = 100,
    success: bool = True,
) -> TransferRecord:
    return TransferRecord(
        row_id=row_id,
        lfn=lfn,
        scope=scope,
        dataset=dataset,
        proddblock=proddblock,
        file_size=size,
        source_site=src,
        destination_site=dst,
        activity=activity,
        is_download=download,
        is_upload=upload,
        starttime=start,
        endtime=end,
        success=success,
        jeditaskid=jeditaskid,
    )


def matching_triple(n_files: int = 3, site: str = "SITE-A"):
    """A job, its file rows, and perfectly matching transfers."""
    job = make_job(site=site, nin=n_files * 1000)
    files = [
        make_file(lfn=f"f{i}", size=1000)
        for i in range(n_files)
    ]
    transfers = [
        make_transfer(row_id=i + 1, lfn=f"f{i}", size=1000, src=site, dst=site,
                      start=100.0 + i, end=150.0 + i)
        for i in range(n_files)
    ]
    return job, files, transfers


def mini_topology(seed: int = 3) -> GridTopology:
    return build_mini(seed=seed)


# -- the row oracle -----------------------------------------------------------------
#
# Production matches through the columnar kernels and analyses through
# ``MatchFrame``; the row engine (``CandidateIndex`` + ``BaseMatcher.run``)
# and the per-record analysis loops are the specification.  Parity
# suites compare production against these helpers directly.


def row_artifacts(source, plan: WindowPlan) -> WindowArtifacts:
    """A window pre-selected through the per-query reference path: no
    ``materialize_window`` fast path, no column packs."""
    if plan.user_jobs_only:
        jobs = source.user_jobs_completed_in(plan.t0, plan.t1)
    else:
        jobs = source.jobs_completed_in(plan.t0, plan.t1)
    transfers = source.transfers_started_in(plan.t0, plan.t1)
    files = source.files_of_jobs([j.pandaid for j in jobs])
    return WindowArtifacts(plan, getattr(source, "generation", 0), jobs, files, transfers)


def row_report(artifacts: WindowArtifacts, matchers) -> MatchingReport:
    """Every matcher's reference ``run`` over the artifacts' dict join."""
    return MatchingReport(
        window=artifacts.window,
        n_jobs=len(artifacts.jobs),
        n_transfers=len(artifacts.transfers),
        n_transfers_with_taskid=artifacts.n_transfers_with_taskid,
        results={
            m.name: m.run(
                artifacts.jobs,
                artifacts.index,
                n_transfers_considered=artifacts.n_transfers_with_taskid,
            )
            for m in matchers
        },
    )


def row_timings(result: MatchResult) -> List[JobTransferTiming]:
    """Fig 5/6 rows by the reference loop over ``JobMatch`` objects."""
    timings = (compute_timing(m) for m in result.matched_jobs())
    return [t for t in timings if t is not None]


def row_headline(report: MatchingReport, method: str = "exact") -> HeadlineStats:
    """§5.1 headline numbers from the ``MatchResult`` counts and the
    reference timing loop."""
    result = report[method]
    timings = row_timings(result)
    return HeadlineStats(
        n_jobs=report.n_jobs,
        n_transfers=report.n_transfers,
        n_transfers_with_taskid=report.n_transfers_with_taskid,
        n_matched_jobs=result.n_matched_jobs,
        n_matched_transfers=result.n_matched_transfers,
        mean_transfer_pct=mean_transfer_pct(timings),
        geomean_transfer_pct=geomean_transfer_pct(timings),
    )


def row_method_tables(
    report: MatchingReport,
) -> Tuple[List[MethodTransferRow], List[MethodJobRow]]:
    """Table 2a/2b from the ``MatchResult`` reference tallies."""
    transfers, jobs = [], []
    for method in report.methods:
        local, remote = report[method].local_remote_split()
        transfers.append(MethodTransferRow(method=method, local=local, remote=remote))
        by_class = report[method].jobs_by_class()
        jobs.append(MethodJobRow(
            method=method,
            all_local=by_class[TransferClass.ALL_LOCAL],
            all_remote=by_class[TransferClass.ALL_REMOTE],
            mixed=by_class[TransferClass.MIXED],
        ))
    return transfers, jobs


def row_analyses(report: MatchingReport, artifacts: WindowArtifacts) -> Dict[str, object]:
    """The default §5 batch (``repro.exec.analysis.DEFAULT_ANALYSES``,
    in order, for the exact method), every spec by its reference
    primitive over the report and the window's records."""
    t0, t1 = artifacts.window
    exact = report["exact"]
    timings = row_timings(exact)
    transfer_rows, job_rows = row_method_tables(report)
    return {
        "headline": row_headline(report),
        "table1": activity_breakdown(exact, artifacts.transfers),
        "table2_transfers": transfer_rows,
        "table2_jobs": job_rows,
        "top_local": top_jobs_breakdown(timings, "local"),
        "top_remote": top_jobs_breakdown(timings, "remote"),
        "thresholds": threshold_sweep(timings),
        "sites": build_dashboards(artifacts.jobs, artifacts.transfers),
        "volume": transfer_volume_profile(artifacts.transfers, t0, t1),
        "submissions": submission_profile(artifacts.jobs, t0, t1),
    }
