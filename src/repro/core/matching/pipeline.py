"""The end-to-end matching pipeline (Fig 4's analysis workflow).

Reproduces §4.2's procedure: pre-select jobs, file rows, and transfer
events within a common time window through the querying module (jobs
must *complete* inside the window — still-running jobs are invisible to
the query), build the candidate join once, then run each matching
method over the same pre-selection.

Since the plan/execute refactor the pipeline is a thin façade over
:mod:`repro.exec`: it turns ``run(t0, t1)`` into a
:class:`~repro.exec.plan.WindowPlan`, materializes it through a shared
:class:`~repro.exec.artifacts.ArtifactCache` (so repeated runs, window
sweeps, and multi-method analyses reuse one pre-selection and one
:class:`~repro.core.matching.base.CandidateIndex`), and hands
scheduling to an :class:`~repro.exec.executor.Executor` — serial by
default, process-parallel when the caller passes one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.core.matching.base import BaseMatcher, MatchingReport
from repro.exec.artifacts import ArtifactCache, WindowArtifacts
from repro.exec.executor import Executor, SerialExecutor
from repro.exec.plan import WindowPlan
from repro.metastore.opensearch import OpenSearchLike
from repro.obs import Obs, use_obs
from repro.telemetry.records import FileRecord, JobRecord, TransferRecord

__all__ = ["MatchingPipeline", "MatchingReport"]


class MatchingPipeline:
    """Pre-select, join, and match.

    Parameters
    ----------
    source:
        The query layer holding degraded telemetry.
    known_sites:
        Valid site names (for RM2's invalid-label detection).
    user_jobs_only:
        The paper analyses the user-job population; production jobs can
        be included for ablations.
    cache:
        Artifact cache to share with other consumers; a private one is
        created when omitted.
    executor:
        Default scheduling policy for :meth:`run` / :meth:`sweep`; a
        :class:`SerialExecutor` over ``cache`` when omitted.
    obs:
        Observability bundle (:class:`~repro.obs.Obs`).  When given it
        is installed as the ambient context for the duration of every
        :meth:`run` / :meth:`sweep`, so the metastore, artifact,
        kernel, and executor instrumentation underneath records into
        it; when omitted the ambient context (disabled by default) is
        left alone.  Instrumentation never alters results.
    """

    def __init__(
        self,
        source: OpenSearchLike,
        known_sites: Optional[Set[str]] = None,
        user_jobs_only: bool = True,
        cache: Optional[ArtifactCache] = None,
        executor: Optional[Executor] = None,
        obs: Optional[Obs] = None,
    ) -> None:
        self.source = source
        self.known_sites = known_sites or set()
        self.user_jobs_only = user_jobs_only
        self.obs = obs
        self.cache = cache if cache is not None else ArtifactCache(source)
        self.executor = executor if executor is not None else SerialExecutor(cache=self.cache)

    # -- planning / materialization (the common-time-window step of §4.2) --------

    def plan(self, t0: float, t1: float) -> WindowPlan:
        return WindowPlan(t0, t1, self.user_jobs_only)

    def artifacts(self, t0: float, t1: float) -> WindowArtifacts:
        """Materialized pre-selection for one window (cached)."""
        return self.cache.get(self.plan(t0, t1))

    def preselect_jobs(self, t0: float, t1: float) -> List[JobRecord]:
        if self.user_jobs_only:
            return self.source.user_jobs_completed_in(t0, t1)
        return self.source.jobs_completed_in(t0, t1)

    def preselect_transfers(self, t0: float, t1: float) -> List[TransferRecord]:
        return self.source.transfers_started_in(t0, t1)

    def preselect_files(self, jobs: Sequence[JobRecord]) -> List[FileRecord]:
        """File rows of the selected jobs (PanDA side of the join).

        One batched metastore call for the whole job set — the old
        per-job loop issued one query per job.
        """
        return self.source.files_of_jobs([job.pandaid for job in jobs])

    # -- execution -------------------------------------------------------------------

    def run(
        self,
        t0: float,
        t1: float,
        matchers: Optional[Sequence[BaseMatcher]] = None,
        executor: Optional[Executor] = None,
    ) -> MatchingReport:
        return self.sweep([self.plan(t0, t1)], matchers=matchers, executor=executor)[0]

    def sweep(
        self,
        plans: Sequence[WindowPlan],
        matchers: Optional[Sequence[BaseMatcher]] = None,
        executor: Optional[Executor] = None,
    ) -> List[MatchingReport]:
        """Execute many plans through the (possibly parallel) executor."""
        ex = executor if executor is not None else self.executor
        with use_obs(self.obs) as obs:
            with obs.tracer.span("pipeline.sweep", cat="executor") as sp:
                sp.set("n_plans", len(plans))
                sp.set("workers", ex.workers)
                return ex.execute(
                    self.source,
                    plans,
                    matchers=matchers,
                    known_sites=self.known_sites,
                )
