"""The 8-day study (§5).

Runs a campaign shaped like the paper's 04/01-04/09/2025 window —
user analysis plus production plus heavy background movement — then
degrades telemetry, ingests it into the query layer, and runs the
matching pipeline.  Every Table-1/2 and Fig-5..12 analysis consumes
this study's outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.matching.pipeline import MatchingPipeline, MatchingReport
from repro.exec.analysis import DEFAULT_ANALYSES, run_analyses
from repro.exec.executor import Executor, make_executor
from repro.metastore.opensearch import OpenSearchLike
from repro.obs import Obs, use_obs
from repro.scenarios.runtime import HarnessConfig, SimulationHarness
from repro.telemetry.degradation import DegradationConfig, DegradedTelemetry
from repro.workload.generator import WorkloadConfig


@dataclass
class EightDayConfig:
    """Scale knobs for the study.

    The default runs a laptop-scale campaign (thousands of jobs, tens
    of thousands of transfers); ``intensity`` scales all arrival rates
    together for bigger runs.  All reported quantities are ratios and
    shapes, which are stable under this scaling.
    """

    seed: int = 2025
    days: float = 8.0
    intensity: float = 1.0
    analysis_tasks_per_hour: float = 6.0
    production_tasks_per_hour: float = 1.2
    background_transfers_per_hour: float = 220.0
    #: compute-capacity multiplier; below 1 the grid runs hot, producing
    #: the site-level slot contention behind §5.3's "heavy site-level
    #: queuing delays despite using local transfers".
    grid_scale: float = 0.35
    degradation: DegradationConfig = field(default_factory=DegradationConfig)

    def harness_config(self) -> HarnessConfig:
        from repro.grid.presets import WlcgPresetConfig

        wl = WorkloadConfig(
            duration=self.days * 86400.0,
            analysis_tasks_per_hour=self.analysis_tasks_per_hour * self.intensity,
            production_tasks_per_hour=self.production_tasks_per_hour * self.intensity,
            background_transfers_per_hour=self.background_transfers_per_hour * self.intensity,
        )
        grid = WlcgPresetConfig(seed=self.seed, scale=self.grid_scale)
        return HarnessConfig(
            seed=self.seed, workload=wl, degradation=self.degradation, grid=grid
        )


class EightDayStudy:
    """End-to-end §5 reproduction: simulate → degrade → query → match.

    ``obs`` threads an observability bundle through every study phase:
    simulation, ingest, matching, analyses, and stream replay each run
    under ``use_obs(self.obs)`` with a ``cat="study"`` span around
    them.  Instrumentation reads no RNG and mutates no observed state,
    so results stay bit-identical with or without it.
    """

    def __init__(
        self,
        config: Optional[EightDayConfig] = None,
        obs: Optional[Obs] = None,
        shard_seconds: Optional[float] = None,
    ) -> None:
        self.config = config or EightDayConfig()
        self.obs = obs
        self.shard_seconds = shard_seconds
        self.harness = SimulationHarness(self.config.harness_config())
        self._source: Optional[OpenSearchLike] = None
        self._pipeline: Optional[MatchingPipeline] = None
        self._report: Optional[MatchingReport] = None

    def run(self) -> "EightDayStudy":
        with use_obs(self.obs) as obs:
            with obs.tracer.span("study.simulate", cat="study") as sp:
                self.harness.run()
                sp.set("days", self.config.days)
        return self

    @property
    def telemetry(self) -> DegradedTelemetry:
        return self.harness.telemetry()

    @property
    def source(self) -> OpenSearchLike:
        if self._source is None:
            with use_obs(self.obs) as obs:
                with obs.tracer.span("study.ingest", cat="study"):
                    self._source = OpenSearchLike.from_telemetry(
                        self.telemetry, shard_seconds=self.shard_seconds
                    )
        return self._source

    @property
    def pipeline(self) -> MatchingPipeline:
        """One pipeline (and artifact cache) shared by every analysis.

        Table-1/2 and Fig-5..12 consumers all replay the full window;
        going through this pipeline means the pre-selection and
        candidate join are materialized once for all of them.
        """
        if self._pipeline is None:
            self._pipeline = MatchingPipeline(
                self.source,
                known_sites=self.harness.known_site_names(),
                obs=self.obs,
            )
        return self._pipeline

    def matching_report(
        self,
        workers: Optional[int] = None,
        executor: Optional[Executor] = None,
        matchers: Optional[Sequence] = None,
    ) -> MatchingReport:
        """The method-ladder comparison over the full window.

        ``workers`` (or an explicit ``executor``) fans the methods
        across processes.  Serial and parallel runs produce identical
        reports, so the cache does not distinguish them.  ``matchers``
        overrides the default Exact/RM1/RM2 ladder (e.g. adding RM3 at
        a chosen threshold); only the default ladder's report is
        cached — explicit matcher lists may carry per-instance tuning,
        so they always run (the window artifacts stay cached either
        way).
        """
        if matchers is None and self._report is not None:
            return self._report
        t0, t1 = self.harness.window
        ex = executor if executor is not None else make_executor(workers)
        try:
            with use_obs(self.obs) as obs:
                with obs.tracer.span("study.match", cat="study") as sp:
                    sp.set("workers", ex.workers)
                    report = self.pipeline.run(t0, t1, matchers=matchers, executor=ex)
        finally:
            if executor is None:
                ex.close()
        if matchers is None:
            self._report = report
        return report

    def stream(
        self,
        batch_seconds: Optional[float] = None,
        batch_events: Optional[int] = None,
        lateness: float = 0.0,
        matchers: Optional[Sequence] = None,
    ):
        """Replay the full window through the streaming dataplane.

        Builds the sequenced event log from this study's telemetry and
        drains it through a :class:`~repro.stream.StreamProcessor` in
        deterministic micro-batches (six-hour spans unless overridden).
        The returned processor's ``report()`` is bit-identical to
        :meth:`matching_report` for any columnar-lowerable ``matchers``
        (default Exact/RM1/RM2; RM3 qualifies), and its folds hold the
        running §5.1 headline / Fig-9 accumulators.
        """
        from repro.stream import replay_window

        t0, t1 = self.harness.window
        with use_obs(self.obs) as obs:
            with obs.tracer.span("study.stream", cat="study"):
                return replay_window(
                    self.telemetry,
                    t0,
                    t1,
                    known_sites=self.harness.known_site_names(),
                    matchers=matchers,
                    batch_seconds=batch_seconds,
                    batch_events=batch_events,
                    lateness=lateness,
                )

    def analyses(
        self,
        specs: Sequence = DEFAULT_ANALYSES,
        workers: Optional[int] = None,
        executor: Optional[Executor] = None,
    ) -> Dict[str, object]:
        """The §5 analysis batch over the full window.

        Fans one task per spec across the executor's persistent pool
        when parallel (see :func:`repro.exec.analysis.run_analyses`).
        Results are bit-identical for every ``workers`` count.
        """
        specs = list(specs)
        t0, t1 = self.harness.window
        ex = executor if executor is not None else make_executor(workers)
        try:
            with use_obs(self.obs) as obs:
                with obs.tracer.span("study.analyze", cat="study") as sp:
                    sp.set("n_specs", len(specs))
                    sp.set("workers", ex.workers)
                    return run_analyses(
                        self.source,
                        self.pipeline.plan(t0, t1),
                        specs,
                        known_sites=self.harness.known_site_names(),
                        executor=ex,
                    )
        finally:
            if executor is None:
                ex.close()
