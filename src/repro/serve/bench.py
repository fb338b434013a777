"""Saturation-curve benchmarking for the match service.

Drives one shared :class:`~repro.serve.service.MatchService` with the
open-loop generator at a ladder of offered loads and reports, per
level: p50/p95/p99 latency, completed throughput, shed rate, and memo
hit rate.  Below saturation latency tracks service time; past it the
queues hit their bounds, the admission layer sheds, and throughput
plateaus at capacity — the standard open-loop saturation curve, here
with the knee made explicit by the shed rate instead of hidden in a
growing backlog.

Two side measurements complete the story the CI gate checks:

* **memo speedup** — one hot full-window query timed against its cold
  compute (the cross-tenant memoization claim, ≥5x);
* **bit identity** — the service's built-in ``verify_every`` sampling
  recomputes every Nth served response directly; the run fails its
  gate if any sample ever differs.

A mid-run ``ingest_batch`` at the first load level bumps the store
generation under live traffic, so the curve is measured across an
invalidation boundary, not on a conveniently frozen store.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.scenarios.eightday import EightDayConfig, EightDayStudy
from repro.serve.admission import AdmissionPolicy
from repro.serve.loadgen import LoadSpec, RunStats, Workload, run_workload
from repro.serve.service import MatchQuery, MatchService, ServeConfig
from repro.telemetry.records import FileRecord, JobRecord, TransferRecord


def default_tenants(n: int = 8) -> Dict[str, float]:
    """A skewed tenant mix: two heavy dashboards, the rest light."""
    weights = [4.0, 4.0, 2.0, 2.0] + [1.0] * max(0, n - 4)
    return {f"tenant-{i}": weights[i] for i in range(n)}


def synthetic_batch(
    t0: float, t1: float, n: int = 32, base_id: int = 9_000_000
) -> Tuple[list, list, list]:
    """A live-telemetry batch landing inside [t0, t1).

    Ids start far above anything the simulator produced, so the batch
    extends the store without colliding; every record sits inside the
    window, so post-ingest queries genuinely see different data.
    """
    span = t1 - t0
    jobs, files, transfers = [], [], []
    for i in range(n):
        pid = base_id + i
        start = t0 + span * (0.2 + 0.6 * i / max(1, n - 1))
        jobs.append(JobRecord(
            pandaid=pid, jeditaskid=base_id + 100_000 + i // 4,
            computingsite="SITE-LIVE", prodsourcelabel="user",
            status="finished", taskstatus="finished",
            creationtime=start - 120.0, starttime=start, endtime=start + 300.0,
            ninputfilebytes=1 << 20, noutputfilebytes=1 << 18,
        ))
        files.append(FileRecord(
            pandaid=pid, jeditaskid=base_id + 100_000 + i // 4,
            lfn=f"live.{i:05d}.root", dataset=f"live.ds.{i // 4:04d}",
            proddblock=f"live.ds.{i // 4:04d}", scope="live",
            file_size=1 << 20, ftype="input",
        ))
        transfers.append(TransferRecord(
            row_id=base_id + 500_000 + i, lfn=f"live.{i:05d}.root",
            scope="live", dataset=f"live.ds.{i // 4:04d}",
            proddblock=f"live.ds.{i // 4:04d}", file_size=1 << 20,
            source_site="SITE-LIVE", destination_site="SITE-LIVE",
            activity="Analysis Download", is_download=True, is_upload=False,
            starttime=start - 60.0, endtime=start - 30.0, jeditaskid=0,
        ))
    return jobs, files, transfers


@dataclass
class BenchConfig:
    """One serve-bench run: data scale, service shape, load ladder."""

    days: float = 1.5
    seed: int = 2025
    intensity: float = 1.0
    tenants: int = 8
    max_workers: int = 4
    queue_depth: int = 24
    #: per-tenant sustained admission rate (requests/s) and burst; the
    #: aggregate envelope (rate × tenants, weight-skewed) sits between
    #: the middle and top ladder rungs so the top rung must shed.
    tenant_rate: Optional[float] = 60.0
    tenant_burst: float = 30.0
    #: offered-load ladder (aggregate requests/s); the top rung must be
    #: far past capacity so the shed rate is provably non-zero.
    rates: Tuple[float, ...] = (40.0, 160.0, 2400.0)
    duration: float = 1.5
    long_fraction: float = 0.1
    dashboard_windows: int = 4
    verify_every: int = 37
    memo_entries: int = 512
    #: ingest a generation-bumping batch mid-run at this ladder index
    ingest_level: int = 0

    def tenant_weights(self) -> Dict[str, float]:
        return default_tenants(self.tenants)


def _measure_memo_speedup(service: MatchService, t0: float, t1: float) -> dict:
    """Time one hot full-window query against its cold compute."""
    query = MatchQuery(t0, t1)
    service.memo.clear()
    service.cache.clear()
    start = time.perf_counter()
    service.handle("bench", query)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    response = service.handle("bench", query)
    hot = time.perf_counter() - start
    assert response.cached, "second identical query must be a memo hit"
    return {
        "cold_s": cold,
        "hot_s": hot,
        "speedup": (cold / hot) if hot > 0 else float("inf"),
    }


async def _run_ladder(config: BenchConfig, study: EightDayStudy) -> dict:
    t0, t1 = study.harness.window
    known_sites = study.harness.known_site_names()
    levels: List[dict] = []
    verify_samples = verify_violations = 0
    memo_stats: Optional[dict] = None

    for idx, rate in enumerate(config.rates):
        service = MatchService(
            study.source,
            known_sites=known_sites,
            tenants=config.tenant_weights(),
            config=ServeConfig(
                max_workers=config.max_workers,
                policy=AdmissionPolicy(
                    rate=config.tenant_rate,
                    burst=config.tenant_burst,
                    queue_depth=config.queue_depth,
                ),
                memo_entries=config.memo_entries,
                verify_every=config.verify_every,
            ),
        )
        if memo_stats is None:
            # Measured once, before any traffic warms the memo.
            memo_stats = _measure_memo_speedup(service, t0, t1)
        spec = LoadSpec.make(
            config.tenant_weights(),
            rate=rate,
            duration=config.duration,
            long_fraction=config.long_fraction,
            dashboard_windows=config.dashboard_windows,
            seed=config.seed + idx,
        )
        workload = Workload(spec, t0, t1)
        ingest_kw = {}
        if idx == config.ingest_level:
            ingest_kw = {
                "ingest_at": config.duration / 2.0,
                "ingest_batch": synthetic_batch(t0, t1, base_id=9_000_000 + idx * 10_000),
            }
        async with service:
            stats: RunStats = await run_workload(
                service, workload.schedule(), **ingest_kw
            )
        verify_samples += service.verify_samples
        verify_violations += service.verify_violations
        level = {"offered_rps": rate, "ingest_mid_run": idx == config.ingest_level}
        level.update(stats.summary())
        level["memo"] = service.memo.stats
        levels.append(level)

    return {
        "levels": levels,
        "memo_speedup": memo_stats,
        "verify": {"samples": verify_samples, "violations": verify_violations},
    }


def run_serve_bench(config: Optional[BenchConfig] = None) -> dict:
    """Build the study data, run the ladder, return the results dict."""
    config = config or BenchConfig()
    study = EightDayStudy(
        EightDayConfig(seed=config.seed, days=config.days, intensity=config.intensity)
    ).run()
    results = asyncio.run(_run_ladder(config, study))
    results["config"] = {
        "days": config.days,
        "seed": config.seed,
        "tenants": config.tenants,
        "tenant_weights": config.tenant_weights(),
        "max_workers": config.max_workers,
        "queue_depth": config.queue_depth,
        "tenant_rate": config.tenant_rate,
        "tenant_burst": config.tenant_burst,
        "rates": list(config.rates),
        "duration_s": config.duration,
        "long_fraction": config.long_fraction,
        "verify_every": config.verify_every,
    }
    return results


def write_results(results: dict, path) -> Path:
    """Persist a serve-bench results dict (the committed CI artifact)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=2, sort_keys=True, default=float) + "\n")
    return path


def format_report(results: dict) -> str:
    """Human-readable saturation report (the serve-bench CLI output)."""
    lines = ["serve-bench: open-loop saturation ladder", ""]
    header = (
        f"{'offered':>9}  {'completed':>9}  {'thru rps':>9}  {'shed%':>6}  "
        f"{'hit%':>6}  {'p50 ms':>8}  {'p95 ms':>8}  {'p99 ms':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for level in results["levels"]:
        lat = level["latency_s"]
        lines.append(
            f"{level['offered_rps']:>9.0f}  {level['completed']:>9d}  "
            f"{level['throughput_rps']:>9.1f}  {100 * level['shed_rate']:>6.1f}  "
            f"{100 * level['cache_hit_rate']:>6.1f}  "
            f"{1000 * lat['p50']:>8.2f}  {1000 * lat['p95']:>8.2f}  "
            f"{1000 * lat['p99']:>8.2f}"
        )
    memo = results["memo_speedup"]
    verify = results["verify"]
    lines.append("")
    lines.append(
        f"memo: cold {1000 * memo['cold_s']:.2f} ms → hot "
        f"{1000 * memo['hot_s']:.3f} ms ({memo['speedup']:.0f}x)"
    )
    lines.append(
        f"verify: {verify['samples']} sampled recomputations, "
        f"{verify['violations']} violations"
    )
    return "\n".join(lines)
