"""``serve_steady``: an open loop against ``MatchService`` below saturation.

Set-up simulates a short campaign, ingests it into the store and starts
the service.  The timed part offers Poisson arrivals from 8 weighted
tenants at a fixed aggregate rate and ingests one synthetic live batch
every second, so the memo keeps turning over and requests keep reaching
real computes.

This module's own load generator, not ``repro.serve.loadgen.run_workload``,
sends the requests: it times each one from the moment it was due, not from the
moment it was submitted, so a stalled generator shows up as latency and
as generator lateness.  The service's compute pool has no more threads
than the machine has cores; the event loop and one ingest thread wait
most of the time.

Correctness is checked after the clock stops: every response must be
``ok``, and sampled responses are recomputed directly — no service, no
memo, no cache — on a store rebuilt to the generation they were served
at, and must be bit-identical.
"""

from __future__ import annotations

import asyncio
import gc
import time
from concurrent.futures import ThreadPoolExecutor

from repro.exec.analysis import AnalysisSpec, analyze_report
from repro.exec.artifacts import WindowArtifacts, build_report
from repro.exec.executor import default_matchers
from repro.exec.plan import WindowPlan
from repro.metastore.opensearch import OpenSearchLike
from repro.scenarios.eightday import EightDayConfig, EightDayStudy
from repro.serve.admission import AdmissionPolicy
from repro.serve.bench import default_tenants, synthetic_batch
from repro.serve.loadgen import DASHBOARD_SPECS, LONG_SPECS, LoadSpec, Workload
from repro.serve.service import (
    AnalysisQuery,
    MatchQuery,
    MatchService,
    ServeConfig,
    bit_identical,
)

from perfbench.common import (
    Outcome,
    RunContext,
    median,
    nproc,
    peak_rss_mb,
    percentile,
    rep_seed,
    union_length,
)

DAYS = {"full": 1.0, "tiny": 0.1}
#: Aggregate offered load (requests/s), below the service's saturation.
RATE = {"full": 100.0, "tiny": 100.0}
#: Seconds between synthetic live ingests.
INGEST_EVERY = 1.0
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
TENANTS = 8
#: Recompute every Nth ok response, across at most this many generations.
VERIFY_EVERY = 20
VERIFY_GENERATIONS = 3
LAYERS = (
    "sim.run_s", "sim.jobs", "sim.transfers", "metastore.rows",
    "serve.lat_p50_ms", "serve.lat_p95_ms", "serve.queue_p50_ms", "serve.queue_p95_ms",
    "serve.memo_hit_ratio", "serve.ingest_ms", "serve.gen_late_p99_ms",
    "serve.fail_ratio", "serve.requests", "trace.overhead_s",
)


def service_config() -> ServeConfig:
    return ServeConfig(
        max_workers=min(4, nproc()),
        policy=AdmissionPolicy(rate=60.0, burst=30.0, queue_depth=24),
        memo_entries=512,
    )


class Store:
    """One set-up: a simulated campaign's store behind a started service."""

    @classmethod
    async def build(cls, seed: int, days: float) -> "Store":
        self = cls()
        t = time.perf_counter()
        study = EightDayStudy(EightDayConfig(seed=seed, days=days)).run()
        self.sim_s = time.perf_counter() - t
        self.telemetry = study.telemetry
        self.source = study.source
        self.window = study.harness.window
        self.known_sites = study.harness.known_site_names()
        self.service = MatchService(self.source, known_sites=self.known_sites,
                                    tenants=default_tenants(TENANTS),
                                    config=service_config())
        await self.service.start()
        self.setup_s = time.perf_counter() - t
        self.counts = {
            "sim.jobs": study.harness.collector.n_jobs,
            "sim.transfers": study.harness.collector.n_transfers,
            "metastore.rows": len(self.source.jobs) + len(self.source.files)
            + len(self.source.transfers),
        }
        self.base_generation = self.source.generation
        #: every live batch ingested, in order, and the generation after it
        self.batches = []
        self.generations = []
        return self

    def next_batch(self) -> tuple:
        k = len(self.batches)
        batch = synthetic_batch(*self.window, base_id=9_000_000 + 10_000 * k)
        self.batches.append(batch)
        return batch

    def warm(self) -> None:
        """Touch each query kind once so lazy set-up is done before timing."""
        t0, t1 = self.window
        self.service.handle("warmup", MatchQuery(t0, t1))
        for spec in DASHBOARD_SPECS + LONG_SPECS:
            self.service.handle("warmup", AnalysisQuery(t0, t1, spec=spec))


async def open_loop(store: Store, seed: int, seconds: float, rate: float,
                    rec, root) -> dict:
    """Offer the schedule; ingest a live batch every INGEST_EVERY seconds."""
    service = store.service
    loop = asyncio.get_running_loop()
    arrivals = Workload(
        LoadSpec.make(default_tenants(TENANTS), rate=rate, duration=seconds, seed=seed),
        *store.window,
    ).schedule()
    ingest_times = [k * INGEST_EVERY for k in range(1, int(seconds / INGEST_EVERY) + 1)
                    if k * INGEST_EVERY < seconds]
    samples = []
    ingests = []
    ingest_pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ingest")
    clock = time.perf_counter
    start = clock() + 0.01

    async def send(arrival, due):
        sent = clock()
        try:
            response = await service.submit(arrival.tenant, arrival.query)
        except Exception as exc:  # noqa: BLE001 - counted as a failed request
            response = exc
        samples.append((arrival, due, sent, clock(), response))

    async def generate():
        tasks = []
        for arrival in arrivals:
            due = start + arrival.at
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(send(arrival, due)))
        await asyncio.gather(*tasks)

    async def ingest():
        for at in ingest_times:
            delay = start + at - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            jobs, files, transfers = store.next_batch()

            def apply():
                service.ingest(jobs=jobs, files=files, transfers=transfers)
                return store.source.generation

            t = clock()
            store.generations.append(await loop.run_in_executor(ingest_pool, apply))
            ingests.append((t, clock()))

    try:
        await asyncio.gather(generate(), ingest())
        await service.drain()
    finally:
        ingest_pool.shutdown(wait=True)
    for arrival, due, sent, done, response in samples:
        rec.add("serve.request", due, done, root)
    for t, done in ingests:
        rec.add("serve.ingest", t, done, root)
    return {"samples": samples, "ingests": ingests, "n_offered": len(arrivals)}


def summarize(run: dict) -> dict:
    samples = run["samples"]
    ok = [s for s in samples if not isinstance(s[4], BaseException) and s[4].ok]
    lat = [s[3] - s[1] for s in ok]
    p95 = percentile(lat, 0.95)
    queued = [s[4].queued for s in ok]
    late = [s[2] - s[1] for s in samples]
    return {
        "busy_s": union_length((s[1], s[3]) for s in samples),
        "ok": len(ok),
        "failed": len(samples) - len(ok),
        "offered": run["n_offered"],
        "lat_p50_ms": 1000 * percentile(lat, 0.50),
        "lat_p95_ms": 1000 * p95,
        "queue_p50_ms": 1000 * percentile(queued, 0.50),
        "queue_p95_ms": 1000 * percentile(queued, 0.95),
        "memo_hit_ratio": sum(1 for s in ok if s[4].cached) / max(1, len(ok)),
        "ingest_ms": 1000 * median([e - s for s, e in run["ingests"]]),
        "gen_late_p99_ms": 1000 * percentile(late, 0.99),
        "beyond_p95": sum(1 for x in lat if x > p95),
    }


def direct(store: Store, source, query):
    """Recompute one query from the library, without the service."""
    plan = WindowPlan(query.t0, query.t1, query.user_jobs_only)
    artifacts = WindowArtifacts.materialize(source, plan)
    methods = (query if isinstance(query, MatchQuery) else query.match_query()).methods
    by_name = {m.name: m for m in default_matchers(store.known_sites)}
    report = build_report(artifacts, [by_name[m] for m in methods])
    if isinstance(query, MatchQuery):
        return report
    spec = AnalysisSpec(name=query.spec, method=query.method)
    return analyze_report(report, artifacts, [spec])[query.spec]


def verify(store: Store, samples: list) -> list:
    """Sampled responses against direct computes at their generation."""
    ok = [(s[0].query, s[4]) for s in samples
          if not isinstance(s[4], BaseException) and s[4].ok]
    picked = {}
    for i, (query, response) in enumerate(ok):
        if i % VERIFY_EVERY == 0:
            picked.setdefault(response.generation, []).append((i, query, response))
    gens = sorted(picked)
    if len(gens) > VERIFY_GENERATIONS:
        gens = [gens[0], gens[len(gens) // 2], gens[-1]]
    problems = []
    for gen in gens:
        n_batches = [store.base_generation, *store.generations].index(gen)
        source = OpenSearchLike.from_telemetry(store.telemetry)
        for jobs, files, transfers in store.batches[:n_batches]:
            source.ingest_batch(jobs=jobs, files=files, transfers=transfers)
        if source.generation != gen:
            problems.append(f"could not rebuild generation {gen}")
            continue
        for i, query, response in picked[gen]:
            if not bit_identical(direct(store, source, query), response.value):
                problems.append(f"response {i} at generation {gen} differs from a direct compute")
    return problems


async def _run(ctx: RunContext) -> Outcome:
    out = Outcome()
    days = DAYS[ctx.size]
    stores = []
    for i in range(SETUPS):
        gc.collect()
        stores.append(await Store.build(rep_seed(ctx.seed, i), days))
    for store in stores[:-1]:
        await store.service.stop()
    store = stores[-1]
    setup_s = median([s.setup_s for s in stores])
    sim_s = median([s.sim_s for s in stores])
    del stores
    store.warm()

    # Untraced: one run of the full length.  Traced: an untraced half and
    # a traced half of the same schedule, so the overhead is paired.
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    halves = [False, True] if ctx.trace else [False]
    results = {}
    for run_id, traced in enumerate(halves):
        gc.collect()
        with ctx.traced(traced, run_id):
            with ctx.recorder.span("serve_steady.rep") as root:
                loop_run = await open_loop(store, ctx.seed, seconds, RATE[ctx.size],
                                           ctx.recorder, root["id"] if traced else None)
        results[traced] = (loop_run, summarize(loop_run))
    await store.service.stop()

    for _, summary in results.values():
        out.attempted += summary["offered"]
        out.failed += summary["failed"]
        if summary["failed"]:
            out.problems.append(f"{summary['failed']} of {summary['offered']} requests shed or errored")
        if summary["beyond_p95"] < 10:
            out.problems.append(f"only {summary['beyond_p95']} samples beyond p95")
            out.failed += 1
        ctx.ledger.record(f"{ctx.seed}/{seconds:g}s", {
            **store.counts,
            "serve.requests": summary["offered"],
        })
    mismatches = verify(store, [s for r, _ in results.values() for s in r["samples"]])
    out.failed += len(mismatches)
    out.problems.extend(mismatches)

    _, summary = results[False]
    out.end_to_end = {
        "setup_s": setup_s,
        "wall_s": summary["busy_s"],
        "peak_rss_mb": peak_rss_mb(),
    }
    out.extra = {
        "lat_p50_ms": (summary["lat_p50_ms"], "ms"),
        "lat_p95_ms": (summary["lat_p95_ms"], "ms"),
        "fail_ratio": (summary["failed"] / max(1, summary["offered"]), "ratio"),
        "requests": (float(summary["offered"]), "count"),
        "memo_hit_ratio": (summary["memo_hit_ratio"], "ratio"),
        "gen_late_p99_ms": (summary["gen_late_p99_ms"], "ms"),
    }
    if ctx.trace:
        _, traced = results[True]
        out.layers = {
            **store.counts,
            "sim.run_s": sim_s,
            "serve.requests": float(traced["offered"]),
            "serve.fail_ratio": traced["failed"] / max(1, traced["offered"]),
            "trace.overhead_s": traced["busy_s"] - summary["busy_s"],
            **{f"serve.{k}": traced[k] for k in (
                "lat_p50_ms", "lat_p95_ms", "queue_p50_ms", "queue_p95_ms",
                "memo_hit_ratio", "ingest_ms", "gen_late_p99_ms")},
        }
    return out


def run(ctx: RunContext) -> Outcome:
    return asyncio.run(_run(ctx))
