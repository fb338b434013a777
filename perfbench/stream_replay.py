"""``stream_replay``: a 2-day campaign's telemetry through ``StreamProcessor``.

Set-up simulates and degrades a campaign and builds its event log; the
timed part replays the log in 15-minute micro-batches as a closed loop
(each ``process()`` starts when the previous one returns), then
flushes with ``finish()``.  The metastore is fed by many small appends
instead of one bulk load, so an ingest change that helps ``campaign``
but hurts appends shows here.
"""

from __future__ import annotations

import gc
import time

from repro.exec.artifacts import ArtifactCache, build_report
from repro.exec.executor import make_matchers
from repro.exec.plan import WindowPlan
from repro.metastore.opensearch import OpenSearchLike
from repro.scenarios.eightday import EightDayConfig, EightDayStudy
from repro.serve.service import bit_identical
from repro.stream import EventLog, StreamProcessor

from perfbench.campaign import METHODS
from perfbench.common import (
    Outcome,
    RunContext,
    median,
    peak_rss_mb,
    percentile,
    rep_seed,
)

DAYS = {"full": 2.0, "tiny": 0.1}
BATCH_SECONDS = 900.0
#: Inputs (simulated campaigns) per run; ``setup_s`` is the median of theirs.
INPUTS = {"full": 2, "tiny": 2}
NOMINAL_REPLAY_S = {"full": 0.8, "tiny": 0.05}
LAYERS = (
    "sim.run_s", "sim.jobs", "sim.transfers", "telemetry.degrade_s",
    "stream.log_s", "stream.process_s", "stream.finish_s",
    "stream.batch_p50_ms", "stream.batch_p95_ms", "stream.batches",
    "stream.events", "stream.late_events", "stream.pending_max",
    "trace.overhead_s",
    *(f"columnar.{m}_jobs" for m in METHODS),
)


class Input:
    """One simulated campaign, its micro-batches and the batch reference."""

    def __init__(self, seed: int, days: float) -> None:
        self.seed = seed
        t = time.perf_counter()
        study = EightDayStudy(EightDayConfig(seed=seed, days=days)).run()
        t_sim = time.perf_counter()
        telemetry = study.telemetry
        t_degrade = time.perf_counter()
        self.window = study.harness.window
        log = EventLog.from_telemetry(telemetry, *self.window)
        t_log = time.perf_counter()
        self.batches = list(log.micro_batches(batch_seconds=BATCH_SECONDS))
        self.setup_s = time.perf_counter() - t
        self.sim_s = t_sim - t
        self.degrade_s = t_degrade - t_sim
        self.log_s = t_log - t_degrade
        self.known_sites = study.harness.known_site_names()
        self.sim_counts = {
            "sim.jobs": study.harness.collector.n_jobs,
            "sim.transfers": study.harness.collector.n_transfers,
        }
        # The batch pipeline on the same telemetry: what the stream must equal.
        artifacts = ArtifactCache(OpenSearchLike.from_telemetry(telemetry)).get(
            WindowPlan(*self.window)
        )
        self.reference = build_report(artifacts, self.matchers())

    def matchers(self):
        return make_matchers(METHODS, self.known_sites)


def replay(inp: Input, rec) -> tuple:
    """The timed part: every micro-batch, the flush, and the final report."""
    processor = StreamProcessor(*inp.window, known_sites=inp.known_sites,
                                matchers=inp.matchers())
    latencies = []
    pending_max = 0
    start = time.perf_counter()
    for batch in inp.batches:
        t = time.perf_counter()
        with rec.span("stream.process_s"):
            processor.process(batch)
        latencies.append(time.perf_counter() - t)
        pending_max = max(pending_max, processor.matcher.n_pending)
    with rec.span("stream.finish_s"):
        processor.finish()
    report = processor.report()
    wall = time.perf_counter() - start
    return processor, report, latencies, pending_max, wall


def run(ctx: RunContext) -> Outcome:
    out = Outcome()
    days = DAYS[ctx.size]
    inputs = []
    for i in range(INPUTS[ctx.size]):
        gc.collect()
        inputs.append(Input(rep_seed(ctx.seed, i), days))

    replay(inputs[0], ctx.recorder)  # untimed warm-up: every lazy path runs once
    n = max(len(inputs), round(ctx.seconds / NOMINAL_REPLAY_S[ctx.size]))
    walls = {i: [] for i in range(len(inputs))}
    latencies, traced_latencies, traced_ids = [], [], []
    traced_walls, untraced_walls = {}, {}
    for run_id, (idx, traced) in enumerate(ctx.reps(n)):
        inp = inputs[idx % len(inputs)]
        gc.collect()
        with ctx.traced(traced, run_id):
            with ctx.recorder.span("stream_replay.rep"):
                processor, report, lat, pending_max, wall = replay(inp, ctx.recorder)
        (traced_walls if traced else untraced_walls)[idx] = wall
        if traced:
            traced_ids.append(run_id)
            traced_latencies.extend(lat)
        else:
            walls[idx % len(inputs)].append(wall)
            latencies.extend(lat)

        out.check(bit_identical(report, inp.reference),
                  f"stream_replay seed {inp.seed}: streamed report differs from batch")
        metrics = processor.metrics()
        counters = {
            **inp.sim_counts,
            "stream.batches": len(lat),
            "stream.events": metrics.n_events,
            "stream.late_events": metrics.n_late_events,
            "stream.pending_max": pending_max,
        }
        for m in METHODS:
            counters[f"columnar.{m}_jobs"] = report[m].n_matched_jobs
        ctx.ledger.record(inp.seed, counters)

    # Mean over inputs of each input's median replay: the median damps
    # machine noise, the mean spreads the inputs' own differences.
    per_input = [median(w) for w in walls.values() if w]
    out.end_to_end = {
        "setup_s": median([inp.setup_s for inp in inputs]),
        "wall_s": sum(per_input) / len(per_input),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.extra = {
        "batch_p50_ms": (1000 * percentile(latencies, 0.50), "ms"),
        "batch_p95_ms": (1000 * percentile(latencies, 0.95), "ms"),
        "batches_timed": (float(len(latencies)), "count"),
    }
    if ctx.trace:
        layers = ctx.layer_medians(traced_ids)
        layers.update({
            "sim.run_s": median([inp.sim_s for inp in inputs]),
            "telemetry.degrade_s": median([inp.degrade_s for inp in inputs]),
            "stream.log_s": median([inp.log_s for inp in inputs]),
            "stream.batch_p50_ms": 1000 * percentile(traced_latencies, 0.50),
            "stream.batch_p95_ms": 1000 * percentile(traced_latencies, 0.95),
            "trace.overhead_s": median(
                [traced_walls[i] - untraced_walls[i] for i in traced_walls]
            ),
        })
        out.layers = layers
    return out
