"""The multi-tenant match/analysis service.

:class:`MatchService` is a long-lived asyncio front end over the
dataplane built in PRs 1-6: one shared metastore
(:class:`~repro.metastore.opensearch.OpenSearchLike` or
:class:`~repro.metastore.packsource.PackSource`), one thread-safe
:class:`~repro.exec.artifacts.ArtifactCache`, one cross-tenant
:class:`~repro.serve.memo.ResultMemo`, and a bounded pool of compute
workers.  Request flow::

    submit ──► admission (token bucket + queue bound) ──► shed?
                  │
                  ▼
           per-tenant FIFO + stride scheduler (weighted fair order)
                  │
                  ▼
           bounded worker pool ──► memo (generation-keyed, single
                  │                 flight) ──► ArtifactCache ──►
                  ▼                 Exact/RM1/RM2 kernels / analyses
               response

Live ingest runs concurrently with serving: :meth:`ingest` (and
:meth:`feed` when a :class:`~repro.stream.StreamProcessor` is
attached) takes the write side of a reader-writer lock while queries
hold the read side, so a query observes exactly one store generation
end to end — the generation its memo key and response carry.  Stale
results can never be served: keys embed the generation, and the memo
evicts dead generations on the next miss.

Compute is CPU-bound Python/NumPy; the worker pool is threads by
default (they share the artifact cache and release the GIL inside the
kernels).  Passing ``executor=ParallelExecutor(...)`` routes whole
match reports through the persistent process pool instead — several
service threads then issue concurrent ``execute`` calls against one
pool key, which is exactly the sharing contract the executor's lock
now guarantees.

Built-in verification: with ``verify_every=N`` every Nth completed
request is recomputed directly (fresh artifacts, no cache, no memo)
under the same read-lock hold and compared ``==`` — the serving
layer's bit-identity claim, continuously sampled in production style
rather than asserted once in a test.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.exec.analysis import ANALYSIS_NAMES, AnalysisSpec, analyze_report
from repro.exec.artifacts import ArtifactCache, WindowArtifacts, build_report
from repro.exec.executor import ParallelExecutor, default_matchers
from repro.exec.plan import WindowPlan
from repro.obs import get_obs
from repro.serve.admission import AdmissionController, AdmissionPolicy
from repro.serve.memo import ResultMemo
from repro.serve.scheduler import FairScheduler

DEFAULT_METHODS: Tuple[str, ...] = ("exact", "rm1", "rm2")


def bit_identical(a, b) -> bool:
    """Structural equality that treats NumPy arrays as values.

    ``MatchingReport`` compares with plain ``==``, but analysis results
    are dataclasses holding arrays, where ``==`` broadcasts.  This is
    the equality the bit-identity guarantee is stated in: same
    structure, same dtypes, same bits (NaN equals NaN — the arrays are
    byte-identical even where IEEE ``==`` is not reflexive).
    """
    import dataclasses
    import math

    import numpy as np

    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        if a.shape != b.shape or a.dtype != b.dtype:
            return False
        return bool(np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"))
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        # compare=False fields are lazy caches (MatchResult._frame,
        # ._transfer_ids): whether they are populated depends on what
        # else touched the object, not on its value.
        return all(
            bit_identical(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
            if f.compare
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(bit_identical(v, b[k]) for k, v in a.items())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(bit_identical(x, y) for x, y in zip(a, b))
    eq = a == b
    if isinstance(eq, np.ndarray):
        return bool(eq.all())
    return bool(eq)


# -- queries and responses ----------------------------------------------------


@dataclass(frozen=True)
class MatchQuery:
    """Window-match request: the Exact/RM1/RM2 report for one window."""

    t0: float
    t1: float
    methods: Tuple[str, ...] = DEFAULT_METHODS
    user_jobs_only: bool = True

    def key(self, generation: int) -> tuple:
        return (generation, "match", self.t0, self.t1, self.user_jobs_only,
                self.methods)


@dataclass(frozen=True)
class AnalysisQuery:
    """One named §5 analysis over one window's matching report."""

    t0: float
    t1: float
    spec: str = "headline"
    method: str = "exact"
    user_jobs_only: bool = True

    def __post_init__(self) -> None:
        if self.spec not in ANALYSIS_NAMES:
            raise ValueError(
                f"unknown analysis {self.spec!r} (known: {', '.join(ANALYSIS_NAMES)})"
            )

    def key(self, generation: int) -> tuple:
        return (generation, "analysis", self.t0, self.t1, self.user_jobs_only,
                self.spec, self.method)

    def match_query(self) -> MatchQuery:
        """The match report this analysis reads (memo-shared)."""
        return MatchQuery(self.t0, self.t1, DEFAULT_METHODS, self.user_jobs_only)


@dataclass
class Response:
    """What a tenant gets back for one submitted query."""

    tenant: str
    status: str                      # "ok" | "shed"
    reason: str = ""                 # shed reason ("rate" | "queue")
    value: object = None
    generation: int = -1
    cached: bool = False
    latency: float = 0.0             # submit → completion, seconds
    queued: float = 0.0              # time spent in the fair queue

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# -- reader-writer lock -------------------------------------------------------


class RWLock:
    """Many readers or one writer, writer-preferring.

    Queries hold the read side for their whole compute so the store
    generation cannot move under them; ingest takes the write side.
    Writer preference keeps ingest from starving while the service is
    saturated with queries.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    class _Side:
        def __init__(self, lock: "RWLock", write: bool) -> None:
            self.lock, self.write = lock, write

        def __enter__(self):
            (self.lock.acquire_write if self.write else self.lock.acquire_read)()
            return self

        def __exit__(self, *exc) -> bool:
            (self.lock.release_write if self.write else self.lock.release_read)()
            return False

    def read(self) -> "_Side":
        return self._Side(self, write=False)

    def write(self) -> "_Side":
        return self._Side(self, write=True)


# -- the service --------------------------------------------------------------


@dataclass
class ServeConfig:
    """Operational knobs for one :class:`MatchService`."""

    #: bounded compute concurrency (thread pool size / dispatch slots)
    max_workers: int = 4
    #: default per-tenant admission policy (overridable per tenant)
    policy: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: served-result memo capacity
    memo_entries: int = 512
    #: window-artifact cache capacity
    cache_entries: int = 32
    #: recompute every Nth completed request directly and compare (0 = off)
    verify_every: int = 0

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")


class MatchService:
    """Serve window-match and analysis queries from many tenants.

    Synchronous core + asyncio shell: :meth:`handle` runs one admitted
    query to completion on the calling thread (tests and the direct
    path use it); :meth:`submit` is the async front door that applies
    admission, fair scheduling, and the bounded worker pool.
    """

    def __init__(
        self,
        source,
        known_sites: Optional[set] = None,
        tenants: Optional[Dict[str, float]] = None,
        config: Optional[ServeConfig] = None,
        executor: Optional[ParallelExecutor] = None,
        stream=None,
        clock=None,
    ) -> None:
        self.source = source
        self.known_sites = known_sites or set()
        self.config = config or ServeConfig()
        self.executor = executor
        self.stream = stream
        self.cache = ArtifactCache(source, max_entries=self.config.cache_entries)
        self.memo = ResultMemo(max_entries=self.config.memo_entries)
        self.rwlock = RWLock()
        self.admission = AdmissionController(clock=clock)
        self.scheduler = FairScheduler()
        self._tenants: Dict[str, float] = {}
        for tenant, weight in (tenants or {}).items():
            self.register_tenant(tenant, weight)
        self._verify_counter = itertools.count(1)
        self._verify_lock = threading.Lock()
        self.verify_samples = 0
        self.verify_violations = 0
        # asyncio plumbing (populated by start())
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._wake: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._inflight = 0
        self._running = False

    # -- tenants ---------------------------------------------------------------

    def register_tenant(
        self,
        tenant: str,
        weight: float = 1.0,
        policy: Optional[AdmissionPolicy] = None,
    ) -> None:
        self._tenants[tenant] = float(weight)
        self.scheduler.register(tenant, weight)
        self.admission.register(tenant, policy or self.config.policy)

    @property
    def tenants(self) -> Dict[str, float]:
        return dict(self._tenants)

    # -- ingest (the write side) ----------------------------------------------

    def ingest(self, jobs=(), files=(), transfers=()) -> int:
        """Append telemetry while serving; queries never see a torn state."""
        with self.rwlock.write():
            n = self.source.ingest_batch(jobs=jobs, files=files, transfers=transfers)
        obs = get_obs()
        if obs.enabled:
            obs.metrics.counter("serve.ingested_records").inc(n)
        return n

    def feed(self, events) -> object:
        """Drive the attached :class:`StreamProcessor` one micro-batch.

        The processor ingests into this service's source and keeps its
        incremental match state current; queries running concurrently
        keep reading the pre-batch generation until the write lock is
        released.
        """
        if self.stream is None:
            raise RuntimeError("service has no attached StreamProcessor")
        with self.rwlock.write():
            return self.stream.process(events)

    # -- synchronous serving core ---------------------------------------------

    def handle(self, tenant: str, query) -> Response:
        """Run one admitted query to completion on this thread."""
        value, generation, cached = self._compute(query)
        return Response(
            tenant=tenant,
            status="ok",
            value=value,
            generation=generation,
            cached=cached,
        )

    def _compute(self, query) -> Tuple[object, int, bool]:
        with self.rwlock.read():
            generation = getattr(self.source, "generation", 0)
            key = query.key(generation)
            value, cached = self.memo.get_or_compute(
                key, lambda: self._execute(query)
            )
            if self.config.verify_every:
                n = next(self._verify_counter)
                if n % self.config.verify_every == 0:
                    self._verify(query, value)
        return value, generation, cached

    def _spec(self, query: AnalysisQuery) -> AnalysisSpec:
        if query.spec == "matrix":  # needs the site axis + UNKNOWN bucket
            from repro.telemetry.records import UNKNOWN_SITE

            names = sorted(set(self.known_sites) | {UNKNOWN_SITE})
            return AnalysisSpec.make(
                query.spec, method=query.method, site_names=tuple(names)
            )
        return AnalysisSpec(name=query.spec, method=query.method)

    def _matchers(self, methods: Sequence[str]):
        by_name = {m.name: m for m in default_matchers(self.known_sites)}
        unknown = [m for m in methods if m not in by_name]
        if unknown:
            raise ValueError(f"unknown matcher(s): {', '.join(unknown)}")
        return [by_name[m] for m in methods]

    def _execute(self, query):
        """Uncached compute of one query (called under the memo flight)."""
        plan = WindowPlan(query.t0, query.t1, query.user_jobs_only)
        if isinstance(query, MatchQuery):
            if self.executor is not None:
                return self.executor.execute(
                    self.source, [plan], matchers=self._matchers(query.methods)
                )[0]
            return build_report(self.cache.get(plan), self._matchers(query.methods))
        # Analysis: share the window's full match report through the
        # memo (the same entry a MatchQuery for this window would use),
        # then run just the requested spec over it.
        mq = query.match_query()
        generation = getattr(self.source, "generation", 0)
        report, _ = self.memo.get_or_compute(
            mq.key(generation), lambda: self._execute(mq)
        )
        artifacts = self.cache.get(plan)
        return analyze_report(report, artifacts, [self._spec(query)])[query.spec]

    # -- verification ----------------------------------------------------------

    def _direct(self, query):
        """Ground-truth recompute: no artifact cache, no memo, no pool."""
        plan = WindowPlan(query.t0, query.t1, query.user_jobs_only)
        artifacts = WindowArtifacts.materialize(self.source, plan)
        if isinstance(query, MatchQuery):
            return build_report(artifacts, self._matchers(query.methods))
        report = build_report(artifacts, self._matchers(DEFAULT_METHODS))
        return analyze_report(report, artifacts, [self._spec(query)])[query.spec]

    def _verify(self, query, value) -> None:
        direct = self._direct(query)
        same = bit_identical(direct, value)
        with self._verify_lock:
            self.verify_samples += 1
            if not same:
                self.verify_violations += 1
        obs = get_obs()
        if obs.enabled:
            obs.metrics.counter(
                "serve.verify", outcome="ok" if same else "violation"
            ).inc()

    # -- asyncio shell ---------------------------------------------------------

    async def start(self) -> "MatchService":
        if self._running:
            return self
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_workers, thread_name_prefix="serve"
        )
        self._wake = asyncio.Event()
        self._running = True
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def stop(self) -> None:
        if not self._running:
            return
        await self.drain()
        self._running = False
        self._wake.set()
        await self._dispatcher
        self._pool.shutdown(wait=True)
        if self.executor is not None:
            self.executor.close()

    async def __aenter__(self) -> "MatchService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def drain(self) -> None:
        """Wait for every queued and in-flight request to complete."""
        while len(self.scheduler) or self._inflight:
            await asyncio.sleep(0.001)

    async def submit(self, tenant: str, query) -> Response:
        """The async front door: admission → fair queue → worker pool."""
        if not self._running:
            raise RuntimeError("service is not started")
        obs = get_obs()
        t_submit = self._loop.time()
        reason = self.admission.admit(tenant, self.scheduler.depth(tenant))
        if reason is not None:
            if obs.enabled:
                obs.metrics.counter("serve.requests", tenant=tenant, status="shed").inc()
                obs.metrics.counter("serve.shed", reason=reason).inc()
            return Response(tenant=tenant, status="shed", reason=reason)
        future = self._loop.create_future()
        self.scheduler.push(tenant, (query, future, t_submit))
        self._wake.set()
        return await future

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if not self._running:
                return
            while self._inflight < self.config.max_workers:
                item = self.scheduler.pop()
                if item is None:
                    break
                tenant, (query, future, t_submit) = item
                self._inflight += 1
                t_start = self._loop.time()
                work = self._loop.run_in_executor(
                    self._pool, self._compute, query
                )
                asyncio.ensure_future(
                    self._finish(tenant, future, t_submit, t_start, work)
                )

    async def _finish(self, tenant, future, t_submit, t_start, work) -> None:
        obs = get_obs()
        try:
            value, generation, cached = await work
        except BaseException as exc:
            if obs.enabled:
                obs.metrics.counter("serve.requests", tenant=tenant, status="error").inc()
            if not future.done():
                future.set_exception(exc)
        else:
            now = self._loop.time()
            response = Response(
                tenant=tenant,
                status="ok",
                value=value,
                generation=generation,
                cached=cached,
                latency=now - t_submit,
                queued=t_start - t_submit,
            )
            if obs.enabled:
                obs.metrics.counter("serve.requests", tenant=tenant, status="ok").inc()
                obs.metrics.histogram("serve.latency", tenant=tenant).observe(
                    response.latency
                )
                obs.metrics.counter(
                    "serve.memo_served", outcome="hit" if cached else "miss"
                ).inc()
            if not future.done():
                future.set_result(response)
        finally:
            self._inflight -= 1
            self._wake.set()

    # -- introspection ---------------------------------------------------------

    @property
    def stats(self) -> dict:
        return {
            "memo": self.memo.stats,
            "cache": self.cache.stats,
            "shed": dict(self.admission.shed_counts),
            "verify": {
                "samples": self.verify_samples,
                "violations": self.verify_violations,
            },
        }
