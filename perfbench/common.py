"""Shared machinery for the benchmark workloads.

* :class:`Recorder` — in-memory layer spans (name, start, end, parent,
  run id) recorded from the benchmark's side of each public call, with
  self time computed as a span's duration minus the part of it that its
  child spans cover.  The disabled recorder hands out one shared no-op
  context, so untraced runs pay a method call per layer, not a span.
* statistics helpers (medians, linear-interpolation percentiles);
* process facts: peak / current RSS, the environment fingerprint;
* :class:`CounterLedger` — deterministic work counters persisted per
  (workload, size, seed) so a later run of the same code and seed can
  check that they repeat exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from repro.obs import Obs, use_obs

#: Root of the checkout (the directory holding ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Everything the benchmark writes lives under here (git-ignored).
OUT_DIR = ROOT / ".perfbench"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def rep_seed(seed: int, i: int) -> int:
    """The i-th input seed of a run; rep 0 uses the run's seed itself."""
    return seed if i == 0 else seed * 1000 + i


# -- statistics -----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile; 0.0 for no values."""
    return float(np.quantile(values, q)) if len(values) else 0.0


def union_length(intervals: Iterable[tuple]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


# -- process facts --------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / (1024.0 * 1024.0)


def _git_sha() -> Optional[str]:
    """HEAD's sha read straight from ``.git`` (no subprocess); None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _code_digest() -> str:
    """sha256 over the program's and the benchmark's sources (works outside git)."""
    h = hashlib.sha256()
    for top in (ROOT / "src" / "repro", ROOT / "perfbench"):
        for path in sorted(top.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    """The fingerprint stamped on every result."""
    return {
        "git_sha": _git_sha(),
        "code_sha256": _code_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "platform": platform.platform(),
    }


# -- layer spans -----------------------------------------------------------------


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """Layer spans kept in memory; written out once when the run ends.

    Spans nest through a stack (the benchmark calls layers one at a
    time); concurrent work, such as served requests, is added with
    :meth:`add` and an explicit parent.  ``run_id`` tags every span
    recorded until it is changed — one id per repetition, so spans of
    one repetition share it.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self.run_id = 0
        self._stack: List[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL_SPAN
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "name": name, "parent": parent, "run": self.run_id,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: Optional[int]) -> None:
        if self.enabled:
            self.spans.append({"id": len(self.spans), "name": name, "parent": parent,
                               "run": self.run_id, "start": start, "end": end})

    def self_times(self, run_id: int) -> Dict[str, float]:
        """Per span name: summed self time over the spans of one run id."""
        children: Dict[int, List[tuple]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out: Dict[str, float] = {}
        for s in self.spans:
            if s["run"] != run_id:
                continue
            own = (s["end"] - s["start"]) - union_length(children.get(s["id"], ()))
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(extra)
        payload["spans"] = self.spans
        path.write_text(json.dumps(payload, default=str) + "\n")


# -- deterministic counters ----------------------------------------------------------


class CounterLedger:
    """Work counters per input seed, compared against earlier runs.

    Counters depend only on the code and the inputs, never on timing or
    tracing, so a second run of the same code with the same seed must
    reproduce them exactly; any difference is reported as a failed
    check.  The ledger is keyed by the source digest, so changed code
    starts a fresh ledger.
    """

    def __init__(self, workload: str, size: str, seed: int, code: str) -> None:
        self.path = OUT_DIR / "counters" / code / f"{workload}-{size}-seed{seed}.json"
        self.current: Dict[str, dict] = {}
        self.problems: List[str] = []

    def record(self, input_key, counters: dict) -> None:
        """Keep one repetition's counters; a repeat of its input must agree.

        ``input_key`` names the input: its seed, or whatever else (such as
        a schedule length) fixes the work.
        """
        key = str(input_key)
        self._compare(key, self.current.get(key), counters)
        self.current[key] = counters

    def _compare(self, key: str, old: Optional[dict], new: dict) -> None:
        if old is not None and old != new:
            diff = sorted(k for k in set(old) | set(new) if old.get(k) != new.get(k))
            self.problems.append(f"counters for input seed {key} differ: {', '.join(diff)}")

    def check(self) -> List[str]:
        """Mismatches within this run and against the stored ledger; saves."""
        stored: Dict[str, dict] = {}
        if self.path.exists():
            stored = json.loads(self.path.read_text())
        for key, counters in self.current.items():
            self._compare(key, stored.get(key), counters)
        stored.update(self.current)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        return self.problems


# -- one run -----------------------------------------------------------------------


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``.

    ``attempted``/``failed`` count the workload's checked operations;
    ``problems`` says why each failed.  ``end_to_end`` and ``layers``
    are keyed by the metric names of ``BENCHMARK.json``; ``extra`` holds
    further figures printed for people, ``name -> (value, unit)``.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> bool:
        """Count one checked operation; record why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok


@dataclass
class RunContext:
    """A run's arguments plus the recorder and counter ledger it fills."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    size: str
    recorder: Recorder
    ledger: CounterLedger
    #: program-side spans gathered through ``repro.obs`` in traced reps
    program_spans: List[dict] = field(default_factory=list)

    @property
    def tiny(self) -> bool:
        return self.size == "tiny"

    def reps(self, n: int) -> List[Tuple[int, bool]]:
        """``(input index, traced)`` for ``n`` repetitions.

        Untraced runs give every repetition its own input.  Traced runs
        pair each input with an untraced and a traced repetition, so the
        tracing overhead is measured on identical work and the pair's
        counters must agree.
        """
        if not self.trace:
            return [(i, False) for i in range(n)]
        return [(i // 2, bool(i % 2)) for i in range(2 * max(1, n // 2))]

    @contextmanager
    def traced(self, on: bool, run_id: int):
        """Record layer spans (and the program's own spans) when ``on``."""
        self.recorder.run_id = run_id
        if not on:
            self.recorder.enabled = False
            yield
            return
        self.recorder.enabled = True
        obs = Obs.collecting()
        try:
            with use_obs(obs):
                yield
        finally:
            self.recorder.enabled = False
            for sp in obs.tracer.spans:
                self.program_spans.append({
                    "id": sp.span_id, "name": sp.name, "cat": sp.cat,
                    "parent": sp.parent_id, "run": run_id,
                    "start": sp.start, "end": sp.end,
                })

    def layer_medians(self, run_ids: Sequence[int]) -> Dict[str, float]:
        """Median over traced repetitions of each layer's self time."""
        per_run = [self.recorder.self_times(r) for r in run_ids]
        names = sorted({n for d in per_run for n in d})
        return {n: median([d.get(n, 0.0) for d in per_run]) for n in names}


def log(msg: str) -> None:
    """Progress and human-readable output (stdout; the result is the last line)."""
    print(msg, flush=True)
