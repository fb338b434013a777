"""Online analysis folds over match deltas.

Each fold consumes :class:`~repro.stream.incremental.MatchDelta`\\ s and
keeps a running accumulator whose ``snapshot()`` is **bit-identical**
to the corresponding batch analysis over the accumulated matches:

* :class:`SummaryFold` — §5.1 headline numbers
  (:func:`repro.core.analysis.summary.headline_stats`);
* :class:`QueuingFold` — Table 2's per-method tallies
  (``jobs_by_class`` / ``local_remote_split``);
* :class:`ThresholdFold` — the Fig 9 cumulative sweep
  (:func:`repro.core.analysis.thresholds.threshold_sweep`);
* :class:`SiteAwarenessFold` / :class:`LinkAwarenessFold` — canonical
  per-site / per-link rows for the co-optimization control loop
  (:mod:`repro.coopt.state`), bit-identical to the batch builders.

The identity argument: counts are integers (order-independent), and
float statistics are computed at snapshot time from timing rows held in
job-sequence order — the exact order the batch analysis iterates — so
``np.mean`` sees identical arrays, not merely equivalent sets.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.analysis.queuing import (
    JobTransferTiming,
    compute_timing,
    geomean_transfer_pct,
    mean_transfer_pct,
)
from repro.core.analysis.summary import HeadlineStats
from repro.core.analysis.thresholds import (
    DEFAULT_THRESHOLDS,
    StatusCombo,
    ThresholdSweep,
)
from repro.core.matching.base import TransferClass


class SummaryFold:
    """Running §5.1 headline statistics for one method."""

    def __init__(self, method: str = "exact") -> None:
        self.method = method
        self.n_matched_jobs = 0
        self._row_ids: set = set()
        #: (job seq, timing) kept sorted by seq — batch match order
        self._timings: List[Tuple[int, JobTransferTiming]] = []

    def update(self, delta) -> None:
        for f in delta.matches.get(self.method, ()):
            self.n_matched_jobs += 1
            for t in f.match.transfers:
                self._row_ids.add(t.row_id)
            timing = compute_timing(f.match)
            if timing is not None:
                insort(self._timings, (f.seq, timing))

    def snapshot(
        self, n_jobs: int, n_transfers: int, n_transfers_with_taskid: int
    ) -> HeadlineStats:
        timings = [t for _, t in self._timings]
        return HeadlineStats(
            n_jobs=n_jobs,
            n_transfers=n_transfers,
            n_transfers_with_taskid=n_transfers_with_taskid,
            n_matched_jobs=self.n_matched_jobs,
            n_matched_transfers=len(self._row_ids),
            mean_transfer_pct=mean_transfer_pct(timings),
            geomean_transfer_pct=geomean_transfer_pct(timings),
        )


class QueuingFold:
    """Running Table-2 tallies (job classes, transfer locality split)."""

    def __init__(self, method: str = "exact") -> None:
        self.method = method
        self._by_class: Dict[TransferClass, int] = {c: 0 for c in TransferClass}
        #: row_id -> (job seq of first claimer, is_local) — replayed in
        #: job-sequence order so duplicate row ids resolve exactly like
        #: the batch ``local_remote_split`` first-occurrence rule.
        self._locality: Dict[int, Tuple[int, bool]] = {}

    def update(self, delta) -> None:
        for f in delta.matches.get(self.method, ()):
            self._by_class[f.match.transfer_class] += 1
            for t in f.match.transfers:
                cur = self._locality.get(t.row_id)
                if cur is None or f.seq < cur[0]:
                    self._locality[t.row_id] = (f.seq, t.is_local)

    def jobs_by_class(self) -> Dict[TransferClass, int]:
        return dict(self._by_class)

    def local_remote_split(self) -> Tuple[int, int]:
        local = sum(1 for _, is_local in self._locality.values() if is_local)
        return local, len(self._locality) - local


class ThresholdFold:
    """Running Fig-9 cumulative counts per status combo."""

    def __init__(
        self,
        method: str = "exact",
        thresholds: Sequence[float] = tuple(DEFAULT_THRESHOLDS),
    ) -> None:
        self.method = method
        self.thresholds = sorted(float(t) for t in thresholds)
        self._cumulative: Dict[StatusCombo, List[int]] = {
            c: [0] * len(self.thresholds) for c in StatusCombo
        }
        self.n_jobs = 0

    def update(self, delta) -> None:
        for f in delta.matches.get(self.method, ()):
            timing = compute_timing(f.match)
            if timing is None:
                continue
            self.n_jobs += 1
            counts = self._cumulative[StatusCombo.of(timing)]
            pct = timing.transfer_pct
            for i, th in enumerate(self.thresholds):
                if pct <= th:
                    counts[i] += 1

    def snapshot(self) -> ThresholdSweep:
        return ThresholdSweep(
            thresholds=list(self.thresholds),
            cumulative={c: list(v) for c, v in self._cumulative.items()},
            n_jobs=self.n_jobs,
        )


class SiteAwarenessFold:
    """Canonical per-site awareness rows, accumulated from deltas.

    Keeps one ``(computingsite, queuing_time, failed)`` row per matched
    job, sorted by job sequence — exactly the row list
    :func:`repro.coopt.state.site_rows_from_matches` derives from the
    accumulated batch :class:`~repro.core.matching.base.MatchResult`,
    under any delivery order or batch size.
    """

    def __init__(self, method: str = "exact") -> None:
        self.method = method
        #: (job seq, site, queuing_time | None, failed) sorted by seq
        self._rows: List[Tuple[int, str, Optional[float], bool]] = []

    def update(self, delta) -> None:
        for f in delta.matches.get(self.method, ()):
            rec = f.match.job
            insort(
                self._rows,
                (f.seq, rec.computingsite, rec.queuing_time, not rec.succeeded),
            )

    def rows(self) -> List[Tuple[str, Optional[float], bool]]:
        return [(site, wait, failed) for _, site, wait, failed in self._rows]


class LinkAwarenessFold:
    """Canonical per-link awareness rows, accumulated from deltas.

    Transfer rows shared between matched jobs resolve to the claim with
    the smallest ``(job seq, position)`` — the batch builder's
    first-occurrence rule — and failed / zero-duration records are
    never claimed, mirroring
    :func:`repro.coopt.state.link_rows_from_matches` exactly.
    """

    def __init__(self, method: str = "exact") -> None:
        self.method = method
        #: row_id -> (job seq, position, (src, dst, throughput))
        self._claims: Dict[int, Tuple[int, int, Tuple[str, str, float]]] = {}

    def update(self, delta) -> None:
        for f in delta.matches.get(self.method, ()):
            for pos, t in enumerate(f.match.transfers):
                if not t.success or t.duration <= 0:
                    continue
                cur = self._claims.get(t.row_id)
                if cur is None or (f.seq, pos) < (cur[0], cur[1]):
                    self._claims[t.row_id] = (
                        f.seq,
                        pos,
                        (t.source_site, t.destination_site, t.throughput),
                    )

    def rows(self) -> List[Tuple[str, str, float]]:
        return [row for _, _, row in sorted(self._claims.values())]


class FoldSet:
    """A named bundle of folds updated together per delta."""

    def __init__(self, folds: Optional[Dict[str, object]] = None) -> None:
        self.folds: Dict[str, object] = dict(folds) if folds else {}

    @classmethod
    def default(cls, method: str = "exact") -> "FoldSet":
        return cls(
            {
                "summary": SummaryFold(method),
                "queuing": QueuingFold(method),
                "thresholds": ThresholdFold(method),
            }
        )

    @classmethod
    def with_awareness(cls, method: str = "exact") -> "FoldSet":
        """The default folds plus the control loop's awareness folds."""
        fs = cls.default(method)
        fs.folds["site_awareness"] = SiteAwarenessFold(method)
        fs.folds["link_awareness"] = LinkAwarenessFold(method)
        return fs

    def update(self, delta) -> None:
        for fold in self.folds.values():
            fold.update(delta)

    def __getitem__(self, name: str):
        return self.folds[name]

    def __contains__(self, name: str) -> bool:
        return name in self.folds
