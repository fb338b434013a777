"""Zero-copy pack archives for executor workers.

``ParallelExecutor`` historically seeded each worker by pickling the
whole source into the pool initializer — a per-worker copy whose cost
grows linearly with the data and which cannot survive a paper-scale
rung.  This module spools a source's column packs (plus the sidecar
columns and pre-sorted shard indices of
:class:`~repro.metastore.packsource.PackSource`) to ``.npy`` files on a
shared-memory filesystem (``/dev/shm`` when present), and workers
*attach* by path: every array comes back as a read-only ``np.memmap``,
so the data is mapped — shared, demand-paged, never copied — rather
than deserialized.

Memory-mapped NumPy files are used instead of raw
``multiprocessing.shared_memory`` segments deliberately: they carry
dtype/shape metadata for free, the OS refcounts the mapping (no
resource-tracker unlink races across pool generations), and on
``/dev/shm`` the pages are the same RAM a named segment would use.

Lifecycle: archives are refcounted per pool key (see
:func:`acquire`/:func:`release`) — the executor acquires when it builds
a pool for a ``(source-token, generation)`` key and releases
when that pool is rotated (generation bump, source change) or closed,
at which point the spool directory is unlinked.  An ``atexit`` sweep
catches anything a crashed caller leaked.  Export failures (exotic
sources, read-only filesystems) are not fatal: callers fall back to the
pickle path.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import tempfile
import threading
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.obs import get_obs

#: Manifest schema version; bump on layout changes.
_VERSION = 1

_SHM_ROOT = "/dev/shm"


class ExportError(RuntimeError):
    """A source could not be spooled to a pack archive."""


@dataclass(frozen=True)
class ArchiveRef:
    """Picklable handle a pool initializer resolves with :func:`attach`.

    This is what crosses the process boundary instead of the source:
    a path string, not megabytes of records.
    """

    path: str


def spool_root() -> Path:
    """Preferred spool directory: a RAM-backed tmpfs when available."""
    root = Path(_SHM_ROOT)
    if root.is_dir() and os.access(root, os.W_OK):
        return root
    return Path(tempfile.gettempdir())


def _vocab_blob(strings: List[str]) -> tuple:
    encoded = [s.encode("utf-8") for s in strings]
    lens = np.array([len(b) for b in encoded], dtype=np.int64)
    return b"".join(encoded), lens


def _split_vocab(blob: bytes, lens: np.ndarray) -> List[str]:
    out = []
    pos = 0
    for n in lens.tolist():
        out.append(blob[pos:pos + n].decode("utf-8"))
        pos += n
    return out


class PackArchive:
    """One spooled source: a directory of ``.npy`` columns + manifest."""

    def __init__(self, path: Path, manifest: dict) -> None:
        self.path = Path(path)
        self.manifest = manifest

    @property
    def generation(self) -> int:
        return int(self.manifest["generation"])

    @property
    def nbytes(self) -> int:
        return int(self.manifest.get("nbytes", 0))

    # -- export ---------------------------------------------------------------

    @classmethod
    def export(cls, source, directory: Optional[Path] = None) -> "PackArchive":
        """Spool ``source``'s packs to a fresh archive directory.

        Works for any source exposing ``column_packs()``; sources that
        are not already a :class:`PackSource` are wrapped in one (their
        record collections provide the sidecar fields).  Raises
        :class:`ExportError` when the source cannot be represented —
        callers treat that as "use the pickle path".
        """
        from repro.metastore.packsource import (
            DEFAULT_SHARD_SECONDS,
            PackSource,
            lower_sidecar,
        )

        with get_obs().tracer.span("columnar.shm_export", cat="columnar") as sp:
            try:
                packs = source.column_packs()
            except Exception as exc:  # no columnar surface at all
                raise ExportError(f"source has no column packs: {exc}") from exc
            if isinstance(source, PackSource):
                ps = source
            else:
                try:
                    sidecar = lower_sidecar(
                        list(source.jobs), list(source.files), list(source.transfers),
                        packs.interner,
                    )
                except Exception as exc:
                    raise ExportError(f"cannot lower sidecar columns: {exc}") from exc
                ps = PackSource(
                    packs,
                    sidecar,
                    shard_seconds=getattr(source, "shard_seconds", DEFAULT_SHARD_SECONDS),
                    generation=getattr(source, "generation", 0),
                )

            root = Path(directory) if directory is not None else spool_root()
            path = root / f"repro-packs-{os.getpid()}-{uuid.uuid4().hex[:12]}"
            try:
                path.mkdir(parents=True)
                arrays = _collect_arrays(ps)
                nbytes = 0
                for name, arr in arrays.items():
                    np.save(path / f"{name}.npy", np.ascontiguousarray(arr))
                    nbytes += arr.nbytes
                blob, lens = _vocab_blob(ps.interner.strings)
                (path / "vocab.bin").write_bytes(blob)
                np.save(path / "vocab_lens.npy", lens)
                manifest = {
                    "version": _VERSION,
                    "generation": int(ps.generation),
                    "shard_seconds": float(ps.shard_seconds),
                    "n_vocab": len(ps.interner),
                    "nbytes": int(nbytes + len(blob) + lens.nbytes),
                    "counts": ps.counts(),
                }
                (path / "manifest.json").write_text(json.dumps(manifest))
            except ExportError:
                shutil.rmtree(path, ignore_errors=True)
                raise
            except Exception as exc:
                shutil.rmtree(path, ignore_errors=True)
                raise ExportError(f"spool failed: {exc}") from exc
            sp.set("path", str(path))
            sp.set("nbytes", manifest["nbytes"])
            obs = get_obs()
            if obs.enabled:
                obs.metrics.counter("executor.shm", event="export").inc()
            return cls(path, manifest)

    # -- attach ---------------------------------------------------------------

    def attach(self):
        """Rebuild a read-only ``PackSource`` over memory-mapped columns."""
        return attach(ArchiveRef(str(self.path)))

    def unlink(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def exists(self) -> bool:
        return (self.path / "manifest.json").is_file()


def _collect_arrays(ps) -> Dict[str, np.ndarray]:
    import dataclasses

    arrays: Dict[str, np.ndarray] = {}
    for prefix, pack in (
        ("jobs", ps.columns.jobs),
        ("files", ps.columns.files),
        ("transfers", ps.columns.transfers),
        ("side", ps.sidecar),
    ):
        for f in dataclasses.fields(pack):
            arrays[f"{prefix}_{f.name}"] = getattr(pack, f.name)
    jv, ji, tv, ti, fo = ps.index_arrays()
    arrays["idx_job_vals"] = jv
    arrays["idx_job_ids"] = ji
    arrays["idx_transfer_vals"] = tv
    arrays["idx_transfer_ids"] = ti
    arrays["idx_file_order"] = fo
    return arrays


def attach(ref: ArchiveRef):
    """Open an archive as a ``PackSource`` of read-only memmaps."""
    import dataclasses

    from repro.columnar.interner import StringInterner
    from repro.columnar.packs import FilePack, JobPack, TransferPack, WindowColumns
    from repro.metastore.packsource import PackSource, SidecarColumns

    path = Path(ref.path)
    with get_obs().tracer.span("columnar.shm_attach", cat="columnar") as sp:
        manifest = json.loads((path / "manifest.json").read_text())
        if manifest.get("version") != _VERSION:
            raise ExportError(f"archive version mismatch at {path}")
        blob = (path / "vocab.bin").read_bytes()
        lens = np.load(path / "vocab_lens.npy")
        interner = StringInterner()
        for s in _split_vocab(blob, lens):
            interner.intern(s)

        def load(name: str) -> np.ndarray:
            return np.load(path / f"{name}.npy", mmap_mode="r")

        def load_pack(prefix: str, pack_cls):
            return pack_cls(**{
                f.name: load(f"{prefix}_{f.name}")
                for f in dataclasses.fields(pack_cls)
            })

        columns = WindowColumns(
            interner=interner,
            jobs=load_pack("jobs", JobPack),
            files=load_pack("files", FilePack),
            transfers=load_pack("transfers", TransferPack),
        )
        sidecar = load_pack("side", SidecarColumns)
        source = PackSource(
            columns,
            sidecar,
            shard_seconds=manifest["shard_seconds"],
            generation=manifest["generation"],
            index_arrays=(
                load("idx_job_vals"),
                load("idx_job_ids"),
                load("idx_transfer_vals"),
                load("idx_transfer_ids"),
                load("idx_file_order"),
            ),
        )
        sp.set("path", str(path))
        sp.set("nbytes", manifest.get("nbytes", 0))
    obs = get_obs()
    if obs.enabled:
        obs.metrics.counter("executor.shm", event="attach").inc()
    return source


# -- refcounted registry (one archive per live pool key) ----------------------

_ARCHIVES: Dict[tuple, list] = {}
_ARCHIVES_LOCK = threading.Lock()


def acquire(source, key: tuple) -> PackArchive:
    """The archive for ``key``, exporting on first acquisition.

    Each pool holding the archive open must balance with one
    :func:`release`; the spool directory is unlinked when the last
    holder lets go.  Thread-safe: two executors racing the same key get
    one export and two refcounts, never two spools.
    """
    with _ARCHIVES_LOCK:
        entry = _ARCHIVES.get(key)
        if entry is None:
            entry = _ARCHIVES[key] = [None, 0]
        entry[1] += 1
    if entry[0] is None:
        # Export outside the lock (it can be slow); publish under it.
        try:
            archive = PackArchive.export(source)
        except Exception:
            release(key)
            raise
        with _ARCHIVES_LOCK:
            if entry[0] is None:
                entry[0] = archive
            else:  # lost the publication race; keep the winner's spool
                archive.unlink()
    return entry[0]


def release(key: tuple) -> None:
    with _ARCHIVES_LOCK:
        entry = _ARCHIVES.get(key)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] > 0:
            return
        del _ARCHIVES[key]
    if entry[0] is not None:
        entry[0].unlink()


def active_archives() -> Dict[tuple, PackArchive]:
    """Live archives by pool key (observability + lifecycle tests)."""
    with _ARCHIVES_LOCK:
        return {k: v[0] for k, v in _ARCHIVES.items() if v[0] is not None}


@atexit.register
def _sweep() -> None:
    with _ARCHIVES_LOCK:
        entries = list(_ARCHIVES.values())
        _ARCHIVES.clear()
    for entry in entries:
        if entry[0] is not None:
            entry[0].unlink()
