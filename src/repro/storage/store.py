"""The persistent artifact store: memmap embeddings and durable ANN indexes.

Every expensive artifact the pipeline builds — embedding matrices, LSH
hyperplane tables and code matrices — used to die with the process.  The
:class:`ArtifactStore` externalises them to a directory, keyed by the
fingerprint scheme of :mod:`repro.storage.fingerprint`, so that a restarted
:class:`~repro.core.engine.IntegrationEngine` (or a second engine, or a
process-pool worker) attaches to warm state instead of recomputing it.

Layout (``docs/storage.md`` documents it in full)::

    <root>/
      .tmp/                                  # in-flight publications
      embeddings/<embedder_fp>/<corpus_fp>/
        meta.json                            # version + fingerprints + shape
        keys.json                            # row i of the matrix embeds keys[i]
        matrix.npy                           # loaded with np.load(mmap_mode="r")
      ann/<embedder_fp>/<params_fp>/<corpus_fp>/
        meta.json
        planes.npy                           # (n_tables, n_bits, dimension)
        codes.npy                            # (n_tables, n_values) int64
      ivf/<embedder_fp>/<params_fp>/<corpus_fp>/
        meta.json
        centroids.npy                        # (n_clusters, dimension)
        assignments.npy                      # (n_values,) int64 cluster ids

Three properties the callers rely on:

* **Atomic publication.**  Every artifact is written into a fresh directory
  under ``.tmp/`` and published with one ``rename`` — readers never observe
  a partially written artifact, and two writers racing to publish the same
  fingerprint resolve to one winner (the loser discards its copy; the
  content is identical by construction, so it does not matter which).
* **Validated reads.**  A load checks the format version, both fingerprints
  and the matrix shape against ``meta.json``; any mismatch, missing file or
  unreadable array is treated as a miss (counted in :meth:`statistics`),
  never an error — a corrupt or stale entry degrades to a rebuild.
* **Memmap returns.**  Loaded matrices are ``numpy`` memmaps: attaching a
  10M-row embedding matrix costs a page table, not a copy, and every process
  attaching the same file shares the page cache.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.utils.counters import count

#: On-disk format version; bumped on incompatible layout changes.  A reader
#: treats any other version as a miss, so old stores degrade to cold starts
#: instead of undefined behaviour.
FORMAT_VERSION = 1

#: Store modes accepted by the configuration layer.  ``"off"`` means no store
#: is constructed at all; :class:`ArtifactStore` itself only exists in
#: ``"read"`` (attach, never publish) or ``"readwrite"`` mode.
STORE_MODES = ("off", "read", "readwrite")


class _Counters:
    """Thread-safe counter map shared by every view of one store."""

    __slots__ = ("_lock", "_values")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, int] = {
            "segment_loads": 0,
            "segment_saves": 0,
            "index_loads": 0,
            "index_saves": 0,
            "corrupt_entries": 0,
            "corrupt_segments": 0,
            "rejected_entries": 0,
            "duplicate_publishes": 0,
        }

    def bump(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._values)


class ArtifactStore:
    """A directory of fingerprint-keyed, atomically published artifacts.

    Parameters
    ----------
    root:
        The store directory.  Created (with parents) in ``"readwrite"``
        mode; in ``"read"`` mode a missing directory is simply an empty
        store.
    mode:
        ``"readwrite"`` (attach and publish) or ``"read"`` (attach only —
        every ``save_*`` call is a validated no-op returning ``False``).
    """

    def __init__(self, root: Union[str, Path], mode: str = "readwrite") -> None:
        if mode not in ("read", "readwrite"):
            raise ValueError(
                f"mode must be 'read' or 'readwrite', got {mode!r} "
                "(mode 'off' means: do not construct a store)"
            )
        self.root = Path(root)
        self.mode = mode
        self._counters = _Counters()
        if mode == "readwrite":
            (self.root / ".tmp").mkdir(parents=True, exist_ok=True)

    # -- introspection ---------------------------------------------------------------
    @property
    def can_write(self) -> bool:
        """Whether this view of the store may publish artifacts."""
        return self.mode == "readwrite"

    def with_mode(self, mode: str) -> "ArtifactStore":
        """A view of the same directory under a different mode.

        The view shares the underlying counters, so per-request read-only
        views (the engine's ``store_mode="read"`` override) still account
        their loads against the engine's store statistics.
        """
        if mode == self.mode:
            return self
        view = ArtifactStore(self.root, mode)
        view._counters = self._counters
        return view

    def statistics(self) -> Dict[str, int]:
        """Snapshot of the load/save/corruption counters."""
        return self._counters.snapshot()

    def __repr__(self) -> str:
        return f"ArtifactStore(root={str(self.root)!r}, mode={self.mode!r})"

    # -- embedding segments ----------------------------------------------------------
    def _embeddings_dir(self, embedder_fp: str) -> Path:
        return self.root / "embeddings" / embedder_fp

    def list_embedding_segments(self, embedder_fp: str) -> List[str]:
        """Corpus fingerprints of every published segment for one embedder."""
        directory = self._embeddings_dir(embedder_fp)
        if not directory.is_dir():
            return []
        return sorted(
            entry.name for entry in directory.iterdir()
            if entry.is_dir() and not entry.name.startswith(".")
        )

    def load_embedding_segment(
        self, embedder_fp: str, corpus_fp: str
    ) -> Optional[Tuple[List[str], np.ndarray]]:
        """Attach one segment: ``(keys, matrix)`` with the matrix memmapped.

        Row ``i`` of the matrix is the embedding of ``keys[i]``.  Returns
        ``None`` — never raises — when the segment is absent, written for
        different fingerprints, from another format version, or corrupt.
        """
        directory = self._embeddings_dir(embedder_fp) / corpus_fp
        meta = self._read_meta(directory)
        if meta is None:
            return None
        if not self._meta_matches(
            meta, kind="embeddings", embedder=embedder_fp, corpus=corpus_fp
        ):
            return None
        try:
            keys_raw = json.loads((directory / "keys.json").read_text(encoding="utf-8"))
            matrix = np.load(directory / "matrix.npy", mmap_mode="r")
        except Exception:
            self._corrupt(directory)
            return None
        if (
            not isinstance(keys_raw, list)
            or matrix.ndim != 2
            or matrix.shape[0] != len(keys_raw)
            or matrix.shape != (meta.get("rows"), meta.get("dimension"))
        ):
            self._corrupt(directory)
            return None
        self._counters.bump("segment_loads")
        return [str(key) for key in keys_raw], matrix

    def save_embedding_segment(
        self,
        embedder_fp: str,
        corpus_fp: str,
        keys: List[str],
        matrix: np.ndarray,
    ) -> bool:
        """Publish one segment atomically; ``False`` if it already exists.

        ``matrix`` must be ``(len(keys), dimension)``.  Publication is
        write-then-rename: a crash mid-write leaves only ``.tmp/`` garbage,
        and a concurrent publisher of the same fingerprint loses the rename
        race harmlessly (the artifacts are identical by construction).
        """
        matrix = np.ascontiguousarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != len(keys):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match {len(keys)} keys"
            )
        meta = {
            "format_version": FORMAT_VERSION,
            "kind": "embeddings",
            "embedder": embedder_fp,
            "corpus": corpus_fp,
            "rows": int(matrix.shape[0]),
            "dimension": int(matrix.shape[1]),
            "dtype": str(matrix.dtype),
        }

        def write(tmp: Path) -> None:
            np.save(tmp / "matrix.npy", matrix)
            (tmp / "keys.json").write_text(
                json.dumps(list(keys), ensure_ascii=False), encoding="utf-8"
            )
            (tmp / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")

        published = self._publish(self._embeddings_dir(embedder_fp) / corpus_fp, write)
        if published:
            self._counters.bump("segment_saves")
        return published

    # -- ANN indexes -----------------------------------------------------------------
    def _ann_dir(self, embedder_fp: str, params_fp: str) -> Path:
        return self.root / "ann" / embedder_fp / params_fp

    def load_ann_index(
        self, embedder_fp: str, params_fp: str, corpus_fp: str
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Attach one LSH index: ``(planes, codes)``, both memmapped.

        ``planes`` is the ``(n_tables, n_bits, dimension)`` hyperplane stack
        and ``codes`` the ``(n_tables, n_values)`` integer code matrix whose
        column ``i`` codes value ``i`` of the fingerprinted corpus.  Returns
        ``None`` on absence, fingerprint mismatch or corruption.
        """
        directory = self._ann_dir(embedder_fp, params_fp) / corpus_fp
        meta = self._read_meta(directory)
        if meta is None:
            return None
        if not self._meta_matches(
            meta, kind="ann", embedder=embedder_fp, params=params_fp, corpus=corpus_fp
        ):
            return None
        try:
            planes = np.load(directory / "planes.npy", mmap_mode="r")
            codes = np.load(directory / "codes.npy", mmap_mode="r")
        except Exception:
            self._corrupt(directory)
            return None
        if (
            planes.ndim != 3
            or codes.ndim != 2
            or planes.shape[0] != codes.shape[0]
            or codes.shape[1] != meta.get("values")
        ):
            self._corrupt(directory)
            return None
        self._counters.bump("index_loads")
        return planes, codes

    def save_ann_index(
        self,
        embedder_fp: str,
        params_fp: str,
        corpus_fp: str,
        planes: np.ndarray,
        codes: np.ndarray,
    ) -> bool:
        """Publish one LSH index atomically; ``False`` if it already exists."""
        planes = np.ascontiguousarray(planes)
        codes = np.ascontiguousarray(codes)
        if planes.ndim != 3 or codes.ndim != 2 or planes.shape[0] != codes.shape[0]:
            raise ValueError(
                f"inconsistent index shapes: planes {planes.shape}, codes {codes.shape}"
            )
        meta = {
            "format_version": FORMAT_VERSION,
            "kind": "ann",
            "embedder": embedder_fp,
            "params": params_fp,
            "corpus": corpus_fp,
            "values": int(codes.shape[1]),
        }

        def write(tmp: Path) -> None:
            np.save(tmp / "planes.npy", planes)
            np.save(tmp / "codes.npy", codes)
            (tmp / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")

        published = self._publish(self._ann_dir(embedder_fp, params_fp) / corpus_fp, write)
        if published:
            self._counters.bump("index_saves")
        return published

    # -- IVF indexes -----------------------------------------------------------------
    def _ivf_dir(self, embedder_fp: str, params_fp: str) -> Path:
        return self.root / "ivf" / embedder_fp / params_fp

    def load_ivf_index(
        self, embedder_fp: str, params_fp: str, corpus_fp: str
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Attach one IVF index: ``(centroids, assignments)``, both memmapped.

        ``centroids`` is the ``(n_clusters, dimension)`` unit-vector centroid
        matrix and ``assignments`` the ``(n_values,)`` integer cluster of each
        value of the fingerprinted corpus.  Returns ``None`` on absence,
        fingerprint mismatch or corruption — the caller rebuilds.
        """
        directory = self._ivf_dir(embedder_fp, params_fp) / corpus_fp
        meta = self._read_meta(directory)
        if meta is None:
            return None
        if not self._meta_matches(
            meta, kind="ivf", embedder=embedder_fp, params=params_fp, corpus=corpus_fp
        ):
            return None
        try:
            centroids = np.load(directory / "centroids.npy", mmap_mode="r")
            assignments = np.load(directory / "assignments.npy", mmap_mode="r")
        except Exception:
            self._corrupt(directory)
            return None
        if (
            centroids.ndim != 2
            or assignments.ndim != 1
            or centroids.shape[0] != meta.get("clusters")
            or assignments.shape[0] != meta.get("values")
            or (len(assignments) and int(assignments.max()) >= centroids.shape[0])
        ):
            self._corrupt(directory)
            return None
        self._counters.bump("index_loads")
        return centroids, assignments

    def save_ivf_index(
        self,
        embedder_fp: str,
        params_fp: str,
        corpus_fp: str,
        centroids: np.ndarray,
        assignments: np.ndarray,
    ) -> bool:
        """Publish one IVF index atomically; ``False`` if it already exists."""
        centroids = np.ascontiguousarray(centroids)
        assignments = np.ascontiguousarray(assignments)
        if centroids.ndim != 2 or assignments.ndim != 1:
            raise ValueError(
                f"inconsistent index shapes: centroids {centroids.shape}, "
                f"assignments {assignments.shape}"
            )
        meta = {
            "format_version": FORMAT_VERSION,
            "kind": "ivf",
            "embedder": embedder_fp,
            "params": params_fp,
            "corpus": corpus_fp,
            "clusters": int(centroids.shape[0]),
            "values": int(assignments.shape[0]),
        }

        def write(tmp: Path) -> None:
            np.save(tmp / "centroids.npy", centroids)
            np.save(tmp / "assignments.npy", assignments)
            (tmp / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")

        published = self._publish(self._ivf_dir(embedder_fp, params_fp) / corpus_fp, write)
        if published:
            self._counters.bump("index_saves")
        return published

    # -- internals -------------------------------------------------------------------
    def _corrupt(self, directory: Path) -> None:
        """Account one corrupt artifact and quarantine its directory."""
        self._counters.bump("corrupt_entries")
        self._quarantine(directory)

    def _quarantine(self, directory: Path) -> None:
        """Move a corrupt artifact directory aside so it is never re-read.

        Without this, a corrupt entry degrades to a miss on *every* request —
        the validation cost (and the rebuild it forces) repeats forever, and
        a healing republish is impossible because the target path is
        occupied.  The directory is renamed into ``<root>/quarantine/`` (path
        components joined with ``-``, numeric suffix on collision) where an
        operator can inspect it; the vacated path lets the next publication
        replace the artifact with a good copy.  ``corrupt_segments`` counts
        the corruption regardless — a read-only view observes it but leaves
        the files in place (the writer view will quarantine on its next
        read).  Rename races lose silently: the artifact is gone either way.
        """
        self._counters.bump("corrupt_segments")
        count("store_corrupt_segments")
        if not self.can_write or not directory.is_dir():
            return
        try:
            quarantine_root = self.root / "quarantine"
            quarantine_root.mkdir(parents=True, exist_ok=True)
            name = "-".join(directory.relative_to(self.root).parts)
            target = quarantine_root / name
            suffix = 0
            while target.exists():
                suffix += 1
                target = quarantine_root / f"{name}.{suffix}"
            directory.rename(target)
        except OSError:
            pass

    def _read_meta(self, directory: Path) -> Optional[Dict[str, object]]:
        """Parse ``meta.json``, or ``None`` (counting corruption) on failure."""
        path = directory / "meta.json"
        if not path.is_file():
            # Absence of the whole artifact is an ordinary miss; a directory
            # that exists without its meta is a partial write worth counting.
            if directory.is_dir():
                self._corrupt(directory)
            return None
        try:
            meta = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self._corrupt(directory)
            return None
        if not isinstance(meta, dict):
            self._corrupt(directory)
            return None
        return meta

    def _meta_matches(self, meta: Dict[str, object], **expected: object) -> bool:
        """Whether the meta carries the expected version and fingerprints."""
        if meta.get("format_version") != FORMAT_VERSION:
            self._counters.bump("rejected_entries")
            return False
        for key, value in expected.items():
            if meta.get(key) != value:
                self._counters.bump("rejected_entries")
                return False
        return True

    def _publish(self, target: Path, write: Callable[[Path], None]) -> bool:
        """Write an artifact into ``.tmp`` and rename it into place."""
        if not self.can_write:
            return False
        if target.exists():
            self._counters.bump("duplicate_publishes")
            return False
        tmp_root = self.root / ".tmp"
        tmp_root.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=tmp_root))
        try:
            write(tmp)
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp.rename(target)
        except OSError:
            # Lost the publication race (or the filesystem failed): discard
            # our copy.  If the target now exists, someone published the
            # identical artifact — that is success from the caller's view.
            shutil.rmtree(tmp, ignore_errors=True)
            if target.exists():
                self._counters.bump("duplicate_publishes")
            return False
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return True
