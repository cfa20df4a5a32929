"""Durable snapshots and prequential traces: the service survives restarts.

Two subclasses make the in-memory streaming types durable without the
trainer loop knowing — :func:`repro.fit_stream` accepts them through its
``store=``/``prequential=`` injection points:

* :class:`DurableSnapshotStore` — every rotation also lands on disk in
  the existing :class:`~repro.model.CompletionModel` npz format plus a
  JSON metadata sidecar; construction resumes from the newest complete
  snapshot, so a restarted server answers traffic from where the dead
  one left off (and its next rotation continues the sequence, never
  reusing a seq the old process already served).
* :class:`DurablePrequentialTrace` — every scored arrival appends one
  JSON line, so the online-accuracy record of a run is not lost with the
  process.

Crash safety is by write *order*, not locking: the npz is written first
(atomically, via a same-directory temp file and ``os.replace``), the
metadata sidecar second — a snapshot without its sidecar is an aborted
write and is ignored on resume.  Version skew is loud: an unknown
``persist_version`` in a sidecar (or an unreadable ``format_version`` in
the npz, checked by :meth:`CompletionModel.load`) raises
:class:`~repro.errors.DataError` naming what was found.
"""

from __future__ import annotations

import json
import os
import re
import threading

import numpy as np

from ..errors import DataError
from ..model import CompletionModel
from ..stream.snapshots import ModelSnapshot, PrequentialTrace, SnapshotStore

__all__ = [
    "PERSIST_VERSION",
    "SnapshotPersister",
    "DurableSnapshotStore",
    "DurablePrequentialTrace",
]

#: nomadlint NMD001: this module never writes factor matrices — it only
#: freezes already-rotated snapshots onto disk.
__nomad_owner_contexts__ = ()

#: On-disk run-directory layout version.  History:
#:   1 — snapshots/snapshot-NNNNNN.{npz,json} + prequential.jsonl.
PERSIST_VERSION = 1

_SNAPSHOT_DIR = "snapshots"
_PREQUENTIAL_FILE = "prequential.jsonl"
_META_PATTERN = re.compile(r"^snapshot-(\d{6,})\.json$")


def _atomic_write_text(path: str, text: str) -> None:
    """Write a small text file atomically (same-directory temp +
    ``os.replace``), so readers never observe a half-written file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


class SnapshotPersister:
    """Reads and writes one run directory's snapshot files.

    Layout under ``root``::

        snapshots/snapshot-000007.npz   # CompletionModel (w, h, format_version)
        snapshots/snapshot-000007.json  # seq, stream_time, arrivals/updates seen
        prequential.jsonl               # one scored arrival per line

    The npz is byte-compatible with :meth:`CompletionModel.save`, so any
    persisted snapshot also loads as a plain offline model.
    """

    def __init__(self, root: str):
        self.root = str(root)
        self._dir = os.path.join(self.root, _SNAPSHOT_DIR)
        os.makedirs(self._dir, exist_ok=True)

    # ------------------------------------------------------------------
    def model_path(self, seq: int) -> str:
        """Path of the snapshot's factor npz."""
        return os.path.join(self._dir, f"snapshot-{seq:06d}.npz")

    def meta_path(self, seq: int) -> str:
        """Path of the snapshot's metadata sidecar."""
        return os.path.join(self._dir, f"snapshot-{seq:06d}.json")

    def save(self, snapshot: ModelSnapshot) -> str:
        """Persist one snapshot; returns the npz path.

        The npz lands before the sidecar: a crash between the two leaves
        an orphan npz that :meth:`list_seqs` never reports, so resume
        always sees either the whole snapshot or none of it.
        """
        model_path = self.model_path(snapshot.seq)
        tmp = os.path.join(
            self._dir, f".snapshot-{snapshot.seq:06d}.tmp.npz"
        )
        snapshot.model.save(tmp)
        os.replace(tmp, model_path)
        meta = {
            "persist_version": PERSIST_VERSION,
            "seq": snapshot.seq,
            "stream_time": snapshot.stream_time,
            "arrivals_seen": snapshot.arrivals_seen,
            "updates_seen": snapshot.updates_seen,
        }
        _atomic_write_text(
            self.meta_path(snapshot.seq), json.dumps(meta, sort_keys=True) + "\n"
        )
        return model_path

    # ------------------------------------------------------------------
    def list_seqs(self) -> list[int]:
        """Sequence numbers of complete (sidecar-carrying) snapshots,
        ascending."""
        seqs = []
        for name in os.listdir(self._dir):
            match = _META_PATTERN.match(name)
            if match:
                seqs.append(int(match.group(1)))
        return sorted(seqs)

    def load(self, seq: int) -> ModelSnapshot:
        """Load one persisted snapshot; :class:`DataError` on version
        skew or a missing/malformed file."""
        meta_path = self.meta_path(seq)
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except FileNotFoundError:
            raise DataError(f"no persisted snapshot seq {seq} under {self.root}")
        except json.JSONDecodeError as error:
            raise DataError(f"{meta_path}: malformed snapshot metadata: {error}")
        if not isinstance(meta, dict):
            raise DataError(f"{meta_path}: snapshot metadata must be an object")
        version = meta.get("persist_version")
        if version != PERSIST_VERSION:
            raise DataError(
                f"{meta_path}: unsupported persist_version {version!r}; "
                f"this build reads version {PERSIST_VERSION}"
            )
        for key in ("seq", "stream_time", "arrivals_seen", "updates_seen"):
            if key not in meta:
                raise DataError(f"{meta_path}: missing metadata key {key!r}")
        model = CompletionModel.load(self.model_path(seq))
        return ModelSnapshot(
            seq=int(meta["seq"]),
            stream_time=float(meta["stream_time"]),
            arrivals_seen=int(meta["arrivals_seen"]),
            updates_seen=int(meta["updates_seen"]),
            model=model,
        )

    def load_newest(self) -> ModelSnapshot | None:
        """The newest complete persisted snapshot, or ``None`` if the
        run directory holds none."""
        seqs = self.list_seqs()
        if not seqs:
            return None
        return self.load(seqs[-1])

    def prune(self, max_keep: int) -> int:
        """Drop all but the newest ``max_keep`` persisted snapshots;
        returns how many were removed."""
        seqs = self.list_seqs()
        removed = 0
        for seq in seqs[:-max_keep] if max_keep > 0 else seqs:
            for path in (self.meta_path(seq), self.model_path(seq)):
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
            removed += 1
        return removed

    def __repr__(self) -> str:
        return f"SnapshotPersister(root={self.root!r}, seqs={self.list_seqs()})"


class DurableSnapshotStore(SnapshotStore):
    """A :class:`~repro.stream.snapshots.SnapshotStore` whose rotations
    survive the process.

    Parameters
    ----------
    root:
        Run directory (created if missing).
    max_keep:
        Resident *and* on-disk history depth; older snapshots are pruned
        from both.

    Construction adopts the newest persisted snapshot, if any: it serves
    traffic immediately, and the next rotation continues its sequence —
    the restart is invisible to clients except for the seq gap of the
    downtime.  A newest snapshot holding a non-finite value is refused
    with :class:`~repro.errors.DivergenceError` naming its file.
    """

    def __init__(self, root: str, max_keep: int = 8):
        super().__init__(max_keep=max_keep)
        self.persister = SnapshotPersister(root)
        #: Seq of the snapshot resumed from disk, or ``None`` on a
        #: fresh run directory.
        self.resumed_seq: int | None = None
        newest = self.persister.load_newest()
        if newest is not None:
            self.adopt(newest, self.persister.model_path(newest.seq))
            self.resumed_seq = newest.seq

    def rotate(self, factors, stream_time, arrivals_seen, updates_seen):
        """Rotate exactly like the base store, then persist the new
        snapshot and prune on-disk history to ``max_keep``."""
        snapshot = super().rotate(
            factors, stream_time, arrivals_seen, updates_seen
        )
        self.persister.save(snapshot)
        self.persister.prune(self.max_keep)
        return snapshot


class DurablePrequentialTrace(PrequentialTrace):
    """A :class:`~repro.stream.snapshots.PrequentialTrace` that appends
    every scored arrival to ``prequential.jsonl`` in the run directory.

    An existing file is loaded back and appended to, so windowed
    metrics and the overall RMSE span the whole run history, not just
    the current process.  The file starts with a version header line;
    an unknown version raises :class:`~repro.errors.DataError`.
    """

    def __init__(self, root: str):
        super().__init__()
        os.makedirs(root, exist_ok=True)
        self.path = os.path.join(root, _PREQUENTIAL_FILE)
        self._lock = threading.Lock()
        exists = os.path.exists(self.path)
        if exists:
            loaded = self.load(root)
            super().score(
                loaded.times, loaded.arrivals, loaded.predicted, loaded.actual
            )
            self.cold = loaded.cold
        self._handle = open(self.path, "a", encoding="utf-8")
        if not exists:
            self._write([{"persist_version": PERSIST_VERSION}])

    def _write(self, payloads: list[dict]) -> None:
        """Append one line per payload with one write and one flush."""
        text = "".join(
            json.dumps(payload, sort_keys=True) + "\n" for payload in payloads
        )
        with self._lock:
            self._handle.write(text)
            self._handle.flush()

    def score(self, times, arrivals, predicted, actual, cold=None):
        """Score the block like the in-memory trace, then append its
        lines — a ``{"cold": 1}`` marker in place of each cold arrival."""
        super().score(times, arrivals, predicted, actual, cold)
        columns = [
            np.array(column, dtype=dtype, ndmin=1).tolist()
            for column, dtype in (
                (times, np.float64), (arrivals, np.int64),
                (predicted, np.float64), (actual, np.float64),
            )
        ]
        marks = (
            [False] * len(columns[0]) if cold is None
            else np.array(cold, dtype=bool, ndmin=1).tolist()
        )
        self._write([
            {"cold": 1} if mark else {
                "time": time, "arrival": arrival,
                "predicted": value, "actual": truth,
            }
            for mark, time, arrival, value, truth in zip(marks, *columns)
        ])

    def close(self) -> None:
        """Flush and close the backing file (idempotent)."""
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    @classmethod
    def load(cls, root: str) -> PrequentialTrace:
        """Read a persisted trace back as a plain in-memory
        :class:`PrequentialTrace`; :class:`DataError` on version skew or
        a malformed line."""
        path = os.path.join(root, _PREQUENTIAL_FILE)
        trace = PrequentialTrace()
        rows: list[tuple[float, int, float, float]] = []
        try:
            handle = open(path, "r", encoding="utf-8")
        except FileNotFoundError:
            raise DataError(f"no persisted prequential trace under {root}")
        with handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as error:
                    raise DataError(
                        f"{path}:{number}: malformed trace line: {error}"
                    )
                if number == 1:
                    version = payload.get("persist_version")
                    if version != PERSIST_VERSION:
                        raise DataError(
                            f"{path}: unsupported persist_version "
                            f"{version!r}; this build reads version "
                            f"{PERSIST_VERSION}"
                        )
                    continue
                if payload.get("cold"):
                    trace.cold += 1
                    continue
                rows.append((
                    payload["time"], payload["arrival"],
                    payload["predicted"], payload["actual"],
                ))
        if rows:
            trace.score(*zip(*rows))
        return trace
