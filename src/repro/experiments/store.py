"""Chunked on-disk result store for sharded experiment runs.

One :class:`ShardStore` holds the results of one shard of a sweep as an
**append-only JSONL chunk** (``shard-<i>.jsonl``) plus a sidecar
**done-set** (``shard-<i>.done``, one completed cell key per line).
The design goal is crash-tolerant idempotence: a shard process can be
SIGKILLed at any byte and a re-run recomputes exactly the missing
cells, nothing else.

Record format — one JSON object per line::

    {"kind": "cell"|"header", "key": "...", "payload": {...},
     "crc": <crc32 of the canonical payload JSON>}

* ``cell`` records carry one completed
  :class:`~repro.experiments.parallel.CellOutcome` (success or recorded
  error), keyed by :func:`repro.experiments.records.cell_key`.
* The ``header`` record pins the store schema and the config digest —
  resuming a shard against a store written for a different experiment
  fails loudly instead of silently merging apples into oranges.

Stores written by the removed sweep warm starts also hold ``seed``
records; reading one raises :class:`~repro.exceptions.ShardError`, so
such a store is never resumed or merged as if it were cold.

Crash semantics, in write order per cell: cell record → done-set line.  Each line is a single
buffered write followed by a flush, so a kill leaves at most one
**torn trailing record** — a final line that is incomplete, unparsable
or fails its CRC.  :meth:`ShardStore.open` detects it, truncates it
away and counts it in ``torn_dropped``; the cell simply reruns.  A
done-set entry whose record is missing (stale — e.g. the record was the
torn one) is dropped and repaired the same way.  Any *mid-file*
corruption is not a crash artifact and raises
:class:`~repro.exceptions.ShardError`.

The store never rewrites history: completed records are immutable, and
the merge layer (:func:`repro.experiments.shards.merge_shards`) orders
outcomes by the canonical sweep grid, never by file order — which is
what keeps merged rows identical for any (layout × workers × resume
history).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, List, Optional, Tuple, Union

from repro.exceptions import ShardError

__all__ = [
    "STORE_SCHEMA",
    "ShardStore",
    "StoreScan",
    "store_chunk_path",
    "store_done_path",
]

#: Schema tag written into every store's header record.
STORE_SCHEMA = "repro.shards.store/v1"

#: ``seed`` records were written only by the removed sweep warm starts;
#: :func:`scan_chunk` refuses them.
_KINDS = ("header", "cell", "seed")


def store_chunk_path(directory: Union[str, Path], shard_index: int) -> Path:
    """``<directory>/shard-<i>.jsonl`` — the append-only record chunk."""
    return Path(directory) / f"shard-{shard_index}.jsonl"


def store_done_path(directory: Union[str, Path], shard_index: int) -> Path:
    """``<directory>/shard-<i>.done`` — the sidecar done-set."""
    return Path(directory) / f"shard-{shard_index}.done"


def _payload_crc(payload: Dict[str, Any]) -> int:
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return zlib.crc32(canonical)


def _encode_record(kind: str, key: str, payload: Dict[str, Any]) -> bytes:
    record = {
        "kind": kind,
        "key": key,
        "payload": payload,
        "crc": _payload_crc(payload),
    }
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def _decode_record(line: bytes) -> Optional[Tuple[str, str, Dict[str, Any]]]:
    """Parse one record line; ``None`` marks a torn/invalid record."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    kind = record.get("kind")
    key = record.get("key")
    payload = record.get("payload")
    crc = record.get("crc")
    if kind not in _KINDS or not isinstance(key, str):
        return None
    if not isinstance(payload, dict) or not isinstance(crc, int):
        return None
    if _payload_crc(payload) != crc:
        return None
    return kind, key, payload


@dataclass
class StoreScan:
    """Everything a read of one shard chunk yields.

    ``cells`` maps record key → payload; ``header`` is the
    header payload when present.  ``torn_dropped`` counts trailing
    records dropped as kill artifacts, ``valid_bytes`` is the offset of
    the end of the last valid record (the truncation point for repair).
    """

    cells: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    header: Optional[Dict[str, Any]] = None
    torn_dropped: int = 0
    valid_bytes: int = 0


def scan_chunk(path: Union[str, Path]) -> StoreScan:
    """Read one record chunk, tolerating a torn trailing record.

    Read-only — never modifies the file, so any process may scan any
    shard's chunk while the owning shard is live.  A torn *trailing* record is dropped and
    counted; an invalid record anywhere else raises
    :class:`~repro.exceptions.ShardError`, because an append-only log
    can only be damaged mid-file by something other than a kill.
    """
    path = Path(path)
    scan = StoreScan()
    if not path.exists():
        return scan
    data = path.read_bytes()
    offset = 0
    lines = data.split(b"\n")
    # split() yields a final "" element iff the data ends with a
    # newline; a non-empty final element is an unterminated write.
    for index, line in enumerate(lines):
        is_last = index == len(lines) - 1
        if line == b"":
            continue
        terminated = not is_last
        decoded = _decode_record(line) if terminated else None
        if decoded is None:
            remaining = any(part != b"" for part in lines[index + 1:])
            if remaining:
                raise ShardError(
                    f"{path}: corrupt record at byte {offset} is not the "
                    f"trailing record — refusing to resume from a "
                    f"damaged store"
                )
            scan.torn_dropped += 1
            break
        kind, key, payload = decoded
        if kind == "seed":
            raise ShardError(
                f"{path}: holds a seed record of a warm-start sweep — "
                "sweep warm starts were removed; run the shard into a "
                "fresh results directory"
            )
        if kind == "header":
            scan.header = payload
        else:
            scan.cells[key] = payload
        offset += len(line) + 1
    scan.valid_bytes = offset
    return scan


def _read_done(path: Path) -> List[str]:
    if not path.exists():
        return []
    entries: List[str] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            entries.append(line)
    return entries


class ShardStore:
    """Append-only result store of one shard, open for writing.

    Use :meth:`open` (which replays, repairs and positions the chunk)
    rather than the constructor.  The store is also a context manager::

        with ShardStore.open(directory, shard_index=2,
                             config_sha256=digest) as store:
            if not store.is_done(key):
                store.append_cell(key, payload)
    """

    def __init__(
        self,
        directory: Union[str, Path],
        shard_index: int,
        *,
        cells: Dict[str, Dict[str, Any]],
        torn_dropped: int,
        stale_done_dropped: int,
    ) -> None:
        self.directory = Path(directory)
        self.shard_index = shard_index
        self.cells = cells
        self.torn_dropped = torn_dropped
        self.stale_done_dropped = stale_done_dropped
        self._chunk: Optional[IO[bytes]] = None
        self._done: Optional[IO[bytes]] = None

    # ------------------------------------------------------------------
    # Opening / repair
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        shard_index: int,
        *,
        config_sha256: Optional[str] = None,
    ) -> "ShardStore":
        """Open (creating or resuming) shard ``shard_index``'s store.

        Resume sequence: scan the chunk, truncate a torn trailing
        record, validate the header against ``config_sha256`` when
        given, drop stale done-set entries (done lines without a valid
        cell record) and repair missing ones (valid cell records whose
        done line was lost to the kill — the record is authoritative).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        chunk_path = store_chunk_path(directory, shard_index)
        done_path = store_done_path(directory, shard_index)

        scan = scan_chunk(chunk_path)
        if scan.header is not None and config_sha256 is not None:
            stored = scan.header.get("config_sha256")
            if stored != config_sha256:
                raise ShardError(
                    f"{chunk_path}: store was written for config digest "
                    f"{stored!r}, expected {config_sha256!r} — refusing "
                    f"to mix experiments in one store"
                )
        if scan.header is not None and scan.header.get("schema") != STORE_SCHEMA:
            raise ShardError(
                f"{chunk_path}: store schema "
                f"{scan.header.get('schema')!r} != {STORE_SCHEMA!r}"
            )
        if scan.torn_dropped and chunk_path.exists():
            with chunk_path.open("r+b") as handle:
                handle.truncate(scan.valid_bytes)

        done_entries = _read_done(done_path)
        stale = [key for key in done_entries if key not in scan.cells]
        repaired = sorted(set(scan.cells) - set(done_entries))
        if stale or repaired:
            # Rewrite the sidecar to agree with the authoritative chunk.
            tmp_path = done_path.with_suffix(".done.tmp")
            tmp_path.write_text(
                "".join(f"{key}\n" for key in sorted(scan.cells)),
                encoding="utf-8",
            )
            os.replace(tmp_path, done_path)

        store = cls(
            directory,
            shard_index,
            cells=scan.cells,
            torn_dropped=scan.torn_dropped,
            stale_done_dropped=len(stale),
        )
        store._chunk = chunk_path.open("ab")
        store._done = done_path.open("ab")
        if scan.header is None:
            store._append_record(
                "header",
                f"shard-{shard_index}",
                {
                    "schema": STORE_SCHEMA,
                    "shard_index": shard_index,
                    "config_sha256": config_sha256,
                },
            )
        return store

    @classmethod
    def scan(
        cls, directory: Union[str, Path], shard_index: int
    ) -> StoreScan:
        """Read-only scan of a shard's chunk (no repair, no locks).

        Safe on a live store: used by the merge and status steps.
        """
        return scan_chunk(store_chunk_path(directory, shard_index))

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _append_record(
        self, kind: str, key: str, payload: Dict[str, Any]
    ) -> None:
        if self._chunk is None:
            raise ShardError("store is closed")
        self._chunk.write(_encode_record(kind, key, payload))
        self._chunk.flush()

    def append_cell(self, key: str, payload: Dict[str, Any]) -> bool:
        """Record one completed cell; returns False if already present.

        The record line lands (and is flushed) before the done-set
        entry, so every reachable state is recoverable: record+done =
        complete, record only = complete (done repaired on open),
        torn record = dropped and rerun.
        """
        if key in self.cells:
            return False
        self._append_record("cell", key, payload)
        self.cells[key] = payload
        if self._done is None:
            raise ShardError("store is closed")
        self._done.write(f"{key}\n".encode("utf-8"))
        self._done.flush()
        return True

    def is_done(self, key: str) -> bool:
        return key in self.cells

    def completed_keys(self) -> List[str]:
        """Keys of every validly recorded cell, insertion order."""
        return list(self.cells)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        for handle in (self._chunk, self._done):
            if handle is not None:
                handle.close()
        self._chunk = None
        self._done = None

    def __enter__(self) -> "ShardStore":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False
