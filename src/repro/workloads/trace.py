"""Request traces — the raw material of access-profile collection.

The paper's architecture (its Figure 1) has the server *collect the
access patterns of mobile users* and generate the broadcast program
from them.  The paper itself starts from given frequencies; this module
supplies the collection substrate so the loop can be closed: record the
requests clients actually issue, then estimate frequencies from the
trace (:mod:`repro.workloads.estimator`).

This is an extension beyond the paper, flagged as such in DESIGN.md.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Counter as CounterType
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union
from collections import Counter

import numpy as np

from repro.core.database import BroadcastDatabase
from repro.exceptions import SimulationError

__all__ = [
    "TraceRecord",
    "RequestTrace",
    "synthesize_trace",
    "save_trace_jsonl",
    "load_trace_jsonl",
    "iter_trace_jsonl",
    "parse_trace_lines",
]


@dataclass(frozen=True)
class TraceRecord:
    """One observed request: who asked for what, when (uplink log)."""

    timestamp: float
    item_id: str

    def __post_init__(self) -> None:
        if not isinstance(self.item_id, str) or not self.item_id:
            raise SimulationError(
                f"item_id must be a non-empty string, got {self.item_id!r}"
            )
        if not np.isfinite(self.timestamp) or self.timestamp < 0:
            raise SimulationError(
                f"timestamp must be finite and >= 0, got {self.timestamp!r}"
            )


class RequestTrace:
    """An append-only, time-ordered log of requests.

    Records must be appended in non-decreasing timestamp order (the
    order a server observes them).  Windowed views and per-item counts
    are the operations estimators need.
    """

    def __init__(self, records: Optional[Iterable[TraceRecord]] = None) -> None:
        self._records: List[TraceRecord] = []
        self._timestamps: List[float] = []
        if records is not None:
            for record in records:
                self.append(record)

    def append(self, record: TraceRecord) -> None:
        """Append one record; timestamps must not go backwards."""
        if self._timestamps and record.timestamp < self._timestamps[-1]:
            raise SimulationError(
                f"out-of-order record at t={record.timestamp} "
                f"(last was t={self._timestamps[-1]})"
            )
        self._records.append(record)
        self._timestamps.append(record.timestamp)

    def record(self, timestamp: float, item_id: str) -> None:
        """Convenience: append a ``(timestamp, item_id)`` pair."""
        self.append(TraceRecord(timestamp=timestamp, item_id=item_id))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    @property
    def span(self) -> float:
        """Time between the first and last record (0 for < 2 records)."""
        if len(self._records) < 2:
            return 0.0
        return self._timestamps[-1] - self._timestamps[0]

    def window(self, start: float, stop: float) -> "RequestTrace":
        """Records with ``start <= timestamp < stop`` as a new trace."""
        if stop < start:
            raise SimulationError(
                f"window stop {stop} precedes start {start}"
            )
        low = bisect.bisect_left(self._timestamps, start)
        high = bisect.bisect_left(self._timestamps, stop)
        view = RequestTrace()
        for record in self._records[low:high]:
            view.append(record)
        return view

    def counts(self) -> CounterType[str]:
        """Requests per item id."""
        return Counter(record.item_id for record in self._records)

    def item_ids(self) -> List[str]:
        """Distinct item ids in first-seen order."""
        seen: Dict[str, None] = {}
        for record in self._records:
            seen.setdefault(record.item_id, None)
        return list(seen)


def synthesize_trace(
    database: BroadcastDatabase,
    num_requests: int,
    *,
    arrival_rate: float = 1.0,
    seed: int = 0,
    probabilities: Optional[Sequence[float]] = None,
) -> RequestTrace:
    """Generate a Poisson trace from a database's access profile.

    The synthetic stand-in for a production uplink log (see the
    substitution notes in DESIGN.md).  ``probabilities`` overrides the
    per-item request distribution, e.g. to emulate drifted interest.
    """
    if num_requests < 0:
        raise SimulationError(
            f"num_requests must be >= 0, got {num_requests}"
        )
    if arrival_rate <= 0:
        raise SimulationError(
            f"arrival_rate must be positive, got {arrival_rate}"
        )
    rng = np.random.default_rng(seed)
    if probabilities is None:
        weights = np.array(
            [item.frequency for item in database.items], dtype=np.float64
        )
    else:
        weights = np.asarray(probabilities, dtype=np.float64)
        if len(weights) != len(database):
            raise SimulationError(
                f"got {len(weights)} probabilities for {len(database)} items"
            )
        if np.any(weights < 0) or weights.sum() <= 0:
            raise SimulationError(
                "probabilities must be non-negative with positive sum"
            )
    weights = weights / weights.sum()
    ids = list(database.item_ids)
    gaps = rng.exponential(1.0 / arrival_rate, size=num_requests)
    picks = rng.choice(len(ids), size=num_requests, p=weights)
    trace = RequestTrace()
    clock = 0.0
    for gap, pick in zip(gaps, picks):
        clock += float(gap)
        trace.record(clock, ids[int(pick)])
    return trace


def save_trace_jsonl(
    trace: RequestTrace, path: Union[str, Path]
) -> Path:
    """Write a trace as JSON Lines — one ``{"t": ..., "id": ...}`` per row.

    The replay format consumed by ``repro serve --replay`` (and
    :func:`iter_trace_jsonl`); compact keys keep million-request logs
    manageable.
    """
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        for record in trace:
            handle.write(
                json.dumps(
                    {"t": record.timestamp, "id": record.item_id},
                    separators=(",", ":"),
                )
            )
            handle.write("\n")
    return target


def iter_trace_jsonl(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Stream records from a JSONL trace file, one at a time.

    O(1) memory — the live service ingests replays through this without
    materialising the whole log.  Rows must carry ``t`` (timestamp) and
    ``id`` (item id); blank lines are skipped; out-of-order timestamps
    are rejected (the file claims to be a server-observed log).
    """
    source = Path(path)
    with source.open("r", encoding="utf-8") as handle:
        yield from parse_trace_lines(handle, str(source))


def parse_trace_lines(
    lines: Iterable[str], source: str
) -> Iterator[TraceRecord]:
    """Parse newline-delimited ``{"t": ..., "id": ...}`` JSON rows.

    The one line reader behind the JSONL replay and the live socket
    source.  Blank lines are skipped.  A malformed row — invalid JSON, a
    missing key, a ``t`` that is not a finite non-negative number, an
    empty id, or a timestamp before the previous row's — raises
    :class:`SimulationError` prefixed with ``source`` and the 1-based
    line number.
    """
    last: Optional[float] = None
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SimulationError(
                f"{source}:{line_no}: invalid JSON: {exc}"
            ) from exc
        if not isinstance(row, dict) or "t" not in row or "id" not in row:
            raise SimulationError(
                f"{source}:{line_no}: expected object with 't' and 'id' "
                f"keys, got {row!r}"
            )
        try:
            record = TraceRecord(
                timestamp=float(row["t"]), item_id=str(row["id"])
            )
        except (TypeError, ValueError, SimulationError) as exc:
            raise SimulationError(
                f"{source}:{line_no}: bad record {row!r}: {exc}"
            ) from exc
        if last is not None and record.timestamp < last:
            raise SimulationError(
                f"{source}:{line_no}: out-of-order record at "
                f"t={record.timestamp} (last was t={last})"
            )
        last = record.timestamp
        yield record


def load_trace_jsonl(path: Union[str, Path]) -> RequestTrace:
    """Read a whole JSONL trace file into a :class:`RequestTrace`."""
    return RequestTrace(iter_trace_jsonl(path))
