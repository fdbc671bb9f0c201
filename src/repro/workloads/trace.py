"""Request traces — the raw material of access-profile collection.

The paper's architecture (its Figure 1) has the server *collect the
access patterns of mobile users* and generate the broadcast program
from them.  The paper itself starts from given frequencies; this module
supplies the collection substrate so the loop can be closed: record the
requests clients actually issue, then estimate frequencies from the
trace (:mod:`repro.workloads.estimator`).

Replay files are decoded a block of lines at a time, in three tiers:
a block of canonical rows (the form :func:`save_trace_jsonl` writes)
by one regex ``findall``, any other block of flat rows by one
``json.loads``, and whatever is left line by line.  Each tier yields
bit for bit the records a line-by-line read gives, or hands the block
to the next; see :func:`_decode_block`.

This is an extension beyond the paper, flagged as such in DESIGN.md.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import itemgetter
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

    __slots__ = ("timestamp", "item_id")
    timestamp: float
    item_id: str

    def __post_init__(self) -> None:
        if not isinstance(self.item_id, str) or not self.item_id:
            raise SimulationError(
                f"item_id must be a non-empty string, got {self.item_id!r}"
            )
        if not math.isfinite(self.timestamp) or self.timestamp < 0:
            raise SimulationError(
                f"timestamp must be finite and >= 0, got {self.timestamp!r}"
            )

    def __reduce__(self) -> tuple:
        # Pickle and copy through the constructor: the default slot
        # state would be restored by setattr, which a frozen class refuses.
        return (TraceRecord, (self.timestamp, self.item_id))


# Building a record through its slot descriptors skips the frozen guard
# and the validation: the block decoder checks its rows in bulk first.
# On serve-steady that is ~11% more requests/s, and 0.6 MB less peak
# RSS, than calling TraceRecord(t, id) for each row (2-core Xeon).
_new_record = object.__new__
_set_timestamp = TraceRecord.timestamp.__set__
_set_item_id = TraceRecord.item_id.__set__


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
    manageable.  A row whose id needs no JSON escape is written in the
    canonical form the reader's fast tier decodes (:func:`_match_block`).
    The file is UTF-8, so non-ASCII ids are written raw, not escaped;
    only an id UTF-8 cannot encode (a lone surrogate) keeps its
    ``\\uXXXX`` escapes.
    """
    target = Path(path)
    with target.open("wb") as handle:
        for record in trace:
            row = {"t": record.timestamp, "id": record.item_id}
            try:
                line = json.dumps(
                    row, separators=(",", ":"), ensure_ascii=False
                ).encode("utf-8")
            except UnicodeEncodeError:
                line = json.dumps(row, separators=(",", ":")).encode("ascii")
            handle.write(line)
            handle.write(b"\n")
    return target


#: Size hint of one ``readlines`` block in the JSONL file reader.
BLOCK_BYTES = 16 * 1024


def iter_trace_jsonl(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Stream records from a JSONL trace file, one at a time.

    Memory is bounded by one block of lines (``BLOCK_BYTES`` of text):
    the live service ingests replays through this without materialising
    the whole log.  Each block is decoded in bulk when it can be
    (:func:`_decode_block`); the rows, checks and errors are those of
    :func:`parse_trace_lines`.
    """
    source = Path(path)
    with source.open("r", encoding="utf-8") as handle:
        blocks = iter(partial(handle.readlines, BLOCK_BYTES), [])
        yield from chain.from_iterable(_record_blocks(blocks, str(source)))


def parse_trace_lines(
    lines: Iterable[str], source: str
) -> Iterator[TraceRecord]:
    """Parse newline-delimited ``{"t": ..., "id": ...}`` JSON rows.

    The line reader behind the live socket source: each line is parsed
    as soon as it arrives, so a live peer is never held waiting.  Blank
    lines are skipped.  A malformed row — invalid JSON, a missing key, a
    ``t`` that is not a finite non-negative number, an empty id, or a
    timestamp before the previous row's — raises
    :class:`SimulationError` prefixed with ``source`` and the 1-based
    line number.
    """
    return chain.from_iterable(
        _record_blocks(([line] for line in lines), source)
    )


def _record_blocks(
    blocks: Iterable[List[str]], source: str
) -> Iterator[List[TraceRecord]]:
    """The records of each block of lines, numbering lines across blocks.

    A block of several lines is first decoded as a whole
    (:func:`_decode_block`).  A block that fails its bulk checks, and
    every one-line block, is parsed line by line; a bad line's error is
    raised after the records before it have been handed out.
    """
    last: Optional[float] = None
    line_no = 0
    for block in blocks:
        records = _decode_block(block, last) if len(block) > 1 else None
        if records is None:
            records = []
            for line_no, line in enumerate(block, start=line_no + 1):
                try:
                    record = _parse_line(line, line_no, source, last)
                except SimulationError:
                    yield records
                    raise
                if record is not None:
                    last = record.timestamp
                    records.append(record)
        else:
            line_no += len(block)
            if records:
                last = records[-1].timestamp
        yield records


def _parse_line(
    line: str, line_no: int, source: str, last: Optional[float]
) -> Optional[TraceRecord]:
    """The record on one line (``None`` if blank); raises on a bad row."""
    line = line.strip()
    if not line:
        return None
    try:
        row = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON, or an int over Python's digit limit;
        # RecursionError: containers nested too deep for the decoder.
        raise SimulationError(
            f"{source}:{line_no}: invalid JSON: {exc}"
        ) from exc
    if not isinstance(row, dict) or "t" not in row or "id" not in row:
        raise SimulationError(
            f"{source}:{line_no}: expected object with 't' and 'id' "
            f"keys, got {row!r}"
        )
    try:
        record = TraceRecord(timestamp=float(row["t"]), item_id=str(row["id"]))
    except (TypeError, ValueError, OverflowError, SimulationError) as exc:
        raise SimulationError(
            f"{source}:{line_no}: bad record {row!r}: {exc}"
        ) from exc
    if last is not None and record.timestamp < last:
        raise SimulationError(
            f"{source}:{line_no}: out-of-order record at "
            f"t={record.timestamp} (last was t={last})"
        )
    return record


_get_t = itemgetter("t")
_get_id = itemgetter("id")
_NUMBER_TYPES = frozenset((int, float))

#: A canonical row: ``{"t":<number>,"id":"<plain string>"}`` and a line
#: end, as :func:`save_trace_jsonl` writes it.  The number is a JSON
#: number without a sign (a negative ``t`` is bad, and ``-0`` is the int
#: 0 to JSON but -0.0 to ``float``); ``[0-9]``, because ``\d`` also
#: matches non-ASCII digits.  The id has no escape and no raw control
#: character, so its text is its value.
_CANONICAL_ROW = re.compile(
    r'\{"t":((?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?),'
    r'"id":"([^"\\\x00-\x1f]+)"\}\n'
)

#: Characters of a canonical row outside its two captures.
_ROW_FRAME = len('{"t":,"id":""}\n')


def _decode_block(
    lines: List[str], last: Optional[float]
) -> Optional[List[TraceRecord]]:
    """Decode a block of lines in bulk, or ``None``.

    Two tiers, tried in order: the canonical rows of
    :func:`_match_block`, then one ``json.loads`` of the whole block
    (:func:`_load_block`).  ``None`` sends the block to the line-by-line
    parser, the third tier, which accepts the same records or raises
    the error of the first bad line.
    """
    records = _match_block(lines, last)
    if records is None:
        records = _load_block(lines, last)
    return records


def _match_block(
    lines: List[str], last: Optional[float]
) -> Optional[List[TraceRecord]]:
    """Decode a block of canonical rows with one regex ``findall``.

    The block is accepted only when there is one match per line and the
    matches' lengths add up to the text's.  Non-overlapping matches that
    long tile the text, and each holds one line end, its last
    character, so every line is exactly one row.  Each row then reads
    as :func:`_parse_line` reads it.  An id without escapes or control
    characters is its own value.  For a number with a fraction or an
    exponent, ``json`` calls ``float`` on the same text; for an integer
    it makes an int, and ``float`` of that int and ``float`` of its
    text are both the correctly rounded double.  An integer too large
    for a double becomes ``inf`` here and fails the finiteness check,
    so the line parser reports it.  The timestamps must pass
    :func:`_in_order`, as on the JSON tier.
    """
    text = "".join(lines)
    rows = _CANONICAL_ROW.findall(text)
    if not rows or len(rows) != len(lines):
        return None
    stamps, ids = zip(*rows)
    if (
        len("".join(stamps)) + len("".join(ids)) + _ROW_FRAME * len(rows)
        != len(text)
    ):
        return None
    times = list(map(float, stamps))
    if not _in_order(np.array(times), last):
        return None
    return _new_records(times, ids)


def _load_block(
    lines: List[str], last: Optional[float]
) -> Optional[List[TraceRecord]]:
    """Decode a block of lines with one ``json.loads``, or ``None``.

    The block's non-blank lines are joined into one JSON array.  It is
    accepted only when every stripped line starts with ``{`` and ends
    with ``}``, the array has one element per line, and every element
    is exactly ``{"t": <int or float>, "id": <non-empty str>}`` with
    finite, non-negative, non-decreasing timestamps (not before
    ``last``).  A raw newline cannot occur inside a JSON string, so no
    string spans two lines; a row spanning lines would need a nested
    container, and a line holding two rows changes the element count
    unless a spanning row compensates it.  An accepted block therefore
    holds exactly the rows :func:`_parse_line` reads from its lines.
    """
    body = list(filter(None, map(str.strip, lines)))
    if not body:
        return []
    joined = ",\n".join(body)
    if (
        joined[0] != "{"
        or joined[-1] != "}"
        or joined.count("},\n{") != len(body) - 1
    ):
        return None
    try:
        rows = json.loads("[" + joined + "]")
        if (
            len(rows) != len(body)
            or set(map(type, rows)) != {dict}
            or set(map(len, rows)) != {2}
        ):
            return None
        stamps = list(map(_get_t, rows))
        ids = list(map(_get_id, rows))
        times = np.array(stamps, dtype=np.float64)
    except (
        json.JSONDecodeError,
        KeyError,
        TypeError,
        ValueError,
        OverflowError,
        RecursionError,
    ):
        return None
    if (
        not set(map(type, stamps)) <= _NUMBER_TYPES
        or set(map(type, ids)) != {str}
        or not all(ids)
        or not _in_order(times, last)
    ):
        return None
    return _new_records(times.tolist(), ids)


def _in_order(times: np.ndarray, last: Optional[float]) -> bool:
    """Finite, not before ``last`` (or 0), and non-decreasing."""
    return bool(
        np.isfinite(times).all()
        and times[0] >= (0.0 if last is None else last)
        and not (times[1:] < times[:-1]).any()
    )


def _new_records(
    times: List[float], ids: Sequence[str]
) -> List[TraceRecord]:
    """Records of rows already checked in bulk."""
    records = []
    append = records.append
    for timestamp, item_id in zip(times, ids):
        record = _new_record(TraceRecord)
        _set_timestamp(record, timestamp)
        _set_item_id(record, item_id)
        append(record)
    return records


def load_trace_jsonl(path: Union[str, Path]) -> RequestTrace:
    """Read a whole JSONL trace file into a :class:`RequestTrace`."""
    return RequestTrace(iter_trace_jsonl(path))
