"""Unit tests for repro.workloads.trace."""

from __future__ import annotations

import importlib
import json
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.workloads.trace import (
    BLOCK_BYTES,
    RequestTrace,
    TraceRecord,
    _decode_block,
    _load_block,
    _match_block,
    _record_blocks,
    iter_trace_jsonl,
    parse_trace_lines,
    save_trace_jsonl,
    synthesize_trace,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestTraceRecord:
    def test_valid(self):
        record = TraceRecord(1.5, "d1")
        assert record.timestamp == 1.5
        assert record.item_id == "d1"

    def test_bad_item_id(self):
        with pytest.raises(SimulationError):
            TraceRecord(1.0, "")

    @pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf")])
    def test_bad_timestamp(self, t):
        with pytest.raises(SimulationError):
            TraceRecord(t, "d1")


class TestRequestTrace:
    def test_append_and_iterate(self):
        trace = RequestTrace()
        trace.record(0.0, "a")
        trace.record(1.0, "b")
        trace.record(1.0, "a")
        assert len(trace) == 3
        assert [r.item_id for r in trace] == ["a", "b", "a"]
        assert trace[1].item_id == "b"

    def test_constructor_from_records(self):
        records = [TraceRecord(0.0, "a"), TraceRecord(2.0, "b")]
        trace = RequestTrace(records)
        assert len(trace) == 2

    def test_out_of_order_rejected(self):
        trace = RequestTrace()
        trace.record(5.0, "a")
        with pytest.raises(SimulationError, match="out-of-order"):
            trace.record(4.0, "b")

    def test_equal_timestamps_allowed(self):
        trace = RequestTrace()
        trace.record(1.0, "a")
        trace.record(1.0, "b")
        assert len(trace) == 2

    def test_span(self):
        trace = RequestTrace()
        assert trace.span == 0.0
        trace.record(2.0, "a")
        assert trace.span == 0.0
        trace.record(7.5, "b")
        assert trace.span == pytest.approx(5.5)

    def test_window_half_open(self):
        trace = RequestTrace()
        for t, item in [(0.0, "a"), (1.0, "b"), (2.0, "c"), (3.0, "d")]:
            trace.record(t, item)
        window = trace.window(1.0, 3.0)
        assert [r.item_id for r in window] == ["b", "c"]

    def test_window_invalid(self):
        trace = RequestTrace()
        with pytest.raises(SimulationError):
            trace.window(3.0, 1.0)

    def test_counts(self):
        trace = RequestTrace()
        for t, item in [(0.0, "a"), (1.0, "a"), (2.0, "b")]:
            trace.record(t, item)
        assert trace.counts() == {"a": 2, "b": 1}

    def test_item_ids_first_seen_order(self):
        trace = RequestTrace()
        for t, item in [(0.0, "b"), (1.0, "a"), (2.0, "b")]:
            trace.record(t, item)
        assert trace.item_ids() == ["b", "a"]


class TestSynthesizeTrace:
    def test_length_and_ordering(self, medium_db):
        trace = synthesize_trace(medium_db, 500, seed=0)
        assert len(trace) == 500
        times = [r.timestamp for r in trace]
        assert times == sorted(times)

    def test_reproducible(self, medium_db):
        a = synthesize_trace(medium_db, 100, seed=1)
        b = synthesize_trace(medium_db, 100, seed=1)
        assert [r.item_id for r in a] == [r.item_id for r in b]

    def test_follows_profile(self, medium_db):
        trace = synthesize_trace(medium_db, 40000, seed=2)
        counts = trace.counts()
        hottest = medium_db.sorted_by_frequency()[0]
        observed = counts[hottest.item_id] / len(trace)
        assert observed == pytest.approx(hottest.frequency, rel=0.1)

    def test_probability_override(self, tiny_db):
        trace = synthesize_trace(
            tiny_db, 200, seed=0, probabilities=[0, 1, 0, 0]
        )
        assert set(trace.counts()) == {"b"}

    def test_bad_probability_length(self, tiny_db):
        with pytest.raises(SimulationError):
            synthesize_trace(tiny_db, 10, probabilities=[1.0])

    def test_zero_requests(self, tiny_db):
        assert len(synthesize_trace(tiny_db, 0)) == 0

    def test_negative_requests(self, tiny_db):
        with pytest.raises(SimulationError):
            synthesize_trace(tiny_db, -1)


def _outcome(records):
    """Records read before the reader stopped, and its error text."""
    read = []
    try:
        for record in records:
            read.append(record)
    except SimulationError as exc:
        return read, str(exc)
    return read, None


def _exact(records):
    """``_outcome`` with each record as its timestamp's bits and its id."""
    read, error = _outcome(records)
    return [(r.timestamp.hex(), r.item_id) for r in read], error


def _blocked(lines, cuts):
    """The block reader over ``lines`` cut into blocks before ``cuts``."""
    edges = [0, *sorted(set(cuts)), len(lines)]
    blocks = [lines[lo:hi] for lo, hi in zip(edges, edges[1:]) if lo < hi]
    return chain.from_iterable(_record_blocks(blocks, "src"))


#: Bad values of ``t``: each must reach the line parser's error.
BAD_TIMESTAMPS = [
    "NaN",
    "Infinity",
    "-Infinity",
    "-1",
    "1" + "0" * 400,
    "1" * 5000,  # over Python's int digit limit
    "true",
    '"5"',
]

#: Spellings of ``t`` around the canonical number grammar, valid JSON
#: or not; each must read as the line parser reads it.
NUMBER_FORMS = [
    "1e-05",
    "1E+3",
    "-0",
    "-0.0",
    "0",
    "7",
    "0.0e0",
    "01",
    "1.",
    ".5",
    "+1",
    "1e400",
    "\u0661",  # non-ASCII digits: float() reads them, JSON does not
    "1\u0660",
]

#: Ids: plain, with a quote or a backslash (escaped), non-ASCII (raw
#: or escaped), and with DEL (raw, valid JSON).
IDS = ["a", "b", "d7", "caf\u00e9", 'q"x', "b\\s", "x\x7fy"]


@st.composite
def mutated_traces(draw):
    """A valid JSONL trace, mutated, and where to cut it into blocks.

    Mutations: a string or a container merged across two lines, a line
    holding two rows, a bad ``t``, a ``t`` from ``NUMBER_FORMS``, a
    numeric id, an id with a raw control character, text after the
    row, an extra key, a blank line, a CRLF line end, or a timestamp
    going back on a block edge.  The rows are compact (the canonical
    form) or spaced, with non-ASCII ids raw or escaped, and the last
    line may lack its newline.  Half the traces draw only plain ids, so
    that whole blocks are often canonical.
    """
    count = draw(st.integers(min_value=2, max_value=24))
    steps = draw(
        st.lists(
            st.one_of(st.integers(0, 3), st.floats(0.0, 5.0)),
            min_size=count,
            max_size=count,
        )
    )
    ids = draw(
        st.lists(
            st.sampled_from(draw(st.sampled_from([IDS[:3], IDS]))),
            min_size=count,
            max_size=count,
        )
    )
    stamps, clock = [], 0
    for step in steps:
        clock += step
        stamps.append(clock)
    compact = draw(st.booleans())
    separators = (",", ":") if compact else (", ", ": ")
    ensure_ascii = draw(st.booleans())
    lines = [
        json.dumps(
            {"t": t, "id": item_id},
            separators=separators,
            ensure_ascii=ensure_ascii,
        )
        for t, item_id in zip(stamps, ids)
    ]
    cuts = draw(st.lists(st.integers(1, count), max_size=6))
    kinds = [
        "string-merge",
        "container-merge",
        "two-rows",
        "bad-t",
        "number-form",
        "numeric-id",
        "control-id",
        "trailing",
        "extra-key",
        "blank",
        "crlf",
        "out-of-order",
    ]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        at = draw(st.integers(0, len(lines) - 1))
        t = json.dumps(stamps[min(at, len(stamps) - 1)])
        if kind == "string-merge":
            lines[at : at + 1] = ['{"t":%s,"id":"a}' % t, '{"}']
        elif kind == "container-merge":
            lines[at : at + 1] = ['{"t":%s,"id":"a","x":[{}' % t, "{}]}"]
        elif kind == "two-rows":
            lines[at] = '{"t":%s,"id":"a"},{"t":%s,"id":"b"}' % (t, t)
        elif kind == "bad-t":
            bad = draw(st.sampled_from(BAD_TIMESTAMPS))
            lines[at] = '{"t":%s,"id":"a"}' % bad
        elif kind == "number-form":
            form = draw(st.sampled_from(NUMBER_FORMS))
            lines[at] = '{"t":%s,"id":"a"}' % form
        elif kind == "numeric-id":
            lines[at] = '{"t":%s,"id":7}' % t
        elif kind == "control-id":
            control = draw(st.sampled_from(["\x00", "\x01", "\t", "\x1f"]))
            lines[at] = '{"t":%s,"id":"a%sb"}' % (t, control)
        elif kind == "trailing":
            lines[at] += draw(st.sampled_from([" x", "}", ",", "  "]))
        elif kind == "extra-key":
            lines[at] = '{"t":%s,"id":"a","x":1}' % t
        elif kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "crlf":
            lines[at] += "\r"
        elif at > 0:  # out-of-order, first line of its block
            earlier = stamps[min(at, len(stamps)) - 1] - 0.5
            lines[at] = '{"t":%s,"id":"a"}' % json.dumps(earlier)
            cuts.append(at)
    text = [line + "\n" for line in lines]
    if draw(st.booleans()):
        text[-1] = lines[-1]  # no newline at the end of the file
    return text, [cut for cut in cuts if cut < len(text)]


class TestBlockDecoder:
    """Block decoding reads exactly what the line-by-line parser reads."""

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutated_traces())
    def test_blocks_match_one_line_blocks(self, trace):
        lines, cuts = trace
        assert _exact(_blocked(lines, cuts)) == _exact(
            parse_trace_lines(lines, "src")
        )

    @pytest.mark.parametrize(
        "lines",
        [
            # A container merge compensated by a line holding two rows:
            # as many rows as lines, but not one row per line.
            ['{"t":1,"id":"a","x":[{}', "{}]}", '{"t":2,"id":"b"},{"t":3,"id":"c"}'],
            # A string spanning two lines.
            ['{"t":1,"id":"a}', '{"}', '{"t":2,"id":"b"}'],
            # Rows split mid-object, compensated the same way.
            ['{"t":1', '"id":"a"}', '{"t":2,"id":"b"},{"t":3,"id":"c"}'],
            ['{"t":1,"id":"a"}', '{"t":0.5,"id":"b"}'],
            ['{"t":1,"id":"a"}', '{"t":1%s,"id":"b"}' % ("0" * 400)],
            ['{"t":1,"id":"a"}', '{"t":%s,"id":"b"}' % ("1" * 5000)],
            [
                '{"t":1,"id":"a"}',
                '{"t":1,"id":"a","x":%s%s}' % ("[" * 100000, "]" * 100000),
            ],
        ],
        ids=[
            "container-merge",
            "string-merge",
            "split-object",
            "backwards",
            "huge-int",
            "over-digit-limit",
            "deep-nesting",
        ],
    )
    def test_adversarial_block_falls_back(self, lines):
        assert _decode_block(lines, None) is None
        assert _exact(_blocked(lines, [])) == _exact(
            parse_trace_lines(lines, "src")
        )

    @pytest.mark.parametrize(
        "t", ["1" * 5000, "[" * 100000 + "]" * 100000], ids=["digits", "depth"]
    )
    def test_hostile_value_is_a_line_error(self, t):
        lines = ['{"t":0,"id":"a"}\n', '{"t":%s,"id":"b"}\n' % t]
        read, error = _outcome(parse_trace_lines(lines, "src"))
        assert read == [TraceRecord(0.0, "a")]
        assert error.startswith("src:2: ")

    @pytest.mark.parametrize("form", NUMBER_FORMS)
    def test_number_forms_read_as_the_line_parser_reads_them(self, form):
        lines = ['{"t":0,"id":"a"}\n', '{"t":%s,"id":"b"}\n' % form]
        accepted = _match_block(lines, None)
        canonical = form in ("1e-05", "1E+3", "0", "7", "0.0e0")
        assert (accepted is not None) == canonical
        assert _exact(_blocked(lines, [])) == _exact(
            parse_trace_lines(lines, "src")
        )

    def test_canonical_block_is_matched_exactly(self):
        lines = [
            '{"t":0,"id":"a"}\n',
            '{"t":5e-324,"id":"caf\u00e9"}\n',
            '{"t":1e-05,"id":"x\x7fy"}\n',
            '{"t":3,"id":"b"}\n',
            '{"t":3.0E+0,"id":"it\'s"}\n',
            '{"t":0.1,"id":"a b"}\n',  # 0.1 > 3.0 is false: out of order
        ]
        assert _match_block(lines, None) is None
        records = _match_block(lines[:-1], None)
        assert _exact(records) == _exact(parse_trace_lines(lines[:-1], "src"))
        assert [type(r.timestamp) for r in records] == [float] * 5
        assert _match_block(lines[:-1], 1.0) is None  # before the last block

    @pytest.mark.parametrize(
        "lines",
        [
            ['{"t":1,"id":"a"}\n', 'x{"t":2,"id":"b"}\n'],
            ['{"t":1,"id":"a"}{"t":2,"id":"b"}\n', "\n"],
            ['{"t":1,"id":"a"}\n', '{"t":2,"id":"b"}'],
            ['{"t":1,"id":"a"}\n', '{"t":2, "id":"b"}\n'],
            ['{"t":1,"id":"a"}\n', '{"t":2,"id":"b"}\r\n'],
            ['{"t":1,"id":"a"}\n', '{"t":2,"id":"a\x01b"}\n'],
            ['{"t":1,"id":"a"}\n', '{"t":2,"id":"a\\u0041"}\n'],
        ],
        ids=[
            "text-before",
            "two-rows",
            "no-newline",
            "space",
            "crlf",
            "raw-control",
            "escaped-id",
        ],
    )
    def test_non_canonical_block_is_not_matched(self, lines):
        assert _match_block(lines, None) is None
        assert _exact(_blocked(lines, [])) == _exact(
            parse_trace_lines(lines, "src")
        )

    def test_clean_block_is_decoded_whole(self):
        lines = ['{"t":0,"id":"a"}\n', "\n", '{"t":2.5, "id":"b"}\r\n']
        records = _decode_block(lines, None)
        assert records == [TraceRecord(0.0, "a"), TraceRecord(2.5, "b")]
        assert type(records[0].timestamp) is float
        assert _decode_block(lines, 1.0) is None  # before the last block

    def test_file_reader_reports_the_line_after_earlier_blocks(self, tmp_path):
        count = 3000  # several 16 KiB blocks
        lines = ['{"t":%d,"id":"item-%d"}' % (k, k) for k in range(count)]
        lines[2500] = '{"t":-1,"id":"a"}'
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        records, error = _outcome(iter_trace_jsonl(path))
        assert len(records) == 2500
        assert records[-1] == TraceRecord(2499.0, "item-2499")
        assert error.startswith(f"{path}:2501: bad record")


def _file_blocks(path):
    """``path`` in the blocks ``iter_trace_jsonl`` reads, each with the
    last timestamp before it."""
    last = None
    with open(path, encoding="utf-8") as handle:
        while True:
            block = handle.readlines(BLOCK_BYTES)
            if not block:
                return
            yield block, last
            last = json.loads(block[-1])["t"]


class TestCanonicalWriters:
    """The files the library and the benchmark write take the fast tier.

    A writer whose rows fell through to the JSON tier would still read
    correctly, only slower; these tests make that fall-through fail.
    """

    @staticmethod
    def _assert_matched(path):
        blocks = list(_file_blocks(path))
        assert len(blocks) > 1
        for block, last in blocks:
            records = _match_block(block, last)
            assert records is not None
            assert _exact(records) == _exact(_load_block(block, last))

    def test_save_trace_jsonl(self, medium_db, tmp_path):
        trace = synthesize_trace(medium_db, 3000, seed=3)
        trace.record(trace.span * 1e10, medium_db.item_ids[0])  # 1e+xx form
        path = save_trace_jsonl(trace, tmp_path / "trace.jsonl")
        self._assert_matched(path)

    #: Ids outside ASCII: accented, CJK, astral-plane and the line
    #: separators that ``str.splitlines`` (but not the file reader)
    #: breaks on.
    NON_ASCII_IDS = (
        "caf\u00e9", "\u65e5\u672c", "\U0001f4fa-tv", "a\u2028b", "c\x85d",
        "\u00ff\u0100",
    )

    def test_save_trace_jsonl_non_ascii_ids(self, tmp_path):
        """A recorded non-ASCII catalogue takes the fast tier, and the
        file reader yields what the line parser reads."""
        trace = RequestTrace()
        for k in range(3000):
            trace.record(0.25 * k, self.NON_ASCII_IDS[k % len(self.NON_ASCII_IDS)])
        path = save_trace_jsonl(trace, tmp_path / "trace.jsonl")
        assert b"\\u" not in path.read_bytes()
        self._assert_matched(path)
        with open(path, encoding="utf-8") as handle:
            by_line = _exact(parse_trace_lines(handle, "src"))
        assert _exact(iter_trace_jsonl(path)) == by_line
        assert by_line == (
            [(r.timestamp.hex(), r.item_id) for r in trace], None
        )

    def test_save_trace_jsonl_lone_surrogate_id(self, tmp_path):
        """An id UTF-8 cannot encode is written escaped, not raised on."""
        trace = RequestTrace()
        trace.record(0.5, "caf\u00e9")
        trace.record(1.0, "bad\ud800id")
        trace.record(1.5, "plain")
        path = save_trace_jsonl(trace, tmp_path / "trace.jsonl")
        lines = path.read_bytes().splitlines()
        assert lines[1] == b'{"t":1.0,"id":"bad\\ud800id"}'
        assert _exact(iter_trace_jsonl(path)) == (
            [(r.timestamp.hex(), r.item_id) for r in trace], None
        )

    def test_perfbench_writer(self, medium_db, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        pipeline = importlib.import_module("pipeline")
        trace = synthesize_trace(medium_db, 3000, arrival_rate=1e5, seed=4)
        stamps = [0.0, 5e-324, 1e-05] + [
            1e-05 + record.timestamp for record in trace
        ] + [1e16]
        ids = list(medium_db.item_ids)
        records = [
            TraceRecord(t, ids[k % len(ids)]) for k, t in enumerate(stamps)
        ]
        path = tmp_path / "perfbench.jsonl"
        assert pipeline._write_trace(records, path, ids) == len(records)
        self._assert_matched(path)
