"""Tests for benchmarks/check_perfbench_output.py, the strict output check."""

from __future__ import annotations

import json

import pytest

from benchmarks.check_perfbench_output import check, declared, main


def _output(trace=False, value=1.5, **fields):
    """A perfbench stdout whose last line reports every declared metric."""
    result = {"correct": True, "attempted": 10, "failed": 0}
    result.update(fields)
    result["metrics"] = {
        name: {"value": value, "unit": "s"} for name in declared(trace)
    }
    return "perfbench serve-steady seed=1\n" + json.dumps(result) + "\n"


def _with_value(text, name, raw):
    """``text`` with metric ``name``'s value spelled ``raw`` in JSON."""
    head, last = text.rstrip("\n").rsplit("\n", 1)
    result = json.loads(last)
    result["metrics"][name]["value"] = "@"
    return head + "\n" + json.dumps(result).replace('"@"', raw) + "\n"


@pytest.mark.parametrize("trace", [False, True])
def test_a_good_output_passes(trace):
    assert check(_output(trace), trace) == []


def test_per_layer_values_may_be_null():
    assert check(_output(True, value=None), True) == []
    assert check(_output(False, value=None), False) != []


@pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("trace", [False, True])
def test_non_finite_values_fail(raw, trace):
    name = declared(trace)[0]
    problems = check(_with_value(_output(trace), name, raw), trace)
    assert problems and "strict JSON" in problems[0]


@pytest.mark.parametrize("raw", ["1e999", '"1.5"', "true", "[]"])
def test_non_numbers_fail(raw):
    text = _with_value(_output(), "throughput_per_s", raw)
    assert check(text, False) == [
        f"throughput_per_s: {json.loads(raw)!r} is not a finite number"
    ]


@pytest.mark.parametrize(
    "fields",
    [
        {"correct": False},
        {"correct": "true"},
        {"failed": 1},
        {"failed": None},
        {"attempted": 0},
        {"attempted": True},
    ],
)
def test_verdict_fields(fields):
    assert len(check(_output(**fields), False)) == 1


def test_the_last_line_must_be_the_result():
    text = _output() + "Traceback (most recent call last):\n"
    assert check(text, False) != []
    assert check("", False) == ["the last stdout line is empty"]
    assert check(_output() + "\n", False) == ["the last stdout line is empty"]


def test_metric_sets_follow_the_pass_kind():
    problems = check(_output(trace=True), False)
    assert "throughput_per_s: missing" in problems
    assert "trace.decode_s: not a declared end-to-end metric" in problems


def test_positive_metrics():
    good = _output(True, value=3)
    assert check(good, True, ["estimator.add_calls"]) == []
    zero = _with_value(good, "estimator.add_calls", "0")
    assert check(zero, True, ["estimator.add_calls"]) == [
        "estimator.add_calls: 0 is not above 0"
    ]


def test_main_exit_codes(tmp_path, capsys):
    good, bad = tmp_path / "good.out", tmp_path / "bad.out"
    good.write_text(_output())
    bad.write_text(_output(correct=False))
    assert main([str(good), "--trace", "0"]) == 0
    assert main([str(bad), "--trace", "0"]) == 1
    assert "correct is False, not true" in capsys.readouterr().err
