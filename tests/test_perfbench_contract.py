"""The names the end-to-end benchmark (``perfbench/``) reads must exist.

perfbench names its ledger targets as strings and reads report fields
by attribute, so deleting or renaming one of them does not fail at
import: the benchmark then records a null metric, and only its traced
run notices.  These checks read ``perfbench/`` (never edit it) and fail
in seconds instead.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from repro.service.serve import BroadcastService, HandoverRecord, ServeEpochReport

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: The serve-report fields ``pipeline.py`` reads.
REPORT_FIELDS = (
    "requests",
    "measured",
    "allocation_mode",
    "reallocated",
    "warm_moves",
    "generation",
)


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``ledger`` and ``layers`` modules, imported as it does."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        ledger = importlib.import_module("ledger")
        layers = importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))
    yield ledger, layers
    for name in ("layers", "ledger"):
        sys.modules.pop(name, None)


def _attribute_reads(name: str):
    """Every ``<name>.<attr>`` that ``pipeline.py`` reads."""
    tree = ast.parse((PERFBENCH / "pipeline.py").read_text())
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == name
    }


def test_every_target_resolves(perfbench):
    ledger, layers = perfbench
    missing = [
        target.path
        for target in layers.TARGETS
        if ledger._resolve(target.path) is None
    ]
    assert missing == []


def test_generator_targets_are_generator_functions(perfbench):
    ledger, layers = perfbench
    generators = [target for target in layers.TARGETS if target.generator]
    assert generators
    for target in generators:
        _, _, raw = ledger._resolve(target.path)
        assert inspect.isgeneratorfunction(raw), target.path


def test_sketch_class_has_the_estimator_methods(perfbench):
    _, layers = perfbench
    service = BroadcastService({"a": 1.0, "b": 2.0}, 1)
    sketch_class = type(service.sketch)
    for _, method in layers.ESTIMATOR_METHODS:
        assert callable(getattr(sketch_class, method, None)), method
    assert {method for _, method in layers.ESTIMATOR_METHODS} == {
        "add",
        "estimate_profile",
    }


def test_serve_report_has_every_field_pipeline_reads():
    fields = {field.name for field in dataclasses.fields(ServeEpochReport)}
    assert set(REPORT_FIELDS) <= fields
    reads = _attribute_reads("report")
    assert set(REPORT_FIELDS) <= reads
    assert reads <= fields


def test_handover_and_service_have_what_pipeline_reads():
    handover_fields = {field.name for field in dataclasses.fields(HandoverRecord)}
    assert _attribute_reads("handover") <= handover_fields
    service = BroadcastService({"a": 1.0, "b": 2.0}, 1)
    missing = [
        attr for attr in _attribute_reads("service") if not hasattr(service, attr)
    ]
    assert missing == []
