"""Tests for the fuzz driver: determinism, shrinking, serialization.

The acceptance-criterion scenario lives here too: with the
``delta-sign`` bug injected, the fuzzer must catch the broken Eq. (4),
shrink the case to at most eight items, and serialize a repro that
replays to the same violation.
"""

from __future__ import annotations

import json

import pytest

from repro.core.database import BroadcastDatabase
from repro.core.item import DataItem
from repro.exceptions import VerificationError
from repro.verify.fuzz import (
    FAILURE_SCHEMA,
    INJECTABLE_BUGS,
    CaseContext,
    available_checks,
    load_failure,
    replay_failure,
    run_fuzz,
    shrink_case,
)

ORACLE_PAIRS = (
    "oracle.drp-backends",
    "oracle.simulators",
    "oracle.exact-sum",
    "oracle.serial-parallel",
    "oracle.warm-cold",
)
METAMORPHIC_RELATIONS = (
    "metamorphic.permutation",
    "metamorphic.size-scaling",
    "metamorphic.frequency-renormalization",
    "metamorphic.monotone-channels",
    "metamorphic.merge-split",
)


class TestRegistry:
    def test_all_families_registered(self):
        names = {spec.name for spec in available_checks()}
        assert set(ORACLE_PAIRS) <= names
        assert set(METAMORPHIC_RELATIONS) <= names
        assert any(name.startswith("invariants.") for name in names)

    def test_unknown_check_rejected(self):
        with pytest.raises(VerificationError, match="unknown check"):
            run_fuzz(seed=0, budget=1, checks=["no-such-check"])

    def test_unknown_bug_rejected(self):
        with pytest.raises(VerificationError, match="unknown injectable"):
            run_fuzz(seed=0, budget=1, inject="no-such-bug")

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(VerificationError, match="budget"):
            run_fuzz(seed=0, budget=0)


class TestCleanFuzz:
    def test_small_budget_is_clean_and_deterministic(self, tmp_path):
        first = run_fuzz(
            seed=11, budget=8, failures_dir=tmp_path / "a"
        )
        second = run_fuzz(
            seed=11, budget=8, failures_dir=tmp_path / "b"
        )
        assert first.clean and second.clean
        assert first.cases == second.cases == 8
        assert first.checks_run == second.checks_run

    def test_check_selection_restricts_execution(self, tmp_path):
        report = run_fuzz(
            seed=1,
            budget=4,
            failures_dir=tmp_path,
            checks=["invariants.prefix-sums", "metamorphic.permutation"],
        )
        assert report.clean
        assert set(report.checks_run) == {
            "invariants.prefix-sums",
            "metamorphic.permutation",
        }

    def test_report_to_dict_shape(self, tmp_path):
        report = run_fuzz(
            seed=2,
            budget=2,
            failures_dir=tmp_path,
            checks=["invariants.wellformed"],
        )
        payload = report.to_dict()
        assert payload["clean"] is True
        assert payload["cases"] == 2
        assert payload["checks_run"] == {"invariants.wellformed": 2}


class TestInjectedBug:
    """The headline acceptance scenario."""

    def test_delta_sign_bug_is_caught_shrunk_and_serialized(self, tmp_path):
        report = run_fuzz(
            seed=0,
            budget=20,
            failures_dir=tmp_path,
            inject="delta-sign",
            checks=["invariants.move-delta"],
        )
        assert not report.clean
        [failure] = report.failures
        assert failure.check == "invariants.move-delta"
        assert failure.num_items <= 8
        assert failure.injected == "delta-sign"
        assert failure.path is not None and failure.path.exists()

        payload = json.loads(failure.path.read_text())
        assert payload["schema"] == FAILURE_SCHEMA
        assert payload["injected"] == "delta-sign"
        assert len(payload["items"]) == failure.num_items
        assert payload["violations"]

        # The serialized repro replays to the same defect...
        assert replay_failure(failure.path)
        # ...and the loader exposes the shrunk case faithfully.
        loaded = load_failure(failure.path)
        assert loaded.check == "invariants.move-delta"
        assert len(loaded.database) == failure.num_items
        assert loaded.num_channels == failure.num_channels

    def test_clean_checks_stay_clean_under_injection(self, tmp_path):
        # The injection only touches the move-delta checker; everything
        # else must keep passing, proving the blast radius is scoped.
        report = run_fuzz(
            seed=0,
            budget=6,
            failures_dir=tmp_path,
            inject="delta-sign",
            checks=["invariants.wellformed", "metamorphic.permutation"],
        )
        assert report.clean


class TestShrinking:
    def test_shrinks_to_minimal_failing_core(self):
        items = [
            DataItem(f"d{i}", frequency=0.1, size=float(i + 1))
            for i in range(12)
        ]

        def predicate(candidate, num_channels):
            # Fails whenever d3 survives — minimal core is one item,
            # but the floor of two items/two channels applies.
            return any(item.item_id == "d3" for item in candidate)

        shrunk, channels = shrink_case(items, 4, predicate)
        assert any(item.item_id == "d3" for item in shrunk)
        assert len(shrunk) == 2
        assert channels == 2

    def test_predicate_exceptions_count_as_not_failing(self):
        items = [
            DataItem(f"d{i}", frequency=0.1, size=1.0) for i in range(6)
        ]

        def predicate(candidate, num_channels):
            if len(candidate) < 4:
                raise VerificationError("boom")
            return True

        shrunk, channels = shrink_case(items, 3, predicate)
        assert len(shrunk) == 4


class TestFailureFiles:
    def test_load_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope/v0"}))
        with pytest.raises(VerificationError, match="schema"):
            load_failure(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(VerificationError, match="cannot read"):
            load_failure(tmp_path / "absent.json")


class TestCaseContext:
    def test_pipeline_results_are_cached(self):
        database = BroadcastDatabase(
            [
                DataItem("a", 0.4, 1.0),
                DataItem("b", 0.3, 2.0),
                DataItem("c", 0.2, 3.0),
                DataItem("d", 0.1, 4.0),
            ]
        )
        context = CaseContext(database, 2, case_seed=5)
        assert context.drp() is context.drp()
        assert context.cds() is context.cds()

    def test_rng_streams_differ_per_check(self):
        database = BroadcastDatabase(
            [DataItem("a", 0.5, 1.0), DataItem("b", 0.5, 2.0)]
        )
        context = CaseContext(database, 2, case_seed=5)
        first = context.rng_for("check-one").integers(0, 2 ** 32)
        second = context.rng_for("check-two").integers(0, 2 ** 32)
        replayed = context.rng_for("check-one").integers(0, 2 ** 32)
        assert first == replayed
        assert first != second


@pytest.mark.slow
class TestAcceptanceBudget:
    """The full ``--seed 0 --budget 200`` acceptance criterion."""

    def test_budget_200_is_clean_and_covers_everything(self, tmp_path):
        report = run_fuzz(seed=0, budget=200, failures_dir=tmp_path)
        assert report.clean, [f.check for f in report.failures]
        assert report.cases == 200
        for name in ORACLE_PAIRS:
            assert report.checks_run.get(name, 0) >= 1, name
        for name in METAMORPHIC_RELATIONS:
            assert report.checks_run.get(name, 0) >= 5, name
        assert "INJECTABLE" not in report.checks_run  # sanity
        assert set(INJECTABLE_BUGS) == {"delta-sign"}
