"""Unit tests for repro.core.database."""

from __future__ import annotations

import pytest

from repro.core.database import BroadcastDatabase, FREQUENCY_SUM_TOLERANCE
from repro.core.item import DataItem
from repro.exceptions import InvalidDatabaseError, InvalidItemError


class TestConstruction:
    def test_empty_database_rejected(self):
        with pytest.raises(InvalidDatabaseError):
            BroadcastDatabase([])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidDatabaseError, match="duplicate"):
            BroadcastDatabase(
                [DataItem("a", 0.5, 1.0), DataItem("a", 0.5, 2.0)]
            )

    def test_non_item_entries_rejected(self):
        with pytest.raises(InvalidDatabaseError, match="DataItem"):
            BroadcastDatabase([("a", 0.5, 1.0)])  # type: ignore[list-item]

    def test_unnormalised_rejected_by_default(self):
        with pytest.raises(InvalidDatabaseError, match="sum to 1"):
            BroadcastDatabase([DataItem("a", 0.5, 1.0)])

    def test_unnormalised_accepted_when_requested(self):
        db = BroadcastDatabase(
            [DataItem("a", 0.5, 1.0)], require_normalized=False
        )
        assert db.total_frequency == pytest.approx(0.5)
        assert not db.is_normalized

    def test_tolerance_accepts_rounded_profiles(self):
        # Frequencies that sum to 1 within the documented tolerance.
        off = FREQUENCY_SUM_TOLERANCE / 2
        db = BroadcastDatabase(
            [DataItem("a", 0.5, 1.0), DataItem("b", 0.5 + off, 1.0)]
        )
        assert db.is_normalized


class TestContainerProtocol:
    def test_len_iter_contains_getitem(self, tiny_db):
        assert len(tiny_db) == 4
        assert [item.item_id for item in tiny_db] == ["a", "b", "c", "d"]
        assert "a" in tiny_db
        assert "zz" not in tiny_db
        assert tiny_db["b"].size == 2.0

    def test_getitem_missing_raises_keyerror(self, tiny_db):
        with pytest.raises(KeyError, match="zz"):
            tiny_db["zz"]

    def test_equality_and_hash(self, tiny_db):
        clone = BroadcastDatabase(list(tiny_db.items))
        assert clone == tiny_db
        assert hash(clone) == hash(tiny_db)
        assert tiny_db != "not a database"


class TestDerivedQuantities:
    def test_totals(self, tiny_db):
        assert tiny_db.total_frequency == pytest.approx(1.0)
        assert tiny_db.total_size == pytest.approx(10.0)

    def test_fixed_download_cost(self, tiny_db):
        # 0.4*1 + 0.3*2 + 0.2*3 + 0.1*4 = 2.0
        assert tiny_db.fixed_download_cost == pytest.approx(2.0)

    def test_sorted_by_benefit_ratio_descending(self, tiny_db):
        ordered = tiny_db.sorted_by_benefit_ratio()
        ratios = [item.benefit_ratio for item in ordered]
        assert ratios == sorted(ratios, reverse=True)
        assert ordered[0].item_id == "a"

    def test_benefit_ratio_sort_breaks_ties_by_catalogue_order(self):
        db = BroadcastDatabase(
            [
                DataItem("x", 0.25, 1.0),
                DataItem("y", 0.25, 1.0),
                DataItem("z", 0.5, 1.0),
            ]
        )
        ordered = [item.item_id for item in db.sorted_by_benefit_ratio()]
        assert ordered == ["z", "x", "y"]

    def test_sorted_by_frequency_descending(self, tiny_db):
        ordered = [item.item_id for item in tiny_db.sorted_by_frequency()]
        assert ordered == ["a", "b", "c", "d"]

    def test_paper_order_matches_table3(self, paper_db):
        ordered = [item.item_id for item in paper_db.sorted_by_benefit_ratio()]
        assert ordered == [
            "d9", "d2", "d3", "d6", "d5", "d15", "d1", "d12",
            "d10", "d13", "d4", "d8", "d14", "d7", "d11",
        ]


class TestTransforms:
    def test_normalized_rescales_to_unit_sum(self):
        db = BroadcastDatabase(
            [DataItem("a", 2.0, 1.0), DataItem("b", 6.0, 2.0)],
            require_normalized=False,
        )
        normalized = db.normalized()
        assert normalized.total_frequency == pytest.approx(1.0)
        assert normalized["a"].frequency == pytest.approx(0.25)
        assert normalized["b"].frequency == pytest.approx(0.75)

    def test_subset_preserves_order(self, tiny_db):
        subset = tiny_db.subset(["c", "a"])
        assert [item.item_id for item in subset] == ["c", "a"]

    def test_from_pairs(self):
        db = BroadcastDatabase.from_pairs({"a": (0.6, 1.0), "b": (0.4, 2.0)})
        assert db["a"].frequency == 0.6
        assert db.item_ids == ("a", "b")

    def test_from_arrays(self):
        db = BroadcastDatabase.from_arrays([0.7, 0.3], [1.0, 2.0])
        assert db.item_ids == ("d1", "d2")
        assert db["d2"].size == 2.0

    def test_from_arrays_custom_prefix(self):
        db = BroadcastDatabase.from_arrays([0.7, 0.3], [1.0, 2.0], prefix="v")
        assert db.item_ids == ("v1", "v2")

    def test_from_arrays_length_mismatch(self):
        with pytest.raises(InvalidDatabaseError, match="equal length"):
            BroadcastDatabase.from_arrays([0.5], [1.0, 2.0])

    def test_with_frequencies_clone_shares_ids_and_totals(self):
        db = BroadcastDatabase.from_soa([0.5, 0.5], [1.0, 3.0], ids=["a", "b"])
        clone = db.with_frequencies([0.25, 0.75])
        assert clone.shares_ids_with(db) and db.shares_ids_with(clone)
        assert clone.total_size == db.total_size == 4.0
        assert clone.total_frequency == 1.0
        # Equal ids held twice are not shared: callers take the id path.
        twin = BroadcastDatabase.from_soa([0.5, 0.5], [1.0, 3.0], ids=["a", "b"])
        assert not twin.shares_ids_with(db)
        virtual = BroadcastDatabase.from_arrays([0.5, 0.5], [1.0, 3.0])
        assert virtual.shares_ids_with(virtual.with_frequencies([0.4, 0.6]))
        assert not virtual.shares_ids_with(db)
        assert not virtual.shares_ids_with(
            BroadcastDatabase.from_arrays([0.5, 0.5], [1.0, 3.0], prefix="v")
        )

    @pytest.mark.parametrize("bad", [0.0, -0.5, float("nan"), float("inf")])
    def test_with_frequencies_still_checks_the_new_frequencies(self, bad):
        db = BroadcastDatabase.from_soa([0.5, 0.5], [1.0, 3.0], ids=["a", "b"])
        with pytest.raises(InvalidItemError):
            db.with_frequencies([bad, 0.5], require_normalized=False)
