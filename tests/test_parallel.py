"""Tests for the sweep cell execution layer.

The headline property: ``run_experiment(config, workers=N)`` reproduces
the default in-process rows exactly (costs, waiting times, stds —
everything except the wall-clock ``elapsed`` aggregates, which measure
the machine, not the experiment), for any worker count, with failures
degrading to recorded cell errors instead of crashes.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import random
import time

import pytest

from repro import obs
from repro.core.allocation import ChannelAllocation
from repro.core.scheduler import Allocator, register_allocator
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import figure2, run_figure
from repro.experiments.gap import run_gap_experiment
from repro.experiments.parallel import (
    CellSpec,
    WorkloadMemo,
    build_cell_grid,
    iter_outcomes,
    map_ordered,
    resolve_workers,
    run_cell,
)
from repro.experiments.runner import merge_outcomes, run_experiment
from repro.workloads.generator import WorkloadSpec


def small_config(**overrides):
    defaults = dict(
        name="parallel-test",
        description="parallel layer test sweep",
        sweep_parameter="num_channels",
        sweep_values=(3.0, 4.0),
        algorithms=("drp", "drp-cds"),
        num_items=20,
        replications=2,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def rows_without_elapsed(result):
    """Rows with the only legitimately nondeterministic fields zeroed."""
    return [
        dataclasses.replace(
            row, mean_elapsed_seconds=0.0, std_elapsed_seconds=0.0
        )
        for row in result.rows
    ]


_FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="test-local allocator registrations only reach fork()ed workers",
)


class _ExplodingAllocator(Allocator):
    name = "test-exploding"

    def _allocate(self, database, num_channels) -> ChannelAllocation:
        raise RuntimeError("boom on purpose")


class _SleepyAllocator(Allocator):
    name = "test-sleepy"

    def _allocate(self, database, num_channels) -> ChannelAllocation:
        time.sleep(1.5)
        items = list(database.items)
        groups = [items[c::num_channels] for c in range(num_channels)]
        return ChannelAllocation(database, [g for g in groups if g])


register_allocator("test-exploding", _ExplodingAllocator)
register_allocator("test-sleepy", _SleepyAllocator)


class TestDeterministicFanOut:
    def test_workers_match_serial_rows_exactly(self):
        config = small_config()
        serial = run_experiment(config)
        inline = run_experiment(config, workers=1)
        pooled = run_experiment(config, workers=4)
        assert rows_without_elapsed(serial) == rows_without_elapsed(inline)
        assert rows_without_elapsed(serial) == rows_without_elapsed(pooled)
        assert serial.errors == inline.errors == pooled.errors == []

    def test_figure2_config_identical_at_two_worker_counts(self):
        # The acceptance check: the actual figure-2 config (scaled to
        # one replication to keep the suite fast — same grid shape,
        # same algorithms including GOPT) at two different N.
        config = figure2().scaled_down(replications=1)
        serial = run_experiment(config)
        two = run_experiment(config, workers=2)
        four = run_experiment(config, workers=4)
        assert rows_without_elapsed(serial) == rows_without_elapsed(two)
        assert rows_without_elapsed(serial) == rows_without_elapsed(four)

    def test_replication_count_preserved(self):
        result = run_experiment(small_config(), workers=2)
        assert all(row.replications == 2 for row in result.rows)

    def test_progress_lines_identical_to_serial(self):
        config = small_config()
        serial_lines, parallel_lines = [], []
        run_experiment(config, progress=serial_lines.append)
        run_experiment(config, workers=2, progress=parallel_lines.append)
        assert serial_lines == parallel_lines

    def test_run_figure_wrapper_routes_workers(self):
        config, result = run_figure(
            "figure2", replications=1, workers=1
        )
        assert config.replications == 1
        assert len(result.rows) == len(config.sweep_values) * len(
            config.algorithms
        )

    def test_gap_experiment_parallel_matches_serial(self):
        kwargs = dict(
            num_items=8,
            num_channels=3,
            instances=3,
            algorithms=("drp", "drp-cds"),
        )
        serial = run_gap_experiment(**kwargs)
        pooled = run_gap_experiment(workers=2, **kwargs)
        assert serial == pooled


class TestErrorCapture:
    def test_unknown_algorithm_is_recorded_not_raised(self):
        # "no-such-algo" passes config validation but fails in the
        # worker at make_allocator time — a representative cell error
        # that works under any multiprocessing start method.
        config = small_config(algorithms=("drp", "no-such-algo"))
        result = run_experiment(config, workers=2)
        good_rows = [(row.sweep_value, row.algorithm) for row in result.rows]
        assert good_rows == [(3.0, "drp"), (4.0, "drp")]
        assert len(result.errors) == 4  # 2 sweep values x 2 replications
        assert all(e.algorithm == "no-such-algo" for e in result.errors)
        assert all("unknown allocator" in e.message for e in result.errors)

    def test_inline_worker_captures_allocator_exception(self):
        config = small_config(algorithms=("drp", "test-exploding"))
        result = run_experiment(config, workers=1)
        assert len(result.errors) == 4
        assert all("boom on purpose" in e.message for e in result.errors)
        assert [row.algorithm for row in result.rows] == ["drp", "drp"]

    @_FORK_ONLY
    def test_worker_process_captures_allocator_exception(self):
        config = small_config(algorithms=("drp", "test-exploding"))
        result = run_experiment(config, workers=2)
        assert len(result.errors) == 4
        assert all("boom on purpose" in e.message for e in result.errors)

    @_FORK_ONLY
    def test_cell_timeout_degrades_to_recorded_error(self):
        # Two cells so the pool path (not the single-cell inline
        # shortcut, which cannot enforce timeouts) is exercised.
        config = small_config(
            algorithms=("test-sleepy",), sweep_values=(3.0,), replications=2
        )
        result = run_experiment(config, workers=2, cell_timeout=0.2)
        assert result.rows == []
        assert len(result.errors) == 2
        assert all("timed out" in error.message for error in result.errors)

    @pytest.mark.parametrize(
        "workers", [1, pytest.param(2, marks=_FORK_ONLY)]
    )
    def test_default_run_records_the_same_cell_errors(
        self, monkeypatch, workers
    ):
        # A default run takes the same cell path as any worker count:
        # an allocator failure is recorded, never raised.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        config = small_config(algorithms=("drp", "test-exploding"))
        default = run_experiment(config)
        explicit = run_experiment(config, workers=workers)
        assert len(default.errors) == 4
        assert default.errors == explicit.errors
        assert rows_without_elapsed(default) == rows_without_elapsed(
            explicit
        )

    def test_errors_survive_json_round_trip(self):
        from repro.experiments.records import ExperimentResult

        config = small_config(algorithms=("drp", "no-such-algo"))
        result = run_experiment(config, workers=1)
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.errors == result.errors


class TestBuildingBlocks:
    def test_grid_is_canonically_ordered(self):
        grid = build_cell_grid(small_config())
        assert len(grid) == 2 * 2 * 2
        assert grid[0] == CellSpec(0, 0, "drp")
        assert grid[1] == CellSpec(0, 0, "drp-cds")
        assert grid[2] == CellSpec(0, 1, "drp")
        assert grid[-1] == CellSpec(1, 1, "drp-cds")

    def test_run_cell_measures_one_cell(self):
        config = small_config()
        outcome = run_cell(config, CellSpec(0, 0, "drp"))
        assert outcome.error is None
        assert outcome.cost > 0
        assert outcome.waiting_time > 0
        assert outcome.elapsed_seconds >= 0

    def test_iter_outcomes_preserves_submission_order(self):
        config = small_config()
        cells = list(reversed(build_cell_grid(config)))
        outcomes = list(iter_outcomes(config, cells, workers=2))
        assert [
            (o.value_index, o.replication, o.algorithm) for o in outcomes
        ] == [(c.value_index, c.replication, c.algorithm) for c in cells]

    def test_merge_outcomes_ignores_arrival_order(self):
        config = small_config(algorithms=("drp", "no-such-algo"))
        outcomes = list(iter_outcomes(config, build_cell_grid(config)))
        shuffled = list(outcomes)
        random.Random(7).shuffle(shuffled)
        assert shuffled != outcomes
        ordered = merge_outcomes(config, outcomes)
        assert ordered.errors  # the error list is compared too
        assert merge_outcomes(config, shuffled) == ordered

    def test_workload_memo_generates_once(self):
        memo = WorkloadMemo()
        spec = WorkloadSpec(num_items=10, seed=42)
        first = memo.get(spec)
        second = memo.get(spec)
        assert first is second
        assert (memo.hits, memo.misses) == (1, 1)

    def test_workload_memo_evicts_fifo(self):
        memo = WorkloadMemo(max_entries=2)
        specs = [WorkloadSpec(num_items=5, seed=s) for s in range(3)]
        for spec in specs:
            memo.get(spec)
        assert len(memo) == 2
        memo.get(specs[0])  # evicted, regenerated
        assert memo.misses == 4

    def test_map_ordered_serial_and_parallel_agree(self):
        items = list(range(6))
        assert map_ordered(abs, items, workers=1) == items
        assert map_ordered(abs, items, workers=3) == items


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_env_var_enables_fanout(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_auto_uses_usable_cpus(self):
        import os

        from repro.experiments.parallel import auto_workers

        resolved = resolve_workers("auto")
        assert resolved == auto_workers()
        # Clamped to the CPUs this process may actually run on — on a
        # restricted-affinity host that is fewer than os.cpu_count().
        assert 1 <= resolved <= (os.cpu_count() or 1)
        if hasattr(os, "sched_getaffinity"):
            assert resolved <= len(os.sched_getaffinity(0))

    def test_strings_parsed(self):
        assert resolve_workers("2") == 2

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="worker count"):
            resolve_workers("plenty")

    def test_env_honoured_by_run_experiment(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        tracer, _ = obs.configure(trace=True)
        try:
            result = run_experiment(small_config())
            run_span = tracer.find("experiment.run")[0]
        finally:
            obs.reset()
        assert run_span.attributes["workers"] == 2
        assert result.errors == []
