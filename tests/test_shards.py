"""Tests for the sharded, resumable experiment fabric.

The headline property: for any (shard layout x worker count x resume
history) — including a SIGKILL mid-shard that leaves a torn trailing
record and a stale done-set entry — ``merge_shards`` reproduces the
serial ``run_experiment`` rows exactly (wall-clock ``elapsed``
aggregates excepted).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.allocation import ChannelAllocation
from repro.core.scheduler import Allocator, register_allocator
from repro.exceptions import ShardError
from repro.experiments.config import ExperimentConfig
from repro.experiments.records import cell_key, identity_key
from repro.experiments.runner import run_experiment
from repro.experiments.shards import (
    KILL_AFTER_ENV_VAR,
    ShardManifest,
    compile_manifest,
    load_manifest,
    merge_shards,
    run_shard,
    save_manifest,
    shard_cells,
    shard_status,
    spec_key,
)
from repro.experiments.parallel import build_cell_grid
from repro.experiments.store import (
    ShardStore,
    _encode_record,
    scan_chunk,
    store_chunk_path,
    store_done_path,
)

_FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="pool tests assume the fork start method",
)


class _ShardExplodingAllocator(Allocator):
    name = "test-shard-exploding"

    def _allocate(self, database, num_channels) -> ChannelAllocation:
        raise RuntimeError("boom on purpose")


register_allocator("test-shard-exploding", _ShardExplodingAllocator)


def small_config(**overrides):
    defaults = dict(
        name="shards-test",
        description="shard fabric test sweep",
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


def run_all_shards(manifest, results_dir, **kwargs):
    return [
        run_shard(manifest, shard, results_dir=results_dir, **kwargs)
        for shard in range(manifest.num_shards)
    ]


# ----------------------------------------------------------------------
# Manifest compilation
# ----------------------------------------------------------------------
class TestManifest:
    def test_compile_is_deterministic(self):
        config = small_config()
        first = compile_manifest(config, num_shards=3)
        second = compile_manifest(config, num_shards=3)
        assert first == second
        assert first.config_sha256 == second.config_sha256

    def test_assignments_partition_the_grid(self):
        config = small_config(replications=3)
        manifest = compile_manifest(config, num_shards=3)
        grid = build_cell_grid(config)
        seen = sorted(
            index for shard in manifest.assignments for index in shard
        )
        assert seen == list(range(len(grid)))
        # Contiguous slices: every shard's cells are a run of grid order.
        for shard in manifest.assignments:
            assert list(shard) == list(range(shard[0], shard[-1] + 1))

    def test_shard_count_bounds(self):
        config = small_config()
        with pytest.raises(ShardError):
            compile_manifest(config, num_shards=0)
        with pytest.raises(ShardError):
            compile_manifest(config, num_shards=10_000)

    def test_save_load_round_trip(self, tmp_path):
        config = small_config()
        manifest = compile_manifest(config, num_shards=2)
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded == manifest
        assert isinstance(loaded, ShardManifest)

    @pytest.mark.parametrize(
        "legacy",
        [
            {"warm_start": True, "seed_edges": []},
            {"warm_start": False, "seed_edges": [[2, 0]]},
            {"warm_start": True, "seed_edges": [[2, 0]]},
        ],
        ids=["warm-flag", "seed-edges", "both"],
    )
    def test_load_rejects_warm_start_manifest(self, tmp_path, legacy):
        """A warm-start sweep's manifest must not silently run cold."""
        payload = compile_manifest(small_config(), num_shards=2).to_jsonable()
        payload.update(legacy)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        with pytest.raises(ShardError, match="warm-start sweep"):
            load_manifest(path)

    def test_legacy_cold_manifest_runs_and_merges(self, tmp_path):
        """A cold manifest in the older layout, which also wrote
        ``warm_start: false`` and ``seed_edges: []``, still loads, runs
        and merges to the serial rows."""
        config = small_config()
        payload = compile_manifest(config, num_shards=2).to_jsonable()
        payload.update({"warm_start": False, "seed_edges": []})
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        manifest = load_manifest(path)
        assert manifest == compile_manifest(config, num_shards=2)
        results_dir = tmp_path / "results"
        run_all_shards(manifest, results_dir)
        merged = merge_shards(manifest, results_dir=results_dir)
        assert rows_without_elapsed(merged) == rows_without_elapsed(
            run_experiment(config)
        )

    def test_load_rejects_unknown_schema(self, tmp_path):
        config = small_config()
        manifest = compile_manifest(config, num_shards=2)
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        payload = json.loads(path.read_text())
        payload["schema"] = "repro.shards.manifest/v999"
        path.write_text(json.dumps(payload))
        with pytest.raises(ShardError, match="schema"):
            load_manifest(path)

    def test_load_rejects_tampered_config(self, tmp_path):
        config = small_config()
        manifest = compile_manifest(config, num_shards=2)
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        payload = json.loads(path.read_text())
        payload["config"]["num_items"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ShardError, match="digest"):
            load_manifest(path)

    def test_load_rejects_broken_partition(self, tmp_path):
        config = small_config()
        manifest = compile_manifest(config, num_shards=2)
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        payload = json.loads(path.read_text())
        payload["assignments"][0] = payload["assignments"][0][1:]
        path.write_text(json.dumps(payload))
        with pytest.raises(ShardError, match="partition"):
            load_manifest(path)

    def test_shard_cells_returns_grid_specs(self):
        config = small_config()
        manifest = compile_manifest(config, num_shards=2)
        grid = build_cell_grid(config)
        cells = shard_cells(manifest, 0)
        assert cells == [grid[i] for i in manifest.assignments[0]]


# ----------------------------------------------------------------------
# Cell identity keys
# ----------------------------------------------------------------------
class TestIdentityKeys:
    def test_identity_key_format(self):
        key = identity_key([("algorithm", "drp"), ("seed", 7)])
        assert key == "[algorithm=drp,seed=7]"

    def test_cell_key_is_stable(self):
        key = cell_key(
            algorithm="drp", value=4, replication=1, seed=20051004
        )
        assert key == (
            "[algorithm=drp,value=4.0,replication=1,seed=20051004]"
        )

    def test_spec_key_embeds_derived_seed(self):
        config = small_config()
        grid = build_cell_grid(config)
        spec = grid[-1]
        key = spec_key(config, spec)
        assert f"seed={config.seed_for(spec.value_index, spec.replication)}" in key
        assert f"algorithm={spec.algorithm}" in key

    def test_spec_keys_unique_across_grid(self):
        config = small_config(replications=3)
        grid = build_cell_grid(config)
        keys = {spec_key(config, spec) for spec in grid}
        assert len(keys) == len(grid)


# ----------------------------------------------------------------------
# Chunked on-disk store
# ----------------------------------------------------------------------
class TestShardStore:
    PAYLOAD = {"cost": 1.25, "error": None, "algorithm": "drp"}

    def test_round_trip(self, tmp_path):
        with ShardStore.open(tmp_path, 0, config_sha256="abc") as store:
            assert store.append_cell("[k=1]", self.PAYLOAD)
        scan = ShardStore.scan(tmp_path, 0)
        assert scan.cells == {"[k=1]": self.PAYLOAD}
        assert scan.header["config_sha256"] == "abc"

    def test_warm_start_seed_record_is_an_error(self, tmp_path):
        """Stores of a warm-start sweep hold ``seed`` records; they are
        refused rather than resumed or merged as if cold."""
        with ShardStore.open(tmp_path, 0) as store:
            store.append_cell("[k=1]", self.PAYLOAD)
        chunk = store_chunk_path(tmp_path, 0)
        with chunk.open("ab") as handle:
            handle.write(_encode_record("seed", "seed[k=1]", {"cost": 2.0}))
        with pytest.raises(ShardError, match="seed record"):
            scan_chunk(chunk)
        with pytest.raises(ShardError, match="seed record"):
            ShardStore.open(tmp_path, 0)

    def test_duplicate_append_is_noop(self, tmp_path):
        with ShardStore.open(tmp_path, 0) as store:
            assert store.append_cell("[k=1]", self.PAYLOAD)
            assert not store.append_cell("[k=1]", self.PAYLOAD)
            assert store.is_done("[k=1]")
            assert set(store.completed_keys()) == {"[k=1]"}

    def test_reopen_resumes_done_set(self, tmp_path):
        with ShardStore.open(tmp_path, 0, config_sha256="abc") as store:
            store.append_cell("[k=1]", self.PAYLOAD)
        with ShardStore.open(tmp_path, 0, config_sha256="abc") as store:
            assert store.is_done("[k=1]")
            assert store.cells["[k=1]"] == self.PAYLOAD

    def test_reopen_rejects_other_config(self, tmp_path):
        with ShardStore.open(tmp_path, 0, config_sha256="abc"):
            pass
        with pytest.raises(ShardError, match="digest"):
            ShardStore.open(tmp_path, 0, config_sha256="other")

    def test_torn_trailing_record_dropped_on_open(self, tmp_path):
        with ShardStore.open(tmp_path, 0) as store:
            store.append_cell("[k=1]", self.PAYLOAD)
        chunk = store_chunk_path(tmp_path, 0)
        with chunk.open("ab") as handle:
            handle.write(b'{"kind": "cell", "key": "[torn')
        with ShardStore.open(tmp_path, 0) as store:
            assert store.torn_dropped == 1
            assert store.cells == {"[k=1]": self.PAYLOAD}
        # The truncation is persistent: a second open is clean.
        assert ShardStore.scan(tmp_path, 0).torn_dropped == 0

    def test_mid_file_corruption_is_an_error(self, tmp_path):
        with ShardStore.open(tmp_path, 0) as store:
            store.append_cell("[k=1]", self.PAYLOAD)
            store.append_cell("[k=2]", self.PAYLOAD)
        chunk = store_chunk_path(tmp_path, 0)
        lines = chunk.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"garbage": true}\n'
        chunk.write_bytes(b"".join(lines))
        with pytest.raises(ShardError, match="corrupt"):
            scan_chunk(chunk)

    def test_crc_mismatch_mid_file_is_an_error(self, tmp_path):
        with ShardStore.open(tmp_path, 0) as store:
            store.append_cell("[k=1]", self.PAYLOAD)
            store.append_cell("[k=2]", self.PAYLOAD)
        chunk = store_chunk_path(tmp_path, 0)
        lines = chunk.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["crc"] = (record["crc"] + 1) & 0xFFFFFFFF
        lines[1] = json.dumps(record).encode() + b"\n"
        chunk.write_bytes(b"".join(lines))
        with pytest.raises(ShardError, match="corrupt"):
            scan_chunk(chunk)

    def test_stale_done_entry_dropped(self, tmp_path):
        with ShardStore.open(tmp_path, 0) as store:
            store.append_cell("[k=1]", self.PAYLOAD)
        done = store_done_path(tmp_path, 0)
        with done.open("a") as handle:
            handle.write("[stale-entry]\n")
        with ShardStore.open(tmp_path, 0) as store:
            assert store.stale_done_dropped == 1
            assert not store.is_done("[stale-entry]")
            assert store.is_done("[k=1]")

    def test_missing_done_file_rebuilt_from_chunk(self, tmp_path):
        with ShardStore.open(tmp_path, 0) as store:
            store.append_cell("[k=1]", self.PAYLOAD)
        store_done_path(tmp_path, 0).unlink()
        with ShardStore.open(tmp_path, 0) as store:
            assert store.is_done("[k=1]")
        assert "[k=1]" in store_done_path(tmp_path, 0).read_text()


# ----------------------------------------------------------------------
# Layout invariance: the headline property
# ----------------------------------------------------------------------
class TestLayoutInvariance:
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_merge_matches_serial(self, tmp_path, num_shards):
        config = small_config()
        serial = run_experiment(config)
        manifest = compile_manifest(config, num_shards=num_shards)
        run_all_shards(manifest, tmp_path)
        merged = merge_shards(manifest, results_dir=tmp_path)
        assert rows_without_elapsed(merged) == rows_without_elapsed(serial)
        assert merged.errors == serial.errors

    @_FORK_ONLY
    def test_pooled_shard_matches_serial(self, tmp_path):
        config = small_config()
        serial = run_experiment(config)
        manifest = compile_manifest(config, num_shards=2)
        run_shard(manifest, 0, results_dir=tmp_path, workers=2)
        run_shard(manifest, 1, results_dir=tmp_path)
        merged = merge_shards(manifest, results_dir=tmp_path)
        assert rows_without_elapsed(merged) == rows_without_elapsed(serial)

    def test_error_cells_surface_in_merge(self, tmp_path):
        config = small_config(algorithms=("drp", "test-shard-exploding"))
        manifest = compile_manifest(config, num_shards=2)
        reports = run_all_shards(manifest, tmp_path)
        assert sum(r.cell_errors for r in reports) == 4
        merged = merge_shards(manifest, results_dir=tmp_path)
        # workers=1 selects the inline fan-out layer, which records the
        # failures instead of raising (serial mode would raise).
        reference = run_experiment(config, workers=1)
        assert rows_without_elapsed(merged) == rows_without_elapsed(reference)
        assert len(merged.errors) == 4
        assert all("boom on purpose" in e.message for e in merged.errors)

    def test_merge_refuses_incomplete_sweep(self, tmp_path):
        config = small_config()
        manifest = compile_manifest(config, num_shards=2)
        run_shard(manifest, 0, results_dir=tmp_path)
        with pytest.raises(ShardError, match="missing"):
            merge_shards(manifest, results_dir=tmp_path)

    def test_status_reports_progress(self, tmp_path):
        config = small_config()
        manifest = compile_manifest(config, num_shards=2)
        run_shard(manifest, 0, results_dir=tmp_path)
        status = shard_status(manifest, results_dir=tmp_path)
        assert status[0]["missing"] == 0
        assert status[1]["missing"] == status[1]["cells"]


# ----------------------------------------------------------------------
# Idempotent resume (satellite: kill/resume)
# ----------------------------------------------------------------------
class TestResume:
    def test_rerun_recomputes_nothing(self, tmp_path):
        config = small_config()
        manifest = compile_manifest(config, num_shards=1)
        first = run_shard(manifest, 0, results_dir=tmp_path)
        second = run_shard(manifest, 0, results_dir=tmp_path)
        assert first.computed == manifest.num_cells
        assert second.computed == 0
        assert second.already_complete == manifest.num_cells

    def test_max_cells_bounds_one_invocation(self, tmp_path):
        config = small_config()
        manifest = compile_manifest(config, num_shards=1)
        partial = run_shard(manifest, 0, results_dir=tmp_path, max_cells=3)
        assert partial.computed == 3
        assert partial.remaining == manifest.num_cells - 3
        rest = run_shard(manifest, 0, results_dir=tmp_path)
        assert rest.already_complete == 3
        assert rest.computed == manifest.num_cells - 3

    def test_torn_record_and_stale_done_resume(self, tmp_path):
        """The satellite scenario: a partial store with a truncated
        trailing JSONL record AND a stale done-set entry resumes by
        dropping both, recomputing only the missing cells, and merging
        rows identical to a clean serial run."""
        config = small_config()
        serial = run_experiment(config)
        manifest = compile_manifest(config, num_shards=1)
        partial = run_shard(manifest, 0, results_dir=tmp_path, max_cells=2)
        assert partial.computed == 2

        chunk = store_chunk_path(tmp_path, 0)
        with chunk.open("ab") as handle:
            handle.write(b'{"kind": "cell", "key": "[torn')
        done = store_done_path(tmp_path, 0)
        with done.open("a") as handle:
            handle.write("[stale-done-entry]\n")

        resumed = run_shard(manifest, 0, results_dir=tmp_path)
        assert resumed.torn_records_dropped == 1
        assert resumed.stale_done_dropped == 1
        assert resumed.already_complete == 2
        assert resumed.computed == manifest.num_cells - 2

        merged = merge_shards(manifest, results_dir=tmp_path)
        assert rows_without_elapsed(merged) == rows_without_elapsed(serial)

    def test_sigkill_mid_shard_resumes_clean(self, tmp_path):
        """End-to-end: SIGKILL a real shard subprocess mid-run via the
        kill-switch env var, then resume in-process and merge."""
        config = small_config()
        serial = run_experiment(config)
        manifest = compile_manifest(config, num_shards=1)
        manifest_path = tmp_path / "manifest.json"
        save_manifest(manifest, manifest_path)
        results_dir = tmp_path / "results"

        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        env[KILL_AFTER_ENV_VAR] = "2"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "shard", "run",
                str(manifest_path), "--shard", "0",
                "--results-dir", str(results_dir), "--quiet",
            ],
            env=env,
            capture_output=True,
        )
        assert proc.returncode == -signal.SIGKILL or proc.returncode == 137

        status = shard_status(manifest, results_dir=results_dir)
        assert status[0]["torn_trailing_record"] is True
        assert status[0]["done"] == 2

        resumed = run_shard(manifest, 0, results_dir=results_dir)
        assert resumed.torn_records_dropped == 1
        assert resumed.already_complete == 2
        merged = merge_shards(manifest, results_dir=results_dir)
        assert rows_without_elapsed(merged) == rows_without_elapsed(serial)
