"""Sharded, resumable experiment fabric.

A sweep's cell grid is embarrassingly parallel, and
:mod:`repro.experiments.parallel` already fans it out over a process
pool — but one pool lives inside one OS process, so one machine crash
loses the whole sweep and one machine bounds the whole sweep.  This
module splits a sweep into **shards** that run as fully independent OS
processes (different terminals, different machines sharing a results
directory, a job array) and merge back into rows *identical* to a
serial run:

* :func:`compile_manifest` deterministically partitions the canonical
  cell grid of an :class:`~repro.experiments.config.ExperimentConfig`
  into ``num_shards`` contiguous slices and records the plan — config,
  config digest and shard → cell assignments — in a versioned
  ``manifest.json``.
* :func:`run_shard` executes one shard, streaming every completed cell
  into that shard's append-only store
  (:class:`~repro.experiments.store.ShardStore`) the moment it
  finishes.  Re-running a shard is **idempotent**: completed cells are
  skipped, a torn trailing record from a SIGKILL is dropped, and only
  the missing cells recompute.
* :func:`merge_shards` assembles the stores into one
  :class:`~repro.experiments.records.ExperimentResult` whose rows are
  identical to a serial :func:`~repro.experiments.runner.run_experiment`
  for **any** (shard layout × worker count × resume history) — the
  wall-clock ``elapsed`` aggregates excepted, matching the existing
  serial/parallel convention.

Determinism requires one discipline: every shard must be compiled into
the same manifest (the config digest is checked at every step).  Every
cell is independent — its workload is re-derived from the config's
seed scheme — so no shard ever reads another shard's store before the
merge.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import obs
from repro.exceptions import ShardError
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    CellOutcome,
    CellSpec,
    build_cell_grid,
    iter_outcomes,
    resolve_workers,
)
from repro.experiments.records import ExperimentResult, cell_key
from repro.experiments.store import ShardStore, store_chunk_path
from repro.obs.manifest import config_digest

__all__ = [
    "MANIFEST_SCHEMA",
    "KILL_AFTER_ENV_VAR",
    "ShardManifest",
    "ShardRunReport",
    "compile_manifest",
    "save_manifest",
    "load_manifest",
    "shard_cells",
    "spec_key",
    "run_shard",
    "merge_shards",
    "shard_status",
]

#: Schema tag of the manifest file; bumped on incompatible change.
MANIFEST_SCHEMA = "repro.shards.manifest/v1"

#: When set to an integer N, :func:`run_shard` SIGKILLs its own process
#: after streaming N cells — leaving a deliberately torn trailing record
#: so CI and tests can exercise the crash/resume path for real.
KILL_AFTER_ENV_VAR = "REPRO_SHARD_KILL_AFTER"

ProgressCallback = Callable[[str], None]


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def _config_to_jsonable(config: ExperimentConfig) -> Dict[str, Any]:
    return {
        "name": config.name,
        "description": config.description,
        "sweep_parameter": config.sweep_parameter,
        "sweep_values": list(config.sweep_values),
        "algorithms": list(config.algorithms),
        "num_items": config.num_items,
        "num_channels": config.num_channels,
        "diversity": config.diversity,
        "skewness": config.skewness,
        "bandwidth": config.bandwidth,
        "replications": config.replications,
        "base_seed": config.base_seed,
    }


def _config_from_jsonable(payload: Dict[str, Any]) -> ExperimentConfig:
    try:
        return ExperimentConfig(
            name=payload["name"],
            description=payload["description"],
            sweep_parameter=payload["sweep_parameter"],
            sweep_values=tuple(payload["sweep_values"]),
            algorithms=tuple(payload["algorithms"]),
            num_items=int(payload["num_items"]),
            num_channels=int(payload["num_channels"]),
            diversity=float(payload["diversity"]),
            skewness=float(payload["skewness"]),
            bandwidth=float(payload["bandwidth"]),
            replications=int(payload["replications"]),
            base_seed=int(payload["base_seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ShardError(f"manifest config is malformed: {exc}") from exc


@dataclass(frozen=True)
class ShardManifest:
    """The compiled execution plan of one sharded sweep.

    ``assignments[s]`` lists the canonical grid indices shard ``s``
    owns.
    """

    config: ExperimentConfig
    config_sha256: str
    num_shards: int
    assignments: Tuple[Tuple[int, ...], ...]

    @property
    def num_cells(self) -> int:
        return sum(len(indices) for indices in self.assignments)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "config": _config_to_jsonable(self.config),
            "config_sha256": self.config_sha256,
            "num_shards": self.num_shards,
            "num_cells": self.num_cells,
            "assignments": [list(indices) for indices in self.assignments],
        }


def compile_manifest(
    config: ExperimentConfig,
    *,
    num_shards: int,
) -> ShardManifest:
    """Partition ``config``'s cell grid into ``num_shards`` shards.

    The partition is deterministic — contiguous slices of the canonical
    (value, replication, algorithm) grid order, shard ``s`` owning
    ``[s·N/M, (s+1)·N/M)`` — so compiling the same config twice yields
    byte-identical manifests, and contiguous slices keep each shard's
    workload-memo locality (the cells of one (value, replication) pair
    stay together).
    """
    grid = build_cell_grid(config)
    if num_shards < 1:
        raise ShardError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards > len(grid):
        raise ShardError(
            f"num_shards={num_shards} exceeds the grid's {len(grid)} cells"
        )
    with obs.span("shard.compile", cells=len(grid), shards=num_shards):
        total = len(grid)
        assignments = tuple(
            tuple(
                range(
                    shard * total // num_shards,
                    (shard + 1) * total // num_shards,
                )
            )
            for shard in range(num_shards)
        )
    return ShardManifest(
        config=config,
        config_sha256=config_digest(config),
        num_shards=num_shards,
        assignments=assignments,
    )


def save_manifest(
    manifest: ShardManifest, path: Union[str, Path]
) -> None:
    """Write the manifest as indented, key-sorted JSON."""
    Path(path).write_text(
        json.dumps(manifest.to_jsonable(), indent=2, sort_keys=True) + "\n"
    )


def load_manifest(path: Union[str, Path]) -> ShardManifest:
    """Load and validate a manifest written by :func:`save_manifest`.

    Validation is strict — schema tag, config digest (recomputed from
    the embedded config and compared to the stored one, so a
    hand-edited config cannot silently drift from the digest the stores
    were stamped with), and the assignment partition (every grid index
    exactly once).  A manifest compiled for a warm-start sweep
    (``warm_start: true`` or a non-empty ``seed_edges``, fields of
    older manifests) is refused: sweep warm starts were removed, and
    running it cold would mix cold rows into stores a warm run stamped
    with the same config digest.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ShardError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != MANIFEST_SCHEMA:
        raise ShardError(
            f"{path}: expected manifest schema {MANIFEST_SCHEMA!r}, "
            f"got {payload.get('schema')!r}"
        )
    if payload.get("warm_start") or payload.get("seed_edges"):
        raise ShardError(
            f"{path}: manifest of a warm-start sweep — sweep warm starts "
            "(the seed DAG) were removed; compile the sweep again with "
            "`repro shard compile` and run it into a fresh results "
            "directory"
        )
    config = _config_from_jsonable(payload.get("config", {}))
    digest = config_digest(config)
    if digest != payload.get("config_sha256"):
        raise ShardError(
            f"{path}: config digest mismatch — manifest says "
            f"{payload.get('config_sha256')!r}, embedded config hashes to "
            f"{digest!r}"
        )
    assignments = tuple(
        tuple(int(index) for index in indices)
        for indices in payload.get("assignments", [])
    )
    grid_size = len(build_cell_grid(config))
    covered = sorted(index for indices in assignments for index in indices)
    if covered != list(range(grid_size)):
        raise ShardError(
            f"{path}: assignments do not partition the {grid_size}-cell "
            f"grid exactly"
        )
    num_shards = int(payload.get("num_shards", len(assignments)))
    if num_shards != len(assignments):
        raise ShardError(
            f"{path}: num_shards={num_shards} but "
            f"{len(assignments)} assignment lists"
        )
    return ShardManifest(
        config=config,
        config_sha256=digest,
        num_shards=num_shards,
        assignments=assignments,
    )


def shard_cells(
    manifest: ShardManifest, shard_index: int
) -> List[CellSpec]:
    """The cell descriptors shard ``shard_index`` owns, in grid order."""
    if not 0 <= shard_index < manifest.num_shards:
        raise ShardError(
            f"shard index {shard_index} out of range for "
            f"{manifest.num_shards} shard(s)"
        )
    grid = build_cell_grid(manifest.config)
    return [grid[index] for index in manifest.assignments[shard_index]]


# ----------------------------------------------------------------------
# Cell record (de)serialization
# ----------------------------------------------------------------------
def spec_key(config: ExperimentConfig, spec: CellSpec) -> str:
    """The stable identity key of one cell — the store's done-set key.

    Shared with the bench-history identity scheme via
    :func:`repro.experiments.records.cell_key`; includes the derived
    workload seed so a key ties the cell to the exact database it ran
    against.
    """
    return cell_key(
        algorithm=spec.algorithm,
        value=float(config.sweep_values[spec.value_index]),
        replication=spec.replication,
        seed=config.seed_for(spec.value_index, spec.replication),
    )


def _outcome_to_payload(outcome: CellOutcome) -> Dict[str, Any]:
    # Only the scientific result and light provenance are persisted;
    # span/metric payloads were already adopted by the running process.
    return {
        "value_index": outcome.value_index,
        "replication": outcome.replication,
        "algorithm": outcome.algorithm,
        "cost": outcome.cost,
        "waiting_time": outcome.waiting_time,
        "elapsed_seconds": outcome.elapsed_seconds,
        "error": outcome.error,
        "worker_pid": outcome.worker_pid,
        "started_unix": outcome.started_unix,
        "finished_unix": outcome.finished_unix,
    }


def _outcome_from_payload(payload: Dict[str, Any]) -> CellOutcome:
    try:
        return CellOutcome(
            value_index=int(payload["value_index"]),
            replication=int(payload["replication"]),
            algorithm=payload["algorithm"],
            cost=payload.get("cost"),
            waiting_time=payload.get("waiting_time"),
            elapsed_seconds=payload.get("elapsed_seconds"),
            error=payload.get("error"),
            worker_pid=payload.get("worker_pid"),
            started_unix=payload.get("started_unix"),
            finished_unix=payload.get("finished_unix"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ShardError(f"malformed cell record payload: {exc}") from exc


# ----------------------------------------------------------------------
# Running one shard
# ----------------------------------------------------------------------
@dataclass
class ShardRunReport:
    """What one :func:`run_shard` invocation did."""

    shard_index: int
    total_cells: int
    already_complete: int
    computed: int
    cell_errors: int
    remaining: int
    torn_records_dropped: int = 0
    stale_done_dropped: int = 0
    elapsed_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


class _ShardRecorder:
    """Streams finished cells into the store and drives the kill switch."""

    def __init__(
        self,
        config: ExperimentConfig,
        store: ShardStore,
        total: int,
        progress: Optional[ProgressCallback],
    ) -> None:
        self.config = config
        self.store = store
        self.total = total
        self.progress = progress
        self.computed = 0
        self.cell_errors = 0
        raw = os.environ.get(KILL_AFTER_ENV_VAR, "").strip()
        self.kill_after = int(raw) if raw else None

    def record(self, spec: CellSpec, outcome: CellOutcome) -> None:
        self.store.append_cell(
            spec_key(self.config, spec), _outcome_to_payload(outcome)
        )
        self.computed += 1
        if outcome.error is not None:
            self.cell_errors += 1
        registry = obs.get_metrics()
        if registry.enabled:
            registry.counter("shard.cells").inc()
            if outcome.error is not None:
                registry.counter("shard.cell_errors").inc()
            shard = str(self.store.shard_index)
            registry.gauge("shard.heartbeat_unix", shard=shard).set(
                time.time()
            )
            registry.gauge("shard.progress", shard=shard).set(
                len(self.store.cells) / max(1, self.total)
            )
        if self.progress is not None:
            value = self.config.sweep_values[spec.value_index]
            status = (
                f"error: {outcome.error}"
                if outcome.error is not None
                else f"wait={outcome.waiting_time:.4f}"
            )
            self.progress(
                f"[shard {self.store.shard_index}] "
                f"{self.config.sweep_parameter}={value:g} "
                f"{spec.algorithm} rep {spec.replication}: {status} "
                f"({len(self.store.cells)}/{self.total})"
            )
        if self.kill_after is not None and self.computed >= self.kill_after:
            self._die()

    def _die(self) -> None:  # pragma: no cover — the process dies here
        # Leave a half-written record behind, exactly as a kill landing
        # mid-append would, so resume exercises the torn-record path.
        chunk = store_chunk_path(self.store.directory, self.store.shard_index)
        with chunk.open("ab") as handle:
            handle.write(b'{"crc": 0, "key": "[torn')
            handle.flush()
        os.kill(os.getpid(), signal.SIGKILL)


def run_shard(
    manifest: ShardManifest,
    shard_index: int,
    *,
    results_dir: Union[str, Path],
    workers: Union[int, str, None] = None,
    cell_timeout: Optional[float] = None,
    max_cells: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> ShardRunReport:
    """Execute one shard of the manifest, resumably.

    Opens (or resumes) the shard's store under ``results_dir``, skips
    every cell already recorded, and streams each newly finished cell
    as an append-only record the moment it completes — so a SIGKILL at
    any point costs at most the in-flight cell.  ``workers`` follows
    :func:`~repro.experiments.parallel.resolve_workers` (``None`` =
    in-process, ``"auto"`` = one per usable CPU); ``max_cells`` bounds
    how many cells this invocation computes, which is how tests and the
    shard-layouts oracle produce partial shards without killing a
    process.
    """
    config = manifest.config
    specs = shard_cells(manifest, shard_index)
    resolved = resolve_workers(workers)
    pool_workers = resolved if resolved is not None else 1
    started = time.time()
    store = ShardStore.open(
        results_dir, shard_index, config_sha256=manifest.config_sha256
    )
    try:
        registry = obs.get_metrics()
        if registry.enabled:
            if store.torn_dropped:
                registry.counter("shard.torn_records_dropped").inc(
                    store.torn_dropped
                )
            if store.stale_done_dropped:
                registry.counter("shard.stale_done_dropped").inc(
                    store.stale_done_dropped
                )
        pending = [
            spec for spec in specs if not store.is_done(spec_key(config, spec))
        ]
        already_complete = len(specs) - len(pending)
        if registry.enabled and already_complete:
            registry.counter("shard.cells_skipped").inc(already_complete)
        if max_cells is not None:
            pending = pending[:max_cells]
        with obs.span(
            "shard.run",
            shard=shard_index,
            cells=len(specs),
            pending=len(pending),
            resumed=already_complete > 0,
            workers=pool_workers,
        ):
            recorder = _ShardRecorder(config, store, len(specs), progress)
            # Stream each cell into the store, in grid order, as it
            # lands.  Pool workers ship no live metrics snapshots: the
            # live view of a shard run follows the collected cells.
            # ``outcomes`` leads the zip, so the generator runs to its
            # end and shuts its pool down inside this span.
            outcomes = iter_outcomes(
                config,
                pending,
                workers=pool_workers,
                cell_timeout=cell_timeout,
                live=False,
            )
            for outcome, spec in zip(outcomes, pending):
                recorder.record(spec, outcome)
        return ShardRunReport(
            shard_index=shard_index,
            total_cells=len(specs),
            already_complete=already_complete,
            computed=recorder.computed,
            cell_errors=recorder.cell_errors,
            remaining=len(specs) - len(store.cells.keys() & {
                spec_key(config, spec) for spec in specs
            }),
            torn_records_dropped=store.torn_dropped,
            stale_done_dropped=store.stale_done_dropped,
            elapsed_seconds=time.time() - started,
        )
    finally:
        store.close()


# ----------------------------------------------------------------------
# Merging and status
# ----------------------------------------------------------------------
def merge_shards(
    manifest: ShardManifest,
    *,
    results_dir: Union[str, Path],
    progress: Optional[ProgressCallback] = None,
) -> ExperimentResult:
    """Assemble every shard's store into one :class:`ExperimentResult`.

    Outcomes are re-ordered by the canonical grid before aggregation
    and fed through the same
    :func:`~repro.experiments.runner.merge_outcomes` the serial and
    parallel engines use, so merged rows are identical to a serial run
    for any layout, worker count or resume history.  Missing cells
    raise :class:`~repro.exceptions.ShardError` listing which shards
    are incomplete — merge never silently aggregates a partial sweep.
    """
    config = manifest.config
    grid = build_cell_grid(config)
    with obs.span(
        "shard.merge", shards=manifest.num_shards, cells=len(grid)
    ) as span:
        collected: Dict[str, Dict[str, Any]] = {}
        for shard in range(manifest.num_shards):
            scan = ShardStore.scan(results_dir, shard)
            if scan.header is not None:
                stored = scan.header.get("config_sha256")
                if stored != manifest.config_sha256:
                    raise ShardError(
                        f"shard {shard} store was written for config "
                        f"digest {stored!r}, manifest expects "
                        f"{manifest.config_sha256!r}"
                    )
            collected.update(scan.cells)
        outcomes: List[CellOutcome] = []
        missing: Dict[int, int] = {}
        for shard, indices in enumerate(manifest.assignments):
            for index in indices:
                payload = collected.get(spec_key(config, grid[index]))
                if payload is None:
                    missing[shard] = missing.get(shard, 0) + 1
                else:
                    outcomes.append(_outcome_from_payload(payload))
        if missing:
            detail = ", ".join(
                f"shard {shard}: {count} cell(s)"
                for shard, count in sorted(missing.items())
            )
            raise ShardError(
                f"cannot merge an incomplete sweep — missing {detail}; "
                f"re-run `repro shard run` for the listed shard(s)"
            )
        outcomes.sort(
            key=lambda o: (
                o.value_index,
                o.replication,
                config.algorithms.index(o.algorithm),
            )
        )
        result = merge_outcomes_ordered(config, outcomes, progress)
        span.update(rows=len(result.rows), errors=len(result.errors))
        registry = obs.get_metrics()
        if registry.enabled:
            registry.counter("shard.merges").inc()
    return result


def merge_outcomes_ordered(
    config: ExperimentConfig,
    outcomes: List[CellOutcome],
    progress: Optional[ProgressCallback] = None,
) -> ExperimentResult:
    """Grid-ordered outcomes → rows, via the engines' shared merge."""
    from repro.experiments.runner import merge_outcomes

    return merge_outcomes(config, outcomes, progress)


def shard_status(
    manifest: ShardManifest, *, results_dir: Union[str, Path]
) -> List[Dict[str, Any]]:
    """Per-shard completion summary (read-only; safe on live stores)."""
    config = manifest.config
    grid = build_cell_grid(config)
    status: List[Dict[str, Any]] = []
    for shard, indices in enumerate(manifest.assignments):
        scan = ShardStore.scan(results_dir, shard)
        keys = {spec_key(config, grid[index]) for index in indices}
        done = len(keys & scan.cells.keys())
        errors = sum(
            1
            for key in keys
            if key in scan.cells and scan.cells[key].get("error") is not None
        )
        status.append(
            {
                "shard": shard,
                "cells": len(indices),
                "done": done,
                "missing": len(indices) - done,
                "errors": errors,
                "torn_trailing_record": bool(scan.torn_dropped),
            }
        )
    return status
