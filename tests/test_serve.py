"""End-to-end tests for the live broadcast service (ISSUE 10).

Everything here runs under the fake clock from ``tests/fakeclock.py``
— an autouse fixture makes any real ``time.sleep`` raise, so the whole
module is deterministic and wall-clock-free.

The three headline assertions (satellite 3):

1. epoch costs (and allocation provenance) match an offline
   adaptive-loop oracle run on the same epoch batches;
2. a handover never leaves a torn program — the allocation swap is
   observed only at major-cycle boundaries of the outgoing program;
3. the ``serve.*`` cache/warm counters match the ``ServeEpochReport``
   mode fields.
"""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro import obs
from repro.core.database import BroadcastDatabase
from repro.core.incremental import AllocationCache, IncrementalAllocator
from repro.core.item import DataItem
from repro.exceptions import SimulationError
from repro.service import (
    BroadcastService,
    LiveProgram,
    SocketSource,
    drifting_stream,
    replay_source,
)
from repro.workloads.estimator import profile_l1_error
from repro.workloads.generator import WorkloadSpec, generate_database
from repro.workloads.trace import RequestTrace, TraceRecord, save_trace_jsonl

from .fakeclock import FakeClock, forbid_real_sleep

EPOCH_SECONDS = 10.0
CHANNELS = 4
SMOOTHING = 1.0
HALF_LIFE = 2.0 * EPOCH_SECONDS


@pytest.fixture(autouse=True)
def _no_real_sleeps(monkeypatch):
    forbid_real_sleep(monkeypatch)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture
def db() -> BroadcastDatabase:
    return generate_database(WorkloadSpec(num_items=40, seed=3))


@pytest.fixture
def sizes(db):
    return {item.item_id: item.size for item in db.items}


def make_stream(db, *, epochs, requests_per_epoch=250, seed=5):
    return list(
        drifting_stream(
            db,
            epochs=epochs,
            requests_per_epoch=requests_per_epoch,
            epoch_seconds=EPOCH_SECONDS,
            seed=seed,
        )
    )


def make_service(sizes, db, **kwargs):
    kwargs.setdefault("epoch_seconds", EPOCH_SECONDS)
    kwargs.setdefault("smoothing", SMOOTHING)
    kwargs.setdefault("initial_database", db)
    kwargs.setdefault("clock", FakeClock())
    return BroadcastService(sizes, CHANNELS, **kwargs)


def offline_oracle(db, sizes, records, *, epochs):
    """The offline adaptive loop on the same epoch batches.

    Replicates the service's boundary policy — decayed counts, smoothed
    profile over the catalogue, zero-drift reuse, otherwise a warm
    ``IncrementalAllocator`` re-allocation — without any serving,
    handover or clock machinery.  The decayed counts are a direct sum
    of ``0.5 ** ((end - t) / half_life)`` over the requests seen so
    far, independent of the service's streaming counter.  Returns
    per-epoch ``(engine_cost, mode, warm_moves, allocation)`` tuples.
    """
    catalogue = list(sizes)
    engine = IncrementalAllocator(CHANNELS, cache=AllocationCache())
    result = engine.reallocate(db)
    allocation, cost = result.allocation, result.cost
    mode, warm_moves = "cold", result.warm_moves
    believed = {item.item_id: item.frequency for item in db.items}
    rows = []
    start = records[0].timestamp
    boundary = start + EPOCH_SECONDS
    epoch_records = [[] for _ in range(epochs)]
    for record in records:
        epoch_records[min(epochs - 1, int((record.timestamp - start) // EPOCH_SECONDS))].append(record)
    for epoch in range(epochs):
        rows.append((cost, mode, warm_moves, allocation))
        if epoch + 1 >= epochs:
            break
        end = boundary + epoch * EPOCH_SECONDS
        counts = dict.fromkeys(catalogue, 0.0)
        for batch in epoch_records[: epoch + 1]:
            for record in batch:
                counts[record.item_id] += 0.5 ** (
                    (end - record.timestamp) / HALF_LIFE
                )
        total = math.fsum(counts.values()) + SMOOTHING * len(catalogue)
        estimated = {
            item_id: (count + SMOOTHING) / total
            for item_id, count in counts.items()
        }
        if profile_l1_error(believed, estimated) == 0.0:
            mode, warm_moves = "reused", 0
            continue
        believed = estimated
        believed_db = BroadcastDatabase(
            [
                DataItem(item_id, frequency=estimated[item_id], size=sizes[item_id])
                for item_id in catalogue
            ]
        )
        result = engine.reallocate(believed_db)
        allocation, cost = result.allocation, result.cost
        mode, warm_moves = result.mode, result.warm_moves
    return rows


class TestOracleParity:
    def test_exact_mode_epoch_costs_match_offline_oracle(self, db, sizes):
        """The default service == offline adaptive oracle, per epoch."""
        epochs = 8
        records = make_stream(db, epochs=epochs)
        service = make_service(sizes, db)
        reports = service.run(iter(records), max_epochs=epochs)
        oracle = offline_oracle(db, sizes, records, epochs=epochs)
        assert len(reports) == epochs
        for report, (cost, mode, warm_moves, _) in zip(reports, oracle):
            assert report.engine_cost == pytest.approx(cost, rel=1e-12)
            assert report.allocation_mode == mode
            assert report.warm_moves == warm_moves
        # One decayed count per catalogue item.
        assert all(report.estimator_state == len(sizes) for report in reports)


class TestHandoverNeverTears:
    def test_swaps_only_at_cycle_boundaries(self, db, sizes):
        epochs = 12
        records = make_stream(db, epochs=epochs)
        service = make_service(sizes, db, record_generations=True)
        service.run(iter(records), max_epochs=epochs)
        handovers = service.live.handovers
        assert handovers, "drifting stream should trigger handovers"
        for handover in handovers:
            # 1. The switch instant is a major-cycle boundary of the
            #    outgoing program.
            multiple = (
                handover.switch_at - handover.old_activated_at
            ) / handover.old_major_cycle
            assert multiple == pytest.approx(round(multiple), abs=1e-6)
            # 2. The handover never preempts the drain window.
            assert handover.switch_at >= handover.requested_at - 1e-9
            assert handover.promoted_at >= handover.switch_at - 1e-9
            # 3. No request before the boundary saw the new program and
            #    no request at/after it saw the old one — never torn.
            for timestamp, generation in service.generation_log:
                if timestamp < handover.switch_at:
                    assert generation <= handover.old_generation
                else:
                    assert generation >= handover.new_generation
        # Generations advance one handover at a time, monotonically.
        generations = [gen for _, gen in service.generation_log]
        assert generations == sorted(generations)
        assert generations[-1] == len(handovers)

    def test_restage_before_switch_replaces_pending(self, db, sizes):
        engine = IncrementalAllocator(CHANNELS)
        allocation = engine.reallocate(db).allocation
        live = LiveProgram(allocation, bandwidth=80.0)
        cycle = live.major_cycle
        first = live.stage(allocation, requested_at=0.3 * cycle)
        assert first == pytest.approx(cycle)
        second = live.stage(allocation, requested_at=0.6 * cycle)
        assert second == pytest.approx(cycle)
        assert live.pending_switch_at == second
        # Drain: a request strictly before the boundary never promotes.
        live.program_for(0.9 * cycle)
        assert live.generation == 0
        live.program_for(1.5 * cycle)
        assert live.generation == 1
        assert len(live.handovers) == 1

    def test_switch_on_exact_boundary_request(self, db):
        engine = IncrementalAllocator(CHANNELS)
        allocation = engine.reallocate(db).allocation
        live = LiveProgram(allocation)
        cycle = live.major_cycle
        live.stage(allocation, requested_at=cycle)  # boundary request
        assert live.pending_switch_at == pytest.approx(cycle)
        live.program_for(cycle)
        assert live.generation == 1


class TestCountersMatchReports:
    def test_serve_counters_match_epoch_report_modes(self, db, sizes):
        obs.configure(metrics=True)
        epochs = 10
        records = make_stream(db, epochs=epochs)
        service = make_service(sizes, db)
        reports = service.run(iter(records), max_epochs=epochs)
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["serve.requests"] == len(records)
        assert counters["serve.epochs"] == len(reports)
        assert counters["serve.reallocations"] == sum(
            1 for report in reports if report.reallocated
        )
        assert counters.get("serve.handovers", 0) == len(
            service.live.handovers
        )
        assert counters.get("serve.cache_hits", 0) == sum(
            1 for report in reports if report.cache_hit
        )
        for mode in {report.allocation_mode for report in reports}:
            assert counters[f"serve.mode{{mode={mode}}}"] == sum(
                1 for report in reports if report.allocation_mode == mode
            )

    def test_zero_drift_stream_reuses_program(self, sizes):
        """Identical epoch batches + no decay + no smoothing => the
        boundary sees zero L1 drift and reuses the program verbatim."""
        catalogue = list(sizes)[:6]
        small_sizes = {item_id: sizes[item_id] for item_id in catalogue}
        # A deliberately non-uniform batch (item i appears i+1 times) so
        # the first boundary drifts away from the uniform bootstrap —
        # later identical batches then show exactly zero drift.
        batch = [
            item_id
            for i, item_id in enumerate(catalogue)
            for _ in range(i + 1)
        ]
        records = []
        for epoch in range(4):
            for k, item_id in enumerate(batch):
                records.append(
                    TraceRecord(
                        timestamp=epoch * EPOCH_SECONDS
                        + (k + 1) * EPOCH_SECONDS / (len(batch) + 1),
                        item_id=item_id,
                    )
                )
        obs.configure(metrics=True)
        service = BroadcastService(
            small_sizes,
            2,
            epoch_seconds=EPOCH_SECONDS,
            half_life=math.inf,
            smoothing=0.0,
            clock=FakeClock(),
        )
        reports = service.run(iter(records), max_epochs=4)
        assert reports[0].allocation_mode == "cold"
        assert reports[1].allocation_mode in ("warm", "fallback")
        assert [report.allocation_mode for report in reports[2:]] == [
            "reused",
            "reused",
        ]
        assert [report.cache_hit for report in reports] == [
            False,
            False,
            True,
            True,
        ]
        assert service.engine.stats.cache_hits >= 2
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["serve.cache_hits"] == 2
        assert counters["incremental.cache_hits"] >= 2


class TestFakeClockHarness:
    def test_paced_replay_advances_only_the_fake_clock(self, db, sizes):
        clock = FakeClock()
        records = make_stream(db, epochs=3, requests_per_epoch=50)
        service = make_service(sizes, db, clock=clock, pace=True)
        service.run(iter(records), max_epochs=3)
        # Pacing slept the fake clock up to the last served record's
        # stream offset; real time never elapsed (forbid_real_sleep).
        assert clock.sleeps
        span = records[-1].timestamp - records[0].timestamp
        assert clock.now() <= span + 1e-9
        assert clock.now() > 0.0

    def test_heartbeat_throttle_driven_by_injected_clock(self, db, sizes):
        obs.configure(metrics=True)
        clock = FakeClock()
        records = make_stream(db, epochs=3, requests_per_epoch=50)
        service = make_service(sizes, db, clock=clock, pace=True)
        service.run(iter(records), max_epochs=3)
        snapshot = obs.get_metrics().snapshot()
        assert snapshot["gauges"]["serve.heartbeat.requests"] == (
            service.total_requests
        )
        # Fake time advanced ~20s; the 0.25s throttle must have opened
        # far more often than the two unthrottled emits.
        assert snapshot["counters"]["serve.heartbeat.beats"] > 2


def _send_lines(port, lines):
    """Write ``lines`` to a local socket source from a helper thread."""

    def feed():
        import socket as socket_module

        with socket_module.create_connection(
            ("127.0.0.1", port), timeout=30.0
        ) as conn:
            conn.sendall("".join(line + "\n" for line in lines).encode("utf-8"))

    writer = threading.Thread(target=feed)
    writer.start()
    return writer


#: Malformed third lines and the error each must raise, on either reader.
MALFORMED_LINES = [
    ("not json", "invalid JSON"),
    ('{"t": 2.0}', "expected object"),
    ('{"t": "abc", "id": "a"}', "bad record"),
    ('{"t": null, "id": "a"}', "bad record"),
    ('{"t": -1.0, "id": "a"}', "bad record"),
    ('{"t": 0.5, "id": "a"}', "out-of-order"),
]


class TestSourcesAndValidation:
    def test_jsonl_replay_reproduces_in_proc_run(self, db, sizes, tmp_path):
        epochs = 5
        records = make_stream(db, epochs=epochs)
        trace = RequestTrace(records)
        path = save_trace_jsonl(trace, tmp_path / "stream.jsonl")

        def run(source):
            service = make_service(sizes, db)
            return service.run(source, max_epochs=epochs)

        direct = run(iter(records))
        replayed = run(replay_source(path))
        assert len(direct) == len(replayed)
        for a, b in zip(direct, replayed):
            assert a.to_dict() == b.to_dict()

    def test_socket_source_streams_records(self, db, sizes):
        records = make_stream(db, epochs=2, requests_per_epoch=40)
        with SocketSource(timeout=30.0) as source:
            writer = _send_lines(
                source.port,
                [
                    json.dumps({"t": record.timestamp, "id": record.item_id})
                    for record in records
                ],
            )
            received = list(source)
            writer.join()
        assert [r.item_id for r in received] == [r.item_id for r in records]
        assert [r.timestamp for r in received] == pytest.approx(
            [r.timestamp for r in records]
        )

    @pytest.mark.parametrize("line, message", MALFORMED_LINES)
    @pytest.mark.parametrize("reader", ("jsonl", "socket"))
    def test_malformed_line_rejected_with_location(
        self, reader, line, message, tmp_path
    ):
        """Both readers share one parser: every malformed row raises a
        SimulationError naming the source and the line."""
        lines = ['{"t": 1.0, "id": "a"}', "", line]
        if reader == "jsonl":
            path = tmp_path / "bad.jsonl"
            path.write_text("\n".join(lines) + "\n")
            where = f"{path}:3: "
            with pytest.raises(SimulationError) as info:
                list(replay_source(path))
        else:
            where = "socket:3: "
            with SocketSource(timeout=30.0) as source:
                writer = _send_lines(source.port, lines)
                with pytest.raises(SimulationError) as info:
                    list(source)
                writer.join()
        assert str(info.value).startswith(where)
        assert message in str(info.value)

    def test_out_of_order_stream_rejected(self, db, sizes):
        service = make_service(sizes, db)
        bad = [
            TraceRecord(timestamp=5.0, item_id=list(sizes)[0]),
            TraceRecord(timestamp=4.0, item_id=list(sizes)[0]),
        ]
        with pytest.raises(SimulationError, match="out-of-order"):
            service.run(iter(bad))

    def test_partial_final_epoch_is_closed(self, db, sizes):
        records = make_stream(db, epochs=2, requests_per_epoch=60)
        half = records[: len(records) // 2 + 10]
        service = make_service(sizes, db)
        reports = service.run(iter(half))
        assert sum(report.requests for report in reports) == len(half)
        assert reports[-1].requests > 0

    def test_max_epochs_stops_midstream(self, db, sizes):
        records = make_stream(db, epochs=6)
        service = make_service(sizes, db)
        reports = service.run(iter(records), max_epochs=2)
        assert len(reports) == 2
        assert service.total_requests < len(records)

    def test_run_twice_accumulates_history(self, db, sizes):
        records = make_stream(db, epochs=4)
        split = len(records) // 2
        service = make_service(sizes, db)
        first = service.run(iter(records[:split]))
        second = service.run(iter(records[split:]))
        assert len(service.reports) == len(first) + len(second)
        assert service.total_requests == len(records)
