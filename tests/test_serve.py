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

import hashlib
import json
import math
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.database import BroadcastDatabase
from repro.core.incremental import IncrementalAllocator
from repro.core.item import DataItem, items_created
from repro.exceptions import SimulationError
from repro.service import (
    BroadcastService,
    LiveProgram,
    SocketSource,
    drifting_stream,
    replay_source,
)
from repro.service.serve import CHUNK_RECORDS
from repro.simulation.adaptive import RotatingDrift
from repro.simulation.metrics import summarize
from repro.simulation.server import BroadcastProgram
from repro.workloads.estimator import DecayedCounts, profile_l1_error
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
    engine = IncrementalAllocator(CHANNELS)
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


class TestNoItemViews:
    def test_served_run_with_handovers_creates_no_data_items(self):
        db = generate_database(WorkloadSpec(num_items=40, seed=3))
        sizes = dict(zip(db.item_ids, db.sizes.tolist()))
        records = make_stream(db, epochs=6)
        before = items_created()
        service = make_service(sizes, db)
        service.run(iter(records), max_epochs=6)
        assert service.live.handovers
        assert items_created() == before


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


#: A seeded drifting run (N=300, K=4, 8 epochs of 3000 requests, the
#: profile rotated 7 ranks per epoch), frozen from a known-good build:
#: per-report digests of ``to_dict()`` plus ``repr(measured)``, then
#: digests of the handover records and of the final id lists.
FROZEN_REPORTS = [
    "dcd76c46f2c37af1",
    "5d4aa2ad1bf60af8",
    "796a42d2770b678c",
    "c2f22c8fffa61ab4",
    "ebfef54cfe863b07",
    "43712e745420fbc1",
    "fbab8230818199fd",
    "7485e875e0c7ed6b",
]
FROZEN_HANDOVERS = "57eba7a15e38ee90"
FROZEN_FINAL = "13917fa23dbfbbc7"


class TestFrozenServeRun:
    """Every serve output of one drifting run, bit for bit.

    Guards the epoch close: exact summaries, the array profile and
    drift, and warm seeds by index groups.  The shuffled run gives the
    service its bootstrap profile in another order than the catalogue,
    so the drift baseline must be mapped to catalogue order; this
    catalogue has no benefit-ratio ties, so the run is the same.
    """

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_reports_handovers_and_final_allocation(self, shuffled):
        db = generate_database(WorkloadSpec(num_items=300, skewness=1.0, seed=17))
        sizes = dict(zip(db.item_ids, db.sizes.tolist()))
        initial = db
        if shuffled:
            order = np.random.default_rng(3).permutation(len(db))
            initial = BroadcastDatabase.from_soa(
                db.frequencies[order],
                db.sizes[order],
                ids=[db.item_ids[i] for i in order],
            )
        probe = BroadcastService(
            sizes, CHANNELS, initial_database=initial, clock=FakeClock()
        )
        epoch_seconds = 2.0 * probe.live.major_cycle
        service = BroadcastService(
            sizes,
            CHANNELS,
            epoch_seconds=epoch_seconds,
            initial_database=initial,
            clock=FakeClock(),
        )
        service.run(
            drifting_stream(
                db,
                epochs=8,
                requests_per_epoch=3000,
                epoch_seconds=epoch_seconds,
                drift=RotatingDrift(db.frequencies, shift_per_epoch=7),
                seed=11,
            )
        )
        modes = [report.allocation_mode for report in service.reports]
        assert modes == ["cold"] + ["warm"] * 7
        assert [
            _digest([report.to_dict(), repr(report.measured)])
            for report in service.reports
        ] == FROZEN_REPORTS
        assert len(service.live.handovers) == 7
        assert (
            _digest([repr(handover) for handover in service.live.handovers])
            == FROZEN_HANDOVERS
        )
        assert _digest(service.live.allocation.as_id_lists()) == FROZEN_FINAL


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

    def test_idle_gap_keeps_generation_and_wait_gauge(self, sizes):
        """Three busy epochs, then no requests for two whole epochs.

        The busy epochs repeat one batch, so from the second boundary on
        the service reuses its program and no re-allocation is pending
        into the gap.  The idle epochs are reported as such, leave the
        program generation alone, and must not zero the measured-wait
        gauge.
        """
        catalogue = list(sizes)[:6]
        small_sizes = {item_id: sizes[item_id] for item_id in catalogue}
        batch = [
            item_id
            for i, item_id in enumerate(catalogue)
            for _ in range(i + 1)
        ]
        records = [
            TraceRecord(
                timestamp=epoch * EPOCH_SECONDS
                + (k + 1) * EPOCH_SECONDS / (len(batch) + 1),
                item_id=item_id,
            )
            for epoch in (0, 1, 2, 5)
            for k, item_id in enumerate(batch)
        ]
        obs.configure(metrics=True)
        service = BroadcastService(
            small_sizes,
            2,
            epoch_seconds=EPOCH_SECONDS,
            half_life=math.inf,
            smoothing=0.0,
            clock=FakeClock(),
        )
        reports = service.run(iter(records), max_epochs=5)
        busy, idle = reports[:3], reports[3:]
        assert [report.requests for report in busy] == [len(batch)] * 3
        assert busy[2].allocation_mode == "reused"
        assert len(idle) == 2
        for report in idle:
            assert report.requests == 0
            assert report.allocation_mode == "idle"
            assert report.reallocated is False
            assert report.generation == busy[2].generation
        gauges = obs.get_metrics().snapshot()["gauges"]
        assert busy[2].measured.mean > 0.0
        assert gauges["serve.measured_wait_mean"] == busy[2].measured.mean

    @pytest.mark.parametrize("max_epochs", [None, 2])
    def test_requests_counter_matches_reports(self, db, sizes, max_epochs):
        obs.configure(metrics=True)
        records = make_stream(db, epochs=4, requests_per_epoch=1500)
        service = make_service(sizes, db)
        reports = service.run(iter(records), max_epochs=max_epochs)
        counters = obs.get_metrics().snapshot()["counters"]
        served = sum(report.requests for report in reports)
        assert counters["serve.requests"] == service.total_requests == served
        if max_epochs is not None:
            assert len(reports) == max_epochs
            assert served < len(records)

    def test_unknown_id_mid_chunk_leaves_the_prefix_state(self, db, sizes):
        """Everything before a rejected id is served, as by a clean run
        over that prefix; nothing at or after it is."""
        records = make_stream(db, epochs=3, requests_per_epoch=2500)
        bad = 2500 + CHUNK_RECORDS + 476  # mid-chunk, in the second epoch
        stream = list(records)
        stream.insert(bad, TraceRecord(records[bad].timestamp, "no-such-item"))

        def served(service, source):
            obs.reset()
            obs.configure(metrics=True)
            try:
                service.run(iter(source))
            finally:
                counters = obs.get_metrics().snapshot()["counters"]
                assert counters["serve.requests"] == service.total_requests

        rejected = make_service(sizes, db, record_generations=True)
        with pytest.raises(SimulationError, match="no-such-item"):
            served(rejected, stream)
        clean = make_service(sizes, db, record_generations=True)
        served(clean, records[:bad])

        assert rejected.total_requests == bad == clean.total_requests
        # The clean run also closes its final, partial epoch.
        assert sum(report.requests for report in clean.reports) == bad
        assert len(clean.reports) == len(rejected.reports) + 1
        for ours, theirs in zip(rejected.reports, clean.reports):
            assert ours.to_dict() == theirs.to_dict()
            assert ours.measured == theirs.measured
        assert rejected.generation_log == clean.generation_log
        assert rejected.live.handovers == clean.live.handovers
        assert rejected.profile() == clean.profile()


def _served_waits(service, records, monkeypatch):
    """Run ``service`` over ``records``; each request's wait, in order,
    and each generation's program."""
    waits = []
    batched = BroadcastProgram.waiting_times

    def spy_waits(program, rows, tune_ins):
        out = batched(program, rows, tune_ins)
        waits.extend(out.tolist())
        return out

    monkeypatch.setattr(BroadcastProgram, "waiting_times", spy_waits)
    programs = {}
    live = service.live
    program_for = live.program_for

    def spy_program_for(timestamp):
        program = program_for(timestamp)
        programs[live.generation] = program
        return program

    monkeypatch.setattr(live, "program_for", spy_program_for)
    service.run(iter(records))
    return waits, programs


def _chunk_split_stream(db, sizes, case):
    """A stream (and service arguments) forcing one way to split a chunk."""
    drift = make_stream(db, epochs=6, requests_per_epoch=2500)
    if case == "requests-on-boundaries":
        # A request exactly on each handover's switch_at and on each
        # epoch boundary: found by a first run, which later records
        # cannot move.
        probe = make_service(sizes, db)
        probe.run(iter(drift))
        exact = {handover.switch_at for handover in probe.live.handovers}
        exact |= {report.end for report in probe.reports[:-1]}
        extra = [TraceRecord(t, drift[0].item_id) for t in exact]
        return sorted(drift + extra, key=lambda record: record.timestamp), {}
    if case == "idle-gap":
        return [
            record
            for record in drift
            if not 2 * EPOCH_SECONDS <= record.timestamp < 4 * EPOCH_SECONDS
        ], {}
    if case == "rescale":
        # 2**512 is passed every 512 * 0.005 s = 2.56 s: inside chunks.
        return drift, {"half_life": 0.005}
    if case == "initial-order":
        # The first program's database is not in catalogue order.
        reordered = BroadcastDatabase(list(reversed(db.items)))
        return drift, {"initial_database": reordered}
    return drift, {}


class TestChunkSplits:
    """A chunked run serves every request exactly as one at a time."""

    @pytest.mark.parametrize(
        "case",
        [
            "full-chunks-and-handovers",
            "requests-on-boundaries",
            "idle-gap",
            "rescale",
            "initial-order",
        ],
    )
    def test_waits_and_counts_match_one_at_a_time(
        self, db, sizes, case, monkeypatch
    ):
        records, kwargs = _chunk_split_stream(db, sizes, case)
        service = make_service(sizes, db, record_generations=True, **kwargs)
        waits, programs = _served_waits(service, records, monkeypatch)
        log = service.generation_log
        assert len(waits) == len(log) == len(records)
        # Each wait is the scalar wait on its generation's program.
        expected = [
            programs[generation].waiting_time(record.item_id, timestamp)
            for record, (timestamp, generation) in zip(records, log)
        ]
        assert waits == expected
        for report in service.reports:
            epoch = [
                wait
                for record, wait in zip(records, expected)
                if report.start <= record.timestamp < report.end
            ]
            assert report.requests == len(epoch)
            if epoch:
                assert report.measured == summarize(epoch)
        # The decayed counts equal one-record adds.
        catalogue = service.catalogue
        single = DecayedCounts(catalogue, half_life=service.estimator.half_life)
        for record in records:
            single.add(single.rows([record.item_id]), [record.timestamp])
        assert service.estimator.estimate_profile(
            catalogue, smoothing=0.0
        ) == single.estimate_profile(catalogue, smoothing=0.0)
        self._check_the_case_happened(case, service, records, kwargs)

    @staticmethod
    def _check_the_case_happened(case, service, records, kwargs):
        handovers = service.live.handovers
        reports = service.reports
        assert handovers
        if case == "full-chunks-and-handovers":
            assert max(report.requests for report in reports) > CHUNK_RECORDS
            # Flushes within an epoch start every CHUNK_RECORDS requests
            # from its first; some handover lands between two of them.
            offsets = []
            for handover in handovers:
                epoch = next(
                    [r.timestamp for r in records if rep.start <= r.timestamp < rep.end]
                    for rep in reports
                    if rep.start <= handover.promoted_at < rep.end
                )
                offsets.append(epoch.index(handover.promoted_at) % CHUNK_RECORDS)
            assert any(offsets)
        elif case == "requests-on-boundaries":
            assert any(h.promoted_at == h.switch_at for h in handovers)
        elif case == "idle-gap":
            modes = [report.allocation_mode for report in reports]
            assert modes.count("idle") == 2
        elif case == "rescale":
            span = records[-1].timestamp - records[0].timestamp
            assert span / service.estimator.half_life > 512
        elif case == "initial-order":
            initial = kwargs["initial_database"]
            assert list(initial.item_ids) != service.catalogue


class TestFakeClockHarness:
    def test_paced_replay_advances_only_the_fake_clock(self, db, sizes):
        clock = FakeClock()
        records = make_stream(db, epochs=3, requests_per_epoch=50)
        service = make_service(sizes, db, clock=clock, pace=True)
        served_before_sleep = []
        sleep = clock.sleep

        def record_and_sleep(seconds):
            served_before_sleep.append(service.total_requests)
            sleep(seconds)

        clock.sleep = record_and_sleep
        service.run(iter(records), max_epochs=3)
        # Pacing slept the fake clock up to the last served record's
        # stream offset; real time never elapsed (forbid_real_sleep).
        assert clock.sleeps
        # Each paced record was served before the next one's sleep.
        assert served_before_sleep == list(
            range(1, len(served_before_sleep) + 1)
        )
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
    ('{"t": 1%s, "id": "a"}' % ("0" * 400), "bad record"),
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

    def test_socket_run_counts_requests_before_the_epoch_closes(self, db, sizes):
        """A live peer's requests are served as they arrive: with the
        connection and the first epoch still open, ``serve.requests``
        already counts every request sent."""
        obs.configure(metrics=True)
        records = make_stream(db, epochs=1, requests_per_epoch=40)
        seen = []

        def feed(port):
            import socket as socket_module

            with socket_module.create_connection(
                ("127.0.0.1", port), timeout=30.0
            ) as conn:
                conn.sendall(
                    "".join(
                        json.dumps({"t": r.timestamp, "id": r.item_id}) + "\n"
                        for r in records
                    ).encode("utf-8")
                )
                poll = threading.Event()
                for _ in range(3000):
                    counters = obs.get_metrics().snapshot()["counters"]
                    if counters.get("serve.requests") == len(records):
                        break
                    poll.wait(0.01)
                seen.append(counters.get("serve.requests"))

        service = make_service(sizes, db)
        with SocketSource(timeout=30.0) as source:
            writer = threading.Thread(target=feed, args=(source.port,))
            writer.start()
            reports = service.run(source)
            writer.join()
        assert seen == [len(records)]
        assert [report.requests for report in reports] == [len(records)]

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

    def test_initial_database_must_cover_the_catalogue(self, db, sizes):
        partial = BroadcastDatabase.from_soa(
            [0.5, 0.5], db.sizes[:2], ids=list(db.item_ids[:2])
        )
        with pytest.raises(SimulationError, match="catalogue"):
            make_service(sizes, db, initial_database=partial)

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
