"""Unit tests for repro.simulation.client."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulation.client import RequestGenerator
from repro.verify.eventsim import generate_requests


class TestGeneration:
    def test_request_count(self, medium_db):
        generator = RequestGenerator(medium_db, seed=0)
        requests = list(generate_requests(generator, 500))
        assert len(requests) == 500

    def test_arrival_times_increase(self, medium_db):
        generator = RequestGenerator(medium_db, seed=0)
        times = [r.arrival_time for r in generate_requests(generator, 200)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_request_ids_sequential(self, medium_db):
        generator = RequestGenerator(medium_db, seed=0)
        ids = [r.request_id for r in generate_requests(generator, 50)]
        assert ids == list(range(50))

    def test_reproducible(self, medium_db):
        a = list(generate_requests(RequestGenerator(medium_db, seed=9), 100))
        b = list(generate_requests(RequestGenerator(medium_db, seed=9), 100))
        assert a == b

    def test_zero_requests(self, medium_db):
        generator = RequestGenerator(medium_db, seed=0)
        assert list(generate_requests(generator, 0)) == []

    def test_negative_requests_rejected(self, medium_db):
        with pytest.raises(SimulationError):
            list(generate_requests(RequestGenerator(medium_db, seed=0), -1))


class TestDistributions:
    def test_arrival_rate_controls_spacing(self, medium_db):
        slow = list(
            generate_requests(
                RequestGenerator(medium_db, arrival_rate=1.0, seed=0), 5000
            )
        )
        fast = list(
            generate_requests(
                RequestGenerator(medium_db, arrival_rate=10.0, seed=0), 5000
            )
        )
        assert slow[-1].arrival_time == pytest.approx(
            10 * fast[-1].arrival_time, rel=0.1
        )

    def test_mean_interarrival_matches_rate(self, medium_db):
        rate = 4.0
        requests = list(
            generate_requests(
                RequestGenerator(medium_db, arrival_rate=rate, seed=1), 20000
            )
        )
        mean_gap = requests[-1].arrival_time / len(requests)
        assert mean_gap == pytest.approx(1.0 / rate, rel=0.05)

    def test_item_choice_follows_frequencies(self, medium_db):
        requests = list(
            generate_requests(RequestGenerator(medium_db, seed=2), 50000)
        )
        counts = {}
        for request in requests:
            counts[request.item_id] = counts.get(request.item_id, 0) + 1
        # The hottest item should be requested ~ f_hot of the time.
        hottest = medium_db.sorted_by_frequency()[0]
        observed = counts.get(hottest.item_id, 0) / len(requests)
        assert observed == pytest.approx(hottest.frequency, rel=0.1)

    def test_custom_request_probabilities(self, tiny_db):
        # All mass on item "c".
        generator = RequestGenerator(
            tiny_db, seed=0, request_probabilities=[0, 0, 1, 0]
        )
        assert all(
            r.item_id == "c" for r in generate_requests(generator, 100)
        )

    def test_probabilities_renormalised(self, tiny_db):
        generator = RequestGenerator(
            tiny_db, seed=0, request_probabilities=[2.0, 2.0, 0.0, 0.0]
        )
        ids = {r.item_id for r in generate_requests(generator, 500)}
        assert ids == {"a", "b"}


class TestValidation:
    def test_bad_rate(self, tiny_db):
        with pytest.raises(SimulationError):
            RequestGenerator(tiny_db, arrival_rate=0.0)

    def test_probability_length_mismatch(self, tiny_db):
        with pytest.raises(SimulationError, match="4 items"):
            RequestGenerator(tiny_db, request_probabilities=[1.0])

    def test_negative_probability(self, tiny_db):
        with pytest.raises(SimulationError):
            RequestGenerator(
                tiny_db, request_probabilities=[-1.0, 1.0, 1.0, 1.0]
            )

    def test_zero_sum_probabilities(self, tiny_db):
        with pytest.raises(SimulationError):
            RequestGenerator(
                tiny_db, request_probabilities=[0.0, 0.0, 0.0, 0.0]
            )
