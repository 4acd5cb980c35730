"""Unit tests for repro.sim.resources."""

import pytest

from repro.sim import Resource, Simulator, TokenBucket


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), capacity=0)

    def test_acquire_within_capacity_is_immediate(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        assert resource.acquire().triggered
        assert resource.acquire().triggered
        assert resource.in_use == 2

    def test_acquire_beyond_capacity_blocks_until_release(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        order = []

        def holder():
            yield resource.acquire()
            order.append(("holder-in", sim.now))
            yield sim.timeout(100)
            resource.release()

        def waiter():
            yield sim.timeout(1)
            grant = resource.acquire()
            assert not grant.triggered
            yield grant
            order.append(("waiter-in", sim.now))
            resource.release()

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        assert order == [("holder-in", 0), ("waiter-in", 100)]
        assert resource.in_use == 0

    def test_fifo_granting(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        order = []

        def worker(label, arrive):
            yield sim.timeout(arrive)
            yield resource.acquire()
            order.append(label)
            yield sim.timeout(10)
            resource.release()

        for label, arrive in [("a", 0), ("b", 1), ("c", 2)]:
            sim.spawn(worker(label, arrive))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_release_when_idle_raises(self):
        with pytest.raises(RuntimeError):
            Resource(Simulator()).release()

    def test_queue_length(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        resource.acquire()
        resource.acquire()
        resource.acquire()
        assert resource.queue_length == 2


class TestTokenBucket:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(Simulator(), bytes_per_ns=0)

    def test_single_message_serialization_time(self):
        sim = Simulator()
        link = TokenBucket(sim, bytes_per_ns=1.0)  # 1 byte/ns = 8 Gbps
        done_times = []
        sim.call_at(link.reserve(1000), lambda: done_times.append(sim.now))
        sim.run()
        assert done_times == [1000]

    def test_messages_queue_behind_each_other(self):
        sim = Simulator()
        link = TokenBucket(sim, bytes_per_ns=1.0)
        assert link.reserve(1000) == 1000
        assert link.reserve(500) == 1500

    def test_extra_delay_does_not_occupy_serializer(self):
        sim = Simulator()
        link = TokenBucket(sim, bytes_per_ns=1.0)
        done_times = {}

        def land(name):
            done_times[name] = sim.now

        sim.call_at(link.reserve(100) + 1000, land, "first")
        sim.call_at(link.reserve(100), land, "second")
        sim.run()
        # Second finishes serializing at 200; first lands at 100+1000.
        assert done_times == {"second": 200, "first": 1100}
        assert list(done_times) == ["second", "first"]

    def test_idle_gap_resets_start_time(self):
        sim = Simulator()
        link = TokenBucket(sim, bytes_per_ns=2.0)
        assert link.reserve(200) == 100
        sim.call_at(500, lambda: None)
        sim.run()  # now = 500, the serializer idle since 100
        assert link.reserve(200) == 600

    def test_zero_bytes_completes_immediately(self):
        sim = Simulator()
        link = TokenBucket(sim, bytes_per_ns=1.0)
        assert link.reserve(0) == 0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(Simulator(), bytes_per_ns=1.0).reserve(-1)
