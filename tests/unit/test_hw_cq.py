"""Unit tests for completion-queue semantics (HwCq)."""

import pytest

from repro.hw.nic import HwCq
from repro.hw.wqe import Cqe, Opcode
from repro.sim import Simulator


def cqe(wr_id=0):
    return Cqe(wr_id=wr_id, opcode=Opcode.SEND)


class TestPollAndCount:
    def test_poll_drains_in_order(self):
        cq = HwCq(Simulator(), 1)
        for index in range(5):
            cq.push(cqe(index))
        assert [c.wr_id for c in cq.poll(3)] == [0, 1, 2]
        assert [c.wr_id for c in cq.poll(3)] == [3, 4]
        assert cq.poll() == []

    def test_completions_total_never_decreases(self):
        cq = HwCq(Simulator(), 1)
        cq.push(cqe())
        cq.poll()
        assert cq.completions_total == 1
        cq.push(cqe())
        assert cq.completions_total == 2


class TestThresholdEvents:
    def test_fires_at_threshold(self):
        sim = Simulator()
        cq = HwCq(sim, 1)
        event = cq.threshold_event(3)
        cq.push(cqe())
        cq.push(cqe())
        assert not event.triggered
        cq.push(cqe())
        assert event.triggered and event.value == 3

    def test_already_met_threshold_fires_immediately(self):
        sim = Simulator()
        cq = HwCq(sim, 1)
        cq.push(cqe())
        assert cq.threshold_event(1).triggered

    def test_multiple_waiters_different_thresholds(self):
        sim = Simulator()
        cq = HwCq(sim, 1)
        first = cq.threshold_event(1)
        third = cq.threshold_event(3)
        cq.push(cqe())
        assert first.triggered and not third.triggered
        cq.push(cqe())
        cq.push(cqe())
        assert third.triggered


class TestChannel:
    def test_next_event_fires_on_push(self):
        sim = Simulator()
        cq = HwCq(sim, 1)
        event = cq.next_event()
        assert not event.triggered
        cq.push(cqe(7))
        # Wake-then-poll: the value is the pending count, the CQE
        # itself is claimed via poll().
        assert event.triggered
        assert event.value == 1
        assert cq.poll()[0].wr_id == 7

    def test_next_event_pretriggered_when_entries_pending(self):
        sim = Simulator()
        cq = HwCq(sim, 1)
        cq.push(cqe(9))
        event = cq.next_event()
        assert event.triggered and event.value == 1
        # The entry is still there for poll().
        assert cq.poll()[0].wr_id == 9

    def test_multiple_channel_waiters_all_wake(self):
        sim = Simulator()
        cq = HwCq(sim, 1)
        first = cq.next_event()
        second = cq.next_event()
        cq.push(cqe())
        assert first.triggered and second.triggered

    def test_armed_channel_is_one_event_however_often_it_is_asked(self):
        """A consumer waiting on several CQs asks each for its channel
        event on every wake; the quiet ones must not collect one parked
        event per ask (pre-fix: 500 here)."""
        sim = Simulator()
        cq = HwCq(sim, 1)
        first = cq.next_event()
        assert all(cq.next_event() is first for _ in range(500))
        assert cq._channel_waiters == [first]
        cq.push(cqe(3))
        assert first.triggered and cq._channel_waiters == []
        # Re-armed with a fresh event once the old one has fired.
        cq.poll()
        again = cq.next_event()
        assert again is not first and not again.triggered

    def test_two_waiters_on_the_channel_both_wake_with_the_count(self):
        """Wake-then-poll with two parked processes: both resume with
        the pending-entry count, only the poll winner gets the CQE."""
        sim = Simulator()
        cq = HwCq(sim, 1)
        woke = []

        def consumer(label):
            pending = yield cq.next_event()
            woke.append((label, pending, [c.wr_id for c in cq.poll()]))

        sim.spawn(consumer("a"))
        sim.spawn(consumer("b"))
        sim.call_in(5, cq.push, cqe(7))
        sim.run()
        assert woke == [("a", 1, [7]), ("b", 1, [])]

    def test_any_of_over_cqs_leaves_nothing_on_the_quiet_ones(self):
        sim = Simulator()
        busy, idle = HwCq(sim, 1), HwCq(sim, 2)
        served = []

        def consumer():
            while len(served) < 50:
                yield sim.any_of([busy.next_event(), idle.next_event()])
                served.extend(c.wr_id for c in busy.poll())

        def producer():
            for index in range(50):
                yield sim.timeout(5)
                busy.push(cqe(index))

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert served == list(range(50))
        assert len(idle._channel_waiters) == 1
        # The last any_of has triggered: it withdrew from the idle CQ.
        assert idle._channel_waiters[0]._callbacks == []

    def test_second_waiter_never_handed_a_drained_cqe(self):
        """Regression (pre-fix: the chained waiter got ``chan.value``,
        a CQE the first waiter may already have polled — a stale
        duplicate delivery)."""
        sim = Simulator()
        cq = HwCq(sim, 1)
        first = cq.next_event()
        second = cq.next_event()
        cq.push(cqe(7))
        # First consumer drains the CQ before the second looks.
        drained = cq.poll()
        assert [c.wr_id for c in drained] == [7]
        assert second.triggered
        assert not isinstance(second.value, Cqe)
        # The second consumer polls and correctly finds nothing; it
        # must not have been handed wr_id=7 through the event value.
        assert cq.poll() == []

    def test_two_concurrent_consumers_no_duplicate_delivery(self):
        """Two processes blocked on one CQ: every CQE is consumed
        exactly once, whichever consumer wins the poll race."""
        sim = Simulator()
        cq = HwCq(sim, 1)
        seen = []

        def consumer(label):
            while len(seen) < 3:
                event = cq.next_event()
                if not event.triggered:
                    yield event
                for entry in cq.poll():
                    seen.append((label, entry.wr_id))
                yield sim.timeout(1)

        sim.spawn(consumer("a"))
        sim.spawn(consumer("b"))

        def producer():
            for index in range(3):
                yield sim.timeout(5)
                cq.push(cqe(index))

        sim.spawn(producer())
        sim.run(until=200)
        assert sorted(wr_id for _label, wr_id in seen) == [0, 1, 2]


class TestWaitConsumption:
    """The consuming-WAIT bookkeeping (CORE-Direct semantics)."""

    def test_wait_consumed_starts_at_zero(self):
        cq = HwCq(Simulator(), 1)
        assert cq.wait_consumed == 0

    def test_reservation_model(self):
        """The engine reserves at WAIT arrival; two WAITs on a shared
        CQ claim distinct completions (regression test for the
        fan-out trigger race)."""
        sim = Simulator()
        cq = HwCq(sim, 1)
        # Simulate two engines arriving concurrently.
        target_a = cq.wait_consumed + 1
        cq.wait_consumed = target_a
        target_b = cq.wait_consumed + 1
        cq.wait_consumed = target_b
        assert (target_a, target_b) == (1, 2)
        event_a = cq.threshold_event(target_a)
        event_b = cq.threshold_event(target_b)
        cq.push(cqe())
        assert event_a.triggered and not event_b.triggered
        cq.push(cqe())
        assert event_b.triggered
