"""CQ consumer interleaving under same-timestamp completion batches.

PR-5's batched dispatch makes same-time completion pushes land in one
kernel batch, and the send engine chains consecutive WQEs inside one
wakeup — regimes where a stale waiter list or a drained-CQE handoff
would first show. These tests drive ``poll``, ``next_event``, and
``threshold_event`` consumers *concurrently* against bursts of
completions arriving at one timestamp, and pin exactly-once delivery
plus interleaving identity between the batched loop and the one-pop
reference (``tests/reference/one_pop.py``).
"""

import pytest

from repro.hw.nic import HwCq
from repro.hw.wqe import Cqe, Opcode
from repro.sim import Simulator
from tests.reference.one_pop import run_one_pop


def cqe(wr_id=0):
    return Cqe(wr_id=wr_id, opcode=Opcode.SEND)


def _burst(sim, cq, at, wr_ids):
    """Push a batch of completions at one timestamp."""
    for wr_id in wr_ids:
        sim.call_at(at, lambda w=wr_id: cq.push(cqe(w)))


def _run(sim, oracle, until):
    return run_one_pop(sim, until) if oracle else sim.run(until=until)


def _mixed_consumers(oracle):
    """A channel consumer, a threshold waiter, and a periodic poller
    racing over bursts of same-timestamp completions. Returns the full
    observation log."""
    sim = Simulator(seed=9)
    cq = HwCq(sim, 1, name="shared")
    log = []

    def channel_consumer():
        while cq.completions_total < 9 or cq.entries:
            event = cq.next_event()
            if not event.triggered:
                yield event
            # Wake-then-poll: the value is a count, never a CQE.
            assert not isinstance(event.value, Cqe)
            for entry in cq.poll():
                log.append((sim.now, "chan", entry.wr_id))
            yield sim.timeout(1)

    def threshold_waiter(threshold):
        event = cq.threshold_event(threshold)
        if not event.triggered:
            yield event
        log.append((sim.now, "thresh", threshold, event.value))

    def poller():
        for _ in range(12):
            yield sim.timeout(5)
            for entry in cq.poll():
                log.append((sim.now, "poll", entry.wr_id))

    sim.spawn(channel_consumer())
    sim.spawn(threshold_waiter(3))
    sim.spawn(threshold_waiter(7))
    sim.spawn(poller())
    _burst(sim, cq, at=10, wr_ids=[0, 1, 2])
    _burst(sim, cq, at=10, wr_ids=[3])  # same timestamp, later seq
    _burst(sim, cq, at=25, wr_ids=[4, 5, 6, 7, 8])
    _run(sim, oracle, until=200)
    log.append(("final", sim.now, cq.completions_total, len(cq.entries)))
    return log


class TestMixedConsumerInterleaving:
    def test_batched_matches_generic(self):
        assert _mixed_consumers(False) == _mixed_consumers(True)

    def test_exactly_once_delivery(self):
        log = _mixed_consumers(False)
        delivered = sorted(e[2] for e in log if e[1] in ("chan", "poll"))
        assert delivered == list(range(9)), "every CQE exactly once"

    def test_thresholds_fire_at_burst_timestamps(self):
        log = _mixed_consumers(False)
        fired = {e[2]: (e[0], e[3]) for e in log if e[1] == "thresh"}
        # Threshold 3 is met inside the t=10 burst, threshold 7 inside
        # the t=25 burst; the value is completions_total at fire time.
        assert fired[3][0] == 10 and fired[3][1] >= 3
        assert fired[7][0] == 25 and fired[7][1] >= 7


class TestSameTimestampChannelRaces:
    def test_two_channel_waiters_one_burst(self):
        """Both waiters wake on a same-timestamp burst; between them
        they claim each CQE exactly once via poll."""

        def run(oracle):
            sim = Simulator(seed=4)
            cq = HwCq(sim, 1)
            seen = []

            def consumer(label):
                while len(seen) < 4:
                    event = cq.next_event()
                    if not event.triggered:
                        yield event
                    for entry in cq.poll():
                        seen.append((sim.now, label, entry.wr_id))
                    yield sim.timeout(0)

            sim.spawn(consumer("a"))
            sim.spawn(consumer("b"))
            _burst(sim, cq, at=7, wr_ids=[0, 1])
            _burst(sim, cq, at=7, wr_ids=[2, 3])
            _run(sim, oracle, until=100)
            return seen

        batched, generic = run(False), run(True)
        assert batched == generic
        assert sorted(wr for _t, _l, wr in batched) == [0, 1, 2, 3]

    def test_threshold_and_channel_same_push(self):
        """One push satisfies a threshold waiter and a channel waiter
        in the same batch; wake order matches the one-pop loop and the
        channel waiter sees a count, not the CQE."""

        def run(oracle):
            sim = Simulator(seed=2)
            cq = HwCq(sim, 1)
            order = []

            def via_threshold():
                event = cq.threshold_event(1)
                if not event.triggered:
                    yield event
                order.append((sim.now, "threshold", event.value))

            def via_channel():
                event = cq.next_event()
                if not event.triggered:
                    yield event
                order.append((sim.now, "channel", event.value))
                order.append((sim.now, "polled", [c.wr_id for c in cq.poll()]))

            sim.spawn(via_threshold())
            sim.spawn(via_channel())
            sim.call_at(12, lambda: cq.push(cqe(42)))
            _run(sim, oracle, until=50)
            return order

        batched, generic = run(False), run(True)
        assert batched == generic
        assert (12, "polled", [42]) in batched

    def test_pretriggered_next_event_inside_batch(self):
        """A consumer calling next_event in the same timestamp batch
        as the push gets a pre-triggered event with the pending count
        and still claims the entry via poll."""
        sim = Simulator(seed=1)
        result = []

        cq = HwCq(sim, 1)

        def late_consumer():
            yield sim.timeout(12)  # resumes in the t=12 batch
            event = cq.next_event()
            result.append((event.triggered, event.value))
            result.append([c.wr_id for c in cq.poll()])

        sim.call_at(12, lambda: cq.push(cqe(5)))
        sim.spawn(late_consumer())
        sim.run(until=20)
        assert result == [(True, 1), [5]]
