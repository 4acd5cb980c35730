"""Unit tests for Task.poll_wait — the busy-polling model.

poll_wait must behave like a spin loop: it burns CPU while waiting,
keeps its core only as the scheduler allows, and cannot observe an
event while descheduled.
"""

import pytest

from repro.hw.cpu import POLL_CHECK_NS, OperatingSystem, SchedParams
from repro.sim import MS, Simulator, US


def make_os(sim, n_cores=1, **overrides):
    return OperatingSystem(sim, n_cores=n_cores, params=SchedParams(**overrides), name="h")


class TestPollWait:
    def test_returns_event_value(self):
        sim = Simulator()
        os_ = make_os(sim)

        def poller(task):
            value = yield from task.poll_wait(sim.timeout(50 * US, "payload"))
            return value

        task = os_.spawn(poller, "p")
        sim.run()
        assert task.process.value == "payload"

    def test_burns_cpu_while_waiting(self):
        sim = Simulator()
        os_ = make_os(sim)

        def poller(task):
            yield from task.poll_wait(sim.timeout(1 * MS))

        task = os_.spawn(poller, "p")
        sim.run()
        # The whole wait was spent spinning on the core.
        assert task.cpu_ns >= int(0.95 * MS)

    def test_wait_does_not_burn_cpu(self):
        """Contrast: blocking wait releases the core."""
        sim = Simulator()
        os_ = make_os(sim)

        def sleeper(task):
            yield from task.wait(sim.timeout(1 * MS))

        task = os_.spawn(sleeper, "s")
        sim.run()
        assert task.cpu_ns < 10 * US

    def test_pretriggered_event_costs_nothing(self):
        """A completion already pending needs no spin, so it costs no
        detection: zero CPU and zero time."""
        sim = Simulator()
        os_ = make_os(sim)

        def poller(task):
            event = sim.event()
            event.succeed("now")
            before, ran = sim.now, task.cpu_ns
            value = yield from task.poll_wait(event)
            return (value, sim.now - before, task.cpu_ns - ran)

        task = os_.spawn(poller, "p")
        sim.run()
        assert task.process.value == ("now", 0, 0)

    def test_descheduled_poller_misses_the_event(self):
        """The defining behaviour: while another task holds the core,
        the poller cannot detect its event; detection waits for the
        poller's next slice."""
        sim = Simulator(seed=4)
        os_ = make_os(
            sim,
            n_cores=1,
            sched_latency_ns=12 * MS,
            min_granularity_ns=3 * MS,
            interactive_credit_ns=1 * MS,
        )
        os_.spawn_stress("hog")
        detect = {}

        def poller(task):
            # Burn credit so the poller is batch, then poll an event
            # that fires while the hog likely holds the core.
            yield from task.compute(2 * MS)
            fired_at = sim.now + 5 * MS
            yield from task.poll_wait(sim.timeout(5 * MS))
            detect["delay"] = sim.now - fired_at

        os_.spawn(poller, "p")
        sim.run(until=100 * MS)
        # The poller was timesharing with the hog: with 3ms slices the
        # detection delay is 0 (if on-core) or up to one hog slice.
        assert "delay" in detect
        assert detect["delay"] <= 13 * MS

    def test_poller_shares_core_fairly(self):
        sim = Simulator(seed=5)
        os_ = make_os(sim, n_cores=1)
        os_.spawn_stress("hog")

        def poller(task):
            yield from task.poll_wait(sim.timeout(100 * MS))

        task = os_.spawn(poller, "p")
        sim.run(until=100 * MS)
        share = task.cpu_ns / (100 * MS)
        assert 0.3 <= share <= 0.7, f"poller share {share:.2f}"

    def test_failed_event_raises(self):
        sim = Simulator()
        os_ = make_os(sim)
        event = sim.event()

        def poller(task):
            try:
                yield from task.poll_wait(event)
            except ValueError as exc:
                return f"caught {exc}"

        task = os_.spawn(poller, "p")
        sim.call_in(10 * US, lambda: event.fail(ValueError("boom")))
        sim.run()
        assert task.process.value == "caught boom"


class TestGrants:
    """A grant is one event: who may end it, and what it leaves."""

    def test_a_long_poll_keeps_one_callback_on_the_awaited_event(self):
        """Every grant of the wait registers on the awaited event and
        withdraws when the grant ends some other way: sharing the core
        with a hog for 100 ms is dozens of grants, one live callback."""
        sim = Simulator(seed=5)
        os_ = make_os(sim, n_cores=1)
        os_.spawn_stress("hog")
        event = sim.event()
        seen = []

        def poller(task):
            yield from task.poll_wait(event)

        task = os_.spawn(poller, "p")

        def sample():
            seen.append(len(event._callbacks))
            if sim.now < 90 * MS:
                sim.call_in(1 * MS, sample)

        sim.call_in(1 * MS, sample)
        sim.call_in(100 * MS, event.succeed)
        sim.run(until=120 * MS)
        assert task.process.triggered
        assert max(seen) == 1 and min(seen) == 0  # 0: the poller is off-core

    def test_a_stale_grant_timer_is_a_no_op(self):
        """A grant the awaited event ended leaves its length timer in
        the queue; firing later, it must wake nobody."""
        sim = Simulator()
        os_ = make_os(sim)
        wakes = []

        def poller(task):
            yield from task.poll_wait(sim.timeout(10 * US))
            wakes.append(sim.now)
            yield from task.wait(sim.timeout(50 * MS))  # outlives the timer
            wakes.append(sim.now)

        os_.spawn(poller, "p")
        sim.run()
        # 5 us to be dispatched, 10 us of polling, the 200 ns check:
        # 15.2 us. The timer of that grant fires 2 ms in (the
        # interactive credit), during the sleep.
        woke = 15 * US + POLL_CHECK_NS
        assert wakes == [woke, 50 * MS + woke]

    def test_a_preempt_check_between_timer_and_resume_still_preempts(self):
        """The scheduler's check can land in the nanosecond a grant's
        timer fired, before the task has run again. That grant counts
        as preempted (no second check is armed); a further check finds
        it already preempted and re-arms, as for a task between
        grants."""
        sim = Simulator()
        os_ = make_os(sim)
        core = os_.cores[0]
        armed = []
        os_._arm_preemption = lambda core, fast_eligible: armed.append(sim.now)

        def batch(task):
            yield from task.compute(5 * MS)  # 2 ms of credit, then batch

        def interactive(task):
            yield from task.compute(1 * US)

        hog = os_.spawn(batch, "hog", pinned_core=0)
        sim.run(until=3 * MS)
        assert not hog.interactive and hog._grant_event is not None
        os_.spawn(interactive, "waiter", pinned_core=0)
        sim.run(until=4 * MS)
        assert list(core.interactive_queue) and armed == [3 * MS]
        grant, ends = hog._grant_event, 5 * MS + 5 * US  # + the first dispatch
        observed = []

        def check():
            os_._on_preempt_check(core)
            observed.append((grant.triggered, hog._preempted, len(armed)))

        sim.call_at(ends, check)
        sim.call_at(ends, check)
        sim.run(until=ends)
        # The timer (queued first) had fired both times; the first
        # check marks the grant, the second re-arms.
        assert observed == [(True, True, 1), (True, True, 2)]


class TestBurstyTenant:
    def test_alternates_compute_and_sleep(self):
        sim = Simulator(seed=6)
        os_ = make_os(sim, n_cores=1)
        task = os_.spawn_bursty("b", busy_ns=500 * US, idle_ns=500 * US)
        sim.run(until=100 * MS)
        share = task.cpu_ns / (100 * MS)
        assert 0.3 <= share <= 0.7, f"bursty duty {share:.2f}"
        assert task.wakeups > 20  # it sleeps and wakes repeatedly
