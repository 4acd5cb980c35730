"""Unit tests for the discrete-event kernel (repro.sim)."""

import pytest

from repro.sim import (
    AllOf,
    Event,
    EventFailed,
    SimulationError,
    Simulator,
    US,
)


class TestClockAndScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0

    def test_call_in_runs_at_right_time(self):
        sim = Simulator()
        seen = []
        sim.call_in(50, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [50]

    def test_call_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.call_at(123, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [123]

    def test_call_at_past_raises(self):
        sim = Simulator()
        sim.call_in(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(5, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().call_in(-1, lambda: None)

    def test_fifo_order_within_same_timestamp(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.call_in(10, seen.append, i)
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_run_until_stops_and_tiles(self):
        sim = Simulator()
        seen = []
        sim.call_in(10, seen.append, "a")
        sim.call_in(100, seen.append, "b")
        sim.run(until=50)
        assert seen == ["a"]
        assert sim.now == 50
        sim.run(until=200)
        assert seen == ["a", "b"]
        assert sim.now == 200

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=999)
        assert sim.now == 999

    def test_callbacks_can_schedule_more_work(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(("first", sim.now))
            sim.call_in(5, second)

        def second():
            seen.append(("second", sim.now))

        sim.call_in(10, first)
        sim.run()
        assert seen == [("first", 10), ("second", 15)]


class TestEvents:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(42)
        assert event.triggered and event.ok and event.value == 42

    def test_double_trigger_raises(self):
        sim = Simulator()
        event = sim.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_callback_after_trigger_runs_immediately(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("v")
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]

    def test_remove_callback(self):
        sim = Simulator()
        event = sim.event()
        seen = []
        keep, drop = seen.append, seen.extend
        event.add_callback(keep)
        event.add_callback(drop)
        event.remove_callback(drop)
        event.remove_callback(drop)  # absent: a no-op
        event.succeed()
        assert seen == [event]
        event.remove_callback(keep)  # triggered: a no-op

    def test_failed_all_of_withdraws_from_the_rest(self):
        sim = Simulator()
        bad, pending = sim.event(), sim.event()
        both = sim.all_of([pending, bad])
        bad.fail(ValueError("boom"))
        assert both.triggered and not both.ok
        assert pending._callbacks == []

    def test_all_of_over_a_failed_child_registers_nowhere_after_it(self):
        sim = Simulator()
        bad, pending = sim.event().fail(ValueError("boom")), sim.event()
        both = sim.all_of([bad, pending])
        assert both.triggered and not both.ok
        assert pending._callbacks == []

    def test_all_of_waits_for_everything(self):
        sim = Simulator()

        def proc():
            t1 = sim.timeout(10, "a")
            t2 = sim.timeout(30, "b")
            values = yield sim.all_of([t1, t2])
            return (sim.now, sorted(values.values()))

        assert sim.run_process(proc()) == (30, ["a", "b"])

    def test_empty_all_of_triggers_immediately(self):
        sim = Simulator()
        assert sim.all_of([]).triggered

    def test_all_of_fails_fast(self):
        sim = Simulator()
        good = sim.timeout(100)
        bad = sim.event()

        def failer():
            yield sim.timeout(10)
            bad.fail(ValueError("boom"))

        def waiter():
            try:
                yield sim.all_of([good, bad])
            except ValueError as exc:
                return ("caught", str(exc), sim.now)

        sim.spawn(failer())
        result = sim.run_process(waiter())
        assert result == ("caught", "boom", 10)


class TestProcesses:
    def test_return_value_propagates(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1)
            return "done"

        assert sim.run_process(proc()) == "done"

    def test_exception_propagates(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1)
            raise KeyError("oops")

        with pytest.raises(KeyError):
            sim.run_process(proc())

    def test_join_child_process(self):
        sim = Simulator()

        def child():
            yield sim.timeout(25)
            return "child-result"

        def parent():
            result = yield sim.spawn(child())
            return (sim.now, result)

        assert sim.run_process(parent()) == (25, "child-result")

    def test_joining_failed_child_raises(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1)
            raise RuntimeError("child died")

        def parent():
            try:
                yield sim.spawn(child())
            except RuntimeError as exc:
                return f"saw: {exc}"

        assert sim.run_process(parent()) == "saw: child died"

    def test_yielding_non_event_is_an_error(self):
        sim = Simulator()

        def proc():
            yield 12345

        with pytest.raises(SimulationError):
            sim.run_process(proc())

    def test_deadlocked_process_detected_by_run_process(self):
        sim = Simulator()

        def proc():
            yield sim.event()  # nobody will trigger this

        with pytest.raises(SimulationError, match="never finished"):
            sim.run_process(proc())

    def test_failed_event_is_thrown_into_its_waiter_when_it_fails(self):
        sim = Simulator()
        doom = sim.event()

        def sleeper():
            try:
                yield doom
            except RuntimeError as exc:
                return (str(exc), sim.now)

        def failer():
            yield sim.timeout(40)
            doom.fail(RuntimeError("wake up"))

        target = sim.spawn(sleeper())
        sim.spawn(failer())
        sim.run()
        assert target.value == ("wake up", 40)

    def test_a_caught_failure_leaves_no_stale_wakeup(self):
        """The composite the process gave up on still has a pending
        timeout; when it fires, the process (now on its second sleep)
        is not woken."""
        sim = Simulator()
        doom = sim.event()
        log = []

        def sleeper():
            try:
                yield sim.all_of([doom, sim.timeout(100)])
                log.append("all fired")
            except RuntimeError:
                log.append(("failed", sim.now))
                yield sim.timeout(500)
                log.append(("slept", sim.now))

        sim.spawn(sleeper())
        sim.call_at(10, doom.fail, RuntimeError("doom"))
        sim.run()
        assert log == [("failed", 10), ("slept", 510)]

    def test_event_failure_with_non_exception_value_wraps(self):
        sim = Simulator()
        event = sim.event()

        def proc():
            try:
                yield event
            except EventFailed as exc:
                return "wrapped"

        process = sim.spawn(proc())
        sim.call_in(1, lambda: event._trigger(False, "raw-value"))
        sim.run()
        assert process.value == "wrapped"


class TestRng:
    def test_streams_are_deterministic(self):
        a = Simulator(seed=7).rng("nic").random()
        b = Simulator(seed=7).rng("nic").random()
        assert a == b

    def test_streams_differ_by_label(self):
        sim = Simulator(seed=7)
        assert sim.rng("a").random() != sim.rng("b").random()

    def test_streams_differ_by_seed(self):
        assert (
            Simulator(seed=1).rng("x").random()
            != Simulator(seed=2).rng("x").random()
        )

    def test_stream_independent_of_request_order(self):
        sim1 = Simulator(seed=3)
        first = sim1.rng("alpha").random()
        sim2 = Simulator(seed=3)
        sim2.rng("beta")
        assert sim2.rng("alpha").random() == first
