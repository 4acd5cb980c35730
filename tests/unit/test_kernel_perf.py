"""Unit tests for the kernel fast paths (dispatch, pooling, ordering).

The hot-path rewrite is only admissible because it is *invisible*:
identical seeds must produce bit-for-bit identical event orders under
``Simulator.run`` (batches, claimed timeouts, pooling) and under the
one-pop reference loop (``tests/reference/one_pop.py``). These tests
pin that contract.
"""

import pytest

from repro.sim import Event, Simulator, Timeout
from tests.reference.one_pop import run_one_pop


def _run(sim, oracle):
    return run_one_pop(sim) if oracle else sim.run()


def _trace_run(oracle, n_procs=20, steps=50):
    """A mixed workload recording (time, actor, step) at every resume."""
    sim = Simulator(seed=3)
    trace = []

    def actor(index):
        rng = sim.rng(f"actor/{index}")
        for step in range(steps):
            trace.append((sim.now, index, step))
            yield sim.timeout(rng.randrange(0, 7))

    for index in range(n_procs):
        sim.spawn(actor(index))
    _run(sim, oracle)
    return trace


class TestDeterminism:
    def test_same_seed_same_event_order(self):
        assert _trace_run(False) == _trace_run(False)

    def test_fast_dispatch_matches_generic_path(self):
        # The acceptance bar for the rewrite: the batched loop and the
        # one-pop reference produce the same interleaving, element for
        # element.
        assert _trace_run(False) == _trace_run(True)

    def test_fast_dispatch_matches_generic_with_zero_delays(self):
        # Zero-delay timeouts maximize same-timestamp contention, the
        # regime where a sequence-number slip would show first.
        def run(oracle):
            sim = Simulator(seed=5)
            order = []

            def proc(name):
                for step in range(30):
                    order.append((sim.now, name, step))
                    yield sim.timeout(0)

            for name in "abcdef":
                sim.spawn(proc(name))
            _run(sim, oracle)
            return order

        assert run(False) == run(True)


class TestFifoTieBreak:
    def test_equal_timestamps_resume_in_schedule_order(self):
        sim = Simulator()
        order = []

        def proc(name):
            yield sim.timeout(10)
            order.append(name)

        for name in ("first", "second", "third"):
            sim.spawn(proc(name))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_callbacks_and_resumes_interleave_fifo(self):
        sim = Simulator()
        order = []
        sim.call_at(10, lambda: order.append("call_a"))

        def proc():
            yield sim.timeout(10)
            order.append("proc")

        sim.spawn(proc())
        sim.call_at(10, lambda: order.append("call_b"))
        sim.run()
        # call_a scheduled first; the timeout was created second (its
        # fire entry), call_b third. The claimed-timeout resume hop
        # adds one queue step but cannot overtake call_b.
        assert order == ["call_a", "call_b", "proc"]


class TestTimeoutPooling:
    def test_bare_yield_recycles_into_pool(self):
        sim = Simulator()
        seen = []

        def proc():
            for _ in range(3):
                yield sim.timeout(5)
                seen.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert seen == [5, 10, 15]
        # Steady state alternates two pooled instances: the one just
        # fired is recycled after the generator is resumed, while the
        # resume itself re-armed the other. Both land in the pool once
        # the process finishes.
        assert len(sim._timeout_pool) == 2

    def test_pooled_timeout_reuses_the_same_object(self):
        sim = Simulator()
        identities = []

        def proc():
            for _ in range(4):
                timeout = sim.timeout(1)
                identities.append(id(timeout))
                yield timeout

        sim.spawn(proc())
        sim.run()
        # A fired timeout is recycled only after the generator resumes,
        # so a tight yield loop alternates between two instances:
        # laps 0/1 allocate fresh, laps 2/3 reuse them from the pool.
        assert identities[2] == identities[0]
        assert identities[3] == identities[1]
        assert len(set(identities)) == 2

    def test_rearmed_timeout_delivers_fresh_value(self):
        sim = Simulator()
        values = []

        def proc():
            for index in range(3):
                value = yield sim.timeout(1, value=f"v{index}")
                values.append(value)

        sim.spawn(proc())
        sim.run()
        assert values == ["v0", "v1", "v2"]

    def test_observed_timeouts_are_never_pooled(self):
        sim = Simulator()
        fired = []

        def proc():
            timeout = sim.timeout(5)
            timeout.add_callback(lambda event: fired.append(event.value))
            yield timeout

        sim.spawn(proc())
        sim.run()
        assert fired == [None]
        assert sim._timeout_pool == []

    def test_all_of_composed_timeouts_are_never_pooled(self):
        sim = Simulator()

        def proc():
            yield sim.all_of([sim.timeout(3), sim.timeout(9)])

        sim.spawn(proc())
        sim.run()
        assert sim._timeout_pool == []

    def test_a_process_resumed_by_a_failure_claims_its_next_timeout(self):
        sim = Simulator()
        doom = sim.event()
        outcome = []

        def sleeper():
            try:
                yield doom
            except RuntimeError as exc:
                outcome.append(f"failed:{exc}")
                yield sim.timeout(1)
                outcome.append("resumed")

        sim.spawn(sleeper())
        sim.call_at(10, doom.fail, RuntimeError("wake"))
        sim.run()
        assert outcome == ["failed:wake", "resumed"]
        assert sim.now == 11
        assert len(sim._timeout_pool) == 1  # claimed, fired, recycled

    def test_negative_delay_rejected_on_pooled_path(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1)  # populate the pool on resume

        sim.spawn(proc())
        sim.run()
        assert sim._timeout_pool  # the pooled re-arm path is active
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_negative_delay_rejected_on_cold_path(self):
        """Regression: the same call site must raise (or not)
        regardless of pool state — validation happens once, before
        the pool check."""
        sim = Simulator()
        assert not sim._timeout_pool  # cold construction path
        with pytest.raises(ValueError):
            sim.timeout(-1)
        # ...and nothing was scheduled by the rejected call.
        assert not sim._queue


class TestEventSlots:
    def test_event_has_no_dict(self):
        sim = Simulator()
        with pytest.raises(AttributeError):
            Event(sim).arbitrary_attribute = 1

    def test_timeout_has_no_dict(self):
        sim = Simulator()
        with pytest.raises(AttributeError):
            sim.timeout(1).arbitrary_attribute = 1
