"""Unit tests for the trace recorder core (``repro.obs.trace``).

Three contracts are pinned here:

1. **Zero cost when disabled** — a simulator constructed with tracing
   off carries no tracer state and runs the original loop; enabling the
   global tracer never mutates the ``Simulator`` class.
2. **Ring-buffer/counter mechanics** — capacity, wrap order, drops.
3. **Timeout-pool ownership audit** — the tracer never retains event
   objects: records and classification caches must be free of
   ``Timeout``/``Event`` instances even after a run that recycles the
   pool heavily, and pool behaviour is identical traced vs untraced.
"""

import gc

import pytest

from repro.hw.cpu import OperatingSystem, SchedParams
from repro.obs.trace import TRACER, Tracer, TraceRecord, subsystem_of, tracing
from repro.sim import MS, Event, Simulator, Timeout


@pytest.fixture(autouse=True)
def _tracer_off():
    """Every test starts and ends with the global tracer dark."""
    TRACER.disable()
    TRACER.reset()
    yield
    TRACER.disable()
    TRACER.reset()


def run_timeout_workload(n_procs=6, steps=40, seed=3):
    """Bare-yield timeout loops: the pool-recycling hot path."""
    sim = Simulator(seed=seed)
    resumed = []

    def ticker(index):
        rng = sim.rng(f"t/{index}")
        for step in range(steps):
            resumed.append((sim.now, index, step))
            yield sim.timeout(1 + rng.randrange(0, 5))

    for index in range(n_procs):
        sim.spawn(ticker(index))
    sim.run()
    return sim, resumed


class TestRingBuffer:
    def test_appends_until_capacity(self):
        tracer = Tracer(capacity=4)
        for ts in range(3):
            tracer.record(ts, "i", "kernel", f"e{ts}")
        assert len(tracer) == 3
        assert tracer.dropped == 0
        assert [r.ts for r in tracer.iter_records()] == [0, 1, 2]

    def test_wrap_drops_oldest_keeps_chronological_order(self):
        tracer = Tracer(capacity=4)
        for ts in range(7):
            tracer.record(ts, "i", "kernel", f"e{ts}")
        assert len(tracer) == 4
        assert tracer.dropped == 3
        assert [r.ts for r in tracer.iter_records()] == [3, 4, 5, 6]

    def test_reset_clears_everything(self):
        tracer = Tracer(capacity=2)
        tracer.record(1, "i", "kernel", "e")
        tracer.count("x")
        tracer.wall_ns["hw.nic"] = 5
        tracer.reset(capacity=8)
        assert len(tracer) == 0
        assert tracer.counters == {}
        assert tracer.wall_ns == {}
        assert tracer.capacity == 8

    def test_records_are_slotted(self):
        rec = TraceRecord(0, "i", "kernel", "e", "p", "t")
        with pytest.raises(AttributeError):
            rec.arbitrary = 1


class TestCounters:
    def test_count_accumulates(self):
        tracer = Tracer()
        tracer.count("nic.doorbells")
        tracer.count("nic.doorbells", 2)
        assert tracer.counters == {"nic.doorbells": 3}


class TestSubsystemOf:
    def test_package_paths_become_dotted(self):
        assert subsystem_of("/x/src/repro/hw/nic.py") == "hw.nic"
        assert subsystem_of("/x/src/repro/sim/kernel.py") == "sim.kernel"

    def test_paths_outside_package_keep_basename(self):
        assert subsystem_of("/home/user/workload.py") == "workload"

    def test_windows_separators_normalized(self):
        assert subsystem_of("C:\\src\\repro\\hw\\cpu.py") == "hw.cpu"


class TestZeroCostWhenDisabled:
    def test_disabled_simulator_carries_no_tracer(self):
        sim = Simulator(seed=1)
        assert sim._obs is None
        # No instance-level timeout wrapper either: the attribute
        # resolves through the class.
        assert "timeout" not in sim.__dict__

    def test_enabling_never_mutates_the_class(self):
        before = Simulator.run
        with tracing():
            sim = Simulator(seed=1)
            assert sim._obs is TRACER
        assert Simulator.run is before
        # Simulators built after disable are back to the bare loop.
        assert Simulator(seed=1)._obs is None

    def test_disabled_run_records_nothing(self):
        run_timeout_workload()
        assert len(TRACER) == 0
        assert TRACER.dispatches == 0
        assert TRACER.counters == {}


class TestTracedRun:
    def test_traced_run_attributes_time_and_counts_dispatches(self):
        with tracing() as tracer:
            sim, resumed = run_timeout_workload()
        assert resumed
        assert tracer.dispatches > 0
        assert tracer.total_wall_ns() > 0
        # A pure-timeout workload bills the timer and the spawning
        # module (this test file, outside the package).
        assert "sim.timer" in tracer.wall_ns
        assert tracer.top_cost_center() is not None
        assert sim._obs is tracer

    def test_traced_run_is_not_reentrant(self):
        from repro.sim.kernel import SimulationError

        with tracing():
            sim = Simulator(seed=1)

            def proc():
                with pytest.raises(SimulationError):
                    sim.run()
                yield sim.timeout(1)

            sim.spawn(proc())
            sim.run()

    def test_record_kernel_false_skips_instants_keeps_attribution(self):
        with tracing(record_kernel=False) as tracer:
            run_timeout_workload()
        assert tracer.dispatches > 0
        assert tracer.total_wall_ns() > 0
        assert not any(r.cat == "kernel" for r in tracer.iter_records())

    def test_install_on_existing_simulator(self):
        sim = Simulator(seed=2)
        assert sim._obs is None
        TRACER.enable()
        TRACER.install(sim)

        def proc():
            for _ in range(5):
                yield sim.timeout(3)

        sim.spawn(proc())
        sim.run()
        assert TRACER.dispatches > 0


class TestTimeoutPoolAudit:
    """S2: instrumentation honours the pool ownership rule."""

    def _assert_no_event_objects(self, tracer):
        """Trip if any record or cache retains a kernel event object."""
        for rec in tracer.iter_records():
            for value in (rec.args or {}).values():
                assert not isinstance(value, (Timeout, Event)), (
                    f"record {rec!r} retains {value!r}"
                )
        for key in tracer._code_cache:
            assert type(key).__name__ == "code", key
        for key in tracer._type_cache:
            assert isinstance(key, type), key

    def test_no_recycled_timeout_retained(self):
        with tracing() as tracer:
            sim, _ = run_timeout_workload()
        assert sim._timeout_pool, "workload must exercise the pool"
        assert tracer.counters.get("kernel.timeout_pool_recycled", 0) > 0
        self._assert_no_event_objects(tracer)

    def test_pool_state_identical_traced_vs_untraced(self):
        untraced_sim, untraced_order = run_timeout_workload()
        with tracing():
            traced_sim, traced_order = run_timeout_workload()
        assert traced_order == untraced_order
        assert len(traced_sim._timeout_pool) == len(untraced_sim._timeout_pool)
        assert traced_sim.now == untraced_sim.now

    def test_caches_keyed_by_code_not_instance(self):
        with tracing() as tracer:
            run_timeout_workload()
        # One generator code object serves every ticker instance.
        ticker_entries = [
            site
            for _, site in tracer._code_cache.values()
            if "ticker" in site
        ]
        assert len(ticker_entries) == 1


class TestEnableDisableLifecycle:
    def test_enable_resets_then_collects(self):
        TRACER.enable()
        TRACER.count("stale")
        TRACER.enable()
        assert TRACER.counters == {}
        assert TRACER.enabled

    def test_a_dead_world_reclaimed_later_writes_nothing(self):
        # A finished world whose tasks are still suspended: "a" holds
        # the only core mid-compute, "b" waits behind it. Reclaiming
        # "a" runs its exit, which dispatches "b" — a scheduler record.
        def abandon():
            sim = Simulator(seed=1)
            os_ = OperatingSystem(sim, n_cores=1, params=SchedParams(), name="dead")

            def spin(task):
                yield from task.compute(10 * MS)

            os_.spawn(spin, "a")
            os_.spawn(spin, "b")
            sim.run(until=MS)

        gc.disable()
        try:
            abandon()
            with tracing() as tracer:
                # The collector runs at an arbitrary allocation; here,
                # in the middle of the trace.
                gc.collect()
        finally:
            gc.enable()
        assert [rec for rec in tracer.iter_records() if rec.pid == "dead"] == []

    def test_disable_keeps_data_readable(self):
        with tracing() as tracer:
            run_timeout_workload()
        captured = tracer.dispatches
        assert not tracer.enabled
        assert tracer.dispatches == captured
        assert list(tracer.iter_records()) is not None

    def test_tracing_context_sets_capacity(self):
        with tracing(capacity=16) as tracer:
            assert tracer.capacity == 16
            for ts in range(20):
                tracer.record(ts, "i", "kernel", "e")
        assert len(tracer) == 16
        assert tracer.dropped == 4

    def test_tracing_context_restores_configuration(self):
        # A capped trace block must not shrink the ring for every
        # later tracing() user (this leaked once: a 16-record test
        # trace left the global tracer at capacity 16).
        default_capacity = TRACER.capacity
        with tracing(capacity=16, record_kernel=False):
            pass
        assert TRACER.capacity == default_capacity
        assert TRACER.record_kernel is True
        with tracing() as tracer:
            for ts in range(32):
                tracer.record(ts, "i", "kernel", "e")
        assert tracer.dropped == 0
