"""Structural invariants of the OS scheduler under a chaotic workload.

Runs a randomized mix of task shapes (hogs, pollers, sleepers, bursty
tenants, short-lived workers) and checks the bookkeeping that every
latency result in this repository rests on.
"""

import pytest

from repro.hw.cpu import OperatingSystem, RUNNING, SchedParams
from repro.sim import MS, Simulator, US


def build_chaos(sim, os_, rng):
    tasks = []
    tasks.append(os_.spawn_stress("hog0"))
    tasks.append(os_.spawn_stress("hog1", pinned_core=0))
    tasks.append(os_.spawn_bursty("bursty0", busy_ns=300 * US, idle_ns=200 * US))
    tasks.append(os_.spawn_bursty("bursty1", busy_ns=100 * US, idle_ns=700 * US))

    def poller(task):
        while sim.now < 80 * MS:
            yield from task.poll_wait(sim.timeout(rng.randrange(1, 2 * MS)))

    tasks.append(os_.spawn(poller, "poller"))

    def sleeper(task):
        while sim.now < 80 * MS:
            yield from task.sleep(rng.randrange(1, 500 * US))
            yield from task.compute(rng.randrange(1, 50 * US))

    for index in range(4):
        tasks.append(os_.spawn(sleeper, f"sleeper{index}"))

    def short_lived(task):
        yield from task.compute(rng.randrange(1, 5 * MS))

    for index in range(6):
        tasks.append(os_.spawn(short_lived, f"worker{index}"))
    return tasks


class TestInvariants:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_accounting_and_exclusivity(self, seed):
        sim = Simulator(seed=seed)
        os_ = OperatingSystem(sim, n_cores=3, params=SchedParams(), name="chaos")
        rng = sim.rng("chaos")
        tasks = build_chaos(sim, os_, rng)

        checks = {"n": 0}

        def auditor():
            while sim.now < 90 * MS:
                yield sim.timeout(137 * US)  # off-grid sampling
                running = [t for t in os_.tasks if t.state == RUNNING]
                # 1. One running task per core, and it is core.current.
                cores_seen = set()
                for task in running:
                    assert task.core is not None, task
                    assert task.core.current is task, task
                    assert task.core.index not in cores_seen
                    cores_seen.add(task.core.index)
                # 2. A task never appears in any queue while running.
                for core in os_.cores:
                    for queued in list(core.interactive_queue) + list(core.batch_queue):
                        assert queued.state != RUNNING
                        assert queued.core is None
                # 3. Busy accounting bounded by wall time.
                for core in os_.cores:
                    assert 0 <= core.busy_ns_live <= sim.now + 1
                checks["n"] += 1

        sim.spawn(auditor(), "auditor")
        sim.run(until=100 * MS)
        assert checks["n"] > 500

        # 4. Total CPU handed out never exceeds cores x time (finished
        # tasks have left os_.tasks: count every task spawned).
        total_cpu = sum(task.cpu_ns for task in tasks)
        assert total_cpu <= 3 * sim.now
        # 5. The machine was actually busy (hogs exist).
        assert sum(core.busy_ns for core in os_.cores) > 2 * sim.now * 0.8
        # 6. Short-lived workers all finished despite the hogs.
        workers = [task for task in tasks if task.name.startswith("worker")]
        assert len(workers) == 6
        for task in workers:
            assert task.process.triggered and task.process.ok
        # 7. The OS holds exactly the tasks still running their bodies.
        assert os_.tasks == [task for task in tasks if not task.process.triggered]

    def test_no_starvation_of_batch_under_interactive_storm(self):
        """Frequent interactive wakeups must not starve a batch task
        forever (slices still round-robin)."""
        sim = Simulator(seed=9)
        os_ = OperatingSystem(sim, n_cores=1, params=SchedParams(), name="storm")
        hog = os_.spawn_stress("hog")

        def waker(task):
            while sim.now < 190 * MS:
                yield from task.sleep(200 * US)
                yield from task.compute(20 * US)

        for index in range(3):
            os_.spawn(waker, f"waker{index}")
        sim.run(until=200 * MS)
        # The hog still makes progress (wakers use ~30% of the core).
        assert hog.cpu_ns > 40 * MS

    def test_deterministic_given_seed(self):
        def run(seed):
            sim = Simulator(seed=seed)
            os_ = OperatingSystem(sim, n_cores=2, params=SchedParams(), name="det")
            rng = sim.rng("chaos")
            tasks = build_chaos(sim, os_, rng)
            sim.run(until=50 * MS)
            return [task.cpu_ns for task in tasks]

        assert run(5) == run(5)
        assert run(5) != run(6)
