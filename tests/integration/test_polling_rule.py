"""One polling rule for every busy-poller in the model.

A poller pays :data:`~repro.hw.cpu.POLL_CHECK_NS` of CPU, once, to
notice a completion that arrived while it spun, and nothing for one
already pending when it came back to poll. Each case below runs a
poller on a host whose cores it shares with CPU-bound tenants, so
completions pile up while it is descheduled or busy, and checks every
``poll_wait`` it made: the CPU it used from the moment its completion
arrived until the call returned.
"""

from dataclasses import dataclass

import pytest

from repro.baseline import FanoutGroup, NaiveGroup
from repro.bench import run_until
from repro.core import HyperFanoutGroup, HyperLoopGroup
from repro.hw import Cluster
from repro.hw.cpu import POLL_CHECK_NS, Task
from repro.rdma.rpc import RpcServer
from repro.sim import MS, US, Simulator

CLIENTS, OPS = 4, 40
WARMUP = 20 * MS  # long enough for the poller to lose interactive priority
PAUSE = 200 * US  # between a client's ops: the run spans many scheduler slices


@dataclass
class Poll:
    pending: bool  # the completion was there when the call began
    cpu_at_completion: int
    cpu_at_return: int = 0


def cpu_used(task):
    """CPU ``task`` has used so far, counting the grant it is running."""
    if task._grant_event is None:
        return task.cpu_ns
    return task.cpu_ns + task.sim.now - task.core._grant_started


def record_polls(monkeypatch, poller):
    """Every ``poll_wait`` the task named ``poller`` makes, in order."""
    polls = []
    real = Task.poll_wait

    def poll_wait(task, event):
        if task.name != poller:
            return (yield from real(task, event))
        poll = Poll(event.triggered, cpu_used(task))
        if not poll.pending:
            event.add_callback(lambda _event: setattr(poll, "cpu_at_completion", cpu_used(task)))
        value = yield from real(task, event)
        poll.cpu_at_return = task.cpu_ns
        polls.append(poll)
        return value

    monkeypatch.setattr(Task, "poll_wait", poll_wait)
    return polls


def group_world(cls, busy, **kwargs):
    """A world of ``CLIENTS`` client tasks writing ``OPS`` times each
    through a ``cls`` group, with tenants on every core of host
    ``busy``; returns the world, its end condition and the op count."""

    def world():
        sim = Simulator(seed=5)
        cluster = Cluster(sim, n_hosts=4, n_cores=2)
        group = cls(
            cluster[0], cluster.hosts[1:], region_size=1 << 14, rounds=16, name="g", **kwargs
        )
        for core in range(2):
            cluster[busy].os.spawn_stress(f"tenant{core}", pinned_core=core)
        done = []

        def client(index):
            def body(task):
                yield from task.sleep(WARMUP)
                group.write_local(index * 64, b"p" * 64)
                for _ in range(OPS):
                    yield from group.gwrite(task, index * 64, 64)
                    yield from task.sleep(PAUSE)
                done.append(index)

            return body

        for index in range(CLIENTS):
            cluster[0].os.spawn(client(index), f"client{index}")
        return sim, lambda: len(done) == CLIENTS, lambda: CLIENTS * OPS

    return world


def rpc_world():
    """``CLIENTS`` clients calling a polling ``RpcServer`` ``OPS`` times
    each, with tenants on every core of the server's host."""
    sim = Simulator(seed=5)
    cluster = Cluster(sim, n_hosts=2, n_cores=2)

    def echo(task, request):
        yield from task.compute(500)
        return request

    server = RpcServer(cluster[1], echo, mode="polling", name="rpc")
    for core in range(2):
        cluster[1].os.spawn_stress(f"tenant{core}", pinned_core=core)
    done = []

    def client(channel):
        def body(task):
            yield from task.sleep(WARMUP)
            for _ in range(OPS):
                yield from channel.call(task, b"ping")
                yield from task.sleep(PAUSE)
            done.append(channel)

        return body

    for index in range(CLIENTS):
        cluster[0].os.spawn(client(server.attach(cluster[0])), f"client{index}")
    return sim, lambda: len(done) == CLIENTS, lambda: server.requests_served


POLLERS = {
    "hyperloop-acks": ("g.acks", group_world(HyperLoopGroup, 0, client_mode="polling")),
    "naive-acks": ("g.acks", group_world(NaiveGroup, 0, client_mode="polling")),
    "hyperfanout-acks": ("g.acks", group_world(HyperFanoutGroup, 0, client_mode="polling")),
    "naive-daemon": ("g.r1.daemon", group_world(NaiveGroup, 2, replica_mode="polling")),
    "fanout-primary": ("g.primary", group_world(FanoutGroup, 1, replica_mode="polling")),
    "fanout-backup": ("g.b1", group_world(FanoutGroup, 2, replica_mode="polling")),
    "rpc-server": ("rpc", rpc_world),
}


@pytest.mark.parametrize("poller", POLLERS)
def test_a_poller_pays_one_check_per_spin_and_none_for_a_pending_completion(
    monkeypatch, poller
):
    name, world = POLLERS[poller]
    polls = record_polls(monkeypatch, name)
    sim, finished, completions = world()
    run_until(sim, finished, deadline_ms=2000)
    spun = [poll for poll in polls if not poll.pending]
    detection = [poll.cpu_at_return - poll.cpu_at_completion for poll in polls]
    assert detection == [0 if poll.pending else POLL_CHECK_NS for poll in polls]
    # Both cases happened: it spun, and some completions cost it no
    # check of their own (pending when it came back, or taken by the
    # same poll as the one it spun for).
    assert spun
    assert len(spun) < completions()
