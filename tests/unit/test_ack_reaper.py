"""The one ack reaper (``repro.core.acks``) under all four group types.

In event mode an op's ack wakes the task waiting on it, once, with no
completion thread in between; an error completion is recorded, never
raised into an op's waiter; and a stopped group reaps nothing more.
"""

import pytest

from repro.baseline import FanoutGroup, NaiveGroup
from repro.bench import run_until
from repro.core import GWRITE, HyperFanoutGroup, HyperLoopGroup, OpSpec
from repro.hw import Cluster
from repro.hw.wqe import WC_REMOTE_OP_ERROR, Cqe, Opcode
from repro.sim import Simulator

GROUPS = {
    "hyperloop": HyperLoopGroup,
    "naive": NaiveGroup,
    "hyperfanout": HyperFanoutGroup,
    "fanout": FanoutGroup,
}


def make(kind, client_mode="event"):
    sim = Simulator(seed=3)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    kwargs = {} if kind == "fanout" else {"client_mode": client_mode}
    group = GROUPS[kind](
        cluster[0], cluster.hosts[1:4], region_size=1 << 14, rounds=16, name="g", **kwargs
    )
    return sim, cluster, group


def ack_cq(group):
    chains = getattr(group, "chains", None)
    return chains[GWRITE].ack_qp.recv_cq if chains is not None else group.ack_qp.recv_cq


@pytest.mark.parametrize("kind", GROUPS)
def test_two_waiters_on_one_chain_each_wake_once_in_ack_order(kind):
    sim, cluster, group = make(kind)
    resumed = []

    def writer(name, offset, delay):
        def body(task):
            yield from task.sleep(delay)
            group.write_local(offset, name.encode() * 64)
            wakes = task.wakeups
            yield from group.gwrite(task, offset, 64)
            resumed.append((name, task.wakeups - wakes))

        return body

    for name, offset, delay in (("a", 0, 1_000), ("b", 256, 1_100)):
        cluster[0].os.spawn(writer(name, offset, delay), name)
    run_until(sim, lambda: len(resumed) == 2, deadline_ms=50)
    assert resumed == [("a", 1), ("b", 1)]
    assert group.errors == []
    for replica in range(3):
        assert group.read_replica(replica, 0, 64) == b"a" * 64
        assert group.read_replica(replica, 256, 64) == b"b" * 64
    # No client task but the two writers ever ran: nobody reaped for them.
    assert {task.name for task in cluster[0].os.tasks} <= {"a", "b"}


@pytest.mark.parametrize("kind", ["hyperloop", "naive"])
def test_an_error_completion_is_recorded_not_raised_into_a_waiter(kind):
    sim, cluster, group = make(kind)
    out = {}

    def body(task):
        yield from group.gwrite(task, 0, 8)  # builds the chain
        ack = yield from group.submit(task, OpSpec(GWRITE, offset=0, size=8))
        ack_cq(group).push(Cqe(wr_id=0, opcode=Opcode.WRITE_IMM, status=WC_REMOTE_OP_ERROR))
        out["result"] = yield from group.wait(task, ack)

    cluster[0].os.spawn(body, "client")
    run_until(sim, lambda: "result" in out, deadline_ms=50)
    assert out["result"] == [None, None, None]
    assert len(group.errors) == 1 and "ack error" in group.errors[0], group.errors


@pytest.mark.parametrize("client_mode", ["event", "polling"])
@pytest.mark.parametrize("kind", ["hyperloop", "naive"])
def test_a_stopped_group_reaps_nothing(kind, client_mode):
    sim, cluster, group = make(kind, client_mode)
    out = {}

    def body(task):
        yield from group.gwrite(task, 0, 8)
        ack = yield from group.submit(task, OpSpec(GWRITE, offset=0, size=8))
        group.stop()
        yield from task.sleep(1_000_000)
        out["ack"] = ack

    cluster[0].os.spawn(body, "client", pinned_core=1)
    run_until(sim, lambda: "ack" in out, deadline_ms=50)
    assert not out["ack"].triggered
    assert len(ack_cq(group).entries) == 1  # landed, never polled
    assert group.errors == []
