"""The group contract, pinned over all four group types.

``submit`` is the posting half of a group operation (post, don't wait).
The one ordering rule the storage layer builds on: ops posted on the
same ack path of one group (a HyperLoop primitive's chain, or the one
path of every other type) execute and ack in post order (RC QP FIFO);
the blocking verbs are ``submit`` + the group's one ``wait``, so a lone
op schedules what it always did.

Every type shares one shell (:class:`repro.core.base.GroupBase`): the
one-sided read path, the Available-Copies surface
(``validated_since_birth``, ``readable_replicas``) and two error rules
— a primitive the type does not run raises ``RuntimeError`` at
``submit``, and so does ``gflush`` on a non-durable group. A case runs
over every type that runs its primitive; the fan-out groups run gWRITE
only.
"""

import pytest

from repro.baseline import FanoutGroup, NaiveGroup
from repro.bench import run_until
from repro.core import GCAS, GMEMCPY, GWRITE, HyperFanoutGroup, HyperLoopGroup, OpSpec
from repro.hw import Cluster
from repro.obs import tracing
from repro.sim import Simulator

GROUPS = {
    "hyperloop": HyperLoopGroup,
    "naive": NaiveGroup,
    "hyperfanout": HyperFanoutGroup,
    "fanout": FanoutGroup,
}
EVERY_PRIMITIVE = ("hyperloop", "naive")
FANOUTS = ("hyperfanout", "fanout")  # gWRITE only


def make(kind, rounds=16, seed=5, **options):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    group = GROUPS[kind](
        cluster[0], cluster.hosts[1:4], region_size=1 << 14, rounds=rounds, name="g",
        **options,
    )
    return sim, cluster, group


def drive(sim, cluster, body, until_ms=1000):
    done = {}

    def wrapper(task):
        done["r"] = yield from body(task)

    task = cluster[0].os.spawn(wrapper, "client")
    run_until(sim, lambda: "r" in done or task.process.triggered, deadline_ms=until_ms)
    if task.process.triggered and not task.process.ok:
        raise task.process.value
    return done["r"]


def flow_of(group, primitive):
    flow = group._flow
    return flow[primitive] if isinstance(flow, dict) else flow


@pytest.mark.parametrize("kind", EVERY_PRIMITIVE)
class TestSubmit:
    def test_same_chain_acks_fire_in_post_order_with_their_results(self, kind):
        """Five dependent gCAS posted back to back: each finds the
        value its predecessor swapped in, on every replica."""
        sim, cluster, group = make(kind)
        fired = []

        def body(task):
            acks = []
            for value in range(5):
                op = OpSpec(GCAS, offset=0, compare=value, swap=value + 1)
                ack = yield from group.submit(task, op)
                ack.add_callback(lambda _ack, value=value: fired.append(value))
                acks.append(ack)
            assert not any(ack.triggered for ack in acks[1:])  # truly in flight
            yield from task.wait(sim.all_of(acks))
            return [ack.value for ack in acks]

        results = drive(sim, cluster, body)
        assert results == [[value] * 3 for value in range(5)]
        assert fired == [0, 1, 2, 3, 4]
        for replica in range(3):
            assert group.read_replica(replica, 0, 8) == (5).to_bytes(8, "little")

    def test_overlapping_gwrites_land_in_post_order(self, kind):
        sim, cluster, group = make(kind)

        def body(task):
            acks = []
            for fill in (b"a", b"b", b"c"):
                group.write_local(64 * len(acks), fill * 32)
                op = OpSpec(GWRITE, offset=64 * len(acks), size=32)
                acks.append((yield from group.submit(task, op)))
            # Same chain: the copy is posted behind the writes it reads.
            copy = OpSpec(GMEMCPY, src_offset=128, dst_offset=1024, size=32)
            if kind == "naive":  # one software chain: everything is FIFO
                acks.append((yield from group.submit(task, copy)))
                yield from task.wait(sim.all_of(acks))
            else:  # another chain: post only after the ack it depends on
                yield from task.wait(sim.all_of(acks))
                yield from task.wait((yield from group.submit(task, copy)))
            return True

        assert drive(sim, cluster, body)
        for replica in range(3):
            assert group.read_replica(replica, 0, 32) == b"a" * 32
            assert group.read_replica(replica, 64, 32) == b"b" * 32
            assert group.read_replica(replica, 1024, 32) == b"c" * 32

    def test_batch_larger_than_the_flow_window_drains_through_it(self, kind):
        """20 ops from one task on a rounds=16 group (8 flow slots):
        slots come back when acks fire, not when the poster next waits,
        so the 9th post blocks only until the first ack."""
        sim, cluster, group = make(kind, rounds=16)
        flow = flow_of(group, GMEMCPY)
        assert flow.capacity == 8
        peak = []

        def body(task):
            group.write_local(0, b"x" * 16)
            yield from group.gwrite(task, 0, 16)
            acks = []
            for index in range(20):
                op = OpSpec(GMEMCPY, src_offset=0, dst_offset=512 + 16 * index, size=16)
                acks.append((yield from group.submit(task, op)))
                peak.append(flow.in_use)
            yield from task.wait(sim.all_of(acks))
            return len(acks)

        assert drive(sim, cluster, body) == 20
        assert max(peak) == 8
        assert flow.in_use == 0 and flow.queue_length == 0
        for replica in range(3):
            assert group.read_replica(replica, 512 + 16 * 19, 16) == b"x" * 16


@pytest.mark.parametrize("kind", FANOUTS)
class TestFanoutSubmit:
    """What ``TestSubmit`` pins with gCAS and gMEMCPY, with gWRITE."""

    def test_gwrite_acks_fire_in_post_order(self, kind):
        sim, cluster, group = make(kind)
        fired = []

        def body(task):
            acks = []
            for index in range(4):
                group.write_local(64 * index, bytes([index + 1]) * 32)
                ack = yield from group.submit(task, OpSpec(GWRITE, offset=64 * index, size=32))
                ack.add_callback(lambda _ack, index=index: fired.append(index))
                acks.append(ack)
            assert not any(ack.triggered for ack in acks[1:])
            yield from group.wait(task, acks)
            return True

        assert drive(sim, cluster, body)
        assert fired == [0, 1, 2, 3]
        for replica in range(3):
            for index in range(4):
                assert group.read_replica(replica, 64 * index, 32) == bytes([index + 1]) * 32

    def test_gwrite_batch_larger_than_the_flow_window_drains_through_it(self, kind):
        sim, cluster, group = make(kind, rounds=16)
        flow = flow_of(group, GWRITE)
        assert flow.capacity == 8
        peak = []

        def body(task):
            group.write_local(0, b"w" * 16)
            acks = []
            for _ in range(20):
                acks.append((yield from group.submit(task, OpSpec(GWRITE, offset=0, size=16))))
                peak.append(flow.in_use)
            yield from task.wait(sim.all_of(acks))
            return len(acks)

        assert drive(sim, cluster, body) == 20
        assert max(peak) == 8
        assert flow.in_use == 0 and flow.queue_length == 0

    def test_range_checked_before_posting(self, kind):
        sim, cluster, group = make(kind)

        def body(task):
            with pytest.raises(ValueError):
                yield from group.submit(task, OpSpec(GWRITE, offset=(1 << 14) - 4, size=8))
            return True

        assert drive(sim, cluster, body)
        assert group.next_round == 0 and flow_of(group, GWRITE).in_use == 0


@pytest.mark.parametrize("kind", GROUPS)
class TestSubmitGwrite:
    def test_slot_released_at_ack_even_if_nobody_waits(self, kind):
        sim, cluster, group = make(kind)
        flow = flow_of(group, GWRITE)

        def body(task):
            ack = yield from group.submit(task, OpSpec(GWRITE, offset=0, size=8))
            assert flow.in_use == 1
            yield from task.sleep(200_000)
            return ack.triggered

        assert drive(sim, cluster, body)
        assert flow.in_use == 0

    def test_blocking_verb_is_submit_plus_wait(self, kind):
        """Same seed, same op: ``gwrite`` and ``submit`` + the group's
        one ``wait`` finish at the same virtual time after the same
        dispatches."""

        def run(blocking):
            sim, cluster, group = make(kind, seed=9)

            def body(task):
                group.write_local(0, b"y" * 64)
                if blocking:
                    result = yield from group.gwrite(task, 0, 64)
                else:
                    ack = yield from group.submit(task, OpSpec(GWRITE, offset=0, size=64))
                    result = yield from group.wait(task, ack)
                return result, sim.now

            with tracing(record_kernel=False) as tracer:
                outcome = drive(sim, cluster, body)
            return outcome, tracer.dispatches

        assert run(True) == run(False)


@pytest.mark.parametrize("kind", EVERY_PRIMITIVE)
class TestSubmitValidation:
    def test_range_and_execute_map_checked_before_posting(self, kind):
        sim, cluster, group = make(kind)

        def body(task):
            errors = 0
            for op in (
                OpSpec(GWRITE, offset=(1 << 14) - 4, size=8),
                OpSpec(GMEMCPY, src_offset=1 << 14, dst_offset=0, size=64),
                OpSpec(GMEMCPY, src_offset=0, dst_offset=(1 << 14) - 4, size=8),
                OpSpec(GCAS, offset=(1 << 14) - 4),
                OpSpec(GCAS, offset=0, execute_map=[True]),
                OpSpec(GCAS, offset=0, execute_map=[True] * 5),
            ):
                try:
                    yield from group.submit(task, op)
                except ValueError:
                    errors += 1
            return errors

        assert drive(sim, cluster, body) == 6
        if kind == "naive":
            assert group.next_round == 0
        else:
            assert sum(chain.next_round for chain in group.chains.values()) == 0
        assert all(flow_of(group, p).in_use == 0 for p in (GWRITE, GMEMCPY, GCAS))


def ops_posted(group):
    if isinstance(group, HyperLoopGroup):
        return sum(chain.next_round for chain in group.chains.values())
    return group.next_round


@pytest.mark.parametrize("kind", GROUPS)
def test_gflush_on_a_non_durable_group_raises(kind):
    options = {} if kind == "fanout" else {"durable": False}  # never durable
    sim, cluster, group = make(kind, **options)
    assert not group.durable

    def body(task):
        with pytest.raises(RuntimeError):
            yield from group.gflush(task)
        return True

    assert drive(sim, cluster, body)
    assert ops_posted(group) == 0


@pytest.mark.parametrize("kind", FANOUTS)
def test_a_primitive_the_group_does_not_run_raises_at_submit(kind):
    sim, cluster, group = make(kind)

    def body(task):
        raised = 0
        for op in (OpSpec(GMEMCPY, size=8), OpSpec(GCAS)):
            with pytest.raises(RuntimeError):
                yield from group.submit(task, op)
            raised += 1
        return raised

    assert drive(sim, cluster, body) == 2
    assert ops_posted(group) == 0


@pytest.mark.parametrize("kind", GROUPS)
class TestReadSurface:
    def test_pread_post_reads_and_read_backlog(self, kind):
        sim, cluster, group = make(kind)

        def body(task):
            group.write_local(0, b"abcdefgh" * 4)
            yield from group.gwrite(task, 0, 32)
            for replica in range(3):
                assert (yield from group.pread(task, replica, 8, 8)) == b"abcdefgh"
            posted = yield from group.post_reads(task, 1, [(0, 4), (16, 8)])
            backlog = [group.read_backlog(replica) for replica in range(3)]
            data = yield from posted.wait(task)
            return backlog, data, [group.read_backlog(replica) for replica in range(3)]

        backlog, data, after = drive(sim, cluster, body)
        assert backlog == [0, 1, 0]
        assert data == [b"abcd", b"abcdefgh"]
        assert after == [0, 0, 0]

    def test_validated_since_birth_is_one_ack(self, kind):
        sim, cluster, group = make(kind)
        assert not group.validated_since_birth

        def body(task):
            yield from group.gwrite(task, 0, 8)
            return True

        assert drive(sim, cluster, body)
        assert group.validated_since_birth

    def test_readable_replicas_follow_host_and_nic_liveness(self, kind):
        sim, cluster, group = make(kind)
        hosts = cluster.hosts[1:4]

        def write(task):
            yield from group.gwrite(task, 0, 8)
            return sim.now

        drive(sim, cluster, write)
        assert group.readable_replicas() == [0, 1, 2]
        # A restarted replica serves nothing until the next ack lands.
        hosts[2].restart()
        assert group.readable_replicas() == [0, 1]
        drive(sim, cluster, write)
        assert group.readable_replicas() == [0, 1, 2]
        hosts[1].nic.stall()
        assert group.readable_replicas() == [0, 2]
        hosts[1].nic.resume()
        hosts[0].crash()
        assert group.readable_replicas() == [1, 2]


class TestSubmitSpans:
    def test_one_complete_span_per_op_from_post_to_ack(self):
        sim, cluster, group = make("hyperloop")

        def body(task):
            acks = []
            for index in range(3):
                op = OpSpec(GWRITE, offset=64 * index, size=32)
                acks.append((yield from group.submit(task, op)))
            yield from task.wait(sim.all_of(acks))
            return sim.now

        with tracing(record_kernel=False) as tracer:
            finished = drive(sim, cluster, body)
        spans = [
            rec for rec in tracer.iter_records() if rec.cat == "group" and rec.ph == "X"
        ]
        posted = [
            rec for rec in tracer.iter_records() if rec.cat == "group" and rec.name == "posted"
        ]
        assert [span.args["round"] for span in spans] == [0, 1, 2]
        assert [span.ts for span in spans] == [rec.ts for rec in posted]
        assert all(span.name == "g.gwrite" and span.tid == "client" for span in spans)
        # Overlapping on one lane: the second op was posted before the
        # first one's ack — which begin/end pairs could not express.
        assert spans[1].ts < spans[0].ts + spans[0].dur <= finished
        assert tracer.counters["group.ops"] == 3
