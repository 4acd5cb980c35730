"""``submit``: the issue half of a group operation (post, don't wait).

The one ordering rule the storage layer builds on, pinned over both
group implementations: ops posted on the same primitive chain of one
group execute and ack in post order (RC QP FIFO); the blocking verbs
are ``submit`` + one wait, so a lone op schedules what it always did.
"""

import pytest

from repro.baseline import NaiveGroup
from repro.bench import run_until
from repro.core import GCAS, GMEMCPY, GWRITE, HyperLoopGroup, OpSpec
from repro.hw import Cluster
from repro.obs import tracing
from repro.sim import Simulator

GROUPS = {"hyperloop": HyperLoopGroup, "naive": NaiveGroup}


def make(kind, rounds=16, seed=5):
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=4, n_cores=4)
    group = GROUPS[kind](
        cluster[0], cluster.hosts[1:4], region_size=1 << 14, rounds=rounds, name="g"
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


@pytest.mark.parametrize("kind", GROUPS)
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
        """Same seed, same op: ``gwrite`` and ``submit`` + ``wait``
        finish at the same virtual time after the same dispatches."""

        def run(blocking):
            sim, cluster, group = make(kind, seed=9)

            def body(task):
                group.write_local(0, b"y" * 64)
                if blocking:
                    result = yield from group.gwrite(task, 0, 64)
                else:
                    ack = yield from group.submit(task, OpSpec(GWRITE, offset=0, size=64))
                    result = yield from task.wait(ack)
                return result, sim.now

            with tracing(record_kernel=False) as tracer:
                outcome = drive(sim, cluster, body)
            return outcome, tracer.dispatches

        assert run(True) == run(False)


class TestSubmitValidation:
    def test_range_and_execute_map_checked_before_posting(self):
        sim, cluster, group = make("hyperloop")

        def body(task):
            errors = 0
            for op in (
                OpSpec(GWRITE, offset=(1 << 14) - 4, size=8),
                OpSpec(GMEMCPY, src_offset=0, dst_offset=(1 << 14) - 4, size=8),
                OpSpec(GCAS, offset=(1 << 14) - 4),
                OpSpec(GCAS, offset=0, execute_map=[True]),
            ):
                try:
                    yield from group.submit(task, op)
                except ValueError:
                    errors += 1
            return errors

        assert drive(sim, cluster, body) == 4
        assert sum(chain.next_round for chain in group.chains.values()) == 0
        assert all(flow.in_use == 0 for flow in group._flow.values())


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
