"""Unit tests for the RPC layer and the one-sided remote reader."""

import pytest

from repro.bench import run_until
from repro.hw import AccessFlags, Cluster
from repro.obs import tracing
from repro.hw.network import FaultVerdict
from repro.rdma.reader import _LANES, RemoteReader
from repro.rdma.rpc import RpcServer
from repro.sim import MS, Simulator, US
from tests.host_deadline import host_deadline


class TestRpc:
    def _echo_server(self, host, mode="event"):
        def handler(task, request):
            yield from task.compute(2 * US)
            return b"echo:" + request

        return RpcServer(host, handler, mode=mode, name="echo")

    def test_request_response(self):
        sim = Simulator(seed=3)
        cluster = Cluster(sim, n_hosts=2, n_cores=2)
        server = self._echo_server(cluster[1])
        channel = server.attach(cluster[0])
        done = {}

        def client(task):
            reply = yield from channel.call(task, b"hello")
            done["r"] = reply

        cluster[0].os.spawn(client, "c")
        run_until(sim, lambda: "r" in done, deadline_ms=100)
        assert done["r"] == b"echo:hello"
        assert server.requests_served == 1

    def test_many_sequential_calls(self):
        sim = Simulator(seed=4)
        cluster = Cluster(sim, n_hosts=2, n_cores=2)
        server = self._echo_server(cluster[1])
        channel = server.attach(cluster[0])
        done = {}

        def client(task):
            replies = []
            for index in range(20):
                reply = yield from channel.call(task, f"m{index}".encode())
                replies.append(reply)
            done["r"] = replies

        cluster[0].os.spawn(client, "c")
        run_until(sim, lambda: "r" in done, deadline_ms=500)
        assert done["r"][0] == b"echo:m0" and done["r"][19] == b"echo:m19"

    def test_multiple_channels_one_server(self):
        sim = Simulator(seed=5)
        cluster = Cluster(sim, n_hosts=3, n_cores=2)
        server = self._echo_server(cluster[2])
        channels = [server.attach(cluster[0]), server.attach(cluster[1])]
        done = {}

        def client(index):
            def body(task):
                reply = yield from channels[index].call(task, f"c{index}".encode())
                done[index] = reply

            return body

        cluster[0].os.spawn(client(0), "c0")
        cluster[1].os.spawn(client(1), "c1")
        run_until(sim, lambda: len(done) == 2, deadline_ms=200)
        assert done[0] == b"echo:c0" and done[1] == b"echo:c1"

    @pytest.mark.parametrize("mode", ["event", "polling"])
    def test_idle_channels_collect_nothing_per_request(self, mode):
        """``_next_request`` waits on one completion channel that every
        connection's CQ joins: 200 requests on one connection leave at
        most one armed event with the server's one callback on it
        (before the per-CQ event was shared: one parked event per
        request on each idle connection)."""
        sim = Simulator(seed=8)
        cluster = Cluster(sim, n_hosts=4, n_cores=2)
        server = self._echo_server(cluster[3], mode=mode)
        channels = [server.attach(cluster[index]) for index in range(3)]
        done = {}

        def client(task):
            for index in range(200):
                yield from channels[0].call(task, b"%d" % index)
            done["r"] = 1

        cluster[0].os.spawn(client, "c")
        run_until(sim, lambda: "r" in done, deadline_ms=500)
        assert server.requests_served == 200
        assert [c.server_qp.recv_cq for c in channels] == server._requests.cqs
        armed = server._requests._armed
        assert armed is None or len(armed._callbacks) <= 1

    def test_a_server_with_no_channel_sleeps(self):
        """Nothing attached: the server parks on its completion channel
        and costs no CPU. (It used to wait on a first-of composition
        over no events, which is born triggered, and spin at one
        instant: ``run`` never returned.)"""
        sim = Simulator(seed=9)
        cluster = Cluster(sim, n_hosts=1, n_cores=2)
        server = self._echo_server(cluster[0])
        with host_deadline(seconds=2):
            assert sim.run(until=5_000) == 5_000
        # Still parked: a deadline raised inside the server's generator
        # would have ended its process instead of escaping ``run``.
        assert server.task.process.alive
        assert server.task.cpu_ns == 0 and server.requests_served == 0

    def test_a_channel_attached_after_the_server_parked_is_served(self):
        """The server parks on the connections it had; a call on one
        attached later must still wake it (it used to wait on the CQs
        of its channels at park time, and this call was never served)."""
        sim = Simulator(seed=10)
        cluster = Cluster(sim, n_hosts=3, n_cores=2)
        server = self._echo_server(cluster[2])
        server.attach(cluster[0])
        sim.run(until=1 * MS)  # parked on channel 0 alone
        late = server.attach(cluster[1])
        done = {}

        def client(task):
            started = sim.now
            reply = yield from late.call(task, b"late")
            done["r"] = (reply, sim.now - started)

        cluster[1].os.spawn(client, "c")
        sim.run(until=51 * MS)
        assert server.requests_served == 1
        reply, latency_ns = done["r"]
        assert reply == b"echo:late" and latency_ns < 1 * MS

    def test_server_pays_cpu(self):
        """The whole point of the native path: serving costs server CPU."""
        sim = Simulator(seed=6)
        cluster = Cluster(sim, n_hosts=2, n_cores=2)
        server = self._echo_server(cluster[1])
        channel = server.attach(cluster[0])
        done = {}

        def client(task):
            for _ in range(5):
                yield from channel.call(task, b"x")
            done["r"] = 1

        cluster[0].os.spawn(client, "c")
        run_until(sim, lambda: "r" in done, deadline_ms=200)
        assert server.task.cpu_ns > 5 * 2 * US

    def test_polling_mode(self):
        sim = Simulator(seed=7)
        cluster = Cluster(sim, n_hosts=2, n_cores=2)
        server = self._echo_server(cluster[1], mode="polling")
        channel = server.attach(cluster[0])
        done = {}

        def client(task):
            done["r"] = yield from channel.call(task, b"p")

        cluster[0].os.spawn(client, "c")
        run_until(sim, lambda: "r" in done, deadline_ms=200)
        assert done["r"] == b"echo:p"


class TestRemoteReader:
    def _rig(self, region_size=4096):
        sim = Simulator(seed=8)
        cluster = Cluster(sim, n_hosts=3, n_cores=2)
        client = cluster[0]
        replicas = cluster.hosts[1:3]
        mrs = []
        for host in replicas:
            region = host.memory.alloc(region_size)
            mrs.append(host.dev.reg_mr(region, AccessFlags.ALL_REMOTE))
        reader = RemoteReader(client, replicas, mrs, "rd")
        return sim, cluster, client, replicas, mrs, reader

    def test_reads_correct_replica(self):
        sim, cluster, client, replicas, mrs, reader = self._rig()
        mrs[0].region.write(100, b"replica-zero")
        mrs[1].region.write(100, b"replica-one!")
        done = {}

        def body(task):
            first = yield from reader.pread(task, 0, 100, 12)
            second = yield from reader.pread(task, 1, 100, 12)
            done["r"] = (first, second)

        client.os.spawn(body, "c")
        run_until(sim, lambda: "r" in done, deadline_ms=100)
        assert done["r"] == (b"replica-zero", b"replica-one!")

    def test_no_replica_cpu_used(self):
        sim, cluster, client, replicas, mrs, reader = self._rig()
        done = {}

        def body(task):
            yield from reader.pread(task, 0, 0, 64)
            done["r"] = 1

        client.os.spawn(body, "c")
        run_until(sim, lambda: "r" in done, deadline_ms=100)
        assert all(host.os.busy_ns == 0 for host in replicas)

    def test_bounds_checked(self):
        sim, cluster, client, replicas, mrs, reader = self._rig()
        done = {}

        def body(task):
            with pytest.raises(ValueError):
                yield from reader.pread(task, 0, 4090, 100)
            yield from task.sleep(0)
            done["r"] = 1

        client.os.spawn(body, "c")
        run_until(sim, lambda: "r" in done, deadline_ms=100)

    def test_concurrent_readers_serialized_per_replica(self):
        sim, cluster, client, replicas, mrs, reader = self._rig()
        mrs[0].region.write(0, b"A" * 64)
        done = {}

        def body(label):
            def gen(task):
                data = yield from reader.pread(task, 0, 0, 64)
                done[label] = data

            return gen

        client.os.spawn(body("x"), "x")
        client.os.spawn(body("y"), "y")
        run_until(sim, lambda: len(done) == 2, deadline_ms=100)
        assert done["x"] == done["y"] == b"A" * 64


class TestReadBatches:
    """preadv: one lane, one doorbell, one wait per batch — and a lane
    that always comes back."""

    _rig = TestRemoteReader._rig

    @staticmethod
    def _pattern(index, size):
        return bytes([65 + index % 26]) * size

    def _run(self, sim, client, body):
        done = {}

        def wrapper(task):
            done["r"] = yield from body(task)

        task = client.os.spawn(wrapper, "c")
        run_until(sim, lambda: task.process.triggered, deadline_ms=100)
        assert task.process.ok, task.process.value
        return done["r"]

    def test_closed_reader_does_not_hand_its_bytes_to_the_next(self):
        """A reader closed with its READ in flight (zombie reclaim after
        a failover) frees the channel; the next reader must wait for its
        *own* completion, not wake on the dead reader's CQE."""
        sim, cluster, client, replicas, mrs, reader = self._rig(region_size=8192)
        mrs[0].region.write(0, b"A" * 64)
        mrs[0].region.write(4096, b"B" * 64)
        qp = reader._channels[0].qp

        def doomed(task):
            yield from reader.pread(task, 0, 0, 64)

        zombie = client.os.spawn(doomed, "zombie")

        def successor(task):
            while qp.send_posted == 0:
                yield from task.sleep(500)
            assert qp.send_cq.completions_total == 0  # posted, still in flight
            zombie.process.generator.close()
            return (yield from reader.pread(task, 0, 4096, 64))

        assert self._run(sim, client, successor) == b"B" * 64
        assert qp.send_cq.entries == [] and qp.send_cq.completions_total == 2

    def test_batch_is_one_doorbell_and_adjacent_extents_one_read(self):
        sim, cluster, client, replicas, mrs, reader = self._rig(region_size=8192)
        for index in range(6):
            mrs[1].region.write(index * 256, self._pattern(index, 256))
        # Slots 0-2 are one run, slot 5 stands alone.
        extents = [(0, 256), (256, 256), (512, 256), (1280, 256)]
        with tracing(record_kernel=False) as tracer:
            data = self._run(
                sim, client, lambda task: reader.preadv(task, 1, extents)
            )
        assert data == [self._pattern(index, 256) for index in (0, 1, 2, 5)]
        assert tracer.counters["reader.batches"] == 1
        assert tracer.counters["reader.wqes"] == 2
        assert tracer.counters["nic.doorbells"] == 1
        assert tracer.counters["nic.wqe_executed"] == 2

    @pytest.mark.parametrize(
        "count, size, stride, batches",
        [
            (40, 64, 128, 5),  # a lane's share of 32 send slots is 8
            (9, 8192, 8192 + 64, 5),  # 16 KiB lane: 2 + 2 + 2 + 2 + 1
            (20, 8192, 8192, 10),  # adjacent, but still only 2 per lane
        ],
    )
    def test_batch_beyond_ring_or_buffer_goes_out_in_sub_batches(
        self, count, size, stride, batches
    ):
        sim, cluster, client, replicas, mrs, reader = self._rig(
            region_size=count * stride + 4096
        )
        for index in range(count):
            mrs[0].region.write(index * stride, self._pattern(index, size))
        mrs[0].region.write(count * stride, b"after" * 4)
        qp = reader._channels[0].qp

        def body(task):
            many = yield from reader.preadv(
                task, 0, [(index * stride, size) for index in range(count)]
            )
            entries_left = len(qp.send_cq.entries)
            one = yield from reader.pread(task, 0, count * stride, 20)
            return many, entries_left, one

        with tracing(record_kernel=False) as tracer:
            many, entries_left, one = self._run(sim, client, body)
        assert many == [self._pattern(index, size) for index in range(count)]
        assert entries_left == 0 and qp.send_cq.entries == []
        assert one == b"after" * 4
        assert tracer.counters["reader.batches"] == batches + 1

    def test_posts_to_two_replicas_overlap(self):
        sim, cluster, client, replicas, mrs, reader = self._rig()
        mrs[0].region.write(0, b"zero")
        mrs[1].region.write(0, b"one!")

        def serial(task):
            started = sim.now
            yield from reader.pread(task, 0, 0, 4)
            yield from reader.pread(task, 1, 0, 4)
            return sim.now - started

        def overlapped(task):
            started = sim.now
            first = yield from reader.post(task, 0, [(0, 4)])
            second = yield from reader.post(task, 1, [(0, 4)])
            data = (yield from first.wait(task)) + (yield from second.wait(task))
            return data, sim.now - started

        serial_ns = self._run(sim, client, serial)
        data, overlapped_ns = self._run(sim, client, overlapped)
        assert data == [b"zero", b"one!"]
        assert overlapped_ns < 0.7 * serial_ns

    def test_error_completion_raises_and_frees_the_channel(self):
        sim, cluster, client, replicas, mrs, reader = self._rig()
        mrs[0].region.write(0, b"fine")
        good_rkey = mrs[0].rkey

        def body(task):
            mrs[0].rkey = good_rkey + 999  # the replica will refuse it
            with pytest.raises(RuntimeError, match="pread failed"):
                yield from reader.preadv(task, 0, [(0, 4), (64, 4)])
            mrs[0].rkey = good_rkey
            return (yield from reader.pread(task, 0, 0, 4))

        assert self._run(sim, client, body) == b"fine"
        assert reader._channels[0].qp.send_cq.entries == []

    def test_close_while_queued_for_the_channel_passes_it_on(self):
        """A batch queues only once every lane of its replica is held;
        closed while queued, it passes on the lane it would have got."""
        sim, cluster, client, replicas, mrs, reader = self._rig()
        mrs[0].region.write(0, b"data")
        slots = reader._channels[0].slots
        done = {}

        def holder(task):
            tickets = []
            for _ in range(_LANES):
                tickets.append((yield from reader.post(task, 0, [(0, 4)])))
            yield from task.sleep(20_000)
            data = []
            for ticket in tickets:
                data.append((yield from ticket.wait(task)))
            done["holder"] = data

        def queued(task):
            yield from reader.pread(task, 0, 0, 4)

        client.os.spawn(holder, "holder")
        waiter = client.os.spawn(queued, "queued")
        run_until(sim, lambda: slots.queue_length == 1, deadline_ms=1, chunk_ms=0.0001)
        assert slots.in_use == _LANES
        waiter.process.generator.close()
        run_until(sim, lambda: "holder" in done, deadline_ms=100)
        assert done["holder"] == [[b"data"]] * _LANES
        assert slots.in_use == 0 and slots.queue_length == 0
        assert self._run(sim, client, lambda task: reader.pread(task, 0, 0, 4)) == b"data"

    def _share_rig(self):
        """A 16 KiB region of 128 distinct 64-byte records 128 bytes
        apart; ``extents(b)`` is batch ``b``: one full ring share of
        them, one READ each."""
        rig = self._rig(region_size=1 << 14)
        mrs, reader = rig[4], rig[5]
        for index in range(128):
            mrs[0].region.write(index * 128, self._pattern(index, 64))
        share = reader._channels[0].qp.send_slots // _LANES

        def extents(batch):
            return [(index * 128, 64) for index in range(batch * share, (batch + 1) * share)]

        def expected(batch):
            return [self._pattern(index, 64) for index in range(batch * share, (batch + 1) * share)]

        return rig, share, extents, expected

    def test_abandoned_batch_is_waited_out_by_the_next_holder(self):
        """Abandon a lane's full ring share of READs while the client NIC
        is stalled, then post a batch on every lane at once. The other
        lanes post without waiting; the abandoned lane's next holder
        waits for its stragglers to land — posting beside them would
        overflow the ring — and no batch reads another's bytes."""
        (sim, cluster, client, replicas, mrs, reader), share, extents, expected = (
            self._share_rig()
        )
        channel = reader._channels[0]
        cq = channel.qp.send_cq

        def body(task):
            client.nic.stall()
            sim.call_in(20_000, client.nic.resume)
            posted = yield from reader.post(task, 0, extents(0))
            assert posted._lane is channel.lanes[0]
            posted.abandon()
            posted.abandon()  # idempotent
            with pytest.raises(RuntimeError):
                yield from posted.wait(task)
            tickets, landed_at_post = [], []
            for batch in range(1, _LANES + 1):
                tickets.append((yield from reader.post(task, 0, extents(batch))))
                landed_at_post.append(cq.completions_total)
            lanes = [channel.lanes.index(ticket._lane) for ticket in tickets]
            data = []
            for ticket in tickets:
                data.append((yield from ticket.wait(task)))
            return lanes, landed_at_post, data

        lanes, landed_at_post, data = self._run(sim, client, body)
        # Lanes 1-3 post at once; lane 0 is taken last and only once the
        # abandoned READs have all landed.
        assert lanes == [1, 2, 3, 0]
        assert landed_at_post[:-1] == [0] * (_LANES - 1)
        assert landed_at_post[-1] >= share
        assert data == [expected(batch) for batch in range(1, _LANES + 1)]
        assert cq.entries == [] and cq.completions_total == (_LANES + 1) * share
        assert channel.slots.in_use == 0

    def test_every_lane_posting_its_full_ring_share_at_once_fits_the_ring(self):
        """With the replica's NIC stalled nothing completes: every lane
        posts its full share (the whole ring outstanding at once), a
        fifth batch queues, and after the stall all five read their own
        bytes. Three rounds, so the ring laps."""
        (sim, cluster, client, replicas, mrs, reader), share, extents, expected = (
            self._share_rig()
        )
        channel = reader._channels[0]
        qp = channel.qp

        def round_(first):
            def body(task):
                replicas[0].nic.stall()
                tickets = []
                for batch in range(first, first + _LANES):
                    tickets.append((yield from reader.post(task, 0, extents(batch))))
                outstanding = qp.send_posted - qp.send_cq.completions_total
                extra = client.os.spawn(
                    lambda task: reader.preadv(task, 0, extents(first + _LANES)), "extra"
                )
                yield from task.sleep(10_000)
                queued = channel.slots.queue_length
                replicas[0].nic.resume()
                data = []
                for ticket in tickets:
                    data.append((yield from ticket.wait(task)))
                while not extra.process.triggered:
                    yield from task.sleep(1_000)
                return outstanding, queued, data + [extra.process.value]

            return body

        for first in (0, 5, 10):
            outstanding, queued, data = self._run(sim, client, round_(first))
            assert outstanding == qp.send_slots and queued == 1
            assert data == [expected(batch) for batch in range(first, first + _LANES + 1)]
        assert qp.send_posted == 15 * share == qp.send_cq.completions_total

    @pytest.mark.parametrize("collect_first", ["failed", "fine"])
    def test_only_the_batch_whose_read_failed_raises(self, collect_first):
        """Two batches in flight on two lanes, one refused by the
        replica: whichever is collected first polls both completions,
        and only the refused batch raises."""
        sim, cluster, client, replicas, mrs, reader = self._rig()
        mrs[0].region.write(0, b"fine")
        good_rkey = mrs[0].rkey

        def body(task):
            mrs[0].rkey = good_rkey + 999  # the replica will refuse it
            failed = yield from reader.post(task, 0, [(0, 4), (64, 4)])
            mrs[0].rkey = good_rkey
            fine = yield from reader.post(task, 0, [(0, 4)])
            order = [failed, fine] if collect_first == "failed" else [fine, failed]
            outcomes = {}
            for ticket in order:
                try:
                    outcomes[ticket is fine] = yield from ticket.wait(task)
                except RuntimeError as exc:
                    outcomes[ticket is fine] = str(exc)
            return outcomes

        outcomes = self._run(sim, client, body)
        assert outcomes[True] == [b"fine"]
        assert outcomes[False].startswith("pread failed")
        assert reader._channels[0].qp.send_cq.entries == []
        assert reader._channels[0].slots.in_use == 0

    def test_a_read_lost_on_a_lossy_fabric_fails_only_its_batch(self):
        """The fabric drops every reply to one READ until the RC retry
        limit gives up on it. The batch posted behind it on another
        lane completes after it, in RC order, and returns its bytes.
        (Dropping the request instead would fail both: the responder
        discards everything after a gap.)"""
        sim, cluster, client, replicas, mrs, reader = self._rig()
        mrs[0].region.write(0, b"lost")
        mrs[0].region.write(64, b"kept")

        def drop_one_read(src, dst, payload, nbytes):
            if getattr(payload, "kind", None) == "resp" and payload.payload == b"lost":
                return FaultVerdict(drop=True)
            return None

        cluster.fabric.install_fault_filter(drop_one_read)

        def body(task):
            lost = yield from reader.post(task, 0, [(0, 4)])
            kept = yield from reader.post(task, 0, [(64, 4)])
            data = yield from kept.wait(task)
            with pytest.raises(RuntimeError, match="pread failed"):
                yield from lost.wait(task)
            return data

        assert self._run(sim, client, body) == [b"kept"]
        assert cluster.fabric.dropped_messages == client.nic.params.retransmit_limit + 1

    def test_a_crashed_replica_fails_only_the_batch_posted_after_the_crash(self):
        """A batch that landed before the replica crashed is collected
        after the READ posted behind it has failed (RC retry limit on a
        lossy fabric): its own completion is fine, and only the later
        batch raises."""
        sim, cluster, client, replicas, mrs, reader = self._rig()
        mrs[0].region.write(0, b"sent")
        cluster.fabric.install_fault_filter(lambda src, dst, payload, nbytes: None)
        cq = reader._channels[0].qp.send_cq

        def body(task):
            landed = yield from reader.post(task, 0, [(0, 4)])
            while cq.completions_total < 1:
                yield from task.sleep(1_000)
            replicas[0].crash()
            doomed = yield from reader.post(task, 0, [(0, 4)])
            while cq.completions_total < 2:
                yield from task.sleep(100_000)
            assert len(cq.entries) == 2 and not cq.entries[1].ok
            data = yield from landed.wait(task)
            with pytest.raises(RuntimeError, match="pread failed"):
                yield from doomed.wait(task)
            return data

        assert self._run(sim, client, body) == [b"sent"]
        assert cq.entries == []

    def test_an_error_left_on_a_reused_lane_is_dropped(self):
        """A refused batch abandoned on lane 0 lands its error
        completion; the next batch reuses lane 0 (it has landed) and
        collects that completion with its own, and does not raise."""
        sim, cluster, client, replicas, mrs, reader = self._rig()
        mrs[0].region.write(0, b"next")
        good_rkey = mrs[0].rkey
        channel = reader._channels[0]
        cq = channel.qp.send_cq

        def body(task):
            mrs[0].rkey = good_rkey + 999  # the replica will refuse it
            refused = yield from reader.post(task, 0, [(0, 4)])
            mrs[0].rkey = good_rkey
            refused.abandon()
            while cq.completions_total < 1:
                yield from task.sleep(1_000)
            assert not cq.entries[0].ok
            reused = yield from reader.post(task, 0, [(0, 4)])
            assert reused._lane is channel.lanes[0]
            return (yield from reused.wait(task))

        assert self._run(sim, client, body) == [b"next"]
        assert cq.entries == []

    def test_a_lone_reader_always_reads_through_lane_zero(self):
        """One batch at a time takes the lowest landed lane, so its READ
        descriptors are the same bytes every time."""
        sim, cluster, client, replicas, mrs, reader = self._rig()
        channel = reader._channels[0]

        def body(task):
            for offset in range(0, 640, 64):
                yield from reader.pread(task, 0, offset, 8)

        self._run(sim, client, body)
        assert [lane.expect for lane in channel.lanes] == [10, 0, 0, 0]

    def test_two_batches_on_one_replica_overlap(self):
        """Two batches posted on one replica's channel at the same
        instant finish in under 1.5x one batch's sim time. With one lock
        per channel the second waited out the first: exactly 2x."""
        sim, cluster, client, replicas, mrs, reader = self._rig()
        mrs[0].region.write(0, b"both")
        spans = []

        def reader_task(task):
            started = sim.now
            data = yield from reader.pread(task, 0, 0, 4)
            spans.append((started, sim.now, data))

        def run(readers):
            spans.clear()
            for index in range(readers):
                client.os.spawn(reader_task, f"r{index}")
            run_until(sim, lambda: len(spans) == readers, deadline_ms=100)
            assert [data for _, _, data in spans] == [b"both"] * readers
            assert len({started for started, _, _ in spans}) == 1
            return max(end for _, end, _ in spans) - spans[0][0]

        run(1)  # warm the QP contexts
        one_ns = run(1)
        two_ns = run(2)
        assert two_ns < 1.5 * one_ns

    def test_reader_that_outlived_a_client_nic_crash_fails_loudly(self):
        """``Rnic.crash`` drops READs in flight without completions, so
        the channel's CQ can never reach its posted index again:
        pre-fix the next ``post`` parked on that threshold forever
        (this test ran to its deadline). It must raise, and name the
        way back."""
        sim, cluster, client, replicas, mrs, reader = self._rig()
        mrs[0].region.write(0, b"data")
        slots = reader._channels[0].slots

        def body(task):
            posted = yield from reader.post(task, 0, [(0, 4)])
            yield from task.sleep(1_200)  # launched, not yet answered
            assert posted._channel.qp.hw._pending
            client.nic.crash()
            posted.abandon()  # a failover handler giving up on it
            yield from task.sleep(50_000)
            client.nic.restart()
            with pytest.raises(RuntimeError, match="reattach_client"):
                yield from reader.pread(task, 0, 0, 4)
            # ... on every channel, and none is left held.
            with pytest.raises(RuntimeError, match="reattach_client"):
                yield from reader.pread(task, 1, 0, 4)
            fresh = RemoteReader(client, replicas, mrs, "again")
            return (yield from fresh.pread(task, 0, 0, 4))

        assert self._run(sim, client, body) == b"data"
        assert slots.in_use == 0 and slots.queue_length == 0
