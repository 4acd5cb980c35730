"""Unit tests for the RPC layer and the one-sided remote reader."""

import pytest

from repro.bench import run_until
from repro.hw import AccessFlags, Cluster
from repro.obs import tracing
from repro.rdma.reader import RemoteReader
from repro.rdma.rpc import RpcServer
from repro.sim import MS, Simulator, US


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
        """``_next_request`` waits on every channel's CQ at once: 200
        requests on one channel leave the two idle channels with their
        one armed channel event and the server's one callback on it
        (pre-fix: one parked event per request on each)."""
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
        for channel in channels:
            waiters = channel.server_qp.recv_cq._channel_waiters
            assert len(waiters) <= 1
            assert all(len(event._callbacks) <= 1 for event in waiters)

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
    """preadv: one channel hold, one doorbell, one wait per batch — and
    a channel that always comes back."""

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
            (40, 64, 128, 2),  # 32 send slots: 32 + 8
            (9, 8192, 8192 + 64, 2),  # 64 KiB bounce buffer: 8 + 1
            (20, 8192, 8192, 3),  # adjacent, but still only 8 per buffer
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
        sim, cluster, client, replicas, mrs, reader = self._rig()
        mrs[0].region.write(0, b"data")
        lock = reader._channels[0].lock
        done = {}

        def holder(task):
            posted = yield from reader.post(task, 0, [(0, 4)])
            yield from task.sleep(20_000)
            done["holder"] = yield from posted.wait(task)

        def queued(task):
            yield from reader.pread(task, 0, 0, 4)

        client.os.spawn(holder, "holder")
        waiter = client.os.spawn(queued, "queued")
        run_until(sim, lambda: lock.queue_length == 1, deadline_ms=1, chunk_ms=0.0001)
        waiter.process.generator.close()
        run_until(sim, lambda: "holder" in done, deadline_ms=100)
        assert lock.in_use == 0 and lock.queue_length == 0
        assert self._run(sim, client, lambda task: reader.pread(task, 0, 0, 4)) == b"data"

    def test_abandoned_batch_is_waited_out_by_the_next_holder(self):
        """Abandon a full ring of READs right after posting them: the
        next batch must neither overflow the ring nor read stragglers'
        bytes."""
        sim, cluster, client, replicas, mrs, reader = self._rig(region_size=1 << 14)
        for index in range(64):
            mrs[0].region.write(index * 128, self._pattern(index, 64))
        qp = reader._channels[0].qp

        def body(task):
            posted = yield from reader.post(
                task, 0, [(index * 128, 64) for index in range(32)]
            )
            posted.abandon()
            posted.abandon()  # idempotent
            with pytest.raises(RuntimeError):
                yield from posted.wait(task)
            return (
                yield from reader.preadv(
                    task, 0, [(index * 128, 64) for index in range(32, 64)]
                )
            )

        data = self._run(sim, client, body)
        assert data == [self._pattern(index, 64) for index in range(32, 64)]
        assert qp.send_cq.entries == [] and qp.send_cq.completions_total == 64
        assert reader._channels[0].lock.in_use == 0

    def test_reader_that_outlived_a_client_nic_crash_fails_loudly(self):
        """``Rnic.crash`` drops READs in flight without completions, so
        the channel's CQ can never reach its posted index again:
        pre-fix the next ``post`` parked on that threshold forever
        (this test ran to its deadline). It must raise, and name the
        way back."""
        sim, cluster, client, replicas, mrs, reader = self._rig()
        mrs[0].region.write(0, b"data")
        lock = reader._channels[0].lock

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
        assert lock.in_use == 0 and lock.queue_length == 0
