"""Ablations on the design choices DESIGN.md calls out.

1. **Interleaved gFLUSH on/off** — the latency price of §4.2's
   durability mechanism (a 0-byte READ per hop).
2. **Chain vs fan-out** (§7) — the NIC/egress load-balancing argument
   for chain replication.
3. **Tenancy sweep** — the §2.2 motivation curve: how each data path
   degrades as co-located CPU load grows.
4. **Ring sizing** — what happens when the pre-posted round budget is
   too small for the offered load (replenishment becomes visible).
"""

from conftest import scaled

from repro.baseline import FanoutGroup
from repro.bench import LatencyRecorder, format_table, run_until
from repro.bench.experiments import _build_group, _spawn_background, microbench_latency
from repro.core import HyperFanoutGroup, HyperLoopGroup
from repro.hw import Cluster
from repro.sim import Simulator

N_OPS = scaled(2000, 400)


class TestFlushAblation:
    def test_gflush_interleaving_cost(self, benchmark):
        """Durability costs a little latency (one extra hop-ordered
        READ) but nothing close to the CPU path's overhead."""

        def run():
            durable = microbench_latency(
                "hyperloop", "gwrite", 1024, n_ops=N_OPS, durable=True,
                stress_per_core=6,
            )
            volatile = microbench_latency(
                "hyperloop", "gwrite", 1024, n_ops=N_OPS, durable=False,
                stress_per_core=6,
            )
            return durable.stats, volatile.stats

        durable, volatile = benchmark.pedantic(run, rounds=1, iterations=1)
        print()
        print(
            format_table(
                "Ablation: interleaved gFLUSH (us)",
                ["variant", "avg", "p99"],
                [
                    ("durable (gWRITE+gFLUSH)", round(durable.mean, 2), round(durable.p99, 2)),
                    ("volatile (gWRITE only)", round(volatile.mean, 2), round(volatile.p99, 2)),
                ],
            )
        )
        assert volatile.mean <= durable.mean, "flushing cannot be free"
        assert durable.mean < volatile.mean + 20, (
            "gFLUSH should cost microseconds, not tens"
        )
        benchmark.extra_info["flush_cost_us"] = round(durable.mean - volatile.mean, 2)


class TestFanoutAblation:
    def _run(self, topology, group_size, n_ops):
        sim = Simulator(seed=51)
        cluster = Cluster(sim, n_hosts=group_size + 1, n_cores=8)
        if topology == "nic-chain":
            group = _build_group(
                "hyperloop", cluster[0], cluster.hosts[1:], 1 << 16, rounds=512
            )
        elif topology == "cpu-fanout":
            group = FanoutGroup(
                cluster[0], cluster.hosts[1:], region_size=1 << 16, rounds=512
            )
        else:  # nic-fanout: the §7 sketch, offloaded coordination
            group = HyperFanoutGroup(
                cluster[0], cluster.hosts[1:], region_size=1 << 16, rounds=512,
                client_mode="polling", client_core=0,
            )
        recorder = LatencyRecorder()
        done = {}

        def client(task):
            group.write_local(0, b"z" * 4096)
            for _ in range(n_ops):
                start = sim.now
                yield from group.gwrite(task, 0, 4096)
                recorder.record(sim.now - start)
            done["y"] = True

        cluster[0].os.spawn(client, "client", pinned_core=1)
        run_until(sim, lambda: "y" in done, deadline_ms=120_000)
        primary_tx = group.replicas[0].nic.port.tx_bytes
        other_tx = max(
            host.nic.port.tx_bytes for host in group.replicas[1:]
        )
        return recorder.stats(), primary_tx, other_tx

    def test_chain_load_balances_the_wire(self, benchmark):
        """§7: chain replication spreads egress across replicas; both
        fan-out variants (CPU-coordinated, and the NIC-offloaded
        sketch) concentrate ~(g-1)x the bytes on the primary NIC."""
        group_size = 5
        n_ops = scaled(600, 150)

        def run():
            return {
                "nic-chain": self._run("nic-chain", group_size, n_ops),
                "nic-fanout": self._run("nic-fanout", group_size, n_ops),
                "cpu-fanout": self._run("cpu-fanout", group_size, n_ops),
            }

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = []
        for topology, (stats, primary_tx, other_tx) in results.items():
            rows.append(
                (
                    topology,
                    round(stats.mean, 1),
                    primary_tx // 1024,
                    other_tx // 1024,
                    round(primary_tx / max(other_tx, 1024), 2),
                )
            )
        print()
        print(
            format_table(
                f"Ablation: chain vs fan-out (group={group_size}, 4KB writes)",
                ["topology", "avg_us", "primary_tx_KB", "max_other_tx_KB", "imbalance"],
                rows,
            )
        )
        _, chain_primary, chain_other = results["nic-chain"]
        chain_imbalance = chain_primary / max(chain_other, 1024)
        for topology in ("nic-fanout", "cpu-fanout"):
            _, fanout_primary, fanout_other = results[topology]
            fanout_imbalance = fanout_primary / max(fanout_other, 1024)
            assert fanout_imbalance > 2 * chain_imbalance, (
                f"{topology} should concentrate egress on the primary: "
                f"{fanout_imbalance:.2f} vs {chain_imbalance:.2f}"
            )
            benchmark.extra_info[f"{topology}_imbalance"] = round(fanout_imbalance, 2)
        benchmark.extra_info["chain_imbalance"] = round(chain_imbalance, 2)
        # The NIC-offloaded fan-out is still fast (no primary CPU).
        assert results["nic-fanout"][0].mean < results["cpu-fanout"][0].mean * 2


class TestTenancySweep:
    def test_latency_vs_colocation(self, benchmark):
        """The §2.2 curve: Naïve degrades with co-located load,
        HyperLoop does not."""
        levels = [0, 2, 6, 10]
        n_ops = scaled(1500, 400)

        def run():
            out = {}
            for system in ("hyperloop", "naive-event"):
                for level in levels:
                    result = microbench_latency(
                        system, "gwrite", 1024, n_ops=n_ops, stress_per_core=level
                    )
                    out[(system, level)] = result.stats
            return out

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = [
            (
                system,
                level,
                round(results[(system, level)].mean, 1),
                round(results[(system, level)].p99, 1),
            )
            for system in ("hyperloop", "naive-event")
            for level in levels
        ]
        print()
        print(
            format_table(
                "Ablation: latency vs tenants-per-core (us)",
                ["system", "tenants/core", "avg", "p99"],
                rows,
            )
        )
        # HyperLoop: load-invariant (within 3x from idle to 10:1).
        hyper_idle = results[("hyperloop", 0)]
        hyper_loaded = results[("hyperloop", 10)]
        assert hyper_loaded.p99 < 3 * max(hyper_idle.p99, 10)
        # Naive: at least a 10x average blowup from idle to 10:1.
        naive_idle = results[("naive-event", 0)]
        naive_loaded = results[("naive-event", 10)]
        assert naive_loaded.mean > 10 * naive_idle.mean
        benchmark.extra_info["naive_degradation"] = round(
            naive_loaded.mean / naive_idle.mean, 1
        )


class TestRingSizing:
    def test_small_rings_expose_replenishment(self, benchmark):
        """With a generously sized ring the replica CPU's refill work
        never gates an operation. A replica re-arms half a lap as soon
        as half a lap is consumed, so on idle replicas a tiny ring does
        not stall either; under 6 tenants per replica core the refill
        waits for the scheduler and the tiny ring's tail shows it."""
        n_ops = scaled(1200, 300)

        def run_with_rounds(rounds, tenants):
            sim = Simulator(seed=52)
            cluster = Cluster(sim, n_hosts=4, n_cores=8)
            if tenants:
                _spawn_background(cluster, cluster.hosts[1:], tenants)
            group = HyperLoopGroup(
                cluster[0],
                cluster.hosts[1:],
                region_size=1 << 16,
                rounds=rounds,
                client_mode="polling",
                client_core=0,
                name="g",
            )
            recorder = LatencyRecorder()
            done = {}

            def client(task):
                group.write_local(0, b"r" * 512)
                for _ in range(n_ops):
                    start = sim.now
                    yield from group.gwrite(task, 0, 512)
                    recorder.record(sim.now - start)
                done["y"] = True

            cluster[0].os.spawn(client, "client", pinned_core=1)
            run_until(sim, lambda: "y" in done, deadline_ms=300_000)
            return recorder.stats()

        def run():
            return {
                (rounds, tenants): run_with_rounds(rounds, tenants)
                for rounds, tenants in ((16, 6), (4096, 6), (16, 0))
            }

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = [
            (rounds, tenants, round(stats.mean, 1), round(stats.p99, 1), round(stats.maximum, 0))
            for (rounds, tenants), stats in results.items()
        ]
        print()
        print(
            format_table(
                "Ablation: pre-posted round budget (HyperLoop, us)",
                ["rounds", "tenants/core", "avg", "p99", "max"],
                rows,
            )
        )
        small, big, quiet = results[16, 6], results[4096, 6], results[16, 0]
        assert big.maximum < 100, "big rings should never stall"
        assert small.maximum > big.maximum, (
            "tiny rings must show replenishment stalls"
        )
        assert quiet.maximum <= big.maximum, (
            "on idle replicas refills trail consumption: no stall beyond a big ring's"
        )
        benchmark.extra_info["stall_max_us_small_ring"] = round(small.maximum, 0)


class TestConsistencySpectrum:
    """§7: the primitives compose into weaker models too.

    * full ACID     — durable append + locked execution per txn
    * RAMCloud-like — replicated + executed, durability primitive off
    * eventual      — durable append only; execution off the critical
                      path (higher read staleness, lower write latency)
    * cache-like    — non-durable replication only (Memcache/Redis
                      semantics)
    """

    def test_weaker_models_are_cheaper(self, benchmark):
        from repro.storage import TransactionManager

        n_ops = scaled(600, 150)

        def run_mode(mode):
            sim = Simulator(seed=53)
            cluster = Cluster(sim, n_hosts=4, n_cores=8)
            _spawn_background(cluster, cluster.hosts[1:], 4)
            durable = mode in ("acid", "eventual")
            group = HyperLoopGroup(
                cluster[0], cluster.hosts[1:], region_size=1 << 18,
                rounds=2048, durable=durable,
                client_mode="polling", client_core=0, name="g",
            )
            manager = TransactionManager(group)
            recorder = LatencyRecorder()
            done = {}

            def client(task):
                payload = b"s" * 512
                for index in range(n_ops):
                    start = sim.now
                    if mode in ("acid", "ramcloud"):
                        yield from manager.transact(task, [(index % 64 * 512, payload)])
                    elif mode == "eventual":
                        yield from manager.transact(
                            task, [(index % 64 * 512, payload)], execute=False
                        )
                        if index % 32 == 31:
                            yield from manager.locks.wr_lock(task, 1)
                            yield from manager.drain(task)
                            yield from manager.locks.wr_unlock(task, 1)
                            recorder.record(sim.now - start)
                            continue
                    else:
                        group.write_local(0, payload)
                        yield from group.gwrite(task, 0, 512)
                    recorder.record(sim.now - start)
                done["y"] = True

            cluster[0].os.spawn(client, "client", pinned_core=1)
            run_until(sim, lambda: "y" in done, deadline_ms=300_000)
            return recorder.stats()

        def run():
            return {
                mode: run_mode(mode)
                for mode in ("acid", "ramcloud", "eventual", "cache")
            }

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = [
            (mode, round(stats.mean, 1), round(stats.p99, 1))
            for mode, stats in results.items()
        ]
        print()
        print(
            format_table(
                "Ablation: consistency spectrum (update latency, us)",
                ["mode", "avg", "p99"],
                rows,
            )
        )
        # The spectrum orders as expected on average.
        assert results["cache"].mean < results["eventual"].mean
        assert results["eventual"].mean < results["acid"].mean
        assert results["ramcloud"].mean <= results["acid"].mean * 1.1
        benchmark.extra_info["acid_avg"] = round(results["acid"].mean, 1)
        benchmark.extra_info["cache_avg"] = round(results["cache"].mean, 1)


class TestQpScalability:
    """§7's second fan-out argument: "the scalability of the RDMA
    NICs decreases with the number of active write-QPs. Chain
    replication has a good load balancing property where there is at
    most one active write-QP per active partition as opposed to
    several per partition such as in fan-out protocols."

    With many partitions per server, the fan-out primary's working set
    of QP contexts exceeds the on-NIC cache and every message pays a
    context fetch; the chain's per-NIC working set stays resident.
    """

    def _run(self, topology, n_partitions, ops_per_partition):
        from repro.core.fanout import HyperFanoutGroup
        from repro.hw import NicParams

        sim = Simulator(seed=54)
        cluster = Cluster(
            sim, n_hosts=5, n_cores=8,
            nic_params=NicParams(qp_cache_entries=64),
        )
        groups = []
        for index in range(n_partitions):
            if topology == "chain":
                group = HyperLoopGroup(
                    cluster[0], cluster.hosts[1:5], region_size=1 << 14,
                    rounds=32, name=f"p{index}",
                )
            else:
                group = HyperFanoutGroup(
                    cluster[0], cluster.hosts[1:5], region_size=1 << 14,
                    rounds=32, name=f"p{index}",
                )
            groups.append(group)
        recorder = LatencyRecorder()
        state = {"running": n_partitions}

        def client(group):
            def body(task):
                group.write_local(0, b"q" * 1024)
                for _ in range(ops_per_partition):
                    start = sim.now
                    yield from group.gwrite(task, 0, 1024)
                    recorder.record(sim.now - start)
                state["running"] -= 1

            return body

        for index, group in enumerate(groups):
            cluster[0].os.spawn(client(group), f"c{index}", pinned_core=index % 8)
        run_until(sim, lambda: state["running"] == 0, deadline_ms=120_000)
        primary_misses = cluster.hosts[1].nic.qp_cache_misses
        return recorder.stats(), primary_misses

    def test_many_partitions_thrash_the_fanout_primary(self, benchmark):
        n_partitions = 24
        ops = scaled(60, 20)

        def run():
            return {
                "chain": self._run("chain", n_partitions, ops),
                "fanout": self._run("fanout", n_partitions, ops),
            }

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = [
            (topology, round(stats.mean, 1), round(stats.p99, 1), misses)
            for topology, (stats, misses) in results.items()
        ]
        print()
        print(
            format_table(
                f"Ablation: QP-context scalability ({n_partitions} partitions)",
                ["topology", "avg_us", "p99_us", "head-NIC ctx misses"],
                rows,
            )
        )
        chain_stats, chain_misses = results["chain"]
        fanout_stats, fanout_misses = results["fanout"]
        assert fanout_misses > 3 * max(chain_misses, 1), (
            f"fan-out should thrash the primary's QP cache: "
            f"{fanout_misses} vs {chain_misses}"
        )
        benchmark.extra_info["fanout_misses"] = fanout_misses
        benchmark.extra_info["chain_misses"] = chain_misses


class TestRepairCost:
    """§5.1: membership change pauses writes for a catch-up copy.

    Measures the pause (catch-up READ + chain rebuild + image
    re-installation) as the region grows — the cost model behind the
    paper's "writes are paused for a short duration" and its pointer
    at chain-replication recovery research for faster control paths.
    """

    def _repair_time(self, region_size):
        from repro.storage import ChainRepair

        sim = Simulator(seed=55)
        cluster = Cluster(sim, n_hosts=6, n_cores=4)
        group = HyperLoopGroup(
            cluster[0], cluster.hosts[1:4], region_size=region_size,
            rounds=32, name="g0",
        )
        counter = {"n": 0}

        def factory(members):
            counter["n"] += 1
            return HyperLoopGroup(
                cluster[0], members, region_size=region_size,
                rounds=32, name=f"g{counter['n']}",
            )

        repair = ChainRepair(cluster[0], group, factory)
        done = {}

        def body(task):
            group.write_local(0, b"x" * 512)
            yield from group.gwrite(task, 0, 512)
            start = sim.now
            yield from repair.repair(task, failed_index=1, replacement=cluster.hosts[4])
            done["pause_ns"] = sim.now - start

        cluster[0].os.spawn(body, "coordinator")
        run_until(sim, lambda: "pause_ns" in done, deadline_ms=120_000)
        return done["pause_ns"]

    def test_pause_scales_with_region(self, benchmark):
        sizes = [1 << 16, 1 << 18, 1 << 20]

        def run():
            return {size: self._repair_time(size) for size in sizes}

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = [
            (size >> 10, round(pause / 1e6, 2)) for size, pause in results.items()
        ]
        print()
        print(
            format_table(
                "Ablation: chain-repair write pause vs region size",
                ["region_KB", "pause_ms"],
                rows,
            )
        )
        # Monotone in region size, and a 1MB region repairs in well
        # under a second of simulated time.
        pauses = list(results.values())
        assert pauses[0] < pauses[1] < pauses[2]
        assert pauses[-1] < 1_000 * 1e6
        benchmark.extra_info["pause_ms_1mb"] = round(pauses[-1] / 1e6, 2)


class TestReadScaling:
    """§5: "reads can be served from more than one replica to meet
    demand" — HyperLoop keeps replicas strongly consistent cheaply, so
    read traffic can fan out across all of them instead of pinning on
    the head.

    Measures aggregate read throughput with all readers hitting one
    replica vs spreading across three.
    """

    def _run(self, spread, n_readers=6, reads_per_reader=None):
        from repro.storage import ReplicatedDocStore

        reads = reads_per_reader or scaled(300, 80)
        sim = Simulator(seed=56)
        cluster = Cluster(sim, n_hosts=4, n_cores=8)
        group = HyperLoopGroup(
            cluster[0], cluster.hosts[1:4], region_size=1 << 20,
            rounds=64, client_mode="polling", client_core=0, name="g",
        )
        store = ReplicatedDocStore(group, parse_ns=2_000, name="docs")
        state = {"running": n_readers, "loaded": False, "t0": 0, "t1": 0}

        def loader(task):
            for index in range(30):
                yield from store.insert(
                    task, f"doc{index:04d}".encode(), {"f": b"\x66" * 1024}
                )
            state["loaded"] = True
            state["t0"] = sim.now

        def reader(reader_index):
            def body(task):
                while not state["loaded"]:
                    yield from task.sleep(50_000)
                replica = reader_index % 3 if spread else 0
                for index in range(reads):
                    doc_id = f"doc{(index * 7 + reader_index) % 30:04d}".encode()
                    yield from store.read(task, doc_id, replica=replica)
                state["running"] -= 1
                if state["running"] == 0:
                    state["t1"] = sim.now

            return body

        cluster[0].os.spawn(loader, "load", pinned_core=1)
        for index in range(n_readers):
            cluster[0].os.spawn(reader(index), f"rd{index}", pinned_core=2 + index % 6)
        run_until(sim, lambda: state["running"] == 0, deadline_ms=120_000)
        elapsed = state["t1"] - state["t0"]
        total_reads = n_readers * reads
        return total_reads / (elapsed / 1e9)

    def test_spreading_reads_scales_throughput(self, benchmark):
        def run():
            return {
                "head only": self._run(spread=False),
                "all replicas": self._run(spread=True),
            }

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        rows = [
            (mode, round(rate / 1000, 1)) for mode, rate in results.items()
        ]
        print()
        print(
            format_table(
                "Ablation: read fan-out across consistent replicas",
                ["read target", "Kreads/s"],
                rows,
            )
        )
        assert results["all replicas"] > 1.5 * results["head only"], results
        benchmark.extra_info["scaling"] = round(
            results["all replicas"] / results["head only"], 2
        )
