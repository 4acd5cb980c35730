"""Performance regression suite: kernel, gWRITE, Fig-8, parallel scaling.

Measures the numbers that bound every experiment in this repo and
appends them to ``BENCH_kernel.json`` at the repo root, so each PR
leaves a perf trajectory the next one can be compared against::

    python -m repro.bench.perfsuite --label "PR 1"     # full suite
    python -m repro.bench.perfsuite --quick            # smoke (CI)
    repro-perf --label nightly                         # console script

Timing discipline: every benchmark runs ``repeats`` times and reports
the **best** run — the one least polluted by scheduler noise — which is
the stable statistic on shared machines. The JSON entry also records
``cpu_count`` and the Python version, because a trajectory is only
comparable on comparable hardware. CI runs this suite in smoke mode and
fails only on errors, never on timing (timing on shared runners is
noise).

The simulated *results* (Fig-8 p50, merged stats) are recorded
alongside wall times: a perf PR that changes them has broken
determinism, and the suite makes that visible immediately.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..sim import Simulator

__all__ = [
    "bench_kernel_events",
    "bench_nic_hotpath",
    "bench_gwrite",
    "bench_fig8",
    "bench_fig8_traced",
    "bench_parallel_scaling",
    "bench_sharded",
    "bench_txn_commit",
    "bench_txn_install",
    "bench_txn_ycsb",
    "bench_txn_scan",
    "annotate_parallel_entry",
    "annotate_sharded_entry",
    "run_suite",
    "write_history",
    "main",
]

BENCH_FILE = "BENCH_kernel.json"


def _best(fn, repeats: int) -> Dict[str, Any]:
    """Run ``fn`` ``repeats`` times, keep the fastest run's payload."""
    best: Optional[Dict[str, Any]] = None
    for _ in range(max(1, repeats)):
        result = fn()
        if best is None or result["wall_s"] < best["wall_s"]:
            best = result
    assert best is not None
    return best


def bench_kernel_events(
    n_procs: int = 200,
    events_per_proc: int = 2000,
    seed: int = 7,
) -> Dict[str, Any]:
    """Pure event-loop throughput: timeout-yielding processes.

    The workload is all kernel — no NIC, no memory model — so the
    events/sec figure isolates dispatch, scheduling and timeout
    pooling.
    """
    sim = Simulator(seed=seed)

    def ticker(index: int):
        delay = 1 + (index % 13)
        for _ in range(events_per_proc):
            yield sim.timeout(delay)

    for index in range(n_procs):
        sim.spawn(ticker(index))
    started = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - started
    events = n_procs * events_per_proc
    return {
        "events": events,
        "wall_s": wall,
        "events_per_sec": events / wall,
        "final_now": sim.now,
    }


def bench_nic_hotpath(
    n_ops: int = 4000, burst: int = 16, seed: int = 5
) -> Dict[str, Any]:
    """Send-engine throughput: bursts of signaled WRITEs on a QP pair.

    Bursts keep several consecutive WQEs ready in the send queue, the
    regime the batched dispatch loop and the chained-execution engine
    rewrite — so this figure moves with NIC-path changes that the pure
    kernel benchmark cannot see.
    """
    from ..hw import Cluster
    from ..rdma import AccessFlags, FLAG_SIGNALED, Opcode, Wqe

    sim = Simulator(seed=seed)
    cluster = Cluster(sim, n_hosts=2)
    a, b = cluster[0], cluster[1]
    qp_a = a.dev.create_qp(name="a")
    qp_b = b.dev.create_qp(name="b")
    qp_a.connect(qp_b)
    buf_a = a.memory.alloc(4096, label="bench_a")
    buf_b = b.memory.alloc(4096, label="bench_b")
    a.dev.reg_mr(buf_a, AccessFlags.ALL_REMOTE)
    mr_b = b.dev.reg_mr(buf_b, AccessFlags.ALL_REMOTE)
    done = 0

    def driver():
        nonlocal done
        while done < n_ops:
            for index in range(burst):
                qp_a.post_send(
                    Wqe(
                        opcode=Opcode.WRITE,
                        flags=FLAG_SIGNALED,
                        length=64,
                        local_addr=buf_a.addr,
                        remote_addr=buf_b.addr + (index % 8) * 64,
                        rkey=mr_b.rkey,
                        wr_id=done + index,
                    )
                )
            target = done + burst
            while done < target:
                event = qp_a.send_cq.next_event()
                if not event.triggered:
                    yield event
                done += len(qp_a.send_cq.poll())

    sim.spawn(driver())
    started = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - started
    return {
        "ops": done,
        "wall_s": wall,
        "wqe_per_sec": done / wall,
        "final_now": sim.now,
    }


def bench_gwrite(
    total_bytes: int = 4 << 20, message_size: int = 4096
) -> Dict[str, Any]:
    """End-to-end gWRITE throughput (the Fig-9 path, shortened)."""
    from .experiments import microbench_throughput

    started = time.perf_counter()
    result = microbench_throughput(
        "hyperloop", message_size=message_size, total_bytes=total_bytes
    )
    wall = time.perf_counter() - started
    n_ops = total_bytes // message_size
    return {
        "ops": n_ops,
        "wall_s": wall,
        "ops_per_sec": n_ops / wall,
        "sim_kops": result.throughput_kops,
    }


def bench_fig8(n_ops: int = 500) -> Dict[str, Any]:
    """Wall-time of the Fig-8 latency microbenchmark (1 KB gWRITE)."""
    from .experiments import microbench_latency

    started = time.perf_counter()
    result = microbench_latency("hyperloop", message_size=1024, n_ops=n_ops)
    wall = time.perf_counter() - started
    return {
        "ops": n_ops,
        "wall_s": wall,
        "p50_us": result.stats.p50,
        "p99_us": result.stats.p99,
    }


def bench_fig8_traced(n_ops: int = 60) -> Dict[str, Any]:
    """A tiny Fig-8 slice run under the tracer (``repro.obs``).

    Returns the simulated result alongside the trace digest so a perf
    entry can record *where* kernel time went, not just how much there
    was. The p50 must match an untraced run of the same configuration —
    tracing never changes simulated results.
    """
    from ..obs import tracing
    from ..obs.report import summary
    from .experiments import microbench_latency

    started = time.perf_counter()
    with tracing() as tracer:
        result = microbench_latency(
            "hyperloop",
            message_size=1024,
            n_ops=n_ops,
            n_cores=8,
            stress_per_core=1,
            pipeline_depth=4,
            rounds=512,
        )
        digest = summary(tracer)
    wall = time.perf_counter() - started
    return {
        "ops": n_ops,
        "wall_s": wall,
        "p50_us": result.stats.p50,
        "top_cost_center": digest["top_cost_center"],
        "dispatches": digest["dispatches"],
        "records": digest["records"],
        "counters": digest["counters"],
    }


def bench_parallel_scaling(
    workers: int = 4, n_runs: int = 4, n_ops: int = 120
) -> Dict[str, Any]:
    """Serial vs pooled wall time over an independent-seed sweep.

    On a multi-core machine the speedup approaches ``min(workers,
    n_runs)``; the entry records ``cpu_count`` so a flat result on a
    single-core container reads as what it is, not a regression.
    """
    from .parallel import make_specs, run_parallel, run_serial

    specs = make_specs(
        "latency",
        base_seed=11,
        n_seeds=n_runs,
        system="hyperloop",
        message_size=1024,
        n_ops=n_ops,
        stress_per_core=1,
        pipeline_depth=4,
        n_cores=4,
        rounds=512,
    )
    started = time.perf_counter()
    serial = run_serial(specs)
    serial_s = time.perf_counter() - started
    started = time.perf_counter()
    parallel = run_parallel(specs, workers=workers)
    parallel_s = time.perf_counter() - started
    return {
        "runs": n_runs,
        "workers": workers,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else 0.0,
        "identical": serial == parallel,
        "wall_s": serial_s + parallel_s,
    }


def bench_sharded(
    hosts: int = 320,
    messages: int = 80,
    shard_counts=(2, 4),
    seed: int = 9,
    group_size: int = 8,
    remote_permille: int = 50,
) -> Dict[str, Any]:
    """The sharded engine vs its single-process oracle on the mesh
    program (:mod:`repro.bench.mesh`).

    Every sharded layout must render byte-identically to the oracle —
    that is asserted, not just recorded. Timing-wise the interesting
    numbers are per-shard event rates, sync-round counts, and (on a
    single-core host) the coordination overhead of the window
    protocol: worker spawn plus one pipe round-trip per conservative
    window.

    The default configuration is group-structured (replication-group
    cliques with a 5% remote tail) rather than uniform all-to-all:
    that is the paper's traffic shape, it exercises the partitioner's
    clique constraint, and it keeps the measurement dominated by the
    protocol rather than by boundary-message shipping.
    """
    from ..sim.shard import run_oracle, run_sharded
    from .mesh import mesh_params

    params = mesh_params(
        hosts=hosts,
        messages=messages,
        group_size=group_size,
        remote_permille=remote_permille,
    )
    started = time.perf_counter()
    oracle = run_oracle("mesh", seed=seed, params=params)
    oracle_s = time.perf_counter() - started
    runs: Dict[int, Dict[str, Any]] = {}
    for shards in shard_counts:
        started = time.perf_counter()
        run = run_sharded("mesh", shards, seed=seed, params=params)
        wall = time.perf_counter() - started
        if run.rendered != oracle.rendered:
            raise AssertionError(
                f"{shards}-shard mesh run diverged from the oracle"
            )
        runs[shards] = {
            "wall_s": wall,
            "sync_rounds": run.sync_rounds,
            "per_shard": [
                {
                    "shard": stats["shard"],
                    "hosts": stats["hosts"],
                    "events": stats["events"],
                    "events_per_sec": (
                        round(stats["events"] / stats["wall_s"])
                        if stats["wall_s"] > 0
                        else 0
                    ),
                }
                for stats in run.shard_stats
            ],
        }
    return {
        "hosts": hosts,
        "messages": messages,
        "group_size": group_size,
        "remote_permille": remote_permille,
        "events": oracle.shard_stats[0]["events"],
        "lookahead_ns": oracle.lookahead_ns,
        "oracle_s": oracle_s,
        "runs": runs,
        "identical": True,
        "wall_s": oracle_s + sum(run["wall_s"] for run in runs.values()),
    }


def bench_txn_commit(n_txns: int = 96, seed: int = 7) -> Dict[str, Any]:
    """Transaction-layer throughput: the SSI workload end to end.

    Every commit is a full multi-group install (WAL append + group
    lock + ExecuteAndAdvance per participant), so commits/sec tracks
    the whole storage stack plus the coordinator's validation path.
    The simulated outcome is recorded alongside: an anomaly, a group
    error, or a missing write-skew abort is broken determinism or
    broken isolation, and the suite fails on it rather than log it.
    """
    from ..txn import run_txn_workload

    started = time.perf_counter()
    report = run_txn_workload(seed=seed, n_txns=n_txns, write_skew_pairs=2)
    wall = time.perf_counter() - started
    if report.errors:
        raise AssertionError(f"txn workload errors: {report.errors}")
    if report.anomaly != "none":
        raise AssertionError(f"serialization anomaly under SSI: {report.anomaly}")
    if report.aborts_ssi < 1:
        raise AssertionError("write-skew pairs ran but no SSI abort was taken")
    return {
        "attempted": report.attempted,
        "commits": report.commits,
        "wall_s": wall,
        "commits_per_sec": report.commits / wall,
        "abort_rate": (
            report.aborts / report.attempted if report.attempted else 0.0
        ),
        "aborts_ssi": report.aborts_ssi,
        "sim_ms": report.sim_ms,
    }


def bench_txn_install(
    n_commits: int = 24, n_groups: int = 3, seed: int = 7
) -> Dict[str, Any]:
    """Multi-group commit latency: parallel installs vs the oracle.

    The same serial schedule of wide commits (every key on every
    group) runs under both install modes; the interesting number is
    the *virtual*-time ratio — overlapped per-group installs must
    approach max-of-groups instead of sum-of-groups. Outcomes are
    asserted bit-identical (version chains and commit counts), and a
    parallel path that fails to beat the sequential oracle is a
    regression, not a data point.
    """
    from ..hw import Cluster
    from ..txn import build_txn_system
    from .harness import run_until

    def run(install):
        sim = Simulator(seed=seed)
        cluster = Cluster(sim, n_hosts=4, n_cores=4)
        coordinator = build_txn_system(
            sim, cluster, n_groups=n_groups, install=install
        )
        keys = [f"b{index:02d}".encode() for index in range(3 * n_groups)]
        finished: Dict[str, int] = {}

        def body(task):
            txn = yield from coordinator.begin(task)
            for key in keys:
                coordinator.write(txn, key, b"init0000")
            yield from coordinator.commit(task, txn)
            start = sim.now
            for round_ in range(n_commits):
                txn = yield from coordinator.begin(task)
                for key in keys:
                    value = yield from coordinator.read(task, txn, key)
                    coordinator.write(
                        txn, key, value[:4] + round_.to_bytes(4, "little")
                    )
                yield from coordinator.commit(task, txn)
            finished["ns"] = sim.now - start

        cluster[0].os.spawn(body, "bench")
        run_until(sim, lambda: "ns" in finished, deadline_ms=120_000)
        chains = {
            key: [(version.txid, version.value) for version in chain]
            for store in coordinator.stores
            for key, chain in store.versions.items()
        }
        return finished["ns"], coordinator.commits, chains

    started = time.perf_counter()
    seq_ns, seq_commits, seq_chains = run("sequential")
    par_ns, par_commits, par_chains = run("parallel")
    wall = time.perf_counter() - started
    if (par_commits, par_chains) != (seq_commits, seq_chains):
        raise AssertionError("parallel installs diverged from the oracle")
    if par_ns >= seq_ns:
        raise AssertionError(
            f"parallel installs not faster: {par_ns}ns vs {seq_ns}ns"
        )
    return {
        "commits": seq_commits,
        "groups": n_groups,
        "wall_s": wall,
        "sequential_ms": seq_ns / 1e6,
        "parallel_ms": par_ns / 1e6,
        "latency_ratio": par_ns / seq_ns,
        "identical": True,
    }


def bench_txn_ycsb(n_txns: int = 36, seed: int = 7) -> Dict[str, Any]:
    """Transactional YCSB mix A end to end (Zipfian contention + retry).

    Records the simulated commit throughput, abort rate and retry
    amplification alongside wall time; an anomaly or group error fails
    the suite outright.
    """
    from ..txn import run_ycsb_mix

    started = time.perf_counter()
    report = run_ycsb_mix(mix="A", seed=seed, n_txns=n_txns)
    wall = time.perf_counter() - started
    if report.errors:
        raise AssertionError(f"ycsb errors: {report.errors}")
    if report.anomaly != "none":
        raise AssertionError(f"serialization anomaly under SSI: {report.anomaly}")
    return {
        "committed": report.committed,
        "attempts": report.attempts,
        "wall_s": wall,
        "txns_per_sec": report.committed / wall,
        "sim_throughput_tps": report.throughput_tps,
        "abort_rate": report.abort_rate(),
        "amplification": report.amplification,
        "sim_ms": report.sim_ms,
    }


def bench_txn_scan(n_txns: int = 36, seed: int = 7) -> Dict[str, Any]:
    """Transactional YCSB mix E: snapshot scans + inserts under SSI.

    Every scan walks the merged per-group ordered indexes and
    cross-checks each visible key's durable slot, so scans/sec tracks
    the range-read path end to end — including the phantom edges that
    concurrent inserts raise. An anomaly, a group error, or a scan
    workload that never exercises a scan fails the suite outright.
    """
    from ..txn import run_ycsb_mix

    started = time.perf_counter()
    report = run_ycsb_mix(mix="E", seed=seed, n_txns=n_txns)
    wall = time.perf_counter() - started
    if report.errors:
        raise AssertionError(f"ycsb E errors: {report.errors}")
    if report.anomaly != "none":
        raise AssertionError(f"serialization anomaly under SSI: {report.anomaly}")
    if not report.scans:
        raise AssertionError("mix E ran but planned no scans")
    return {
        "committed": report.committed,
        "attempts": report.attempts,
        "scans": report.scans,
        "inserts": report.inserts,
        "wall_s": wall,
        "scans_per_sec": report.scans / wall,
        "sim_throughput_tps": report.throughput_tps,
        "abort_rate": report.abort_rate(),
        "aborts_phantom": report.aborts_phantom,
        "amplification": report.amplification,
        "sim_ms": report.sim_ms,
    }


def annotate_sharded_entry(
    sharded: Dict[str, Any], cpu_count: Optional[int]
) -> Dict[str, Any]:
    """Build the history entry's ``sharded`` block.

    Same discipline as :func:`annotate_parallel_entry`: a speedup is
    only meaningful with more than one CPU. On a single-core host the
    shards time-share the core, so the honest number is *coordination
    overhead* — sharded wall over oracle wall, minus one — which
    measures what the window protocol costs, and is what the < 20%
    acceptance bar applies to.
    """
    entry: Dict[str, Any] = {
        "hosts": sharded["hosts"],
        "messages": sharded["messages"],
        "group_size": sharded.get("group_size", 1),
        "remote_permille": sharded.get("remote_permille", 100),
        "events": sharded["events"],
        "lookahead_ns": sharded["lookahead_ns"],
        "oracle_s": round(sharded["oracle_s"], 3),
        "identical": sharded["identical"],
        "cpu_count": cpu_count,
        "shards": {},
    }
    single_core = (cpu_count or 1) <= 1
    for shards, run in sorted(sharded["runs"].items()):
        block = {
            "wall_s": round(run["wall_s"], 3),
            "sync_rounds": run["sync_rounds"],
            "speedup": round(sharded["oracle_s"] / run["wall_s"], 2)
            if run["wall_s"] > 0
            else 0.0,
            "per_shard": run["per_shard"],
        }
        if single_core:
            block["coordination_overhead"] = round(
                run["wall_s"] / sharded["oracle_s"] - 1.0, 3
            )
        entry["shards"][str(shards)] = block
    if single_core:
        entry["speedup_flag"] = (
            "single-core host: shard workers time-share one CPU, so speedup "
            "measures window-protocol overhead, not parallel scaling; see "
            "coordination_overhead per shard count"
        )
    return entry


def annotate_parallel_entry(
    scaling: Dict[str, Any], cpu_count: Optional[int]
) -> Dict[str, Any]:
    """Build the history entry's ``parallel`` block.

    Records ``cpu_count`` next to the speedup and *flags* (never
    asserts on) a scaling number measured on a single-core host: there
    the pooled workers time-share one CPU, so "speedup" measures pool
    overhead, not scaling — the PR-1 0.36x entry read as a regression
    for exactly this reason.
    """
    entry = {
        "runs": scaling["runs"],
        "workers": scaling["workers"],
        "serial_s": round(scaling["serial_s"], 2),
        "parallel_s": round(scaling["parallel_s"], 2),
        "speedup": round(scaling["speedup"], 2),
        "cpu_count": cpu_count,
    }
    if (cpu_count or 1) <= 1:
        entry["speedup_flag"] = (
            "single-core host: workers time-share one CPU, so this number "
            "measures pool overhead, not parallel scaling"
        )
    return entry


def run_suite(
    quick: bool = False, repeats: int = 3, trace: bool = False
) -> Dict[str, Any]:
    """Run every benchmark; returns one history entry (no I/O)."""
    if quick:
        repeats = 1
    entry: Dict[str, Any] = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }

    kernel = _best(
        lambda: bench_kernel_events(
            n_procs=50 if quick else 200,
            events_per_proc=400 if quick else 2000,
        ),
        repeats,
    )
    entry["kernel_events_per_sec"] = round(kernel["events_per_sec"])
    entry["kernel_events"] = kernel["events"]

    nic = _best(
        lambda: bench_nic_hotpath(n_ops=800 if quick else 4000),
        repeats,
    )
    entry["nic_wqe_per_sec"] = round(nic["wqe_per_sec"])

    gwrite = _best(
        lambda: bench_gwrite(total_bytes=(1 << 20) if quick else (4 << 20)),
        repeats,
    )
    entry["gwrite_ops_per_sec"] = round(gwrite["ops_per_sec"], 1)
    entry["gwrite_sim_kops"] = round(gwrite["sim_kops"], 1)

    fig8 = _best(lambda: bench_fig8(n_ops=100 if quick else 500), repeats)
    entry["fig8_wall_s"] = round(fig8["wall_s"], 3)
    entry["fig8_p50_us"] = round(fig8["p50_us"], 3)
    entry["fig8_p99_us"] = round(fig8["p99_us"], 3)

    if not quick:
        scaling = bench_parallel_scaling()
        if not scaling["identical"]:
            raise AssertionError(
                "parallel runner diverged from serial reference"
            )
        entry["parallel"] = annotate_parallel_entry(scaling, entry["cpu_count"])

    sharded = _best(
        lambda: bench_sharded(
            hosts=48 if quick else 320,
            messages=30 if quick else 80,
            group_size=6 if quick else 8,
            shard_counts=(2,) if quick else (2, 4),
        ),
        1 if quick else repeats,
    )
    entry["sharded"] = annotate_sharded_entry(sharded, entry["cpu_count"])

    txn = _best(
        lambda: bench_txn_commit(n_txns=24 if quick else 96),
        repeats,
    )
    entry["txn_commits_per_sec"] = round(txn["commits_per_sec"], 1)
    entry["txn_attempted"] = txn["attempted"]
    entry["txn_commits"] = txn["commits"]
    entry["txn_abort_rate"] = round(txn["abort_rate"], 3)
    entry["txn_sim_ms"] = round(txn["sim_ms"], 3)

    install = _best(
        lambda: bench_txn_install(n_commits=8 if quick else 24),
        repeats,
    )
    entry["txn_install_sequential_ms"] = round(install["sequential_ms"], 3)
    entry["txn_install_parallel_ms"] = round(install["parallel_ms"], 3)
    entry["txn_install_latency_ratio"] = round(install["latency_ratio"], 3)

    ycsb = _best(
        lambda: bench_txn_ycsb(n_txns=12 if quick else 36),
        repeats,
    )
    entry["ycsb_committed"] = ycsb["committed"]
    entry["ycsb_attempts"] = ycsb["attempts"]
    entry["ycsb_sim_throughput_tps"] = round(ycsb["sim_throughput_tps"])
    entry["ycsb_abort_rate"] = round(ycsb["abort_rate"], 3)
    entry["ycsb_amplification"] = round(ycsb["amplification"], 3)

    scan = _best(
        lambda: bench_txn_scan(n_txns=12 if quick else 36),
        repeats,
    )
    entry["scan_committed"] = scan["committed"]
    entry["scan_count"] = scan["scans"]
    entry["scan_inserts"] = scan["inserts"]
    entry["scans_per_sec"] = round(scan["scans_per_sec"], 1)
    entry["scan_abort_rate"] = round(scan["abort_rate"], 3)
    entry["scan_aborts_phantom"] = scan["aborts_phantom"]
    entry["scan_sim_ms"] = round(scan["sim_ms"], 3)

    if trace:
        traced = bench_fig8_traced(n_ops=30 if quick else 60)
        entry["trace"] = {
            "ops": traced["ops"],
            "p50_us": round(traced["p50_us"], 3),
            "top_cost_center": traced["top_cost_center"],
            "dispatches": traced["dispatches"],
            "records": traced["records"],
        }
    return entry


def write_history(entry: Dict[str, Any], path: Path) -> Dict[str, Any]:
    """Append ``entry`` to the JSON history at ``path`` (kept sorted by
    insertion: oldest first). Returns the full document."""
    if path.exists():
        document = json.loads(path.read_text())
    else:
        document = {"benchmark": "repro kernel perf suite", "history": []}
    document["history"].append(entry)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-perf", description="kernel/experiment perf suite"
    )
    parser.add_argument("--quick", action="store_true", help="CI smoke sizes")
    parser.add_argument("--label", default="", help="history entry label")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--trace",
        action="store_true",
        help="annotate the entry with a traced Fig-8 slice (repro.obs)",
    )
    parser.add_argument(
        "--output",
        default=BENCH_FILE,
        help=f"history file (default ./{BENCH_FILE}); '-' prints only",
    )
    args = parser.parse_args(argv)

    entry: Dict[str, Any] = {}
    if args.label:
        entry["label"] = args.label
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    entry.update(run_suite(quick=args.quick, repeats=args.repeats, trace=args.trace))

    print(json.dumps(entry, indent=2))
    if args.output != "-":
        path = Path(args.output)
        write_history(entry, path)
        history = json.loads(path.read_text())["history"]
        if len(history) >= 2:
            base, last = history[0], history[-1]
            ratio = last["kernel_events_per_sec"] / base["kernel_events_per_sec"]
            print(
                f"kernel events/s: {base['kernel_events_per_sec']:,} -> "
                f"{last['kernel_events_per_sec']:,} ({ratio:.2f}x vs "
                f"{base.get('label', 'first entry')!r})",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
