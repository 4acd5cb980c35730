"""Sharded multi-process simulation engine (conservative time windows).

A single simulation is one total order of virtual time, but the
*world* being simulated is spatially partitioned: hosts only interact
through the fabric, and every cross-host message pays at least the
fabric's propagation delay (1300 ns). That delay is a classic
conservative-synchronization **lookahead** (Chandy–Misra–Bryant): if
every shard has processed all events up to the global minimum
next-event time ``T``, no shard can receive a cross-shard message
before ``T + lookahead`` — so all shards may safely run the window
``(·, T + lookahead]`` in parallel and exchange the messages produced
at the barrier.

The pieces, bottom-up:

* :func:`partition_topology` — deterministic greedy partitioner over
  communication *cliques* (sets of hosts that must share a shard; a
  replication group and its client is one clique, a mesh host is its
  own).
* :class:`ShardProgram` — the contract a sharded workload implements:
  build its slice of the world on a fresh simulator given which hosts
  are local, then report/merge/render picklable results. Programs are
  registered in :data:`PROGRAMS` by import path so worker processes
  resolve them by name (specs ship data, never code — same rule as
  :mod:`repro.bench.parallel`).
* :func:`_shard_worker` / :func:`run_sharded` — the worker loop and
  the coordinator. Lockstep protocol over ``multiprocessing`` pipes:
  every round each worker reports its next event time plus the
  boundary messages it emitted; the coordinator routes messages,
  computes the window end, and broadcasts it with each shard's inbox
  sorted by ``(deliver_ns, src, seq)``. Identical inputs per shard →
  identical simulation regardless of host scheduling.

Determinism invariants (asserted by
``tests/integration/test_shard_equivalence.py``):

1. Per-host randomness comes from label-derived streams
   (``Simulator.rng``), so a host draws identical randomness whichever
   shard builds it.
2. Boundary messages carry an absolute ``deliver_ns`` computed on the
   sending shard (egress serialization + propagation already paid), so
   the receiver schedules mechanically.
3. Cross-shard injections are applied in the coordinator's sorted
   ``(deliver_ns, src, seq)`` order before a window runs; workloads
   observe arrivals only strictly after their timestamp (the mesh
   program's drain-before-now rule), which makes same-timestamp
   interleaving — the one thing sharding can reorder — unobservable.
"""

from __future__ import annotations

import hashlib
import importlib
import multiprocessing
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Clique",
    "ShardProgram",
    "ShardRun",
    "PROGRAMS",
    "DEFAULT_LOOKAHEAD_NS",
    "partition_topology",
    "resolve_program",
    "run_oracle",
    "run_sharded",
]

DEFAULT_LOOKAHEAD_NS = 1300
"""Default conservative lookahead: ``Fabric.propagation_ns``."""


def _context():
    """Multiprocessing context: fork where available (cheap workers on
    a 1-core host), spawn otherwise. Workers and their arguments are
    spawn-safe either way."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# -- topology partitioning --------------------------------------------------


@dataclass(frozen=True)
class Clique:
    """A set of hosts that must share a shard.

    Hosts in one clique may interact at sub-lookahead latencies
    (loopback QPs, shared OS state), so the partitioner never splits
    one. ``weight`` is the balance metric (expected event share).
    """

    name: str
    members: Tuple[str, ...]
    weight: int = 1


def partition_topology(
    cliques: Sequence[Clique], n_shards: int, seed: int = 0
) -> List[List[Clique]]:
    """Deterministic greedy balance of cliques across ``n_shards``.

    Cliques are ordered by descending weight with a seeded-hash tiebreak
    (stable across platforms and hash randomization), then each is
    assigned to the lightest shard (lowest index on ties). A pure
    function of ``(cliques, n_shards, seed)`` — the same topology
    always partitions the same way, which the equivalence tests rely
    on to reproduce a layout.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")

    def mix(name: str) -> str:
        return hashlib.sha256(f"{seed}/{name}".encode()).hexdigest()

    ordered = sorted(cliques, key=lambda c: (-c.weight, mix(c.name), c.name))
    shards: List[List[Clique]] = [[] for _ in range(n_shards)]
    loads = [0] * n_shards
    for clique in ordered:
        index = min(range(n_shards), key=lambda j: (loads[j], j))
        shards[index].append(clique)
        loads[index] += clique.weight
    return shards


# -- program contract -------------------------------------------------------


@dataclass(frozen=True)
class ShardProgram:
    """A workload that knows how to build any shard of itself.

    ``cliques(params)`` describes the topology; ``build(sim, local,
    all_hosts, params)`` constructs this shard's slice — attaching
    local ports, declaring every non-local host a fabric boundary —
    and returns ``(fabric, state)``; ``report(state)`` must be
    picklable and byte-stable; ``merge(reports)`` folds per-shard
    reports (disjoint hosts, so a union); ``render(report, params)``
    is the canonical text output the equivalence CI byte-diffs.

    ``prepare(seed, params)``, when set, is called once in the
    coordinator *before* workers are spawned. Under the default fork
    start method anything it caches at module level (precomputed
    schedules, topology tables) is inherited copy-on-write by every
    worker instead of being recomputed per shard — a pure optimization:
    under spawn the cache is simply cold and workers recompute.
    """

    name: str
    cliques: Callable[[Dict[str, Any]], List[Clique]]
    build: Callable[..., Tuple[Any, Any]]
    report: Callable[[Any], Dict[str, Any]]
    merge: Callable[[List[Dict[str, Any]]], Dict[str, Any]]
    render: Callable[[Dict[str, Any], Dict[str, Any]], str]
    lookahead_ns: Callable[[Dict[str, Any]], int] = lambda params: DEFAULT_LOOKAHEAD_NS
    prepare: Optional[Callable[[int, Dict[str, Any]], None]] = None


PROGRAMS: Dict[str, str] = {
    "mesh": "repro.bench.mesh:MESH_PROGRAM",
}
"""Shardable programs by name, as ``module:attribute`` import paths."""


def resolve_program(name: str) -> ShardProgram:
    """Import and return the :class:`ShardProgram` behind ``name``."""
    try:
        path = PROGRAMS[name]
    except KeyError:
        known = ", ".join(sorted(PROGRAMS))
        raise ValueError(f"unknown shard program {name!r} (known: {known})") from None
    module_name, _, attr = path.partition(":")
    return getattr(importlib.import_module(module_name), attr)


# -- results ----------------------------------------------------------------


@dataclass
class ShardRun:
    """Outcome of a sharded (or oracle) program run."""

    program: str
    shards: int
    seed: int
    params: Dict[str, Any]
    report: Dict[str, Any]
    rendered: str
    sync_rounds: int
    lookahead_ns: int
    shard_stats: List[Dict[str, Any]] = field(default_factory=list)
    wall_s: float = 0.0


# -- worker side ------------------------------------------------------------


def _shard_worker(
    conn,
    program_name: str,
    shard_index: int,
    local: List[str],
    all_hosts: List[str],
    params: Dict[str, Any],
    seed: int,
    trace_cfg: Optional[Tuple[Optional[int], bool]],
) -> None:
    """One shard's process: build, then lockstep with the coordinator.

    Protocol (worker side):

    * send ``("ready", next_event_time_or_None, outbox)``
    * recv ``("window", window_end, inbox)`` → inject every boundary
      message (coordinator pre-sorted by ``(deliver_ns, src, seq)``),
      run to ``window_end``, loop
    * recv ``("stop",)`` → send ``("done", report, stats, trace)``

    Intermediate bounded runs leave the clock unpinned
    (``_advance_clock``) so the shard's final ``now`` matches what an
    unwindowed run of the same events would report.
    """
    wall0 = _time.perf_counter()
    from ..obs.trace import TRACER, ship_records

    if trace_cfg is not None:
        capacity, record_kernel = trace_cfg
        TRACER.enable(capacity)
        TRACER.record_kernel = record_kernel
    from .kernel import Simulator

    program = resolve_program(program_name)
    sim = Simulator(seed=seed)
    fabric, state = program.build(sim, local, all_hosts, params)
    sync_rounds = 0
    sim._advance_clock = False
    try:
        while True:
            next_time = sim._queue[0][0] if sim._queue else None
            conn.send(("ready", next_time, fabric.drain_outbox()))
            message = conn.recv()
            if message[0] == "stop":
                break
            _kind, window_end, inbox = message
            for boundary_message in inbox:
                fabric.inject(boundary_message)
            sim.run(until=window_end)
            sync_rounds += 1
    finally:
        sim._advance_clock = True
    if trace_cfg is not None:
        TRACER.disable()
        trace = (ship_records(TRACER), dict(TRACER.counters), TRACER.dispatches)
    else:
        trace = None
    stats = {
        "shard": shard_index,
        "hosts": len(local),
        "events": sim._sequence,
        "sync_rounds": sync_rounds,
        "now_ns": sim.now,
        "wall_s": _time.perf_counter() - wall0,
    }
    conn.send(("done", program.report(state), stats, trace))
    conn.close()


# -- coordinator ------------------------------------------------------------


def run_oracle(
    program_name: str, seed: int = 0, params: Optional[Dict[str, Any]] = None
) -> ShardRun:
    """Single-process reference run: the whole world on one simulator.

    This is the oracle every sharded layout must match bit for bit."""
    wall0 = _time.perf_counter()
    program = resolve_program(program_name)
    params = dict(params or {})
    cliques = program.cliques(params)
    all_hosts = [member for clique in cliques for member in clique.members]
    from .kernel import Simulator

    sim = Simulator(seed=seed)
    fabric, state = program.build(sim, list(all_hosts), list(all_hosts), params)
    del fabric  # no boundaries: everything delivers locally
    sim.run()
    report = program.report(state)
    return ShardRun(
        program=program_name,
        shards=1,
        seed=seed,
        params=params,
        report=report,
        rendered=program.render(report, params),
        sync_rounds=0,
        lookahead_ns=program.lookahead_ns(params),
        shard_stats=[
            {
                "shard": 0,
                "hosts": len(all_hosts),
                "events": sim._sequence,
                "sync_rounds": 0,
                "now_ns": sim.now,
                "wall_s": _time.perf_counter() - wall0,
            }
        ],
        wall_s=_time.perf_counter() - wall0,
    )


def run_sharded(
    program_name: str,
    shards: int,
    seed: int = 0,
    params: Optional[Dict[str, Any]] = None,
) -> ShardRun:
    """Run a registered program partitioned across ``shards`` workers.

    Coordinator side of the window protocol: each round it takes every
    worker's next event time and freshly emitted boundary messages,
    routes the messages, and — unless everything is quiescent —
    broadcasts ``window_end = T + lookahead`` (``T`` = global minimum
    over next event times and undelivered message times) together with
    each shard's inbox sorted by ``(deliver_ns, src, seq)``. Workers
    advance through the window and the cycle repeats; when no events
    and no messages remain it broadcasts stop and merges reports (and,
    if tracing is enabled, per-shard trace buffers) in shard order.

    ``shards=1`` short-circuits to :func:`run_oracle`.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        return run_oracle(program_name, seed=seed, params=params)
    wall0 = _time.perf_counter()
    program = resolve_program(program_name)
    params = dict(params or {})
    cliques = program.cliques(params)
    lookahead = program.lookahead_ns(params)
    partition = partition_topology(cliques, shards, seed=seed)
    all_hosts = [member for clique in cliques for member in clique.members]
    if program.prepare is not None:
        program.prepare(seed, params)
    locals_per_shard = [
        [member for clique in shard for member in clique.members]
        for shard in partition
    ]

    from ..obs.trace import TRACER
    from ..obs.export import merge_shard_records

    trace_cfg: Optional[Tuple[Optional[int], bool]] = None
    if TRACER.enabled:
        trace_cfg = (TRACER.capacity, TRACER.record_kernel)

    context = _context()
    connections = []
    processes = []
    for index, local in enumerate(locals_per_shard):
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_shard_worker,
            args=(
                child_conn,
                program_name,
                index,
                local,
                list(all_hosts),
                params,
                seed,
                trace_cfg,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        connections.append(parent_conn)
        processes.append(process)

    sync_rounds = 0
    try:
        inboxes: List[list] = [[] for _ in range(shards)]
        owner = {
            member: index
            for index, local in enumerate(locals_per_shard)
            for member in local
        }
        while True:
            next_times = []
            for index, conn in enumerate(connections):
                kind, next_time, outbox = conn.recv()
                assert kind == "ready", kind
                next_times.append(next_time)
                for message in outbox:
                    inboxes[owner[message.dst]].append(message)
            candidates = [t for t in next_times if t is not None]
            candidates.extend(
                message.deliver_ns for inbox in inboxes for message in inbox
            )
            if not candidates:
                for conn in connections:
                    conn.send(("stop",))
                break
            window_end = min(candidates) + lookahead
            for index, conn in enumerate(connections):
                inboxes[index].sort(key=lambda m: (m.deliver_ns, m.src, m.seq))
                conn.send(("window", window_end, inboxes[index]))
                inboxes[index] = []
            sync_rounds += 1
        reports = []
        shard_stats = []
        shipped_traces = []
        for conn in connections:
            kind, report, stats, trace = conn.recv()
            assert kind == "done", kind
            reports.append(report)
            shard_stats.append(stats)
            shipped_traces.append(trace)
    finally:
        for conn in connections:
            conn.close()
        for process in processes:
            process.join(timeout=60)
            if process.is_alive():
                process.terminate()
                process.join()

    if trace_cfg is not None:
        for trace in shipped_traces:
            if trace is not None:
                records, counters, dispatches = trace
                TRACER.absorb(records, counters, dispatches)
        merge_shard_records(TRACER)

    merged = program.merge(reports)
    return ShardRun(
        program=program_name,
        shards=shards,
        seed=seed,
        params=params,
        report=merged,
        rendered=program.render(merged, params),
        sync_rounds=sync_rounds,
        lookahead_ns=lookahead,
        shard_stats=shard_stats,
        wall_s=_time.perf_counter() - wall0,
    )
