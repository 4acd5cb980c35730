"""HyperLoopGroup: the public API of the primitive library.

One group = one client (transaction coordinator) plus ``g`` replicas
in a chain, with a shared replicated data region. Matches the paper's
architecture (Figure 3):

* :meth:`gwrite` — replicate client bytes at ``offset`` to every
  replica's region (log replication; Table 1 gWRITE).
* :meth:`gmemcpy` — every replica's NIC copies ``size`` bytes from
  ``src_offset`` to ``dst_offset`` locally (log processing /
  transaction execution; Table 1 gMEMCPY).
* :meth:`gcas` — compare-and-swap at ``offset`` on the replicas
  selected by the execute map; returns the result map (group locking;
  Table 1 gCAS).
* :meth:`gflush` — force all previously replicated data into the
  durable domain on every replica (Table 1 gFLUSH). Durability can
  also be interleaved per-operation (``durable=True``, the default),
  in which case every gwrite/gmemcpy is flushed in-line exactly as
  §4.2 describes.

All operations are generator methods to be driven from an OS
:class:`~repro.hw.cpu.Task` on the client — the client CPU is on the
critical path (it builds metadata and posts work), replica CPUs are
not. Replica-side CPU involvement is limited to a maintenance task
that refills consumed pre-posted rounds off the critical path.

A group pays only for the primitives it runs: each primitive's
:class:`~repro.core.chain.Chain` — its QPs, rings and pre-posted
rounds on every replica — is built by the first operation that uses
it (:meth:`HyperLoopGroup.chain`), not at construction. A group that
only ever replicates a log (the §5.1 RocksDB port: gWRITE + gFLUSH)
never builds the gMEMCPY and gCAS chains.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Sequence, Tuple

from ..hw.cpu import Task
from ..hw.host import Host
from ..sim import Event, Resource, US
from .base import GroupBase
from .chain import Chain, GCAS, GMEMCPY, GWRITE, OpSpec

__all__ = ["HyperLoopGroup"]


class HyperLoopGroup(GroupBase):
    """A replication group offloaded to NICs.

    Construction allocates the replicated regions and the read path
    (:class:`~repro.core.base.GroupBase`); a primitive's chain is built
    by its first operation, so :attr:`chains` holds only the chains
    used so far.

    Parameters
    ----------
    client:
        The coordinator host (storage front-end).
    replicas:
        Ordered chain of replica hosts (head first).
    region_size:
        Size in bytes of the replicated data region on every node.
    rounds:
        Pre-posted rounds per chain; at most ``rounds // 2``
        operations may be in flight per primitive.
    durable:
        Interleave gFLUSH with every gwrite/gmemcpy (§4.2).
    nvm:
        Place replica regions in NVM (battery-backed DRAM).
    primitives:
        The chains the group *may* build. Each is built on its first
        operation (or an explicit :meth:`chain` call); an operation
        on a primitive not listed raises ``RuntimeError``.
    client_mode:
        ``"event"`` — an ack wakes the task waiting on the op (normal
        tenants); ``"polling"`` — a client thread busy-polls the ack
        CQs (dedicated-core clients, e.g. the latency microbenchmark).
        See :mod:`repro.core.acks`.
    maintenance_interval:
        How often replica CPUs wake to refill rounds (off the
        critical path).
    """

    def __init__(
        self,
        client: Host,
        replicas: Sequence[Host],
        region_size: int = 1 << 20,
        rounds: int = 256,
        durable: bool = True,
        nvm: bool = True,
        primitives: Sequence[str] = (GWRITE, GMEMCPY, GCAS),
        client_mode: str = "event",
        maintenance_interval: int = 200 * US,
        client_core: Optional[int] = None,
        name: str = "group",
        autostart: bool = True,
    ):
        for primitive in primitives:
            if primitive not in (GWRITE, GMEMCPY, GCAS):
                raise ValueError(f"unknown primitive {primitive!r}")
        super().__init__(
            client, replicas, region_size, rounds, durable, nvm, name, client_mode, client_core
        )
        self.maintenance_interval = maintenance_interval
        self.primitives: Tuple[str, ...] = tuple(primitives)
        # Built chains only, keyed in ``primitives`` order (see chain()).
        self.chains: Dict[str, Chain] = {}
        self._flow: Dict[str, Resource] = {
            primitive: Resource(client.sim, capacity=max(rounds // 2, 1))
            for primitive in self.primitives
        }
        self._waiters: Dict[str, Dict[int, Event]] = {}  # per built chain
        if autostart:
            self.start()

    def chain(self, primitive: str) -> Chain:
        """The chain for ``primitive``, built on first use.

        Building pre-posts every round on every replica and starts the
        chain's NIC engines at the current instant; its ack CQ and
        client send CQ join the group's ack reaper, served in declared
        ``primitives`` order like the chains built before it. The
        gWRITE chain's acks are the ones that validate every copy.
        """
        chain = self.chains.get(primitive)
        if chain is not None:
            return chain
        if primitive not in self.primitives:
            raise RuntimeError(f"group built without the {primitive} chain")
        chain = Chain(self, primitive, self.durable, self.rounds)
        queue = self._acks.attach(
            chain.ack_qp.recv_cq, chain.parse_result_map, chain.post_ack_recv,
            lap=chain.rounds, label=primitive, send_cq=chain.client_qp.send_cq,
            rank=self.primitives.index(primitive),
        )
        self._waiters[primitive] = queue.waiters
        if primitive == GWRITE:
            self._validating = queue
        # A fresh dict, not an insert: the maintenance tasks may be
        # suspended inside a loop over the old one. Declared order, so
        # every loop over the chains is independent of first use.
        built = {**self.chains, primitive: chain}
        self.chains = {p: built[p] for p in self.primitives if p in built}
        return chain

    # -- the data path: one chain per primitive ----------------------------------------

    def _path(self, primitive: str):
        self.chain(primitive)
        return self._flow[primitive], self._waiters[primitive]

    def _post_cost(self, op: OpSpec) -> int:
        return self.chains[op.kind].client_post_cost(op)

    def _post(self, op: OpSpec) -> int:
        return self.chains[op.kind].client_post(op)

    def _spawn(self):
        for index, host in enumerate(self.replicas):
            yield host.os.spawn(self._maintenance_body(index), name=f"{self.name}.r{index}.maint")

    def _maintenance_body(self, index: int) -> Generator:
        """Replica-side task: refill consumed rounds, drain CQs.

        This is the only CPU work replicas ever do for the group, and
        it is batched and off the critical path (§5.1: "Replicas need
        to wake up periodically off the critical path").
        """

        def body(task: Task) -> Generator:
            while True:
                yield from task.sleep(self.maintenance_interval)
                if self._stopping:
                    return
                # Timer wakeup + ring/CQ state checks.
                yield from task.compute(500)
                for chain in self.chains.values():
                    state = chain.replicas[index]
                    # Re-arm consumed rounds in half-lap batches: the
                    # programs are lap-invariant, so this is a doorbell
                    # write per ring, not WQE re-serialization.
                    half_lap = max(chain.rounds // 2, 1)
                    while (
                        chain.retired_rounds(index)
                        >= state.posted_rounds - chain.rounds + half_lap
                    ):
                        chain.advance_lap(index, half_lap)
                        yield from task.compute(300)
                    # Drain CQs so hardware queues stay bounded; check
                    # for errors the NIC surfaced.
                    for cq in self._replica_cqs(chain, index):
                        cqes = cq.poll(1 << 16)
                        for cqe in cqes:
                            if not cqe.ok:
                                self.errors.append(
                                    f"r{index} {chain.primitive}: {cqe!r}"
                                )

        return body

    def _replica_cqs(self, chain: Chain, index: int):
        state = chain.replicas[index]
        cqs = [
            state.qp_prev.recv_cq,
            state.qp_prev.send_cq,
            state.qp_next.send_cq,
            state.qp_next.recv_cq,
        ]
        if state.qp_loop is not None:
            cqs.extend([state.qp_loop.send_cq, state.qp_loop.recv_cq])
        return cqs

    def stats(self) -> Dict[str, int]:
        """Operational counters (observability surface)."""
        return {
            "ops_issued": sum(c.next_round for c in self.chains.values()),
            "rounds_posted": sum(
                state.posted_rounds
                for chain in self.chains.values()
                for state in chain.replicas
            ),
            "replica_cpu_ns": self.replica_cpu_ns(),
            "errors": len(self.errors),
        }
