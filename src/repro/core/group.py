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

from typing import Dict, Optional, Sequence

from ..hw.host import Host
from ..sim import Event, Resource, US
from .base import GroupBase, RingRefill
from .chain import Chain, GWRITE, OpSpec

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
        operations may be in flight per primitive. A replica re-arms
        half a lap once half a lap is consumed, woken by its recv CQ
        (:class:`~repro.core.base.RingRefill`).
    durable:
        Interleave gFLUSH with every gwrite/gmemcpy (§4.2).
    nvm:
        Place replica regions in NVM (battery-backed DRAM).
    client_mode:
        ``"event"`` — an ack wakes the task waiting on the op (normal
        tenants); ``"polling"`` — a client thread busy-polls the ack
        CQs (dedicated-core clients, e.g. the latency microbenchmark).
        See :mod:`repro.core.acks`.
    maintenance_interval:
        How often replica CPUs wake to drain CQs and surface NIC
        errors (off the critical path); refills do not wait for it.
    """

    def __init__(
        self,
        client: Host,
        replicas: Sequence[Host],
        region_size: int = 1 << 20,
        rounds: int = 256,
        durable: bool = True,
        nvm: bool = True,
        client_mode: str = "event",
        maintenance_interval: int = 200 * US,
        client_core: Optional[int] = None,
        name: str = "group",
        autostart: bool = True,
    ):
        super().__init__(
            client, replicas, region_size, rounds, durable, nvm, name, client_mode, client_core
        )
        self.maintenance_interval = maintenance_interval
        # Built chains only, keyed in ``primitives`` order (see chain()).
        self.chains: Dict[str, Chain] = {}
        self._flow: Dict[str, Resource] = {
            primitive: Resource(client.sim, capacity=max(rounds // 2, 1))
            for primitive in self.primitives
        }
        self._waiters: Dict[str, Dict[int, Event]] = {}  # per built chain
        self._refills = []  # one per replica once started
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
        for refill in self._refills:  # tasks parked before it existed
            refill.due(chain)
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
        self._refills = [RingRefill(self, index) for index in range(self.g)]
        for index, host in enumerate(self.replicas):
            yield host.os.spawn(self._refills[index].body, name=f"{self.name}.r{index}.maint")

    def _rings(self, replica: int):
        return self.chains.values()

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
