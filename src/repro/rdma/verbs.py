"""Userspace verbs layer: the driver between software and the RNIC.

This plays the role of ``libibverbs``/``libmlx4`` in the paper. It
owns WQE rings (plain memory regions), serializes work requests into
them, rings doorbells, and registers memory.

Two driver personalities exist, selected per device:

* **stock** — posting a work request always sets the VALID flag,
  transferring ownership to the NIC immediately. Descriptors cannot
  change after posting. This is unmodified ``libmlx4``.
* **hyperloop** — the 58-line driver modification of §4.2: posting may
  *defer* ownership (VALID clear), and a QP's rings can be registered
  as RDMA-writable memory so a remote client can patch pre-posted
  descriptors and grant ownership later.

CPU cost: driver calls themselves are instantaneous simulator-wise;
code running inside an OS :class:`~repro.hw.cpu.Task` should charge
``POST_COST_NS`` per posted WQE (see
:meth:`QueuePair.post_cost`) so posting shows up as CPU time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..hw.memory import MemoryRegion
from ..hw.nic import AccessFlags, HwCq, NicQp, Rnic, pack_sges
from ..hw.wqe import FLAG_VALID, Opcode, Wqe, WQE_SIZE

__all__ = ["RdmaDevice", "QueuePair", "Mr", "POST_COST_NS", "AccessFlags"]

POST_COST_NS = 200
"""CPU nanoseconds a task should charge per posted work request."""


class Mr:
    """A registered memory region: keys plus the underlying region."""

    def __init__(self, device: "RdmaDevice", region: MemoryRegion, rkey: int, access: int):
        self.device = device
        self.region = region
        self.rkey = rkey
        self.lkey = rkey  # one key namespace, as on mlx4
        self.access = access

    @property
    def addr(self) -> int:
        return self.region.addr

    @property
    def length(self) -> int:
        return self.region.length

    def deregister(self) -> None:
        self.device.nic.deregister(self.rkey)

    def __repr__(self) -> str:
        return f"<Mr rkey={self.rkey:#x} addr={self.addr:#x} len={self.length}>"


class QueuePair:
    """Software handle for one RC queue pair.

    Owns the ring memory; translates :class:`~repro.hw.wqe.Wqe`
    objects to ring bytes and doorbells. Slot addresses are exposed so
    HyperLoop can hand them to remote clients for descriptor patching.
    """

    def __init__(
        self,
        device: "RdmaDevice",
        hw: NicQp,
        send_ring: MemoryRegion,
        recv_ring: MemoryRegion,
    ):
        self.device = device
        self.hw = hw
        self.send_ring = send_ring
        self.recv_ring = recv_ring
        self.send_slots = hw.send_slots
        self.recv_slots = hw.recv_slots
        self._send_posted = 0
        self._recv_posted = 0

    # -- identity ------------------------------------------------------------

    @property
    def qpn(self) -> int:
        return self.hw.qpn

    @property
    def send_cq(self) -> HwCq:
        return self.hw.send_cq

    @property
    def recv_cq(self) -> HwCq:
        return self.hw.recv_cq

    def send_slot_addr(self, index: int) -> int:
        """Physical address of send-ring slot for absolute index."""
        return self.send_ring.addr + (index % self.send_slots) * WQE_SIZE

    def recv_slot_addr(self, index: int) -> int:
        return self.recv_ring.addr + (index % self.recv_slots) * WQE_SIZE

    # -- connection ------------------------------------------------------------

    def connect(self, remote: "QueuePair") -> None:
        """Connect two QPs to each other (both directions)."""
        self.hw.connect(remote.device.nic.name, remote.qpn)
        remote.hw.connect(self.device.nic.name, self.qpn)

    def connect_loopback(self) -> None:
        """Connect the QP to itself for on-NIC local RDMA (§4.2:
        HyperLoop creates an additional QP per replica for local CAS
        and memory-copy operations)."""
        self.hw.connect(self.device.nic.name, self.qpn)

    # -- posting ------------------------------------------------------------------

    def post_send(self, wqe: Wqe, defer_ownership: bool = False) -> int:
        """Serialize one WQE into the send ring and ring the doorbell.

        Returns the absolute slot index. With ``defer_ownership`` the
        VALID flag is left as the caller set it (HyperLoop driver
        only); the stock driver always grants ownership at post time.
        """
        if defer_ownership and not self.device.hyperloop:
            raise PermissionError(
                "deferred ownership requires the modified (hyperloop) driver"
            )
        if not defer_ownership:
            wqe.flags |= FLAG_VALID
        index = self._send_posted
        if index - self.hw.send_consumer >= self.send_slots:
            raise RuntimeError(f"send ring overflow on qp{self.qpn}")
        self.device.nic.host_write(self.send_slot_addr(index), wqe.pack())
        self._send_posted += 1
        self.hw.ring_send_doorbell(self._send_posted)
        return index

    def post_send_batch(self, wqes: Sequence[Wqe], defer_ownership: bool = False) -> int:
        """Post several WQEs, one doorbell. Returns first slot index."""
        first = self._send_posted
        for wqe in wqes:
            if not defer_ownership:
                wqe.flags |= FLAG_VALID
            elif not self.device.hyperloop:
                raise PermissionError(
                    "deferred ownership requires the modified (hyperloop) driver"
                )
            index = self._send_posted
            if index - self.hw.send_consumer >= self.send_slots:
                raise RuntimeError(f"send ring overflow on qp{self.qpn}")
            self.device.nic.host_write(self.send_slot_addr(index), wqe.pack())
            self._send_posted += 1
        self.hw.ring_send_doorbell(self._send_posted)
        return first

    def post_send_packed(self, raw: bytes, count: int) -> int:
        """Post ``count`` already-serialized WQEs (ownership flags as
        packed: HyperLoop driver only) that lie back to back in the
        ring — one write (two where the run wraps the ring), one
        doorbell. Returns the first slot index."""
        if not self.device.hyperloop:
            raise PermissionError(
                "deferred ownership requires the modified (hyperloop) driver"
            )
        first = self._send_posted
        if first + count - self.hw.send_consumer > self.send_slots:
            raise RuntimeError(f"send ring overflow on qp{self.qpn}")
        nic = self.device.nic
        split = (self.send_slots - first % self.send_slots) * WQE_SIZE
        if split >= len(raw):
            nic.host_write(self.send_slot_addr(first), raw)
        else:
            nic.host_write(self.send_slot_addr(first), raw[:split])
            nic.host_write(self.send_ring.addr, raw[split:])
        self._send_posted += count
        self.hw.ring_send_doorbell(self._send_posted)
        return first

    def post_recv_packed(self, raw: bytes) -> int:
        """Post one already-serialized receive WQE."""
        index = self._recv_posted
        if index - self.hw.recv_consumer >= self.recv_slots:
            raise RuntimeError(f"recv ring overflow on qp{self.qpn}")
        self.device.nic.host_write(self.recv_slot_addr(index), raw)
        self._recv_posted += 1
        self.hw.ring_recv_doorbell(self._recv_posted)
        return index

    def post_recv(self, wqe: Wqe) -> int:
        """Post one receive WQE. Returns the absolute slot index."""
        wqe.opcode = Opcode.RECV
        wqe.flags |= FLAG_VALID
        index = self._recv_posted
        if index - self.hw.recv_consumer >= self.recv_slots:
            raise RuntimeError(f"recv ring overflow on qp{self.qpn}")
        self.device.nic.host_write(self.recv_slot_addr(index), wqe.pack())
        self._recv_posted += 1
        self.hw.ring_recv_doorbell(self._recv_posted)
        return index

    def advance_send_producer(self, slots: int) -> None:
        """Re-arm ``slots`` already-written send WQEs (one doorbell).

        Ring laps: when WQE programs are lap-invariant (consuming
        WAITs, per-position addresses), the driver re-enables a
        consumed region of the ring without re-serializing anything —
        one MMIO write, which is how HyperLoop keeps replica CPU near
        zero under sustained load.
        """
        if slots < 0:
            raise ValueError("slots must be >= 0")
        new_producer = self.hw.send_producer + slots
        if new_producer - self.hw.send_consumer > self.send_slots:
            raise RuntimeError(f"send ring overflow on qp{self.qpn}")
        self._send_posted = new_producer
        self.hw.ring_send_doorbell(new_producer)

    def advance_recv_producer(self, slots: int) -> None:
        """Re-arm ``slots`` already-written recv WQEs (one doorbell)."""
        if slots < 0:
            raise ValueError("slots must be >= 0")
        new_producer = self.hw.recv_producer + slots
        if new_producer - self.hw.recv_consumer > self.recv_slots:
            raise RuntimeError(f"recv ring overflow on qp{self.qpn}")
        self._recv_posted = new_producer
        self.hw.ring_recv_doorbell(new_producer)

    @staticmethod
    def post_cost(n_wqes: int = 1) -> int:
        """CPU ns a task should charge for posting ``n_wqes``."""
        return POST_COST_NS * n_wqes

    # -- introspection ----------------------------------------------------------------

    @property
    def send_backlog(self) -> int:
        """Posted-but-unexecuted send WQEs."""
        return self._send_posted - self.hw.send_consumer

    @property
    def send_posted(self) -> int:
        return self._send_posted

    @property
    def recv_posted(self) -> int:
        return self._recv_posted

    def __repr__(self) -> str:
        return f"<QueuePair {self.device.nic.name}/qp{self.qpn}>"


class RdmaDevice:
    """Verbs context for one host.

    Parameters
    ----------
    nic:
        The hardware (:class:`~repro.hw.nic.Rnic`).
    hyperloop:
        Run the modified driver (deferred ownership + ring
        registration). The stock driver refuses both.
    """

    def __init__(self, nic: Rnic, hyperloop: bool = False):
        self.nic = nic
        self.hyperloop = hyperloop
        self.qps: List[QueuePair] = []

    @property
    def sim(self):
        return self.nic.sim

    @property
    def memory(self):
        return self.nic.memory

    # -- resources ---------------------------------------------------------------

    def reg_mr(self, region: MemoryRegion, access: int = AccessFlags.LOCAL) -> Mr:
        """Register ``region`` for (remote) access. Returns the MR."""
        reg = self.nic.register(region.addr, region.length, access)
        return Mr(self, region, reg.rkey, access)

    def create_cq(self, name: str = "") -> HwCq:
        return self.nic.create_cq(name=name)

    def create_qp(
        self,
        send_cq: Optional[HwCq] = None,
        recv_cq: Optional[HwCq] = None,
        send_slots: int = 1024,
        recv_slots: int = 1024,
        name: str = "",
    ) -> QueuePair:
        """Allocate rings and create a QP."""
        send_cq = send_cq or self.create_cq(name=f"{name}.scq" if name else "")
        recv_cq = recv_cq or self.create_cq(name=f"{name}.rcq" if name else "")
        send_ring = self.memory.alloc(
            send_slots * WQE_SIZE, label=f"{name or 'qp'}.sring"
        )
        recv_ring = self.memory.alloc(
            recv_slots * WQE_SIZE, label=f"{name or 'qp'}.rring"
        )
        hw = self.nic.create_qp(send_ring, recv_ring, send_cq, recv_cq)
        qp = QueuePair(self, hw, send_ring, recv_ring)
        self.qps.append(qp)
        return qp

    def expose_send_ring(self, qp: QueuePair) -> Mr:
        """Register a QP's send ring as remotely writable (HyperLoop).

        This is the §4.1 mechanism: "we … register the driver metadata
        region itself to be RDMA-accessible (with safety checks) from
        other NICs." The NIC is also told to watch the ring so the
        engine re-examines stalled WQEs when remote bytes land.
        """
        if not self.hyperloop:
            raise PermissionError("ring registration requires the hyperloop driver")
        mr = self.reg_mr(qp.send_ring, AccessFlags.REMOTE_WRITE)
        self.nic.watch_ring(qp.hw, which="send")
        return mr

    # -- convenience builders -------------------------------------------------------

    @staticmethod
    def sge_table_bytes(entries: List[Tuple[int, int]]) -> bytes:
        """Pack an SGE table for SGL-mode WQEs."""
        return pack_sges(entries)

    def __repr__(self) -> str:
        kind = "hyperloop" if self.hyperloop else "stock"
        return f"<RdmaDevice {self.nic.name} ({kind})>"
