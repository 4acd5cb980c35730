"""RDMA NIC (RNIC) model with CORE-Direct-style WAIT chaining.

Faithfulness properties this model preserves (they are what the
paper's mechanism depends on, §4.1):

* **WQEs are bytes in host memory.** Each send/recv ring is a
  :class:`~repro.hw.memory.MemoryRegion` of 64-byte
  :class:`~repro.hw.wqe.Wqe` structs. The engine re-reads a slot at
  execution time, *through the NIC cache*, so an RDMA WRITE that lands
  in a ring changes what the NIC executes — remote work-request
  manipulation is literal, not simulated by fiat.
* **Deferred ownership.** A WQE whose VALID flag is clear stalls the
  send queue until something (a doorbell, or remote bytes landing in
  the ring) makes it valid — the modified-driver behaviour of §4.1.
* **WAIT work requests.** A WAIT WQE blocks its queue until a target
  CQ has accumulated a threshold number of completions, then falls
  through with no wire traffic (CORE-Direct).
* **Volatile write cache.** Inbound WRITE payloads are ACKed from the
  NIC cache before reaching memory. A READ (any length, including the
  0-byte READ gFLUSH issues) drains the cache before responding, which
  is the paper's durability mechanism (§4.2, gFLUSH).
* **In-order RC semantics.** Per-QP, requests execute at the responder
  in posted order and completions are delivered in order.

The CPU is *not* involved anywhere in this module's data path: rings,
doorbells and CQs are manipulated by the driver (see
:mod:`repro.rdma.verbs`), and whether a CPU task is needed per message
is decided entirely by how the layers above use these pieces.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from .wqe import (
    Cqe,
    FLAG_SGL,
    Opcode,
    WC_REMOTE_ACCESS_ERROR,
    WC_RETRY_EXCEEDED,
    WC_SUCCESS,
    Wqe,
    WQE_SIZE,
    decode_cached,
)
from ..obs.trace import TRACER
from ..sim import Event, Simulator, Store
from .memory import MemoryRegion, MemorySystem, WriteCache
from .network import Fabric

__all__ = ["NicParams", "Rnic", "NicQp", "HwCq", "SGE_SIZE", "pack_sges", "AccessFlags"]


SGE_SIZE = 12  # packed (addr: u64, length: u32)


def pack_sges(entries: List[Tuple[int, int]]) -> bytes:
    """Pack a scatter/gather list for an SGL-mode WQE."""
    return b"".join(struct.pack("<QI", addr, length) for addr, length in entries)


def _unpack_sges(data: bytes, count: int) -> List[Tuple[int, int]]:
    out = []
    for i in range(count):
        addr, length = struct.unpack_from("<QI", data, i * SGE_SIZE)
        out.append((addr, length))
    return out


class AccessFlags:
    """Memory-registration permissions (subset of ibv_access_flags)."""

    LOCAL = 0x1
    REMOTE_WRITE = 0x2
    REMOTE_READ = 0x4
    REMOTE_ATOMIC = 0x8
    ALL_REMOTE = REMOTE_WRITE | REMOTE_READ | REMOTE_ATOMIC


@dataclass
class NicParams:
    """RNIC timing/behaviour constants (ConnectX-3-flavoured)."""

    gbps: float = 56.0
    wqe_process_ns: int = 150
    """Send-engine time to fetch, parse and launch one WQE."""
    rx_process_ns: int = 150
    """Receive path time to validate and steer one inbound message."""
    wait_fallthrough_ns: int = 100
    """Extra latency for a WAIT WQE whose condition is already met."""
    atomic_ns: int = 250
    """Additional responder time for an atomic (CAS) operation."""
    cache_capacity: int = 1 << 20
    """Volatile write-cache size in bytes."""
    cache_drain_ns: int = 20_000
    """Lazy-drain period: how long ACKed data may sit volatile."""
    qp_cache_entries: int = 256
    """On-NIC connection-state (ICM) cache: QP contexts resident on
    the adapter. Touching more QPs than fit thrashes the cache and
    every miss fetches context over PCIe — the RNIC scalability
    effect §7 cites ('the scalability of the RDMA NICs decreases with
    the number of active write-QPs')."""
    qp_cache_miss_ns: int = 800
    """Context fetch penalty per QP-cache miss."""
    retransmit_timeout_ns: int = 500_000
    """RC transport retry timer: how long an unacked request waits
    before being retransmitted. Armed only on a lossy fabric (a fault
    filter has been installed) — lossless runs never schedule it."""
    retransmit_limit: int = 64
    """Retries before the requester gives up and completes the WQE
    with ``WC_RETRY_EXCEEDED`` (ibv retry_cnt, scaled up: the
    simulator models partitions that heal)."""
    reply_cache_entries: int = 256
    """How many executed-request replies the responder keeps for
    duplicate re-ACKs (lossy fabrics only). Bounds responder memory;
    a retransmit of anything older is silently ignored — the
    requester would have retry-exceeded long before."""


@dataclass
class _WireMsg:
    """One RC transport message (request or response)."""

    kind: str  # send | write | write_imm | read | cas | ack | resp
    src_qpn: int
    dst_qpn: int
    seq: int = 0
    payload: bytes = b""
    addr: int = 0
    length: int = 0
    rkey: int = 0
    compare: int = 0
    swap: int = 0
    imm: Optional[int] = None
    status: int = WC_SUCCESS


@dataclass
class _Registration:
    """One rkey's scope and permissions."""

    rkey: int
    addr: int
    length: int
    access: int

    def covers(self, addr: int, length: int, needed: int) -> bool:
        in_range = self.addr <= addr and addr + length <= self.addr + self.length
        return in_range and (self.access & needed) == needed


class HwCq:
    """A hardware completion queue.

    Tracks the all-time number of CQEs pushed (``completions_total``),
    which is what WAIT WQEs compare their thresholds against, and
    offers both polling (:meth:`poll`) and an event channel
    (:meth:`next_event`) for software consumers.
    """

    def __init__(self, sim: Simulator, cqn: int, name: str = ""):
        self.sim = sim
        self.cqn = cqn
        self.name = name or f"cq{cqn}"
        self.entries: List[Cqe] = []
        self.completions_total = 0
        self.wait_consumed = 0  # completions consumed by hardware WAITs
        self._threshold_waiters: List[Tuple[int, Event]] = []
        # The armed channel event, if any: never more than one (see
        # next_event), however many consumers wait on it.
        self._channel_waiters: List[Event] = []
        self._channel_name = self.name + ".channel"

    def push(self, cqe: Cqe) -> None:
        """Deliver a completion; wakes threshold waiters and channel."""
        self.entries.append(cqe)
        self.completions_total += 1
        if self._threshold_waiters:
            still_waiting = []
            for threshold, event in self._threshold_waiters:
                if self.completions_total >= threshold:
                    event.succeed(self.completions_total)
                else:
                    still_waiting.append((threshold, event))
            self._threshold_waiters = still_waiting
        if self._channel_waiters:
            # Wake-then-poll: every waiter on the channel event gets
            # the pending-entry count and races to poll(). Handing a
            # CQE to more than one waiter would double-deliver a
            # completion the first consumer may already have drained.
            self._channel_waiters.pop().succeed(len(self.entries))

    def poll(self, max_entries: int = 16) -> List[Cqe]:
        """Drain up to ``max_entries`` completions (non-blocking)."""
        taken, self.entries = self.entries[:max_entries], self.entries[max_entries:]
        return taken

    def next_event(self) -> Event:
        """Event firing at the next :meth:`push` (completion channel).

        Wake-then-poll semantics: the event's value is the number of
        entries pending at wake time, never a CQE — consumers must
        :meth:`poll` to claim completions, and with several concurrent
        waiters only the poll winner gets each CQE. If entries are
        already pending the event is pre-triggered.

        While the channel is armed every call returns the same event:
        a consumer that asks again before anything arrived (it waits on
        several CQs and another one woke it) parks nothing new here.
        """
        if self.entries:
            return Event(self.sim, self._channel_name).succeed(len(self.entries))
        if not self._channel_waiters:
            self._channel_waiters.append(Event(self.sim, self._channel_name))
        return self._channel_waiters[0]

    def invalidate_waiters(self) -> int:
        """Drop threshold waiters and void unfulfilled WAIT
        reservations (NIC crash: WAIT state is on-NIC volatile, so a
        pre-crash WAIT must not be satisfiable by post-restart
        completions against its stale reservation). Channel waiters
        are software-side and survive — the driver's ``next_event``
        legitimately wakes on post-restart completions. Returns the
        number of waiters dropped."""
        dropped = len(self._threshold_waiters)
        self._threshold_waiters.clear()
        if self.wait_consumed > self.completions_total:
            self.wait_consumed = self.completions_total
        return dropped

    def threshold_event(self, threshold: int) -> Event:
        """Event firing once ``completions_total >= threshold`` (WAIT)."""
        event = self.sim.event(name=f"{self.name}.threshold{threshold}")
        if self.completions_total >= threshold:
            event.succeed(self.completions_total)
        else:
            self._threshold_waiters.append((threshold, event))
        return event

    def __repr__(self) -> str:
        return f"<HwCq {self.name} total={self.completions_total} pending={len(self.entries)}>"


@dataclass
class _PendingSend:
    """A launched send-queue WQE awaiting ordered completion."""

    wqe: Wqe
    seq: int
    done: bool = False
    status: int = WC_SUCCESS
    resp_payload: bytes = b""
    # Retransmission state (consulted only on a lossy fabric).
    msg: Optional["_WireMsg"] = None
    nbytes: int = 0
    retries: int = 0


class NicQp:
    """Hardware state of one queue pair (RC).

    Send and receive rings are memory regions holding packed WQEs;
    ``*_producer``/``*_consumer`` are absolute (non-wrapping) indices.
    """

    def __init__(
        self,
        nic: "Rnic",
        qpn: int,
        send_ring: MemoryRegion,
        recv_ring: MemoryRegion,
        send_cq: HwCq,
        recv_cq: HwCq,
    ):
        self.nic = nic
        self.qpn = qpn
        self.send_ring = send_ring
        self.recv_ring = recv_ring
        self.send_slots = send_ring.length // WQE_SIZE
        self.recv_slots = recv_ring.length // WQE_SIZE
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.remote: Optional[Tuple[str, int]] = None  # (host, qpn)
        self.send_producer = 0
        self.send_consumer = 0
        self.recv_producer = 0
        self.recv_consumer = 0
        # Messages waiting for the receive stages; ``_rx_idle`` says
        # the stages are empty and an arrival may enter them directly.
        self.ingress: Store = Store(nic.sim, name=f"qp{qpn}.ingress")
        self._rx_idle = False
        self._kick_event: Optional[Event] = None
        self._recv_kick_event: Optional[Event] = None
        # Kick events are re-created every engine lap; formatting their
        # names per lap shows up in profiles, so build them once.
        self._kick_name = f"qp{qpn}.kick"
        self._rkick_name = f"qp{qpn}.rkick"
        self._run_name = f"qp{qpn}.run"
        # Batched-run state (fast dispatch only): while a run of
        # consecutive ready non-WAIT WQEs drains, the tx engine
        # generator sleeps on ``_run_event`` and these fields carry the
        # WQE currently in flight between the chain callbacks.
        self._tx_proc = None
        self._run_event: Optional[Event] = None
        self._run_wqe: Optional[Wqe] = None
        self._run_from = 0
        self._next_seq = 0
        self._pending: List[_PendingSend] = []
        self._engine_started = False
        # RC transport reliability (exercised only on a lossy fabric):
        # requests must execute in posted order exactly once, so the
        # responder side tracks the next expected sequence number and
        # keeps recent replies for duplicate-request re-ACKs.
        self._rx_next_seq = 0
        self._reply_cache: "OrderedDict[int, Tuple[_WireMsg, int]]" = OrderedDict()

    # -- driver-facing ---------------------------------------------------------

    def connect(self, remote_host: str, remote_qpn: int) -> None:
        """Transition to RTS against a remote QP (or loopback)."""
        self.remote = (remote_host, remote_qpn)
        if not self._engine_started:
            self._engine_started = True
            self._tx_proc = self.nic.sim.spawn(
                self._send_engine(), name=f"{self.nic.name}/qp{self.qpn}/tx"
            )
            # The receive stages start like a message just finished:
            # one hop, then whatever queued before the QP was connected.
            self.nic.sim.call_in(0, self._rx_next)

    def ring_send_doorbell(self, producer: int) -> None:
        """Tell the NIC the send ring now holds ``producer`` WQEs."""
        if producer < self.send_producer:
            raise ValueError("doorbell may not move backwards")
        self.send_producer = producer
        if TRACER.enabled:
            TRACER.record(
                self.nic.sim.now,
                "i",
                "nic",
                "doorbell.send",
                pid=self.nic.name,
                tid=f"qp{self.qpn}/tx",
                args={"producer": producer},
            )
            TRACER.count("nic.doorbells")
        self.kick()

    def ring_recv_doorbell(self, producer: int) -> None:
        """Tell the NIC the recv ring now holds ``producer`` WQEs."""
        if producer < self.recv_producer:
            raise ValueError("doorbell may not move backwards")
        self.recv_producer = producer
        if TRACER.enabled:
            TRACER.record(
                self.nic.sim.now,
                "i",
                "nic",
                "doorbell.recv",
                pid=self.nic.name,
                tid=f"qp{self.qpn}/rx",
                args={"producer": producer},
            )
            TRACER.count("nic.doorbells")
        if self._recv_kick_event is not None and not self._recv_kick_event.triggered:
            self._recv_kick_event.succeed()

    def kick(self) -> None:
        """Wake the send engine to (re-)examine the ring."""
        if self._kick_event is not None and not self._kick_event.triggered:
            self._kick_event.succeed()

    # -- engine helpers ----------------------------------------------------------

    def _await_kick(self) -> Event:
        if self._kick_event is None or self._kick_event.triggered:
            self._kick_event = Event(self.nic.sim, self._kick_name)
        return self._kick_event

    def _await_recv_kick(self) -> Event:
        if self._recv_kick_event is None or self._recv_kick_event.triggered:
            self._recv_kick_event = Event(self.nic.sim, self._rkick_name)
        return self._recv_kick_event

    def _read_send_wqe(self, index: int) -> Wqe:
        # Hot path: the send engine re-reads the slot every lap while
        # polling for VALID, and chained groups re-execute unchanged
        # descriptors constantly. ``decode_cached`` turns repeat bytes
        # into a dict hit; the returned Wqe is shared and read-only.
        offset = (index % self.send_slots) * WQE_SIZE
        raw = self.nic.cache.read_view(self.send_ring.addr + offset, WQE_SIZE)
        return decode_cached(raw)

    def _read_recv_wqe(self, index: int) -> Wqe:
        offset = (index % self.recv_slots) * WQE_SIZE
        raw = self.nic.cache.read_view(self.recv_ring.addr + offset, WQE_SIZE)
        return decode_cached(raw)

    def _gather(self, wqe: Wqe) -> bytes:
        """Collect a send/write payload, honouring SGL mode."""
        if wqe.flags & FLAG_SGL:
            table = self.nic.cache.read(wqe.local_addr, wqe.length * SGE_SIZE)
            parts = [
                self.nic.cache.read(addr, length)
                for addr, length in _unpack_sges(table, wqe.length)
            ]
            return b"".join(parts)
        return self.nic.cache.read(wqe.local_addr, wqe.length)

    def _scatter(self, wqe: Wqe, payload: bytes) -> None:
        """Place an inbound payload per a recv WQE, honouring SGL mode."""
        if wqe.flags & FLAG_SGL:
            table = self.nic.cache.read(wqe.local_addr, wqe.length * SGE_SIZE)
            cursor = 0
            for addr, length in _unpack_sges(table, wqe.length):
                chunk = payload[cursor : cursor + length]
                if not chunk:
                    break
                self.nic.dma_write(addr, chunk)
                cursor += len(chunk)
        else:
            self.nic.dma_write(wqe.local_addr, payload[: wqe.length])

    # -- send engine --------------------------------------------------------------

    def _send_engine(self) -> Generator:
        sim = self.nic.sim
        params = self.nic.params
        while True:
            if self.nic.halted:
                yield self.nic.halt_event()
                continue
            if self.send_consumer >= self.send_producer:
                yield self._await_kick()
                continue
            wqe = self._read_send_wqe(self.send_consumer)
            if not wqe.valid:
                # Deferred ownership: stall until the ring changes
                # (doorbell, or remote bytes landing in the ring).
                yield self._await_kick()
                continue
            if wqe.opcode == Opcode.WAIT:
                # Consuming semantics (CORE-Direct): the WAIT absorbs
                # ``threshold`` completions from the target CQ, so
                # pre-posted rounds are lap-invariant and rings can be
                # re-armed with a doorbell alone.
                cq = self.nic.cqs[wqe.wait_cqn]
                need = max(wqe.wait_threshold, 1)
                # Reserve the completions *now*: concurrent WAITs on a
                # shared CQ must each claim distinct completions, so
                # the consumed counter advances at arrival, not at
                # trigger time.
                target = cq.wait_consumed + need
                cq.wait_consumed = target
                wait_from = sim.now
                if cq.completions_total < target:
                    yield cq.threshold_event(target)
                yield sim.timeout(params.wait_fallthrough_ns)
                if TRACER.enabled:
                    TRACER.record(
                        wait_from,
                        "X",
                        "nic",
                        "WAIT",
                        pid=self.nic.name,
                        tid=f"qp{self.qpn}/tx",
                        dur=sim.now - wait_from,
                        args={"wr_id": wqe.wr_id, "threshold": target},
                    )
                    TRACER.count("nic.wait_triggers")
                self.send_consumer += 1
                continue
            if sim._fast_dispatch:
                # Batched run: drain this and every consecutive ready
                # non-WAIT WQE behind it in one engine wakeup. The
                # chain callbacks (_exec_fire/_exec_complete) mirror
                # the claimed-timeout hops of the per-WQE path below
                # push for push, so execution/launch times, context
                # penalties, and trace records are identical — the
                # generator just isn't resumed per WQE. It wakes here
                # again at the first boundary (empty ring, invalid
                # slot, WAIT, or halt) and re-evaluates the loop head
                # at exactly the time the per-WQE path would.
                yield self._start_run(wqe)
                continue
            exec_from = sim.now
            yield sim.timeout(
                params.wqe_process_ns + self.nic.qp_context_penalty(self.qpn)
            )
            self._launch(wqe)
            if TRACER.enabled:
                TRACER.record(
                    exec_from,
                    "X",
                    "nic",
                    Opcode.NAMES.get(wqe.opcode, f"op{wqe.opcode}"),
                    pid=self.nic.name,
                    tid=f"qp{self.qpn}/tx",
                    dur=sim.now - exec_from,
                    args={"wr_id": wqe.wr_id, "len": wqe.length},
                )
                TRACER.count("nic.wqe_executed")
            self.send_consumer += 1

    # -- batched send run (fast dispatch) -----------------------------------------

    def _start_run(self, wqe: Wqe) -> Event:
        """Begin a batched run with ``wqe``; returns the engine's sleep
        event. Mirrors ``yield sim.timeout(process + penalty)``: the
        processing-complete trigger is scheduled *now*, penalty
        assessed at the same instant the per-WQE path would."""
        sim = self.nic.sim
        event = Event(sim, self._run_name)
        self._run_event = event
        self._run_wqe = wqe
        self._run_from = sim.now
        delay = self.nic.params.wqe_process_ns + self.nic.qp_context_penalty(self.qpn)
        sim._push(sim.now + delay, self._exec_fire, ())
        return event

    def _exec_fire(self) -> None:
        """Processing-time elapsed for the WQE in flight.

        Mirrors the claimed Timeout._fire: verify the engine is still
        parked on this run (an interrupt abandons it, exactly like an
        unclaimed fire), then hop through the queue so the launch runs
        in the slot the per-WQE path's resume would occupy."""
        proc = self._tx_proc
        event = self._run_event
        if event is None or proc._waiting_on is not event:
            self._run_event = None
            self._run_wqe = None
            return
        self.nic.sim._push(self.nic.sim.now, self._exec_complete, ())

    def _exec_complete(self) -> None:
        """Launch the in-flight WQE and extend or end the run.

        This body is the per-WQE path's resume slot: launch, trace,
        consumer advance, then the loop-head checks — all in one
        dispatch, in the same order the generator performs them. A
        ready non-WAIT successor chains the next _exec_fire without
        waking the generator; any boundary resumes it synchronously so
        the WAIT/halt/kick handling runs at the identical point."""
        sim = self.nic.sim
        wqe = self._run_wqe
        self._run_wqe = None
        self._launch(wqe)
        if TRACER.enabled:
            TRACER.record(
                self._run_from,
                "X",
                "nic",
                Opcode.NAMES.get(wqe.opcode, f"op{wqe.opcode}"),
                pid=self.nic.name,
                tid=f"qp{self.qpn}/tx",
                dur=sim.now - self._run_from,
                args={"wr_id": wqe.wr_id, "len": wqe.length},
            )
            TRACER.count("nic.wqe_executed")
        self.send_consumer += 1
        # Loop-head checks, in the generator's order.
        if not self.nic.halted and self.send_consumer < self.send_producer:
            nxt = self._read_send_wqe(self.send_consumer)
            if nxt.valid and nxt.opcode != Opcode.WAIT:
                self._run_wqe = nxt
                self._run_from = sim.now
                delay = self.nic.params.wqe_process_ns + self.nic.qp_context_penalty(
                    self.qpn
                )
                sim._push(sim.now + delay, self._exec_fire, ())
                return
        # Boundary: wake the engine generator in this same dispatch so
        # it re-runs its loop head (halt gate, kick wait, WAIT branch)
        # exactly where the per-WQE path would.
        proc = self._tx_proc
        event = self._run_event
        self._run_event = None
        if proc._waiting_on is event:
            proc._waiting_on = None
            proc._resume(None, None)

    def _launch(self, wqe: Wqe) -> None:
        """Transmit one non-WAIT WQE; completion arrives later in order."""
        pending = _PendingSend(wqe=wqe, seq=-1)
        self._pending.append(pending)
        if wqe.opcode == Opcode.NOP:
            # Never touches the wire: no sequence number, or the
            # responder's in-order check would see a gap.
            pending.done = True
            self._drain_pending()
            return
        seq = self._next_seq
        self._next_seq += 1
        pending.seq = seq
        remote_host, remote_qpn = self.remote
        if wqe.opcode == Opcode.SEND:
            payload = self._gather(wqe)
            msg = _WireMsg("send", self.qpn, remote_qpn, seq, payload=payload)
            nbytes = len(payload)
        elif wqe.opcode in (Opcode.WRITE, Opcode.WRITE_IMM):
            payload = self._gather(wqe)
            kind = "write_imm" if wqe.opcode == Opcode.WRITE_IMM else "write"
            msg = _WireMsg(
                kind,
                self.qpn,
                remote_qpn,
                seq,
                payload=payload,
                addr=wqe.remote_addr,
                rkey=wqe.rkey,
                imm=wqe.imm if wqe.opcode == Opcode.WRITE_IMM else None,
            )
            nbytes = len(payload)
        elif wqe.opcode == Opcode.READ:
            msg = _WireMsg(
                "read",
                self.qpn,
                remote_qpn,
                seq,
                addr=wqe.remote_addr,
                length=wqe.length,
                rkey=wqe.rkey,
            )
            nbytes = 0
        elif wqe.opcode == Opcode.CAS:
            msg = _WireMsg(
                "cas",
                self.qpn,
                remote_qpn,
                seq,
                addr=wqe.remote_addr,
                rkey=wqe.rkey,
                compare=wqe.compare,
                swap=wqe.swap,
            )
            nbytes = 8
        else:
            raise ValueError(f"send engine cannot execute {wqe!r}")
        if self.nic.fabric.lossy:
            pending.msg = msg
            pending.nbytes = nbytes
            self.nic.sim.call_in(
                self.nic.params.retransmit_timeout_ns, self._retransmit_check, seq
            )
        self.nic.transmit(remote_host, msg, nbytes)

    def _retransmit_check(self, seq: int) -> None:
        """RC retry timer: re-send an unacked request or give up."""
        pending = None
        for candidate in self._pending:
            if candidate.seq == seq:
                pending = candidate
                break
        if pending is None or pending.done:
            return
        nic = self.nic
        if nic.halted:
            # A stalled/crashed NIC retransmits nothing; re-check after
            # another period so a resumed NIC picks the retry back up.
            nic.sim.call_in(nic.params.retransmit_timeout_ns, self._retransmit_check, seq)
            return
        if pending.retries >= nic.params.retransmit_limit:
            pending.done = True
            pending.status = WC_RETRY_EXCEEDED
            if TRACER.enabled:
                TRACER.count("nic.retry_exceeded")
            self._drain_pending()
            return
        pending.retries += 1
        if TRACER.enabled:
            TRACER.record(
                nic.sim.now,
                "i",
                "fault",
                "retransmit",
                pid=nic.name,
                tid=f"qp{self.qpn}/tx",
                args={"seq": seq, "retry": pending.retries},
            )
            TRACER.count("nic.retransmits")
        nic.sim.call_in(nic.params.retransmit_timeout_ns, self._retransmit_check, seq)
        nic.transmit(self.remote[0], pending.msg, pending.nbytes)

    def _on_response(self, msg: _WireMsg) -> None:
        """ACK/READ-response/CAS-response arrived for seq ``msg.seq``."""
        for pending in self._pending:
            if pending.seq == msg.seq:
                pending.done = True
                pending.status = msg.status
                pending.resp_payload = msg.payload
                break
        self._drain_pending()

    def _drain_pending(self) -> None:
        """Complete send WQEs strictly in order."""
        while self._pending and self._pending[0].done:
            pending = self._pending.pop(0)
            wqe = pending.wqe
            if wqe.opcode == Opcode.READ and pending.status == WC_SUCCESS:
                if pending.resp_payload:
                    self.nic.dma_write(wqe.local_addr, pending.resp_payload)
            elif wqe.opcode == Opcode.CAS and pending.status == WC_SUCCESS:
                self.nic.dma_write(wqe.local_addr, pending.resp_payload)
            if wqe.signaled or pending.status != WC_SUCCESS:
                self.send_cq.push(
                    Cqe(
                        wr_id=wqe.wr_id,
                        opcode=wqe.opcode,
                        status=pending.status,
                        qpn=self.qpn,
                        byte_len=wqe.length,
                    )
                )

    # -- receive stages --------------------------------------------------------------
    #
    # arrive -> halt gate -> sequence check -> rx_process -> per-kind
    # action -> next. One message per QP is in the stages at a time; the
    # rest queue in ``ingress``. The stages are plain callbacks handed
    # on through the event queue: one hop where a message is taken up,
    # a timer and a hop behind it where the model charges time (see
    # _rx_after). docs/INTERNALS.md, "NIC receive stages", has the table.

    def _rx_arrive(self, msg: _WireMsg) -> None:
        """A message came off the wire for this QP."""
        if self._rx_idle:
            self._rx_idle = False
            self.nic.sim.call_in(0, self._rx_gate, msg)
        else:
            self.ingress.put(msg)

    def _rx_next(self) -> None:
        """The stages are free: take up the next queued message, or go
        idle until one arrives."""
        msg: Optional[_WireMsg] = self.ingress.try_get()
        if msg is None:
            self._rx_idle = True
        else:
            self.nic.sim.call_in(0, self._rx_gate, msg)

    def _rx_after(self, delay: int, stage, *args: Any) -> None:
        """Enter ``stage`` once ``delay`` ns of processing have passed:
        a timer entry, and the stage one hop behind it at the time it
        fires — what _exec_fire -> _exec_complete is on the send side.
        Other work queued for that instant runs in between."""
        sim = self.nic.sim
        sim.call_in(delay, sim.call_in, 0, stage, *args)

    def _rx_gate(self, msg: _WireMsg) -> None:
        if self.nic.halted:
            # Stalled NIC: hold the message until resume (crashed NICs
            # never enqueue — _on_wire drops at the port). Checked once
            # per message, here: past the gate a message runs to the end.
            sim = self.nic.sim
            self.nic.halt_event().add_callback(
                lambda _resumed: sim.call_in(0, self._rx_check, msg)
            )
        else:
            self._rx_check(msg)

    def _rx_check(self, msg: _WireMsg) -> None:
        if msg.kind in ("ack", "resp"):
            self._on_response(msg)
        elif msg.seq != self._rx_next_seq:
            # RC in-order exactly-once execution. A replayed seq is a
            # retransmit of an executed request whose reply was lost:
            # re-send the cached reply without re-executing. A future
            # seq is a gap the requester will retransmit into
            # (go-back-N); drop it silently.
            if msg.seq < self._rx_next_seq:
                cached = self._reply_cache.get(msg.seq)
                if cached is not None:
                    self.nic.transmit(self.remote[0], cached[0], cached[1])
                if TRACER.enabled:
                    TRACER.count("nic.rx_duplicates")
            elif TRACER.enabled:
                TRACER.count("nic.rx_out_of_order")
        else:
            self._rx_next_seq += 1
            delay = self.nic.params.rx_process_ns + self.nic.qp_context_penalty(self.qpn)
            self._rx_after(delay, self._rx_execute, msg, self.nic.sim.now)
            return
        self._rx_next()

    def _rx_execute(self, msg: _WireMsg, rx_from: int) -> None:
        """Validated and steered: do what the message asks."""
        if TRACER.enabled:
            TRACER.record(
                rx_from,
                "X",
                "nic",
                f"rx.{msg.kind}",
                pid=self.nic.name,
                tid=f"qp{self.qpn}/rx",
                dur=self.nic.sim.now - rx_from,
                args={"len": len(msg.payload)},
            )
            TRACER.count("nic.rx_messages")
        if msg.kind == "write":
            self._rx_write(msg, imm=False)
            self._rx_next()
        elif msg.kind == "write_imm":
            self._rx_deliver(msg, self._rx_write(msg, imm=True))
        elif msg.kind == "send":
            self._rx_deliver(msg, True)
        elif msg.kind == "read":
            self._rx_after(msg.length // 64, self._rx_read, msg)
        elif msg.kind == "cas":
            self._rx_after(self.nic.params.atomic_ns, self._rx_cas, msg)
        else:
            raise ValueError(f"unknown wire message kind {msg.kind!r}")

    def _reply(self, msg: _WireMsg, reply: _WireMsg, nbytes: int) -> None:
        remote_host, _ = self.remote
        if self.nic.fabric.lossy:
            cache = self._reply_cache
            cache[msg.seq] = (reply, nbytes)
            while len(cache) > self.nic.params.reply_cache_entries:
                cache.popitem(last=False)
        self.nic.transmit(remote_host, reply, nbytes)

    def _rx_write(self, msg: _WireMsg, imm: bool) -> bool:
        ok = self.nic.check_remote(msg.rkey, msg.addr, len(msg.payload), AccessFlags.REMOTE_WRITE)
        if ok:
            self.nic.dma_write(msg.addr, msg.payload)
        status = WC_SUCCESS if ok else WC_REMOTE_ACCESS_ERROR
        if not imm:
            self._reply(msg, _WireMsg("ack", self.qpn, msg.src_qpn, msg.seq, status=status), 0)
        return ok

    def _rx_deliver(self, msg: _WireMsg, ok: bool) -> None:
        """Consume a recv WQE for a SEND or WRITE_IMM: CQE, then the
        ack. A SEND's payload is scattered per the WQE; a WRITE_IMM's
        has landed already (``ok``: whether it was allowed to)."""
        if self.recv_consumer >= self.recv_producer:
            # Ring dry: look again one hop after the recv doorbell rings.
            sim = self.nic.sim
            self._await_recv_kick().add_callback(
                lambda _rung: sim.call_in(0, self._rx_deliver, msg, ok)
            )
            return
        wqe = self._read_recv_wqe(self.recv_consumer)
        self.recv_consumer += 1
        if msg.kind == "send":
            self._scatter(wqe, msg.payload)
        status = WC_SUCCESS if ok else WC_REMOTE_ACCESS_ERROR
        self.recv_cq.push(
            Cqe(
                wr_id=wqe.wr_id,
                opcode=Opcode.SEND if msg.kind == "send" else Opcode.WRITE_IMM,
                status=status,
                qpn=self.qpn,
                byte_len=len(msg.payload),
                imm=msg.imm,
            )
        )
        self._reply(msg, _WireMsg("ack", self.qpn, msg.src_qpn, msg.seq, status=status), 0)
        self._rx_next()

    def _rx_read(self, msg: _WireMsg) -> None:
        if self.nic.check_remote(msg.rkey, msg.addr, msg.length, AccessFlags.REMOTE_READ):
            # The durability mechanism (§4.2): a READ — including the
            # 0-byte READ issued by gFLUSH — drains the volatile cache
            # before the response, so the requester's completion
            # implies all prior WRITEs on this NIC have reached the
            # memory (persistence) domain.
            self.nic.cache.flush_all()
            data = self.nic.memory.read(msg.addr, msg.length)
            reply = _WireMsg("resp", self.qpn, msg.src_qpn, msg.seq, payload=data)
            self._reply(msg, reply, msg.length)
        else:
            self._reply_denied(msg)
        self._rx_next()

    def _rx_cas(self, msg: _WireMsg) -> None:
        if self.nic.check_remote(msg.rkey, msg.addr, 8, AccessFlags.REMOTE_ATOMIC):
            self.nic.cache.flush_range(msg.addr, 8)
            original = self.nic.memory.read(msg.addr, 8)
            if original == msg.compare.to_bytes(8, "little"):
                self.nic.memory.write(msg.addr, msg.swap.to_bytes(8, "little"))
            reply = _WireMsg("resp", self.qpn, msg.src_qpn, msg.seq, payload=original)
            self._reply(msg, reply, 8)
        else:
            self._reply_denied(msg)
        self._rx_next()

    def _reply_denied(self, msg: _WireMsg) -> None:
        self._reply(
            msg,
            _WireMsg("resp", self.qpn, msg.src_qpn, msg.seq, status=WC_REMOTE_ACCESS_ERROR),
            0,
        )

    def __repr__(self) -> str:
        return (
            f"<NicQp {self.nic.name}/qp{self.qpn} "
            f"tx={self.send_consumer}/{self.send_producer} "
            f"rx={self.recv_consumer}/{self.recv_producer}>"
        )


class Rnic:
    """One host's RDMA NIC: QPs, CQs, rkey table, cache, wire hookup."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        memory: MemorySystem,
        fabric: Fabric,
        params: Optional[NicParams] = None,
    ):
        self.sim = sim
        self.name = name
        self.memory = memory
        self.params = params or NicParams()
        self.cache = WriteCache(memory, capacity=self.params.cache_capacity)
        self.port = fabric.attach(name, gbps=self.params.gbps)
        self.port.receive = self._on_wire
        self.fabric = fabric
        self.qps: Dict[int, NicQp] = {}
        self.cqs: Dict[int, HwCq] = {}
        self._next_qpn = 1
        self._next_cqn = 1
        self._next_rkey = 0x1000
        self._registrations: Dict[int, _Registration] = {}
        self._watched_rings: List[Tuple[int, int, NicQp]] = []
        self._drain_scheduled = False
        self._hot_qps: "OrderedDict[int, None]" = OrderedDict()
        self.qp_cache_misses = 0
        # Fault state: ``halted`` pauses the engines (stall or crash),
        # ``crashed`` additionally drops inbound wire traffic and marks
        # volatile state lost. Engines check ``halted`` once per lap.
        self.halted = False
        self.crashed = False
        self.crashes = 0  # how often crash() has hit: stale-handle checks
        self._resume_event: Optional[Event] = None
        self._halt_name = name + ".halt"
        self.rx_dropped_while_crashed = 0

    # -- object creation -----------------------------------------------------------

    def create_cq(self, name: str = "") -> HwCq:
        cq = HwCq(self.sim, self._next_cqn, name=name or f"{self.name}.cq{self._next_cqn}")
        self.cqs[cq.cqn] = cq
        self._next_cqn += 1
        return cq

    def create_qp(
        self,
        send_ring: MemoryRegion,
        recv_ring: MemoryRegion,
        send_cq: HwCq,
        recv_cq: HwCq,
    ) -> NicQp:
        qp = NicQp(self, self._next_qpn, send_ring, recv_ring, send_cq, recv_cq)
        self.qps[qp.qpn] = qp
        self._next_qpn += 1
        return qp

    def register(self, addr: int, length: int, access: int) -> _Registration:
        """Register a memory range; returns the registration (rkey)."""
        self.memory._check(addr, length)
        reg = _Registration(self._next_rkey, addr, length, access)
        self._registrations[reg.rkey] = reg
        self._next_rkey += 1
        return reg

    def deregister(self, rkey: int) -> None:
        self._registrations.pop(rkey, None)

    def watch_ring(self, qp: NicQp, which: str = "send") -> None:
        """Kick ``qp``'s engine when DMA lands in its ring (HyperLoop).

        This models the NIC re-fetching descriptors: once remote bytes
        change a pre-posted WQE, the stalled engine re-examines it.
        """
        ring = qp.send_ring if which == "send" else qp.recv_ring
        self._watched_rings.append((ring.addr, ring.end, qp))

    # -- data movement ----------------------------------------------------------------

    def check_remote(self, rkey: int, addr: int, length: int, needed: int) -> bool:
        """Validate an inbound remote access against the rkey table."""
        reg = self._registrations.get(rkey)
        return reg is not None and reg.covers(addr, length, needed)

    def qp_context_penalty(self, qpn: int) -> int:
        """Nanoseconds of extra processing for touching ``qpn``.

        Zero when the QP context is resident in the on-NIC cache;
        a PCIe context fetch otherwise (LRU model).
        """
        if qpn in self._hot_qps:
            self._hot_qps.move_to_end(qpn)
            if TRACER.enabled:
                TRACER.count("nic.qp_cache_hits")
            return 0
        self.qp_cache_misses += 1
        if TRACER.enabled:
            TRACER.count("nic.qp_cache_misses")
        self._hot_qps[qpn] = None
        if len(self._hot_qps) > self.params.qp_cache_entries:
            self._hot_qps.popitem(last=False)
        return self.params.qp_cache_miss_ns

    def dma_write(self, addr: int, data: bytes) -> None:
        """NIC-initiated write: lands in the volatile cache first."""
        if not data:
            return
        self.cache.write(addr, data)
        self._schedule_drain()
        end = addr + len(data)
        for ring_start, ring_end, qp in self._watched_rings:
            if addr < ring_end and ring_start < end:
                qp.kick()

    def host_write(self, addr: int, data: bytes) -> None:
        """CPU store to a region the NIC may also be caching.

        Drains overlapping cached entries first so the engine's
        cache-overlaid reads cannot resurrect stale bytes over a newer
        CPU write (the driver re-posting rings uses this).
        """
        self.cache.flush_range(addr, len(data))
        self.memory.write(addr, data)

    def _schedule_drain(self) -> None:
        if self._drain_scheduled:
            return
        self._drain_scheduled = True
        self.sim.call_in(self.params.cache_drain_ns, self._lazy_drain)

    def _lazy_drain(self) -> None:
        self._drain_scheduled = False
        # A READ-triggered flush_all (or host_write flush) may already
        # have drained everything; skip the redundant walk then.
        if self.cache.dirty:
            self.cache.flush_all()

    def transmit(self, remote_host: str, msg: _WireMsg, nbytes: int) -> None:
        """Hand a message to the fabric (loopback stays on-NIC)."""
        self.fabric.send(self.name, remote_host, msg, nbytes)

    def _on_wire(self, src: str, msg: _WireMsg) -> None:
        if self.crashed:
            # A crashed NIC is dark: inbound traffic disappears. The
            # sender's retransmission (or failure detection above it)
            # deals with the silence.
            self.rx_dropped_while_crashed += 1
            if TRACER.enabled:
                TRACER.count("nic.rx_dropped_crashed")
            return
        qp = self.qps.get(msg.dst_qpn)
        if qp is None:
            raise RuntimeError(f"{self.name}: message for unknown QP {msg.dst_qpn}")
        qp._rx_arrive(msg)

    # -- failure injection ---------------------------------------------------------------

    def halt_event(self) -> Event:
        """Event firing at the next :meth:`resume` (engine halt gate)."""
        if self._resume_event is None or self._resume_event.triggered:
            self._resume_event = Event(self.sim, self._halt_name)
        return self._resume_event

    def stall(self) -> None:
        """Pause both engines without losing state (firmware hiccup).

        Inbound messages queue in the per-QP ingress stores and WQE
        rings keep their contents; :meth:`resume` continues exactly
        where the NIC stopped.
        """
        self.halted = True
        if TRACER.enabled:
            TRACER.record(self.sim.now, "i", "fault", "nic.stall", pid=self.name)
            TRACER.count("fault.nic.stalls")

    def resume(self) -> None:
        """Resume a stalled NIC; a no-op unless halted."""
        if not self.halted:
            return
        self.halted = False
        self.crashed = False
        if TRACER.enabled:
            TRACER.record(self.sim.now, "i", "fault", "nic.resume", pid=self.name)
            TRACER.count("fault.nic.resumes")
        if self._resume_event is not None and not self._resume_event.triggered:
            self._resume_event.succeed()
        for qp in self.qps.values():
            qp.kick()

    def crash(self) -> int:
        """Crash the NIC: engines halt, all volatile state is lost.

        Drops the volatile write cache (un-flushed inbound WRITEs
        revert to their last durable bytes), the on-NIC QP context
        cache, every queued-but-unprocessed inbound message, and all
        requester-side in-flight request state. Inbound wire traffic
        is discarded until :meth:`restart`. Returns the number of
        write-cache entries lost.
        """
        self.halted = True
        self.crashed = True
        self.crashes += 1
        lost = self.cache.drop()
        self._hot_qps.clear()
        for qp in self.qps.values():
            qp.ingress.clear()
            qp._pending.clear()
            qp._reply_cache.clear()
        # WAIT WQE state is on-NIC and volatile: armed threshold
        # waiters die with the crash and their unfulfilled
        # reservations are voided, or post-restart completions could
        # satisfy a pre-crash WAIT against a stale wait_consumed
        # claim. (stall() deliberately keeps them: state survives a
        # firmware hiccup.)
        for cq in self.cqs.values():
            cq.invalidate_waiters()
        if TRACER.enabled:
            TRACER.record(
                self.sim.now, "i", "fault", "nic.crash", pid=self.name,
                args={"cache_entries_lost": lost},
            )
            TRACER.count("fault.nic.crashes")
        return lost

    def restart(self) -> None:
        """Bring a crashed NIC back up (see :meth:`Host.restart`).

        Volatile state is already gone; rings live in host memory, so
        what the engines see next is whatever survived there. QP
        connection state is host-driver state in this model and is
        retained; real deployments rebuild QPs, which maps to building
        a fresh group over the restarted host.
        """
        self.resume()

    def power_failure(self) -> int:
        """Drop the volatile cache (with the host losing power).

        Returns the number of cache entries lost. The caller is
        responsible for also failing the host's memory/OS state.
        """
        return self.cache.drop()

    def __repr__(self) -> str:
        return f"<Rnic {self.name} qps={len(self.qps)}>"
