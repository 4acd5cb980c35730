"""Network fabric: hosts' NIC ports connected through one switch.

The model matches the paper's testbed shape — every machine has one
56 Gbps port into a single switch. Each port has an egress serializer
(:class:`~repro.sim.TokenBucket`); a message pays:

    egress serialization  +  propagation/switch delay  +  delivery

Ingress contention is folded into the receiving NIC's processing
engine (see :mod:`repro.hw.nic`), which is the dominant term for the
small messages replicated transactions send.

The fabric delivers opaque payloads to registered receive callbacks;
the RDMA transport layer lives above this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..obs.trace import TRACER
from ..sim import Simulator, TokenBucket

__all__ = [
    "Fabric",
    "Port",
    "FaultVerdict",
    "GBPS",
    "wire_bytes",
]

GBPS = 0.125
"""Bytes per nanosecond for one gigabit per second."""

# Per-message wire framing: Ethernet/IB headers + BTH for RoCE-like
# transports. Applied to every packet on the wire.
WIRE_HEADER_BYTES = 58
# Link MTU: larger payloads are segmented and each segment pays headers.
MTU = 4096


def wire_bytes(payload: int) -> int:
    """Bytes actually serialized on the wire for a payload."""
    segments = max(1, -(-payload // MTU))
    return payload + segments * WIRE_HEADER_BYTES


@dataclass
class FaultVerdict:
    """What a fault filter wants done to one wire message.

    The fabric executes the verdict mechanically; policy (who, when,
    with what probability) lives in :mod:`repro.faults`. ``corrupt``
    models payload corruption the way a RoCE receiver experiences it:
    the message pays full wire cost, then fails the ICRC check at the
    destination and is silently discarded — the transport's
    retransmission recovers it. ``duplicates`` delivers that many
    extra copies after the original (switch-level duplication).
    """

    drop: bool = False
    corrupt: bool = False
    extra_delay_ns: int = 0
    duplicates: int = 0


# Spacing between duplicate copies of one message (switch egress
# re-serialization of the duplicated frame).
_DUPLICATE_GAP_NS = 500


class Port:
    """One host's attachment point: an egress serializer plus an id."""

    def __init__(self, fabric: "Fabric", name: str, gbps: float):
        self.fabric = fabric
        self.name = name
        self.gbps = gbps
        self.egress = TokenBucket(
            fabric.sim, bytes_per_ns=gbps * GBPS, name=f"{name}.egress"
        )
        self.receive: Optional[Callable[[str, Any], None]] = None
        self.tx_messages = 0
        self.tx_bytes = 0
        self.rx_messages = 0


class Fabric:
    """A single-switch network connecting named ports.

    Parameters
    ----------
    sim:
        Simulation kernel.
    propagation_ns:
        One-way NIC-to-NIC latency through the switch (cables, PHY,
        switch pipeline). ~1.3 us matches back-to-back ConnectX-3
        through one switch.
    """

    def __init__(self, sim: Simulator, propagation_ns: int = 1300):
        self.sim = sim
        self.propagation_ns = propagation_ns
        self.ports: Dict[str, Port] = {}
        # Fault injection. ``lossy`` is sticky: once a filter has been
        # installed the RC layer keeps arming retransmission timers for
        # the rest of the run, so clearing a filter mid-flight cannot
        # strand unacked messages.
        self._fault_filter: Optional[Callable[[str, str, Any, int], Optional[FaultVerdict]]] = None
        self.lossy = False
        self.dropped_messages = 0
        self.corrupted_messages = 0
        self.duplicated_messages = 0
        self.delayed_messages = 0

    # -- fault injection -------------------------------------------------------

    def install_fault_filter(
        self, filter_: Callable[[str, str, Any, int], Optional[FaultVerdict]]
    ) -> None:
        """Install a fault filter consulted for every non-loopback send.

        The filter receives ``(src, dst, payload, nbytes)`` and returns
        a :class:`FaultVerdict` (or ``None`` for normal delivery).
        Installing any filter marks the fabric lossy, which arms the
        NICs' RC retransmission path (see :mod:`repro.hw.nic`).
        """
        self._fault_filter = filter_
        self.lossy = True

    def attach(self, name: str, gbps: float = 56.0) -> Port:
        """Create a port for host ``name`` at ``gbps`` line rate."""
        if name in self.ports:
            raise ValueError(f"port {name!r} already attached")
        port = Port(self, name, gbps)
        self.ports[name] = port
        return port

    def send(self, src: str, dst: str, payload: Any, nbytes: int) -> None:
        """Transmit ``payload`` (accounting ``nbytes``) from src to dst.

        Delivery invokes the destination port's ``receive`` callback
        after serialization and propagation. Loopback (src == dst)
        skips the wire entirely: on-NIC loopback QPs never leave the
        adapter.
        """
        src_port = self.ports[src]
        dst_port = self.ports[dst]
        if dst_port.receive is None:
            raise RuntimeError(f"port {dst!r} has no receive callback")
        src_port.tx_messages += 1
        src_port.tx_bytes += nbytes
        # t_sent is threaded through to _deliver so a traced run can
        # render the full wire span (serialize + propagate) without
        # storing any per-message state on the fabric.
        sim = self.sim
        t_sent = sim.now
        if src == dst:
            # On-adapter loopback: just the NIC-internal turnaround.
            # Loopback traffic never touches the wire, so the fault
            # filter does not apply.
            sim.call_in(100, self._deliver, dst_port, src, payload, t_sent)
            return
        deliver, args = self._deliver, (dst_port, src, payload, t_sent)
        delay = self.propagation_ns
        if self._fault_filter is not None:
            verdict = self._judge(src, dst, payload, nbytes, t_sent)
            if verdict is None:
                return
            extra_delay, corrupt, copies = verdict
            delay += extra_delay
            if corrupt:
                deliver = self._deliver_corrupt
            elif copies:
                deliver, args = self._deliver_copies, args + (copies,)
        # The delivery is queued now for the instant serialization plus
        # propagation ends — the sequence point a drain-time event
        # firing into a delivery callback would take.
        sim._push(src_port.egress.reserve(wire_bytes(nbytes)) + delay, deliver, args)

    def _judge(
        self, src: str, dst: str, payload: Any, nbytes: int, t_sent: int
    ) -> Optional[Tuple[int, bool, int]]:
        """Consult the fault filter for one wire message and count what
        it decided: ``None`` if the message is dropped, else ``(extra
        delay ns, corrupt, duplicate copies)``."""
        verdict = self._fault_filter(src, dst, payload, nbytes)
        if verdict is None:
            return 0, False, 0
        if verdict.drop:
            self.dropped_messages += 1
            self._note_fault(t_sent, "drop", src, dst)
            return None
        if verdict.extra_delay_ns:
            self.delayed_messages += 1
            self._note_fault(t_sent, "delay", src, dst, {"extra_ns": verdict.extra_delay_ns})
        corrupt, copies = bool(verdict.corrupt), 0
        if corrupt:
            self.corrupted_messages += 1
            self._note_fault(t_sent, "corrupt", src, dst)
        elif verdict.duplicates > 0:
            copies = verdict.duplicates
            self.duplicated_messages += copies
            self._note_fault(t_sent, "duplicate", src, dst, {"copies": copies})
        return verdict.extra_delay_ns, corrupt, copies

    def _deliver_copies(
        self, port: Port, src: str, payload: Any, t_sent: int, copies: int
    ) -> None:
        """A duplicated message: the original now, then ``copies`` more
        at the switch's re-serialization spacing."""
        self._deliver(port, src, payload, t_sent)
        for copy in range(1, copies + 1):
            self.sim.call_in(copy * _DUPLICATE_GAP_NS, self._deliver, port, src, payload, t_sent)

    def _note_fault(
        self,
        t_sent: int,
        kind: str,
        src: str,
        dst: str,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record an injected fault as an obs instant event + counter."""
        if TRACER.enabled:
            payload_args = {"src": src, "dst": dst}
            if args:
                payload_args.update(args)
            TRACER.record(
                t_sent,
                "i",
                "fault",
                f"fabric.{kind}",
                pid="fabric",
                tid=f"{src}->{dst}",
                args=payload_args,
            )
            TRACER.count(f"fault.fabric.{kind}")

    def _deliver_corrupt(self, port: Port, src: str, payload: Any, t_sent: int = 0) -> None:
        """A corrupted message reaches the port and fails the ICRC
        check: wire cost was paid, nothing is delivered."""
        if TRACER.enabled:
            TRACER.record(
                t_sent,
                "X",
                "fault",
                f"icrc_drop {src}->{port.name}",
                pid="fabric",
                tid=port.name,
                dur=self.sim.now - t_sent,
            )
            TRACER.count("fault.fabric.icrc_drops")

    def _deliver(self, port: Port, src: str, payload: Any, t_sent: int = 0) -> None:
        port.rx_messages += 1
        if TRACER.enabled:
            TRACER.record(
                t_sent,
                "X",
                "fabric",
                f"{src}->{port.name}",
                pid="fabric",
                tid=port.name,
                dur=self.sim.now - t_sent,
            )
            TRACER.count("fabric.deliveries")
        port.receive(src, payload)
