"""Declarative fault plans and the injector that executes them.

A :class:`FaultPlan` is pure data: a list of :class:`FaultEvent`
records. A :class:`FaultInjector` binds a plan to one simulation —
installing itself as the fabric's fault filter (which arms the NICs'
RC retransmission path) and scheduling node-level events on the sim
clock. All randomness comes from one named RNG stream derived from
the simulator seed, so a plan replays bit-for-bit.

Triggers
--------
* ``at_ms`` — fire once at a virtual time (node actions), or activate
  from that time on (message rules).
* ``at_op`` — fire once when the workload reports that many completed
  operations via :meth:`FaultInjector.notify_op` (the "at-op-count"
  trigger; the scenario runner calls it after every acked op).
* ``at_phase`` — fire once when the scenario reports entering a named
  control-path phase via :meth:`FaultInjector.notify_phase` (e.g.
  ``"repair"`` when :class:`~repro.storage.recovery.ChainRepair`
  starts), ``phase_delay_ms`` after the notification. This is how
  compound scenarios land a fault *inside* a recovery window whose
  absolute time depends on detection latency.
* ``probability`` — message rules only: each matching wire message is
  hit with this probability, drawn from the named RNG stream.

Message rules (``drop``, ``delay``, ``duplicate``, ``corrupt``) stay
active from their trigger point until ``until_ms`` (forever when
unset). Node actions (``partition``, ``heal``, ``nic_stall``,
``nic_resume``, ``nic_crash``, ``host_crash``, ``host_restart``,
``host_power_failure``) fire exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..hw.host import Host
from ..hw.network import Fabric, FaultVerdict
from ..obs.trace import TRACER
from ..sim import MS, Simulator

__all__ = ["ACTIONS", "FaultEvent", "FaultPlan", "FaultInjector"]


MESSAGE_ACTIONS = ("drop", "delay", "duplicate", "corrupt")
NODE_ACTIONS = (
    "partition",
    "heal",
    "nic_stall",
    "nic_resume",
    "nic_crash",
    "host_crash",
    "host_restart",
    "host_power_failure",
)
ACTIONS = MESSAGE_ACTIONS + NODE_ACTIONS


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Parameters
    ----------
    action:
        One of :data:`ACTIONS`.
    at_ms / until_ms:
        Activation window in virtual milliseconds. ``at_ms`` defaults
        to 0 (active from the start) for message rules and is required
        for timed node actions.
    at_op:
        Alternative trigger: fire when the workload has completed this
        many operations (reported via ``notify_op``).
    at_phase / phase_delay_ms:
        Alternative trigger for node actions: fire
        ``phase_delay_ms`` after the scenario reports entering the
        named phase (via ``notify_phase``).
    probability:
        Message rules: per-message hit probability in [0, 1].
    target:
        Host name for node actions; for message rules, restrict the
        rule to messages with this host as source or destination.
    pair:
        ``(host_a, host_b)`` for ``partition``/``heal``, or to scope a
        message rule to one bidirectional host pair.
    extra_delay_ns:
        ``delay`` rules: added latency per hit message.
    duplicates:
        ``duplicate`` rules: extra copies per hit message.
    """

    action: str
    at_ms: Optional[float] = None
    until_ms: Optional[float] = None
    at_op: Optional[int] = None
    at_phase: Optional[str] = None
    phase_delay_ms: float = 0.0
    probability: float = 0.0
    target: Optional[str] = None
    pair: Optional[Tuple[str, str]] = None
    extra_delay_ns: int = 0
    duplicates: int = 1

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} outside [0, 1]")
        if self.action in ("partition", "heal") and self.pair is None:
            raise ValueError(f"{self.action} needs a host pair")
        if self.action in NODE_ACTIONS[2:] and self.target is None:
            raise ValueError(f"{self.action} needs a target host")
        if self.action in MESSAGE_ACTIONS and self.at_phase is not None:
            raise ValueError("at_phase triggers apply to node actions only")
        if (
            self.action in NODE_ACTIONS
            and self.at_ms is None
            and self.at_op is None
            and self.at_phase is None
        ):
            raise ValueError(f"{self.action} needs an at_ms, at_op or at_phase trigger")

    @property
    def where(self) -> str:
        """The target host, the ``a|b`` host pair, or ``*`` for any."""
        return self.target or (self.pair and "|".join(sorted(self.pair))) or "*"

    def describe(self) -> str:
        """Deterministic one-line rendering (shrunk-plan reports)."""
        if self.at_op is not None:
            when = f"at_op={self.at_op}"
        elif self.at_phase is not None:
            when = f"at_phase={self.at_phase}+{self.phase_delay_ms}ms"
        elif self.at_ms is not None:
            when = f"at_ms={self.at_ms}"
            if self.until_ms is not None:
                when += f"..{self.until_ms}"
        else:
            when = "always"
        extra = ""
        if self.action in MESSAGE_ACTIONS:
            extra = f" p={self.probability}"
            if self.action == "delay":
                extra += f" +{self.extra_delay_ns}ns"
            elif self.action == "duplicate":
                extra += f" x{self.duplicates}"
        return f"{self.action}@{self.where} {when}{extra}"


@dataclass
class FaultPlan:
    """An ordered collection of fault events (pure data)."""

    events: List[FaultEvent] = field(default_factory=list)
    label: str = "faults"

    def add(self, action: str, **kwargs: Any) -> "FaultPlan":
        """Append an event; returns self for chaining."""
        self.events.append(FaultEvent(action, **kwargs))
        return self

    def message_rules(self) -> List[FaultEvent]:
        return [e for e in self.events if e.action in MESSAGE_ACTIONS]

    def node_events(self) -> List[FaultEvent]:
        return [e for e in self.events if e.action in NODE_ACTIONS]

    def subset(self, indices: Iterable[int]) -> "FaultPlan":
        """A new plan keeping only the events at ``indices`` (in plan order).

        The shrinker replays candidate sub-plans this way: because every
        event keeps its own trigger and the RNG stream is named by
        ``label``, a subset is itself a valid, deterministic plan.
        """
        keep = sorted(set(indices))
        return FaultPlan(
            events=[self.events[i] for i in keep if 0 <= i < len(self.events)],
            label=self.label,
        )

    def describe(self) -> List[str]:
        """Deterministic per-event renderings, in plan order."""
        return [f"[{i}] {e.describe()}" for i, e in enumerate(self.events)]


class FaultInjector:
    """Executes a :class:`FaultPlan` against one simulation.

    Construction installs the injector as ``fabric``'s fault filter
    (marking the fabric lossy — NICs arm RC retransmission from then
    on) and schedules every timed node event with ``sim.call_at``.
    Op-count-triggered events fire from :meth:`notify_op`.
    """

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        hosts: Mapping[str, Host],
        plan: FaultPlan,
    ):
        self.sim = sim
        self.fabric = fabric
        self.hosts = dict(hosts)
        self.plan = plan
        self.rng = sim.rng(f"faults/{plan.label}")
        self.partitions: set = set()
        self.counters: Dict[str, int] = {}
        self.op_count = 0
        self.fired: List[Tuple[int, str]] = []  # (sim_ns, description)
        self._rules = plan.message_rules()
        self._op_events = sorted(
            (e for e in plan.node_events() if e.at_op is not None),
            key=lambda e: e.at_op,
        )
        self._phase_events: Dict[str, List[FaultEvent]] = {}
        for event in plan.node_events():
            if event.at_ms is not None:
                sim.call_at(int(event.at_ms * MS), self._fire, event)
            elif event.at_phase is not None:
                self._phase_events.setdefault(event.at_phase, []).append(event)
        fabric.install_fault_filter(self._filter)

    # -- fabric filter -----------------------------------------------------

    def _filter(
        self, src: str, dst: str, payload: Any, nbytes: int
    ) -> Optional[FaultVerdict]:
        if self.partitions and frozenset((src, dst)) in self.partitions:
            self._count("partition_drop")
            return FaultVerdict(drop=True)
        now = self.sim.now
        for rule in self._rules:
            if rule.at_ms is not None and now < rule.at_ms * MS:
                continue
            if rule.until_ms is not None and now >= rule.until_ms * MS:
                continue
            if rule.target is not None and rule.target not in (src, dst):
                continue
            if rule.pair is not None and frozenset(rule.pair) != frozenset((src, dst)):
                continue
            if rule.probability < 1.0 and self.rng.random() >= rule.probability:
                continue
            self._count(rule.action)
            if rule.action == "drop":
                return FaultVerdict(drop=True)
            if rule.action == "delay":
                return FaultVerdict(extra_delay_ns=rule.extra_delay_ns)
            if rule.action == "duplicate":
                return FaultVerdict(duplicates=rule.duplicates)
            return FaultVerdict(corrupt=True)
        return None

    # -- node events -------------------------------------------------------

    def notify_op(self) -> None:
        """Report one completed workload op; fires pending at-op-count events."""
        self.op_count += 1
        while self._op_events and self._op_events[0].at_op <= self.op_count:
            self._fire(self._op_events.pop(0))

    def notify_phase(self, name: str) -> None:
        """Report entering a named control-path phase.

        Each pending ``at_phase == name`` event is scheduled once,
        ``phase_delay_ms`` of virtual time after this call. Only the
        first notification of a given phase arms its events — repeated
        phases (e.g. two repairs) fire the plan's events once, which
        keeps replays of a shrunk plan unambiguous.
        """
        events = self._phase_events.pop(name, ())
        for event in events:
            self.sim.call_in(int(event.phase_delay_ms * MS), self._fire, event)

    def _fire(self, event: FaultEvent) -> None:
        action = event.action
        self._count(action)
        self.fired.append((self.sim.now, f"{action}@{event.where}"))
        if TRACER.enabled:
            TRACER.record(
                self.sim.now,
                "i",
                "fault",
                f"plan.{action}",
                pid="faults",
                args={"target": event.target, "pair": event.pair},
            )
            TRACER.count(f"fault.plan.{action}")
        if action == "partition":
            self.partitions.add(frozenset(event.pair))
            return
        if action == "heal":
            self.partitions.discard(frozenset(event.pair))
            return
        # ``nic_<verb>`` calls the target's ``nic.<verb>()`` and
        # ``host_<verb>`` the target host's ``<verb>()``.
        host = self.hosts[event.target]
        owner, _, verb = action.partition("_")
        getattr(host.nic if owner == "nic" else host, verb)()

    def _count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def summary(self) -> Dict[str, int]:
        """Injected-fault counters, merged with the fabric's view."""
        merged = dict(sorted(self.counters.items()))
        merged["fabric_dropped"] = self.fabric.dropped_messages
        merged["fabric_corrupted"] = self.fabric.corrupted_messages
        merged["fabric_duplicated"] = self.fabric.duplicated_messages
        merged["fabric_delayed"] = self.fabric.delayed_messages
        return merged
