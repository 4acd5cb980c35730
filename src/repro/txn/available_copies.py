"""Available-Copies read rules: which replica may serve a snapshot read.

Replicated data stays readable while sites fail, but only from copies
known to be current. The classic Available-Copies discipline (per the
RepCRec exemplars) is implemented against this repo's failure
machinery. Any eligible copy may serve a read, so a read goes to the
eligible replica whose read channel has the smallest backlog (batches
in flight on its lanes plus batches queued for one), ties to the
lowest index: concurrent readers spread over every copy, and a lone
reader still reads replica 0.

* A **crashed or NIC-halted** replica serves nothing — reads go to
  the surviving replicas.
* A group **mid-ChainRepair** serves nothing — reads block until the
  catch-up window closes (``ChainRepair`` reports ``"repair"`` /
  ``"repair-done"`` through its phase hook).
* A **freshly restarted** replica, and a **freshly rebuilt** chain,
  must be *written since recovery* before serving: a restarted host
  holds whatever NVM kept, a new chain holds the catch-up image, and
  neither is trusted until an acked write has traversed the chain
  (the validating ack path's ``last_ack_ns`` vs ``Host.last_restart_ns``
  — see ``GroupBase.readable_replicas``, which every group type
  shares). ChainRepair's image install
  is itself acked chain writes, so a completed repair re-validates
  every member, including a restarted host spliced back in.

Reads that find no eligible replica block (bounded) rather than serve
a stale copy; :class:`NoAvailableCopy` surfaces when the bound runs
out, and the transaction aborts instead of reading garbage.
"""

from __future__ import annotations

from typing import Callable, Generator, List

from ..hw.cpu import Task
from ..obs.trace import TRACER
from ..sim import MS

__all__ = ["AvailabilityTracker", "NoAvailableCopy"]


class NoAvailableCopy(RuntimeError):
    """No replica became readable within the blocking bound."""


class AvailabilityTracker:
    """Per-group read-side availability state for the txn layer.

    Stores register with :meth:`attach`; ``ChainRepair``'s phase hook
    is bridged in with :meth:`on_repair_phase` so reads pause during
    catch-up. Counters are deterministic observables: ``failovers``
    (reads replica 0 was not eligible for) and ``blocks``, which the
    chaos invariants assert on, and ``served[group][replica]`` (reads
    routed to each copy).
    """

    def __init__(self, poll_ns: int = 100_000, max_wait_ns: int = 500 * MS):
        self._stores: List[object] = []
        self._paused: List[bool] = []
        self.poll_ns = poll_ns
        self.max_wait_ns = max_wait_ns
        self.failovers = 0
        self.blocks = 0
        self.served: List[List[int]] = []

    def attach(self, store) -> int:
        """Register a :class:`VersionedGroupStore`; returns its index."""
        self._stores.append(store)
        self._paused.append(False)
        self.served.append([0] * store.group.group_size)
        return len(self._stores) - 1

    def on_repair_phase(self, index: int) -> Callable[[str], None]:
        """A ``ChainRepair.on_phase`` callback pausing group ``index``."""

        def hook(phase: str) -> None:
            if phase == "repair":
                self._paused[index] = True
            elif phase == "repair-done":
                self._paused[index] = False

        return hook

    def paused(self, index: int) -> bool:
        return self._paused[index]

    def readable(self, index: int) -> List[int]:
        """Replica indices of group ``index`` eligible to serve reads."""
        if self._paused[index]:
            return []
        group = self._stores[index].group
        if not group.validated_since_birth:
            return []
        return group.readable_replicas()

    def choose(self, task: Task, index: int) -> Generator:
        """Pick a replica for a snapshot read, blocking while none is
        eligible: the eligible one with the least read backlog, ties to
        the lowest index. Returns the replica index; raises
        :class:`NoAvailableCopy` after ``max_wait_ns`` of blocking."""
        deadline = task.sim.now + self.max_wait_ns
        blocked = False
        while True:
            candidates = self.readable(index)
            if candidates:
                if candidates[0] != 0:
                    self.failovers += 1
                    if TRACER.enabled:
                        TRACER.count("txn.read_failover")
                replica = min(candidates, key=self._stores[index].group.read_backlog)
                self.served[index][replica] += 1
                return replica
            if not blocked:
                blocked = True
                self.blocks += 1
                if TRACER.enabled:
                    TRACER.count("txn.read_blocked")
            if task.sim.now >= deadline:
                raise NoAvailableCopy(
                    f"group {index}: no readable replica within "
                    f"{self.max_wait_ns}ns"
                )
            yield from task.sleep(self.poll_ns)
