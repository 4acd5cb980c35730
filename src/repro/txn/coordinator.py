"""Cross-group transaction coordinator: begin/read/write/commit/abort.

One coordinator spans N replica groups (each a
:class:`~repro.txn.mvcc.VersionedGroupStore`), placing keys by
consistent hash. Its :class:`~repro.txn.certify.Certifier` decides what
commits, one synchronous step per decision; the coordinator does the
I/O around the steps: a read or scan cross-checks the durable slots of
an Available-Copies-eligible replica per group, all groups' READ
batches in flight at once, and a commit installs per participant group
through its replicated log and returns once published — all-or-nothing
visibility across groups.

Only conflicting work waits. ``begin`` never parks; a ``read`` parks
only while a pending commit from before its snapshot writes its key (a
``scan``, while one writes inside its planned range). Each group queues
its installs in commit order with at most one batch in flight, written
as one WAL record; as the one writer of its stores, the coordinator
takes no group lock. The committers write the batches themselves, and
no task is spawned on the commit path: a committer posts, waits for
and settles the batches of its groups, and hands a freed group to the
committer of the next commit queued there. A failed batch aborts its
commits (``install-failed``) and raises to each committer. A failover
reset wakes every waiter and replaces every queue: a batch parked
forever on a dead chain's ack keeps the old one.

A read's observation (what it served, from which replica, whether the
durable copy was behind the snapshot) goes on
``Transaction.observations``; the coordinator keeps only what the
read-your-writes invariant consumes.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Deque, Dict, Generator, List, Optional, Sequence, Tuple

from ..hw.cpu import Task
from ..obs.trace import TRACER
from ..rdma.reader import PostedReads
from ..sim import Event
from .available_copies import AvailabilityTracker, NoAvailableCopy
from .certify import Certifier, Transaction, TxnAborted
from .mvcc import SlotExhausted, VersionedGroupStore, decode_durable
from .ssi import key_in_range

__all__ = ["TxnCoordinator", "Transaction", "TxnAborted"]

_ABORT_COUNTERS = {
    "ww-conflict": "aborts_ww",
    "ssi-pivot": "aborts_ssi",
    "ssi-phantom": "aborts_phantom",
    "unavailable": "aborts_unavailable",
    "failover": "aborts_failover",
    "install-failed": "aborts_install",
}


class _InstallQueue:
    """One group's staged installs ``(txid, changes)``, in commit
    order, and the batch of them in ``flight``: ``(txids, posted
    append)``, posted and settled by one committer."""

    __slots__ = ("staged", "flight")

    def __init__(self):
        self.staged: Deque[Tuple[int, List[Tuple[int, bytes]]]] = deque()
        self.flight: Optional[tuple] = None


class TxnCoordinator:
    """Serializable transactions over several replica groups: one
    :class:`VersionedGroupStore` per group, the certifier's ``mode``
    (``"ssi"``, or ``"si"`` — the write-skew control), and a shared
    :class:`AvailabilityTracker` (a fresh one if not given). Stores are
    attached in order, so group index == tracker index; a store another
    coordinator owns raises. A commit spanning several groups installs
    into them concurrently, one batch per group in flight
    (:meth:`_install`)."""

    def __init__(
        self,
        stores: Sequence[VersionedGroupStore],
        mode: str = "ssi",
        tracker: Optional[AvailabilityTracker] = None,
        name: str = "txn",
    ):
        if not stores:
            raise ValueError("need at least one group store")
        self.certifier = Certifier(stores, self.locate, mode, on_end=self._ended)
        self.history = self.certifier.history  # committed, in commit order
        self.stores = list(stores)
        self.name = name
        self.tracker = tracker if tracker is not None else AvailabilityTracker()
        for store in self.stores:
            if store.owner is not None:
                raise ValueError(f"{store.name} already belongs to {store.owner.name}")
            store.owner = self
            self.tracker.attach(store)
        self.sim = self.stores[0].group.sim
        # The event each pending commit's committer and its keys'
        # readers park on, by txid; the event each committer parks on
        # in its install loop, by txid; each group's queue of installs;
        # and, traced, when each commit held back by publish order
        # finished installing.
        self._done: Dict[int, Event] = {}
        self._wakes: Dict[int, Event] = {}
        self._queues = [_InstallQueue() for _ in self.stores]
        self._held: Dict[int, int] = {}
        # What the read-your-writes invariant needs of the observations:
        # snapshot reads served, the stale ones, and own-write reads of
        # a key a committed transaction's write set lacks.
        self.reads_observed = 0
        self.stale_reads: List[Dict[str, object]] = []
        self.read_violations: List[Dict[str, object]] = []
        self.commits = 0
        self.aborts_ww = 0
        self.aborts_ssi = 0
        self.aborts_phantom = 0
        self.aborts_unavailable = 0
        self.aborts_failover = 0
        self.aborts_install = 0
        self.aborts_user = 0

    # -- placement ---------------------------------------------------------------

    def locate(self, key: bytes) -> int:
        """Owning group index for a key (consistent hash)."""
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "little") % len(self.stores)

    # -- lifecycle -----------------------------------------------------------------

    def begin(self, task: Task) -> Generator:
        """Open a transaction; returns the :class:`Transaction`. Never
        parks: the snapshot is the clock's next tick (reads wait out
        the pending commits before it that write their keys)."""
        txn = self.certifier.begin(self.sim.now)
        if TRACER.enabled:
            TRACER.count("txn.begin")
            TRACER.record(
                self.sim.now,
                "B",
                "txn",
                f"T{txn.txid}",
                pid=f"txn:{self.name}",
                tid=task.name,
                args={"snapshot_ts": txn.snapshot_ts},
            )
        return txn
        yield  # a generator like every verb a client task drives

    def read(self, task: Task, txn: Transaction, key: bytes) -> Generator:
        """Snapshot read; returns the value (``None`` = never written).

        Own buffered writes win (read-your-writes); a commit from
        before the snapshot still pending on the key is waited out.
        The durable slot (:meth:`_cross_check`, a scan's path with one
        key) may hold a *newer* record than the version served — one
        installed after our snapshot, or an orphan of an unfinished
        commit — but never an older one, which would mean a stale copy
        served a read.
        """
        certifier = self.certifier
        certifier.check_active(txn)
        if key in txn.writes:
            self._observe(txn, "own-write", key, txn.writes[key])
            return txn.writes[key]
        if certifier.pending:
            yield from self._await_earlier(task, txn, lambda writes: key in writes)
        index = self.locate(key)
        if not self.stores[index].has_slot(key):
            # Never written anywhere: the initial state, no network.
            certifier.read(txn, key)
            self._observe(txn, "miss", key, None)
            return None
        replicas, slots = yield from self._cross_check(task, txn, {index: [key]})
        # The yields above may span a failover reset: the certifier
        # refuses a zombie attempt before it records anything.
        version = certifier.read(txn, key)
        if version is None:
            value, stale = None, False
        else:
            durable = slots[key]
            value = version.value
            stale = durable is None or durable[0] < version.commit_ts
        self._observe(txn, "snapshot", key, value, replicas[index], stale)
        if TRACER.enabled:
            TRACER.count("txn.read")
        return value

    def _observe(
        self,
        txn: Transaction,
        kind: str,
        key: bytes,
        value: Optional[bytes],
        replica: Optional[int] = None,
        stale: bool = False,
    ) -> None:
        """Record what a read served on its transaction, and fold it
        into the coordinator's read-your-writes state."""
        obs = {
            "txid": txn.txid,
            "kind": kind,
            "key": key,
            "value": value,
            "replica": replica,
            "stale": stale,
        }
        txn.observations.append(obs)
        if kind != "own-write":
            self.reads_observed += 1
        if stale:
            self.stale_reads.append(obs)

    def write(self, txn: Transaction, key: bytes, value: bytes) -> None:
        """Buffer a write (visible to this transaction's reads only)."""
        self.certifier.write(txn, key, value)
        if TRACER.enabled:
            TRACER.count("txn.write")

    def insert(self, txn: Transaction, key: bytes, value: bytes) -> None:
        """Buffer an insert: a write to a key absent at the snapshot
        (:meth:`Certifier.insert`); its DB slot is assigned when the
        commit validates."""
        self.certifier.insert(txn, key, value)
        if TRACER.enabled:
            TRACER.count("txn.write")
            TRACER.count("txn.insert")

    def scan(
        self, task: Task, txn: Transaction, start: bytes, limit: int
    ) -> Generator:
        """Snapshot range read: first ``limit`` keys at or after ``start``.

        Returns ``[(key, value), ...]`` in ascending key order, merging
        the per-group ordered indexes with the transaction's own
        buffered writes. Four steps — plan, post, wait, record. The
        certifier plans the walk to the ``limit``-th visible key
        without yielding (a pending commit from before the snapshot
        that writes inside the range is waited out, and the walk
        redone); the cross-check reads go out as one batch per group,
        all groups in flight together (:meth:`_cross_check`); only when
        every batch is back — and the transaction is still of this
        epoch — are observations, reads and edges recorded, in key
        order. A scan costs one READ round trip however many keys and
        groups it covers, and one that dies on the way records nothing.
        """
        certifier = self.certifier
        certifier.check_active(txn)
        if limit < 1:
            raise ValueError("scan limit must be >= 1")
        # Plan; wait out the earlier pending writers in range, replan.
        steps, wanted, end = certifier.plan_scan(txn, start, limit)
        while certifier.pending and (
            yield from self._await_earlier(
                task,
                txn,
                lambda writes: any(key_in_range(key, start, end) for key in writes),
            )
        ):
            steps, wanted, end = certifier.plan_scan(txn, start, limit)
        replicas, durable = yield from self._cross_check(task, txn, wanted)
        # The yields may span a failover reset; a zombie scan must not
        # record observations or edges.
        certifier.check_active(txn)
        results: List[Tuple[bytes, bytes]] = []
        for key, index, version in steps:
            if index is None:
                value = txn.writes[key]
                self._observe(txn, "own-write", key, value)
            elif version is None:
                continue  # read as absent: nothing to serve
            else:
                value = version.value
                slot = durable[key]
                self._observe(
                    txn, "scan", key, value, replicas[index],
                    slot is None or slot[0] < version.commit_ts,
                )
            results.append((key, value))
        certifier.record_scan(txn, start, end, steps)
        if TRACER.enabled:
            TRACER.count("txn.scan")
            TRACER.count("txn.scan_reads", len(durable))
        return results

    def _cross_check(
        self, task: Task, txn: Transaction, wanted: Dict[int, List[bytes]]
    ) -> Generator:
        """Read the durable slots of ``wanted`` (group -> keys), every
        group's batch in flight at once. Returns ``(replicas, durable)``:
        the replica that served each group, and the decoded slot (or
        ``None``) of each key."""
        groups = sorted(wanted)
        # Every group's replica is chosen before any lane is taken:
        # choosing may block for the whole Available-Copies bound, and
        # must not do so holding a lane other readers may queue for.
        replicas: Dict[int, int] = {}
        try:
            for index in groups:
                replicas[index] = yield from self.tracker.choose(task, index)
        except NoAvailableCopy as exc:
            self.certifier.abort(txn, "unavailable")
            raise TxnAborted(txn.txid, "unavailable", str(exc)) from None
        # Post each group's batch, then wait for all: the round trips
        # overlap. This task holds a read lane of several channels at
        # once, so it takes them in ascending group order. A batch
        # queues only once every lane of its replica is held, and then
        # two scanners could each hold the last lane the other is
        # queued for. It takes one lane per group, of any replica's
        # channel: every wait-for edge still points to a higher group
        # index, so no cycle can form.
        durable: Dict[bytes, Optional[tuple]] = {}
        posted: List[Tuple[List[bytes], PostedReads]] = []
        try:
            for index in groups:
                keys, reads = yield from self.stores[index].post_durable(
                    task, wanted[index], replicas[index]
                )
                posted.append((keys, reads))
            for keys, reads in posted:
                durable.update(decode_durable(keys, (yield from reads.wait(task))))
        finally:
            # Whatever ended the read early — an error completion, a
            # reclaimed zombie's close() — gives every lane back.
            for _, reads in posted:
                reads.abandon()
        return replicas, durable

    def abort(self, txn: Transaction, reason: str = "user") -> None:
        """Caller-initiated abort; idempotent once the transaction has
        ended. A validated commit cannot abort (``ValueError``)."""
        self.certifier.abort(txn, reason)

    def _ended(self, txn: Transaction) -> None:
        """Count and trace a transaction the certifier ended."""
        if txn.status == "committed":
            self.read_violations.extend(
                obs for obs in txn.observations
                if obs["kind"] == "own-write" and obs["key"] not in txn.writes
            )
            self.commits += 1
            event, args = "txn.commit", {"outcome": "commit", "commit_ts": txn.commit_ts}
        else:
            reason = txn.abort_reason
            counter = _ABORT_COUNTERS.get(reason, "aborts_user")
            setattr(self, counter, getattr(self, counter) + 1)
            event, args = f"txn.abort.{reason}", {"outcome": f"abort:{reason}"}
        if TRACER.enabled:
            TRACER.count(event)
            TRACER.record(
                self.sim.now, "E", "txn", f"T{txn.txid}", pid=f"txn:{self.name}", args=args
            )

    def commit(self, task: Task, txn: Transaction) -> Generator:
        """Commit; returns the commit timestamp or raises
        :class:`TxnAborted` (the transaction is already cleaned up)."""
        commit_ts = self.certifier.validate(txn, self.sim.now)
        if txn.status == "committed":
            return commit_ts  # read-only: nothing to install
        # Still no yield: stage and queue in commit order.
        per_group = self.certifier.pending[txn.txid].per_group
        try:
            staged = {
                index: self.stores[index].stage(items, commit_ts, txn.txid)
                for index, items in sorted(per_group.items())
            }
        except (SlotExhausted, ValueError):
            self.certifier.install_failed([txn.txid])  # no slot to install into
            raise
        done = self._done[txn.txid] = Event(self.sim, f"{self.name}.publish")
        done.add_callback(lambda _: self._wake(txn.txid))
        for index, changes in staged.items():
            self._queues[index].staged.append((txn.txid, changes))
        error = yield from self._install(task, txn.txid, staged, done)
        if txn.status != "committed":  # a failed batch, or a reset
            if error is not None:
                raise error
            self.certifier.check_active(txn)
        return commit_ts

    def _await_earlier(self, task: Task, txn: Transaction, covers) -> Generator:
        """Park while the certifier finds an earlier pending writer
        (:meth:`Certifier.earlier_writer`); returns whether it parked."""
        parked = False
        while True:
            pending = self.certifier.earlier_writer(txn, covers)
            if pending is None:
                return parked
            yield from task.wait(self._done[pending.txn.txid])
            # A failover reset wakes every waiter.
            self.certifier.check_active(txn)
            parked = True

    def _install(self, task: Task, txid: int, groups, done: Event) -> Generator:
        """Write the commit's installs from its own task, spawning
        none, until it has published or died; returns the error that
        failed its batch, if one did. Each round settles every batch it
        posted whose acks are in, or posts what the flow window held
        back of it; posts the next batch of each idle group still
        queueing this commit; and parks on one wake event, which a
        posted batch's acks, ``done`` or a hand-off fire. It waits for
        acks nowhere else, so a batch stuck on a dead chain holds no
        other group's WAL mutex."""
        flights: Dict[int, _InstallQueue] = {}
        try:
            while True:
                wake = self._wakes[txid] = Event(self.sim, f"{self.name}.wake")
                for index, queue in list(flights.items()):
                    posted = queue.flight[1]
                    if posted.last_ack is not None and not posted.last_ack.triggered:
                        continue
                    if not posted.unposted:
                        del flights[index]
                        yield from self._settle(task, index, queue)
                    elif not (yield from self._post(task, index, queue, txid)):
                        del flights[index]
                if done.triggered:
                    if not flights:
                        return done.value
                else:
                    for index in groups:
                        queue = self._queues[index]
                        if not queue.flight and any(t == txid for t, _ in queue.staged):
                            if (yield from self._post(task, index, queue, txid)):
                                flights[index] = queue
                yield from task.wait(wake)
        finally:
            self._wakes.pop(txid, None)

    def _wake(self, txid: int) -> None:
        wake = self._wakes.get(txid)
        if wake is not None and not wake.triggered:
            wake.succeed()

    def _hand_off(self, queue: _InstallQueue) -> None:
        """An idle queue wakes the committer of its first commit."""
        if not queue.flight and queue.staged:
            self._wake(queue.staged[0][0])

    def _post(self, task: Task, index: int, queue: _InstallQueue, owner: int) -> Generator:
        """Post the commits at the front of group ``index``'s queue as
        one batch — or, with a batch in flight, what the group's flow
        window held back of it — whose acks wake committer ``owner``;
        returns whether it posted.

        A batch is everything queued since the previous one started,
        cut only where the next commit would not fit the same WAL
        record. Nothing is left to tune: a lone commit is a batch of
        one, the same one ack wait (``1 + n`` gWRITEs, the previous
        batch's head advance riding ahead of the record) as an
        unbatched install.
        """
        if queue.flight:
            txids, posted = queue.flight
            step = posted.post_more(task)
        else:
            store = self.stores[index]
            staged = queue.staged
            batch = [staged.popleft()]
            while staged and store.fits([c for _, c in batch] + [staged[0][1]]):
                batch.append(staged.popleft())
            if TRACER.enabled:
                TRACER.count("txn.install_batch")
                TRACER.count("txn.install_batched", len(batch))
            txids = [txid for txid, _ in batch]
            queue.flight = (txids, None)
            step = store.post_install(task, [changes for _, changes in batch])
        try:
            posted = yield from step
        except Exception as exc:
            self._failed(queue, txids, exc)
            return False
        queue.flight = (txids, posted)
        if posted.last_ack is not None:
            posted.last_ack.add_callback(lambda _: self._wake(owner))
        return True

    def _settle(self, task: Task, index: int, queue: _InstallQueue) -> Generator:
        """Wait out group ``index``'s acked batch, paying the ack poll;
        publish whatever that made ready and hand the group on."""
        txids, posted = queue.flight
        try:
            yield from posted.wait(task)
        except Exception as exc:
            self._failed(queue, txids, exc)
            return
        queue.flight = None
        self.stores[index].installs += len(txids)
        if queue is self._queues[index]:  # else they died with their epoch
            self._publish(self.certifier.installed(index, txids), txids)
            self._hand_off(queue)

    def _failed(self, queue: _InstallQueue, txids: List[int], exc: Exception) -> None:
        """A batch failed: its commits never publish, leave every
        queue, and raise to their committers; the commits behind them
        may publish."""
        queue.flight = None
        failed = self.certifier.install_failed(txids)
        for txn in failed:
            self._done.pop(txn.txid).succeed(exc)
        self._publish(self.certifier.publish_ready())
        dead = {txn.txid for txn in failed}
        for other in self._queues:
            other.staged = deque(entry for entry in other.staged if entry[0] not in dead)
            self._hand_off(other)

    def _publish(self, txns: List[Transaction], installed: Sequence[int] = ()) -> None:
        """Release the published commits' waiters. Traced, count each
        publish held back after the commit's last install (``installed``
        just settled): ``txn.publish_held`` and ``txn.publish_hold_ns``."""
        now = self.sim.now
        for txn in txns:
            self._done.pop(txn.txid).succeed()
            since = self._held.pop(txn.txid, None)
            if since is not None:
                TRACER.count("txn.publish_held")
                TRACER.count("txn.publish_hold_ns", now - since)
        if TRACER.enabled:
            pending = self.certifier.pending
            for txid in installed:
                if txid in pending and not pending[txid].installing:
                    self._held[txid] = now

    # -- failover ------------------------------------------------------------------

    def reset_after_failover(self, task: Task, index: int, new_group) -> Generator:
        """Re-point group ``index`` at its repaired chain and clean up.

        The certifier starts a new epoch (:meth:`Certifier.reset`):
        every transaction of the old epoch aborts (resumable stragglers
        die at their next liveness check) and every pending commit is
        dropped — its committer and every reader parked on it wake, and
        it never publishes. Every group's install queue is replaced: a
        committer parked forever on the dead chain's ack keeps the old
        one, and one with a batch in flight on a healthy group settles
        it, releasing that WAL mutex, and returns. The store rebinds
        and drains its pending records. Returns drained-record count.
        """
        self.certifier.reset()
        done, self._done = self._done, {}
        self._queues = [_InstallQueue() for _ in self.stores]
        self._held = {}
        for event in done.values():
            event.succeed()
        store = self.stores[index]
        store.rebind(new_group)
        executed = yield from store.recover(task)
        if TRACER.enabled:
            TRACER.count("txn.failover_reset")
        return executed

    # -- introspection -------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        names = ("commits", *_ABORT_COUNTERS.values(), "aborts_user")
        return {name: getattr(self, name) for name in names}
