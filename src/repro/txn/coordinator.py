"""Cross-group transaction coordinator: begin/read/write/commit/abort.

One coordinator spans N replica groups (each wrapped in a
:class:`~repro.txn.mvcc.VersionedGroupStore`), placing keys by
consistent hash. Isolation is Serializable Snapshot Isolation:

* ``begin`` takes a snapshot timestamp from the virtual clock
  (monotonic, unique — never wall time); every read observes the
  newest version committed at or before it.
* ``read`` serves the transaction's own buffered write first
  (read-your-writes), then routes to the owning group, picks the
  least-busy eligible replica under the Available-Copies rules, and
  cross-checks the one-sided durable read against the version chain.
* ``write`` buffers locally; nothing touches the wire before commit.
  ``insert`` is a write to a previously-unseen key — placement is the
  same consistent hash, and the key's DB slot is assigned at commit
  install time; concurrent duplicate inserts resolve by
  first-committer-wins exactly like updates.
* ``scan`` is a snapshot range read: it merges the per-group ordered
  key indexes (plus the transaction's own buffered writes), serves
  the first ``limit`` keys at or after ``start`` visible at the
  snapshot — each durable slot cross-checked from an
  Available-Copies-eligible replica of the owning group, one READ
  batch per group and all groups' batches in flight at once — and
  records the covered *range* so a concurrent insert landing inside
  it raises a phantom rw-antidependency edge.
* ``commit`` validates first-committer-wins on the write set (any
  version newer than the snapshot aborts), applies the SSI pivot rule
  (a transaction with both incoming and outgoing rw-antidependency
  edges aborts; ``mode="si"`` skips this — the write-skew control),
  then installs per participant group in sorted order through the
  group lock + replicated log, and finally publishes every version in
  one synchronous step — all-or-nothing visibility across groups.

The pivot rule needs every rw edge between concurrent transactions,
and a committed one cannot abort itself any more (Cahill's SSI).
So a committed transaction's reads, scan ranges and writes stay
probed until no live transaction is concurrent with it, and once a
transaction has passed validation it counts as committed. An rw edge
that gives such a settled transaction an edge on both sides makes it
a pivot that can no longer abort: the live transaction whose read,
scan or write raised the edge aborts instead, on the spot.

Bookkeeping is bounded by what is live. A read's observation (what
it served, from which replica, whether the durable copy was behind
the snapshot) goes on ``Transaction.observations`` and dies with the
transaction; the coordinator keeps only what the read-your-writes
invariant consumes — a count of snapshot reads, the stale ones, and
own-write reads of keys the committed write set lacks. A committed
transaction leaves the SSI graph once its commit timestamp is below
the watermark, the oldest live snapshot: every rw edge joins two
transactions whose ``[snapshot, commit]`` intervals overlap, so from
then on no pivot check can reach it (Cahill's cleanup rule).

Commits are serialized through a wake-on-release latch: the holder's
txid in ``_committing`` plus one plain ``Event`` every waiter parks
on. Whoever clears the flag (``commit``'s unwind, or
:meth:`TxnCoordinator.reset_after_failover`) succeeds that event and
replaces it; waiters wake in the order they parked and re-check, so a
parked waiter costs no kernel event and no CPU dispatch however long
the install takes. Three things must hold: ``begin`` also waits out an
in-flight commit, so no snapshot lands between timestamp assignment
and publish; a commit parked forever on a dead chain's ack is cleared
by the failover path without unwinding a queue of waiters — which is
why this is a flag and an event, not a ``sim.Resource``; and a zombie
of an older epoch releases only a latch that still carries its txid.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..hw.cpu import Task
from ..obs.trace import TRACER
from ..sim import Event
from .available_copies import AvailabilityTracker, NoAvailableCopy
from .mvcc import DurableReads, Version, VersionedGroupStore
from .ssi import CommittedTxn, SerializationGraph, key_in_range

__all__ = ["TxnCoordinator", "Transaction", "TxnAborted"]


class TxnAborted(Exception):
    """The transaction cannot commit (or continue)."""

    def __init__(self, txid: int, reason: str, detail: str = ""):
        self.txid = txid
        self.reason = reason
        self.detail = detail
        super().__init__(
            f"T{txid} aborted: {reason}" + (f" ({detail})" if detail else "")
        )


@dataclass
class Transaction:
    """Coordinator-side state of one in-flight transaction."""

    txid: int
    snapshot_ts: int
    epoch: int
    status: str = "active"  # active | committed | aborted
    reads: Dict[bytes, int] = field(default_factory=dict)  # key -> seen commit_ts
    writes: Dict[bytes, bytes] = field(default_factory=dict)
    # Range reads: (start, last-returned-key-or-None) per scan — the
    # predicate footprint phantom detection checks writes against.
    scans: List[Tuple[bytes, Optional[bytes]]] = field(default_factory=list)
    # What each read served, in order: kind (own-write | miss |
    # snapshot | scan), key, value, replica, and whether the durable
    # copy consulted was behind the snapshot.
    observations: List[Dict[str, object]] = field(default_factory=list)
    abort_reason: Optional[str] = None
    # Set when validation passes: from then on the pivot rule treats
    # the transaction as committed.
    commit_ts: Optional[int] = None
    # The dangerous structure (detail, reason) an rw edge this
    # transaction raised completed around a settled pivot.
    doomed: Optional[Tuple[str, str]] = None

    def reads_range(self, key: bytes) -> bool:
        """Whether any of this transaction's scan ranges covers ``key``."""
        return any(
            key_in_range(key, start, end) for start, end in self.scans
        )


class TxnCoordinator:
    """Serializable transactions over several replica groups.

    Parameters
    ----------
    stores:
        One :class:`VersionedGroupStore` per participant group.
    mode:
        ``"ssi"`` (default) applies the pivot rule at commit;
        ``"si"`` is plain snapshot isolation — it admits write skew,
        which the offline anomaly checker then catches. Exists so
        tests and the workload can demonstrate exactly what SSI buys.
    tracker:
        Shared :class:`AvailabilityTracker`; a fresh one is built if
        not given. Stores are attached in order, so group index ==
        tracker index.

    A commit spanning several groups installs into them concurrently
    under a deterministic join barrier (:meth:`_install_parallel`).
    """

    def __init__(
        self,
        stores: Sequence[VersionedGroupStore],
        mode: str = "ssi",
        tracker: Optional[AvailabilityTracker] = None,
        name: str = "txn",
    ):
        if not stores:
            raise ValueError("need at least one group store")
        if mode not in ("ssi", "si"):
            raise ValueError(f"bad isolation mode {mode!r}")
        self.stores = list(stores)
        self.mode = mode
        self.name = name
        self.tracker = tracker if tracker is not None else AvailabilityTracker()
        for store in self.stores:
            self.tracker.attach(store)
        self.sim = self.stores[0].group.sim
        self._clock = 0
        self._next_txid = 1
        self._committing: Optional[int] = None
        self._latch_released = Event(self.sim, f"{name}.latch")
        self.epoch = 0
        self.active: Dict[int, Transaction] = {}
        self.graph = SerializationGraph()
        self.history: List[CommittedTxn] = []
        # Committed transactions some live one is concurrent with, by
        # txid, and the same as a heap of (commit_ts, txid): each
        # leaves at the watermark (_retire).
        self._retained: Dict[int, CommittedTxn] = {}
        self._retiring: List[Tuple[int, int]] = []
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
        self.aborts_user = 0

    # -- placement ---------------------------------------------------------------

    def locate(self, key: bytes) -> int:
        """Owning group index for a key (consistent hash)."""
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "little") % len(self.stores)

    def _tick(self) -> int:
        self._clock = max(self._clock + 1, self.sim.now)
        return self._clock

    def _check_active(self, txn: Transaction) -> None:
        if txn.status != "active" or txn.epoch != self.epoch:
            raise TxnAborted(
                txn.txid,
                txn.abort_reason or "stale-epoch",
                f"status={txn.status} epoch={txn.epoch}/{self.epoch}",
            )

    # -- lifecycle -----------------------------------------------------------------

    def begin(self, task: Task) -> Generator:
        """Open a transaction; returns the :class:`Transaction`.

        Blocks while a commit is publishing so the snapshot cannot
        observe a half-visible transaction.
        """
        yield from self._await_latch(task)
        txn = Transaction(
            txid=self._next_txid, snapshot_ts=self._tick(), epoch=self.epoch
        )
        self._next_txid += 1
        self.active[txn.txid] = txn
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

    def read(self, task: Task, txn: Transaction, key: bytes) -> Generator:
        """Snapshot read; returns the value (``None`` = never written).

        Own buffered writes win (read-your-writes). Otherwise the
        owning group serves the newest version at the snapshot,
        reading the durable slot as a cross-check from the
        Available-Copies-eligible replica whose read channel is least
        busy (replica 0 when idle): the slot may legitimately hold a
        *newer* record (installed after our snapshot, or an orphan of
        an unfinished commit) — both invisible here — but never an
        older one, which would mean a stale copy served a read.
        """
        self._check_active(txn)
        if key in txn.writes:
            self._observe(txn, "own-write", key, txn.writes[key])
            return txn.writes[key]
        index = self.locate(key)
        store = self.stores[index]
        if not store.has_slot(key):
            # Never written anywhere: the initial state, no network.
            txn.reads.setdefault(key, 0)
            self._note_read_edges(txn, store, key)
            self._abort_if_doomed(txn)
            self._observe(txn, "miss", key, None)
            return None
        try:
            replica = yield from self.tracker.choose(task, index)
        except NoAvailableCopy as exc:
            self._abort(txn, "unavailable")
            raise TxnAborted(txn.txid, "unavailable", str(exc)) from None
        durable = yield from store.read_durable(task, key, replica)
        # The yields above may span a failover reset; never record an
        # observation (or an edge) for a zombie attempt.
        self._check_active(txn)
        version = store.version_at(key, txn.snapshot_ts)
        if version is None:
            value, seen_ts = None, 0
            stale = False
        else:
            value, seen_ts = version.value, version.commit_ts
            stale = durable is None or durable[0] < version.commit_ts
        txn.reads.setdefault(key, seen_ts)
        self._note_read_edges(txn, store, key)
        self._abort_if_doomed(txn)
        self._observe(txn, "snapshot", key, value, replica, stale)
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

    def _note_read_edges(
        self,
        txn: Transaction,
        store: VersionedGroupStore,
        key: bytes,
        phantom: bool = False,
    ) -> None:
        # Reader precedes the first committed writer whose version it
        # cannot see (committed after our snapshot; later writers
        # follow that one)...
        first = store.first_after(key, txn.snapshot_ts)
        if first is not None:
            self._rw(txn, txn.txid, first.txid, phantom)
        # ...and any concurrent transaction with the key in its write
        # set. (The symmetric case — they write after we read — is
        # recorded by ``write``/``commit``.)
        for other in self.active.values():
            if other.txid != txn.txid and key in other.writes:
                self._rw(txn, txn.txid, other.txid, phantom)

    def _note_write_edges(self, txn: Transaction, key: bytes) -> None:
        # Concurrent readers of this key — key-granular observations
        # or a scan range covering it (the phantom case), live or
        # committed — logically precede us.
        for other in self._concurrent(txn):
            if key in other.reads:
                self._rw(txn, other.txid, txn.txid)
            elif other.reads_range(key):
                self._rw(txn, other.txid, txn.txid, phantom=True)

    def _concurrent(self, txn: Transaction):
        """Every other live transaction, then every committed one
        whose commit came after ``txn``'s snapshot."""
        for other in self.active.values():
            if other.txid != txn.txid:
                yield other
        for other in self._retained.values():
            if other.commit_ts > txn.snapshot_ts:
                yield other

    def _rw(
        self, txn: Transaction, reader: int, writer: int, phantom: bool = False
    ) -> None:
        """Record ``reader -rw-> writer``, raised by ``txn`` (one of
        the two). If the other end is settled — committed, or validated
        and installing — and now has edges on both sides, it is a pivot
        that can no longer abort: ``txn`` is doomed instead."""
        self.graph.add_rw(reader, writer, phantom=phantom)
        other = writer if reader == txn.txid else reader
        if self.mode == "ssi" and txn.doomed is None and self._settled(other):
            txn.doomed = self.graph.pivot(other)

    def _settled(self, txid: int) -> bool:
        live = self.active.get(txid)
        if live is None:
            return txid in self._retained
        return live.commit_ts is not None

    def _abort_if_doomed(self, txn: Transaction) -> None:
        if txn.doomed is not None:
            detail, reason = txn.doomed
            self._abort(txn, reason)
            raise TxnAborted(txn.txid, reason, detail)

    def write(self, txn: Transaction, key: bytes, value: bytes) -> None:
        """Buffer a write (visible to this transaction's reads only)."""
        self._check_active(txn)
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("values are bytes")
        txn.writes[key] = bytes(value)
        self._note_write_edges(txn, key)
        self._abort_if_doomed(txn)
        if TRACER.enabled:
            TRACER.count("txn.write")

    def insert(self, txn: Transaction, key: bytes, value: bytes) -> None:
        """Buffer an insert: a write to a key absent at the snapshot.

        Placement and buffering are exactly :meth:`write` — the key's
        DB slot is assigned when the commit installs — but the intent
        is checked: inserting a key this snapshot can already see is a
        harness bug, not a race (a *concurrent* duplicate insert is a
        race, and first-committer-wins settles it at commit).
        """
        self._check_active(txn)
        store = self.stores[self.locate(key)]
        if (
            key not in txn.writes
            and store.version_at(key, txn.snapshot_ts) is not None
        ):
            raise ValueError(
                f"insert of key {key!r} visible at snapshot {txn.snapshot_ts}"
            )
        self.write(txn, key, value)
        if TRACER.enabled:
            TRACER.count("txn.insert")

    def scan(
        self, task: Task, txn: Transaction, start: bytes, limit: int
    ) -> Generator:
        """Snapshot range read: first ``limit`` keys at or after ``start``.

        Returns ``[(key, value), ...]`` in ascending key order, merging
        the per-group ordered indexes with the transaction's own
        buffered writes. Every snapshot-visible result is cross-checked
        against the durable slot of an Available-Copies-eligible
        replica, chosen once per group per scan as the one with the
        least-busy read channel, so concurrent scanners spread over
        every copy. Keys present in an
        index but invisible at the snapshot are skipped, but still
        recorded as absent reads — the rw edge to their post-snapshot
        writer is exactly a phantom the scan must precede. The covered
        range ``(start, last-returned)`` — or ``(start, None)`` when
        the keyspace ran out before ``limit`` — is recorded so later
        concurrent writes inside it raise phantom edges too.

        Four steps — plan, post, wait, record. The walk to the
        ``limit``-th visible key needs no network, so it runs first and
        yields nowhere; the cross-check reads then go out as one batch
        per group, all groups in flight together
        (:meth:`_cross_check`); only when every batch is back — and the
        transaction is still of this epoch — are reads, edges and
        observations recorded, in key order. A scan therefore costs
        one READ round trip however many keys and groups it covers,
        and one that dies on the way records nothing.
        """
        self._check_active(txn)
        if limit < 1:
            raise ValueError("scan limit must be >= 1")
        # Plan: walk the merged index to the limit-th visible key
        # without yielding. Nothing consulted here can change while the
        # reads below are in flight: versions at or below the snapshot
        # are all published (begin waited out the latch), the key
        # slices are copies, and the write buffer is this task's own.
        merged = set()
        for store in self.stores:
            merged.update(store.keys_from(start))
        merged.update(key for key in txn.writes if key >= start)
        # (key, owning group or None for an own write, version served)
        steps: List[Tuple[bytes, Optional[int], Optional[Version]]] = []
        wanted: Dict[int, List[bytes]] = {}  # group -> keys to cross-check
        served = 0
        for key in sorted(merged):
            if key in txn.writes:
                steps.append((key, None, None))
            else:
                index = self.locate(key)
                version = self.stores[index].version_at(key, txn.snapshot_ts)
                steps.append((key, index, version))
                if version is None:
                    continue  # in the index, invisible at our snapshot
                wanted.setdefault(index, []).append(key)
            served += 1
            if served == limit:
                break
        replicas, durable = yield from self._cross_check(task, txn, wanted)
        # The yields may span a failover reset; a zombie scan must not
        # record observations or edges.
        self._check_active(txn)
        # Record, in key order.
        results: List[Tuple[bytes, bytes]] = []
        for key, index, version in steps:
            if index is None:
                value = txn.writes[key]
                self._observe(txn, "own-write", key, value)
            elif version is None:
                # Read as absent. No network (nothing to serve), but
                # the edge to its newer writer is a phantom.
                txn.reads.setdefault(key, 0)
                self._note_read_edges(txn, self.stores[index], key, phantom=True)
                continue
            else:
                value = version.value
                slot = durable[key]
                txn.reads.setdefault(key, version.commit_ts)
                self._note_read_edges(txn, self.stores[index], key)
                self._observe(
                    txn, "scan", key, value, replicas[index],
                    slot is None or slot[0] < version.commit_ts,
                )
            results.append((key, value))
        # Next-key-locking convention: a full scan covers [start,
        # last-returned]; one that exhausted the keyspace covers
        # [start, +inf) — an insert anywhere past start would have
        # changed its answer.
        end = results[-1][0] if len(results) == limit else None
        txn.scans.append((start, end))
        # Writes inside the range by concurrent transactions — still
        # buffered, or published while the reads were out — are
        # phantoms: note the edges now (the symmetric direction of
        # ``_note_write_edges``).
        for other in self._concurrent(txn):
            for key in other.writes:
                if key not in txn.reads and key_in_range(key, start, end):
                    self._rw(txn, txn.txid, other.txid, phantom=True)
                    break
        self._abort_if_doomed(txn)
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
            self._abort(txn, "unavailable")
            raise TxnAborted(txn.txid, "unavailable", str(exc)) from None
        # Post each group's batch, then wait for all: the round trips
        # overlap. This task holds a read lane of several channels at
        # once, so it takes them in ascending group order — the order
        # commit takes group locks in. A batch queues only once every
        # lane of its replica is held, and then two scanners could each
        # hold the last lane the other is queued for. It takes one lane
        # per group, of any replica's channel: every wait-for edge still
        # points to a higher group index, so no cycle can form.
        durable: Dict[bytes, Optional[tuple]] = {}
        posted: List[DurableReads] = []
        try:
            for index in groups:
                reads = yield from self.stores[index].post_durable(
                    task, wanted[index], replicas[index]
                )
                posted.append(reads)
            for reads in posted:
                durable.update((yield from reads.wait(task)))
        finally:
            # Whatever ended the scan early — an error completion, a
            # reclaimed zombie's close() — gives every lane back.
            for reads in posted:
                reads.abandon()
        return replicas, durable

    def abort(self, txn: Transaction, reason: str = "user") -> None:
        """Caller-initiated abort; idempotent."""
        if txn.status != "active":
            return
        self._abort(txn, reason)

    def _abort(self, txn: Transaction, reason: str) -> None:
        txn.status = "aborted"
        txn.abort_reason = reason
        self.active.pop(txn.txid, None)
        self.graph.forget(txn.txid)
        self._retire()
        counter = {
            "ww-conflict": "aborts_ww",
            "ssi-pivot": "aborts_ssi",
            "ssi-phantom": "aborts_phantom",
            "unavailable": "aborts_unavailable",
            "failover": "aborts_failover",
        }.get(reason, "aborts_user")
        setattr(self, counter, getattr(self, counter) + 1)
        if TRACER.enabled:
            TRACER.count(f"txn.abort.{reason}")
            TRACER.record(
                self.sim.now,
                "E",
                "txn",
                f"T{txn.txid}",
                pid=f"txn:{self.name}",
                args={"outcome": f"abort:{reason}"},
            )

    def commit(self, task: Task, txn: Transaction) -> Generator:
        """Commit; returns the commit timestamp or raises
        :class:`TxnAborted` (the transaction is already cleaned up)."""
        self._check_active(txn)
        if not txn.writes:
            # Read-only: nothing to validate or install. It still
            # enters the history — its reads are wr/rw edge endpoints
            # for the offline checker — but it can never be a pivot
            # (no writes, no incoming rw edge), and a read that raised
            # an edge onto a settled pivot has aborted it already.
            return self._finalize(txn)
        yield from self._await_latch(task)
        self._check_active(txn)
        self._committing = txn.txid
        try:
            # First-committer-wins: any committed version of a
            # write-set key newer than our snapshot aborts us.
            for key in sorted(txn.writes):
                latest = self.stores[self.locate(key)].latest(key)
                if latest is not None and latest.commit_ts > txn.snapshot_ts:
                    self._abort(txn, "ww-conflict")
                    raise TxnAborted(
                        txn.txid,
                        "ww-conflict",
                        f"{key!r} written by T{latest.txid} after our snapshot",
                    )
            # Refresh rw edges from readers (key-granular or range)
            # that observed state after our writes were buffered.
            for key in sorted(txn.writes):
                self._note_write_edges(txn, key)
            self._abort_if_doomed(txn)
            if self.mode == "ssi":
                found = self.graph.pivot(txn.txid)
                if found is not None:
                    detail, reason = found
                    self._abort(txn, reason)
                    raise TxnAborted(txn.txid, reason, detail)
            commit_ts = txn.commit_ts = self._tick()
            per_group: Dict[int, List[Tuple[bytes, bytes]]] = {}
            for key in sorted(txn.writes):
                per_group.setdefault(self.locate(key), []).append(
                    (key, txn.writes[key])
                )
            if len(per_group) > 1:
                yield from self._install_parallel(task, txn, per_group, commit_ts)
            else:
                [(index, items)] = per_group.items()
                yield from self.stores[index].install(
                    task, items, commit_ts, txn.txid
                )
            # A failover reset may have landed while installs were in
            # flight: an epoch casualty must never publish (its durable
            # records are orphans readers ignore by version metadata).
            self._check_active(txn)
            # Every group installed durably; publish synchronously so
            # visibility is all-or-nothing across groups.
            for index in sorted(per_group):
                self.stores[index].publish(per_group[index], commit_ts, txn.txid)
            return self._finalize(txn, commit_ts)
        finally:
            # A zombie of an older epoch no longer owns the latch: its
            # late unwind must not release a successor's.
            if self._committing == txn.txid:
                self._release_latch()

    def _await_latch(self, task: Task) -> Generator:
        """Park until no commit holds the latch.

        Costs nothing while parked: one wake per release, then a
        re-check, because another woken waiter may have been
        dispatched first and taken the latch.
        """
        while self._committing is not None:
            yield from task.wait(self._latch_released)

    def _release_latch(self) -> None:
        """Clear the latch and wake every parked waiter, in the order
        they parked."""
        self._committing = None
        released = self._latch_released
        self._latch_released = Event(self.sim, released.name)
        released.succeed()

    def _install_parallel(
        self,
        task: Task,
        txn: Transaction,
        per_group: Dict[int, List[Tuple[bytes, bytes]]],
        commit_ts: int,
    ) -> Generator:
        """Overlap per-group installs under a deterministic join barrier.

        Sub-tasks are spawned in sorted group order, so each group's
        WAL lock is *requested* in the same order as a one-group-at-a-
        time install (deadlock freedom), but the chain replications run
        concurrently: multi-group commit latency approaches the max of
        the per-group installs instead of their sum. The join is
        deterministic — the committer waits on every sub-task in
        sorted order regardless of completion order — and a failure is
        re-raised only after all sub-tasks have finished, so no
        install outlives its commit attempt.
        """
        subs = []
        for index in sorted(per_group):

            def body(sub, index=index):
                yield from self.stores[index].install(
                    sub, per_group[index], commit_ts, txn.txid
                )

            subs.append(
                task.os.spawn(body, name=f"{self.name}.install.g{index}")
            )
        if TRACER.enabled:
            TRACER.count("txn.install_parallel")
        failure: Optional[BaseException] = None
        for sub in subs:
            try:
                yield from task.wait(sub.process)
            except Exception as exc:
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure

    def _finalize(self, txn: Transaction, commit_ts: Optional[int] = None) -> int:
        if commit_ts is None:
            commit_ts = self._tick()
        txn.status = "committed"
        self.active.pop(txn.txid, None)
        for obs in txn.observations:
            if obs["kind"] == "own-write" and obs["key"] not in txn.writes:
                self.read_violations.append(obs)
        record = CommittedTxn(
            txid=txn.txid,
            begin_ts=txn.snapshot_ts,
            commit_ts=commit_ts,
            reads=dict(txn.reads),
            writes=tuple(sorted(txn.writes)),
            scans=tuple(txn.scans),
        )
        self._retained[txn.txid] = record
        heapq.heappush(self._retiring, (commit_ts, txn.txid))
        self._retire()
        self.history.append(record)
        self.commits += 1
        if TRACER.enabled:
            TRACER.count("txn.commit")
            TRACER.record(
                self.sim.now,
                "E",
                "txn",
                f"T{txn.txid}",
                pid=f"txn:{self.name}",
                args={"outcome": "commit", "commit_ts": commit_ts},
            )
        return commit_ts

    def _retire(self) -> None:
        """Drop every committed transaction that no live one is
        concurrent with — commit below the watermark, the oldest live
        snapshot (all of them once nothing is live) — from the probed
        set and the SSI graph."""
        retiring = self._retiring
        if not retiring:
            return
        watermark = min(
            (txn.snapshot_ts for txn in self.active.values()), default=None
        )
        while retiring and (watermark is None or retiring[0][0] < watermark):
            txid = heapq.heappop(retiring)[1]
            del self._retained[txid]
            self.graph.retire(txid)

    # -- failover ------------------------------------------------------------------

    def reset_after_failover(self, task: Task, index: int, new_group) -> Generator:
        """Re-point group ``index`` at its repaired chain and clean up.

        Every transaction of the old epoch aborts (a commit parked on
        the dead chain's ack never resumes; resumable stragglers die
        at their next ``_check_active``), which leaves nothing live
        and so retires every committed transaction from the SSI graph;
        the commit latch is cleared, the store rebinds, and its WAL
        recovers (stale lock broken, pending records drained). Returns
        drained-record count.
        """
        self.epoch += 1
        for txn in list(self.active.values()):
            self._abort(txn, "failover")
        self._release_latch()
        store = self.stores[index]
        store.rebind(new_group)
        executed = yield from store.recover(task)
        if TRACER.enabled:
            TRACER.count("txn.failover_reset")
        return executed

    # -- introspection -------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {
            "commits": self.commits,
            "aborts_ww": self.aborts_ww,
            "aborts_ssi": self.aborts_ssi,
            "aborts_phantom": self.aborts_phantom,
            "aborts_unavailable": self.aborts_unavailable,
            "aborts_failover": self.aborts_failover,
            "aborts_user": self.aborts_user,
        }
