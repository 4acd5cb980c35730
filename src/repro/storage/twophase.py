"""Two-phase commit across replicated shards.

§2.1 frames replicated storage as "a consensus protocol called
two-phase commit over a primary-backup setting". Within one replica
set this repository's :class:`~repro.storage.transactions.
TransactionManager` covers it; this module composes *several* replica
sets (shards) into cross-shard atomic transactions, with the client
as the 2PC coordinator — every per-shard step still rides the
NIC-offloaded primitives, so shard replicas contribute no CPU.

Protocol (coordinator-side):

1. **Prepare**: lock every participating shard (gCAS group lock,
   deadlock-avoided by acquiring in shard order) and append the
   shard's redo record (gWRITE+gFLUSH) — the durable vote.
2. **Decide**: append a commit marker to the coordinator's own
   decision log (a dedicated shard-0 region slot) — the commit point.
3. **Commit**: execute each shard's record (gMEMCPY) and unlock.

A coordinator crash before the decision marker leaves shards locked
with prepared-but-unexecuted records; :meth:`recover` inspects the
decision log and either rolls forward (marker present → execute
everything pending) or aborts (no marker → truncate the prepared
records and unlock). Prepared records are tagged with the global
transaction id so recovery can tell them apart.
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Sequence, Tuple

from ..hw.cpu import Task
from .transactions import TransactionManager

__all__ = ["TwoPhaseCoordinator", "ShardChange"]

ShardChange = Tuple[int, int, bytes]  # (shard, db_offset, data)

_DECISION = struct.Struct("<IQ")  # magic, txid
_DECISION_MAGIC = 0x32504330  # "0CP2" little-endian — the marker tag


class TwoPhaseCoordinator:
    """Client-side 2PC over a list of :class:`TransactionManager`s.

    The decision log lives in the first shard's DB area (its last
    16 bytes), replicated and durable like everything else.
    """

    def __init__(self, shards: Sequence[TransactionManager], writer_id: int = 7):
        if not shards:
            raise ValueError("need at least one shard")
        self.shards = list(shards)
        self.writer_id = writer_id
        self.next_txid = 1
        self.commits = 0
        self.aborts = 0
        self._decision_offset = self.shards[0].layout.db_size - _DECISION.size

    # -- the transaction -------------------------------------------------------

    def transact(self, task: Task, changes: Sequence[ShardChange]) -> Generator:
        """Atomically apply changes across shards; returns the txid."""
        if not changes:
            raise ValueError("empty cross-shard transaction")
        by_shard: Dict[int, List[Tuple[int, bytes]]] = {}
        for shard, offset, data in changes:
            if not 0 <= shard < len(self.shards):
                raise ValueError(f"no shard {shard}")
            if shard == 0 and offset + len(data) > self._decision_offset:
                raise ValueError("change overlaps the decision log slot")
            by_shard.setdefault(shard, []).append((offset, data))
        txid = self.next_txid
        self.next_txid += 1
        participants = sorted(by_shard)
        # Phase 1 — prepare: lock in shard order, append durable votes.
        for shard in participants:
            yield from self.shards[shard].locks.wr_lock(task, self.writer_id)
        for shard in participants:
            yield from self.shards[shard].log.append(task, by_shard[shard])
        # Commit point — the durable decision marker.
        yield from self._write_decision(task, txid)
        # Phase 2 — commit: execute everywhere, then unlock.
        for shard in participants:
            yield from self.shards[shard].drain(task)
        yield from self._clear_decision(task)
        for shard in participants:
            yield from self.shards[shard].locks.wr_unlock(task, self.writer_id)
        self.commits += 1
        return txid

    def _write_decision(self, task: Task, txid: int) -> Generator:
        shard0 = self.shards[0]
        offset = shard0.layout.db_position(self._decision_offset)
        shard0.group.write_local(offset, _DECISION.pack(_DECISION_MAGIC, txid))
        yield from shard0.group.gwrite(task, offset, _DECISION.size)

    def _clear_decision(self, task: Task) -> Generator:
        shard0 = self.shards[0]
        offset = shard0.layout.db_position(self._decision_offset)
        shard0.group.write_local(offset, bytes(_DECISION.size))
        yield from shard0.group.gwrite(task, offset, _DECISION.size)

    def _read_decision(self, task: Task) -> Generator:
        shard0 = self.shards[0]
        raw = yield from shard0.group.pread(
            task, 0, shard0.layout.db_position(self._decision_offset), _DECISION.size
        )
        magic, txid = _DECISION.unpack(raw)
        return txid if magic == _DECISION_MAGIC else None

    # -- recovery -----------------------------------------------------------------

    def recover(self, task: Task) -> Generator:
        """Repair after a coordinator crash; returns "commit",
        "abort", or "clean".

        * decision marker present → the transaction committed: roll
          every shard forward (execute pending records), clear the
          marker, release locks;
        * no marker but prepared records / stale locks → the
          transaction never committed: abort by truncating the
          prepared records and releasing locks.
        """
        decided = yield from self._read_decision(task)
        outcome = "clean"
        for shard_index, shard in enumerate(self.shards):
            # Refresh this coordinator's view of the shard log.
            yield from shard.log.reload(task)
            pending = shard.log.pending_records()
            holder = yield from self._lock_holder(task, shard)
            if decided is not None:
                if pending:
                    yield from shard.drain(task)
                    outcome = "commit"
            else:
                if pending:
                    yield from shard.log.truncate(task)
                    outcome = "abort"
            if holder == self.writer_id:
                yield from shard.group.gcas(
                    task, shard.layout.lock_offset, self.writer_id, 0
                )
        if decided is not None:
            yield from self._clear_decision(task)
            self.commits += 1
        elif outcome == "abort":
            self.aborts += 1
        return outcome

    def _lock_holder(self, task: Task, shard: TransactionManager) -> Generator:
        raw = yield from shard.group.pread(task, 0, shard.layout.lock_offset, 8)
        return int.from_bytes(raw, "little") & 0xFFFF_FFFF
