"""Invariant checkers chaos scenarios assert after running.

Each checker returns an :class:`InvariantResult` — a named pass/fail
with a short deterministic detail string (offsets and counts, never
wall-clock state), so scenario reports render byte-identical across
runs with the same seed.

The invariants come straight from the paper's guarantees:

* *No acknowledged gWRITE lost* — once the tail ACK reached the
  client, the bytes exist on every (surviving) replica.
* *Replicas byte-identical* — after repair and quiesce, chain
  replication leaves no divergence.
* *WAL recovery restores committed operations* — a replica's durable
  log + checkpoint reconstruct exactly the committed table (§5.1).
* *Suspicion within bound* — a crashed replica is suspected within
  ``miss_threshold`` beat intervals plus detection slack (§5.1).

The transaction layer (``repro.txn``) adds three more:

* *No serialization anomaly* — the committed history's full
  serialization graph (ww + wr + rw edges) is acyclic, checked offline
  and independently of whatever the online SSI rules claimed.
* *Read-your-writes across failover* — every snapshot read observed
  exactly the version its snapshot timestamp entitles it to, and every
  own-write read returned the buffered value, even when the read
  failed over to a surviving replica.
* *No acked txn write lost* — the newest published version of every
  key is durably present (and identical) on every surviving replica of
  its owning group.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = [
    "InvariantResult",
    "check_model_match",
    "check_replicas_identical",
    "check_no_errors",
    "check_acked_writes",
    "check_suspicion_bound",
    "check_wal_recovery",
    "check_no_serialization_anomaly",
    "check_read_your_writes",
    "check_txn_acked_writes",
    "tally_invariants",
]


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of one invariant check."""

    name: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        state = "PASS" if self.ok else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{state}] {self.name}{suffix}"


def check_model_match(group, model: bytes, name: str = "model-match") -> InvariantResult:
    """Every replica's region equals the client-side model, byte for byte."""
    model = bytes(model)
    diverged = []
    for replica in range(group.group_size):
        actual = group.read_replica(replica, 0, group.region_size)
        if actual != model:
            first = next(
                index for index in range(len(model)) if actual[index] != model[index]
            )
            diverged.append(f"r{replica}@+{first}")
    if diverged:
        return InvariantResult(name, False, "diverged: " + ", ".join(diverged))
    return InvariantResult(name, True, f"{group.group_size} replicas x {len(model)}B")


def check_replicas_identical(group, name: str = "replicas-identical") -> InvariantResult:
    """All replica regions are pairwise identical."""
    reference = group.read_replica(0, 0, group.region_size)
    for replica in range(1, group.group_size):
        actual = group.read_replica(replica, 0, group.region_size)
        if actual != reference:
            first = next(
                index
                for index in range(len(reference))
                if actual[index] != reference[index]
            )
            return InvariantResult(name, False, f"r{replica} differs from r0 at +{first}")
    return InvariantResult(name, True, f"{group.group_size} replicas")


def check_no_errors(group, name: str = "no-group-errors") -> InvariantResult:
    """The group surfaced no completion errors."""
    if group.errors:
        return InvariantResult(name, False, f"{len(group.errors)}: {group.errors[0]}")
    return InvariantResult(name, True)


def check_acked_writes(
    group, acked: Mapping[int, bytes], name: str = "no-acked-write-lost"
) -> InvariantResult:
    """Every acknowledged write's bytes are present on every replica.

    ``acked`` maps region offset to the *latest* acknowledged contents
    at that offset (the caller keeps only the newest write per slab, so
    overwrites don't false-positive).
    """
    missing: List[str] = []
    for offset in sorted(acked):
        data = acked[offset]
        for replica in range(group.group_size):
            actual = group.read_replica(replica, offset, len(data))
            if actual != data:
                missing.append(f"r{replica}@{offset}")
    if missing:
        return InvariantResult(
            name, False, f"{len(missing)} lost: " + ", ".join(missing[:4])
        )
    return InvariantResult(name, True, f"{len(acked)} acked writes verified")


def check_suspicion_bound(
    monitor, crash_ns: int, detect_ns: int, slack_intervals: int = 3,
    name: str = "suspicion-bound",
) -> InvariantResult:
    """Detection latency stays within the configured heartbeat bound.

    A replica that crashes right after beating is suspected at worst
    ``(miss_threshold + 1)`` intervals later; polling adds up to one
    more. ``slack_intervals`` covers both.
    """
    bound = (monitor.miss_threshold + slack_intervals) * monitor.interval
    latency = detect_ns - crash_ns
    detail = f"{latency}ns <= {bound}ns"
    if latency < 0:
        return InvariantResult(name, False, f"suspected before the crash: {latency}ns")
    if latency > bound:
        return InvariantResult(name, False, detail.replace("<=", ">"))
    return InvariantResult(name, True, detail)


def check_wal_recovery(
    store, replica: int, expected: Mapping[bytes, bytes], name: str = "wal-recovery"
) -> InvariantResult:
    """Recovering from one replica's durable state yields the committed table."""
    recovered: Dict[bytes, bytes] = store.recover_from_replica(replica)
    expected = dict(expected)
    if recovered == expected:
        return InvariantResult(name, True, f"r{replica}: {len(expected)} keys")
    missing = sorted(key for key in expected if key not in recovered)
    wrong = sorted(
        key for key in expected if key in recovered and recovered[key] != expected[key]
    )
    extra = sorted(key for key in recovered if key not in expected)
    parts = []
    if missing:
        parts.append(f"missing={len(missing)} first={missing[0]!r}")
    if wrong:
        parts.append(f"wrong={len(wrong)} first={wrong[0]!r}")
    if extra:
        parts.append(f"extra={len(extra)} first={extra[0]!r}")
    return InvariantResult(name, False, f"r{replica}: " + ", ".join(parts))


def check_no_serialization_anomaly(
    coordinator, name: str = "no-serialization-anomaly"
) -> InvariantResult:
    """The committed history's serialization graph is acyclic.

    Reconstructed offline from ww + wr + rw edges over the version
    order — independent of the online SSI bookkeeping, so a bug in the
    pivot rule (or a history that slipped past it during failover)
    fails here.
    """
    from ..txn.ssi import describe_cycle

    anomaly = describe_cycle(coordinator.history)
    if anomaly != "none":
        return InvariantResult(name, False, anomaly)
    return InvariantResult(
        name, True, f"{len(coordinator.history)} committed, acyclic"
    )


def check_read_your_writes(
    coordinator, name: str = "read-your-writes-failover"
) -> InvariantResult:
    """Every read observed exactly what its snapshot entitles it to.

    Three sub-checks over what the coordinator folded from its reads'
    observations, and its committed history:

    * no snapshot read was served from a durable copy *behind* the
      version chain (``stale_reads`` — the Available-Copies rules must
      keep unwritten-since-recovery replicas out of rotation);
    * each committed transaction's recorded read versions match an
      independent reconstruction from the history (newest commit at or
      before its snapshot);
    * own-write reads only ever happened for keys the transaction
      actually wrote (``read_violations``, checked at commit).

    The reconstruction indexes each key's commit timestamps once and
    bisects per read: linear in the history, not quadratic.
    """
    stale = coordinator.stale_reads
    if stale:
        first = stale[0]
        return InvariantResult(
            name,
            False,
            f"{len(stale)} stale reads, first T{first['txid']} "
            f"{first['key']!r} from r{first['replica']}",
        )
    commits_by_key: Dict[bytes, List[int]] = {}
    for txn in coordinator.history:
        for key in txn.writes:
            commits_by_key.setdefault(key, []).append(txn.commit_ts)
    for stamps in commits_by_key.values():
        stamps.sort()
    mismatches: List[str] = []
    for txn in coordinator.history:
        for key, seen_ts in txn.reads.items():
            stamps = commits_by_key.get(key, ())
            at = bisect_right(stamps, txn.begin_ts)
            expected = stamps[at - 1] if at else 0
            if seen_ts != expected:
                mismatches.append(
                    f"T{txn.txid} {key!r} saw ts={seen_ts} expected {expected}"
                )
    for obs in coordinator.read_violations:
        mismatches.append(
            f"T{obs['txid']} own-write read of unwritten {obs['key']!r}"
        )
    if mismatches:
        return InvariantResult(
            name, False, f"{len(mismatches)}: " + "; ".join(mismatches[:2])
        )
    return InvariantResult(
        name, True, f"{coordinator.reads_observed} reads consistent"
    )


def check_txn_acked_writes(
    coordinator, name: str = "no-acked-write-lost"
) -> InvariantResult:
    """The newest published version of every key is durable everywhere.

    For each key, every surviving replica of the owning group must
    hold a slot record at least as new as the newest *published*
    version (a strictly newer record is a legal orphan of an
    unfinished commit; an older one means an acknowledged commit's
    bytes were lost).
    """
    lost: List[str] = []
    checked = 0
    for store in coordinator.stores:
        group = store.group
        for key in sorted(store.versions):
            latest = store.latest(key)
            if latest is None:
                continue
            for replica in range(group.group_size):
                if group.replicas[replica].down:
                    continue
                checked += 1
                durable = store.read_durable_offline(replica, key)
                if durable is None or durable[0] < latest.commit_ts:
                    lost.append(f"{store.name}:r{replica}:{key!r}")
                elif durable[0] == latest.commit_ts and durable[3] != latest.value:
                    lost.append(f"{store.name}:r{replica}:{key!r} (corrupt)")
    if lost:
        return InvariantResult(
            name, False, f"{len(lost)} lost: " + ", ".join(lost[:4])
        )
    return InvariantResult(name, True, f"{checked} replica slots verified")


def tally_invariants(
    runs: Iterable[Sequence[Mapping]],
) -> Dict[str, Tuple[int, int]]:
    """Fold many runs' invariant lists into ``{name: (passed, failed)}``.

    Accepts the normalized (dict) form sweep results travel in —
    each run is a sequence of ``{"name": ..., "ok": ...}`` mappings —
    and preserves first-seen order, so the aggregate renders
    deterministically regardless of which worker produced which run.
    """
    tally: Dict[str, Tuple[int, int]] = {}
    for run in runs:
        for result in run:
            name, ok = result["name"], result["ok"]
            passed, failed = tally.get(name, (0, 0))
            tally[name] = (passed + (1 if ok else 0), failed + (0 if ok else 1))
    return tally
