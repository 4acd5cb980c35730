"""Every small history through the certifier, checked for serializability.

The bound: three transactions over two keys, each a program of at most
two operations (``R(k)`` or ``W(k)``), run in every interleaving of
their steps — ``begin``, the operations, ``validate`` and, for a
writer, the install on its one group (``installed``). Validate and
install are separate steps, so pending commits interleave with
everything else: a later commit can install first and wait to publish,
a snapshot can fall between a validation and its publish, and a read is
not enabled while a pending commit from before its snapshot writes its
key — it parks, as in ``TxnCoordinator.read``. No simulator runs: the
steps are :class:`~repro.txn.certify.Certifier` calls.

What keeps it small, all of it sound:

* Programs are chosen as they run (:class:`Run`), so programs sharing a
  prefix share its states. A read of a key the transaction already
  wrote is served from its buffer without a certifier step, so no
  program has one.
* Transactions are labelled by begin order, which is how the
  certifier assigns txids: begins run in slot order, and each history
  up to txid renaming is run once.
* Renaming the two keys into each other maps runs to runs — the rules
  compare keys only for equality — so the first operation of a run is
  on ``x``.
* Commuting steps (:data:`COMMUTING`) are run in one order only
  (:func:`out_of_order`), and a state reached twice is expanded once
  (:func:`final_states`).

``test_the_reductions_lose_no_history`` checks the last one against a
run without the commuting rule. Each committed history goes to the
brute-force oracle of ``test_ssi_oracle.py``: ``ssi`` must commit no
non-serializable history, and ``si`` must show write skew and Fekete,
O'Neil and O'Neil's read-only anomaly. Tier-1 runs a slice — every
program of at most one operation, and the anomalies' programs
(~3.5 s). The full bound runs as a script (~40 s on a 2-vCPU host)::

    PYTHONPATH=src:. python -m tests.property.test_certify_exhaustive

and prints what it checked: in ``ssi``, 16,361 final states and
10,601 distinct committed histories, none non-serializable.
"""

import copyreg
import hashlib
import io
import pickle
import sys
import time

import pytest

from repro.txn.certify import Certifier, TxnAborted, Version, VersionIndex
from repro.txn.ssi import CommittedTxn
from tests.property.test_ssi_oracle import oracle_serializable

KEYS = (b"x", b"y")
N_TXNS = 3
# A slot's stage. Ints, not strings: pickle shares a string object it
# meets twice, so equal states could pickle differently.
IDLE, LIVE, VALIDATED, DONE = range(4)


def one_group(key):
    return 0


class Run:
    """A certifier driven through the steps of three transactions.

    A step is ``(slot, action)``: ``"begin"``, an operation ``("r",
    key)`` or ``("w", key)``, ``"validate"``, or a writer's
    ``"install"``. With ``programs`` given each slot runs that program;
    without, each slot may take any operation while it has done fewer
    than ``max_ops`` — every program is run, chosen as it goes, so
    programs that share a prefix share its states.
    """

    def __init__(self, mode, max_ops=2, programs=None):
        self.certifier = Certifier([VersionIndex()], one_group, mode)
        self.max_ops = max_ops
        self.programs = programs
        self.txns = [None] * N_TXNS
        self.stage = [IDLE] * N_TXNS
        self.n_ops = [0] * N_TXNS
        self.touched = False  # has any operation run yet

    def enabled(self):
        steps = []
        for slot, stage in enumerate(self.stage):
            if stage == IDLE:
                if slot == 0 or self.stage[slot - 1] != IDLE:
                    steps.append((slot, "begin"))  # begins come in slot order
            elif stage == LIVE:
                for op in self._next_ops(slot):
                    key = op[1]
                    if op[0] == "r" and self.certifier.earlier_writer(
                        self.txns[slot], lambda writes: key in writes
                    ):
                        continue  # parked on an earlier pending writer of its key
                    steps.append((slot, op))
                if self.programs is None or self.n_ops[slot] == len(self.programs[slot]):
                    steps.append((slot, "validate"))
            elif stage == VALIDATED:
                steps.append((slot, "install"))
        return steps

    def _next_ops(self, slot):
        done = self.n_ops[slot]
        if self.programs is not None:
            return self.programs[slot][done : done + 1]
        if done == self.max_ops:
            return ()
        # Key renaming: the first operation of the run is on x.
        keys = KEYS if self.touched else KEYS[:1]
        writes = self.txns[slot].writes
        return [("r", key) for key in keys if key not in writes] + [
            ("w", key) for key in keys
        ]

    def step(self, slot, action):
        certifier, txn = self.certifier, self.txns[slot]
        try:
            if action == "begin":
                self.txns[slot] = certifier.begin(0)
                self.stage[slot] = LIVE
            elif action == "validate":
                certifier.validate(txn, 0)
                self.stage[slot] = VALIDATED if txn.writes else DONE
            elif action == "install":
                certifier.installed(0, [txn.txid])
                self.stage[slot] = DONE
            else:
                self.n_ops[slot] += 1
                self.touched = True
                if action[0] == "r":
                    certifier.read(txn, action[1])
                else:
                    certifier.write(txn, action[1], b"T%d" % txn.txid)
        except TxnAborted:
            self.stage[slot] = DONE
        if self.stage[slot] == DONE:
            # The certifier keeps what it still needs of the transaction.
            self.txns[slot], self.n_ops[slot] = None, 0


def step_class(step):
    action = step[1]
    return action if isinstance(action, str) else {"r": "read", "w": "write"}[action[0]]


# Pairs of step classes whose steps, taken by two transactions, commute:
# either order reaches the same state, up to the order in which the two
# enter the history, and neither enables or disables the other. A
# begin changes only the clock and the live set, and its snapshot is
# above every commit timestamp: no read, write or install sees the new
# transaction (it has read and written nothing) and it holds back no
# retirement. An install moves a validated transaction from pending to
# published, and a validated transaction is settled, and concurrent
# with another or not, the same way in both: a write, a validation or
# another install decides alike before or after it. A read does not
# commute with an install (the index and the parking rule see the
# difference), nor anything with a tick (begin, validate) but an
# install.
COMMUTING = {
    frozenset(pair)
    for pair in [
        ("begin", "read"), ("begin", "write"), ("begin", "install"),
        ("install", "validate"), ("install", "write"), ("install", "install"),
    ]
}
RANK = {"begin": 0, "install": 1, "validate": 2, "read": 3, "write": 4}


def out_of_order(last, step):
    """Whether ``step`` right after ``last`` is a commuting pair out of
    rank order. Every schedule has an arrangement with no such pair —
    swapping one reaches the same state, and the rank-smallest
    arrangement has none — so schedules with one are not run."""
    if last[0] == step[0]:
        return False
    first, second = step_class(last), step_class(step)
    return frozenset((first, second)) in COMMUTING and (RANK[second], step[0]) < (
        RANK[first], last[0]
    )


STEP_BITS = {
    step: 1 << bit
    for bit, step in enumerate(
        (slot, action)
        for slot in range(N_TXNS)
        for action in ("begin", "validate", "install", *((k, key) for k in "rw" for key in KEYS))
    )
}


class Freezer:
    """Pickles runs, the frozen dataclasses by their fields as plain
    constructor calls (several times cheaper than the generic path)."""

    def __init__(self):
        self.buffer = io.BytesIO()
        self.pickler = pickle.Pickler(self.buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self.pickler.dispatch_table = dict(copyreg.dispatch_table)
        self.pickler.dispatch_table[CommittedTxn] = lambda txn: (
            CommittedTxn,
            (txn.txid, txn.begin_ts, txn.commit_ts, txn.reads, txn.writes, txn.scans),
        )
        self.pickler.dispatch_table[Version] = lambda version: (
            Version, (version.commit_ts, version.txid, version.value)
        )

    def __call__(self, run):
        self.buffer.seek(0)
        self.buffer.truncate()
        self.pickler.clear_memo()
        self.pickler.dump(run)
        return self.buffer.getvalue()


def final_states(run):
    """Every run reachable from ``run`` with no step left, with the
    first schedule found to reach it.

    A state is the whole run pickled: the certifier's state and each
    transaction's progress. Equal pickles are equal object graphs, and
    the steps are deterministic, so two schedules that reach one state
    have the same futures: each step is taken from each state once,
    whichever schedule first allows it (:func:`out_of_order`). States
    are remembered by a 128-bit digest of the pickle. (Pickling the
    same state twice may give different bytes — set order — which
    costs only a repeated expansion.)
    """
    freeze = Freezer()
    taken = {}  # state digest -> bit mask of the steps taken from it
    stack = [((), run, freeze(run), run.enabled())]
    while stack:
        schedule, run, state, steps = stack.pop()
        for index, step in enumerate(steps):
            child = run if index == len(steps) - 1 else pickle.loads(state)
            child.step(*step)
            frozen = freeze(child)
            digest = hashlib.blake2b(frozen, digest_size=16).digest()
            enabled = child.enabled()
            if not enabled:
                if digest not in taken:
                    taken[digest] = 0
                    yield schedule + (step,), child
                continue
            done = taken.get(digest, 0)
            new = [next_step for next_step in enabled
                   if not done & STEP_BITS[next_step] and not out_of_order(step, next_step)]
            if new:
                taken[digest] = done | sum(STEP_BITS[next_step] for next_step in new)
                stack.append((schedule + (step,), child, frozen, new))


def history_key(history):
    """A committed history as a set: the order transactions entered it
    is not part of it (the oracle orders versions by commit timestamp)."""
    return tuple(sorted(
        (txn.commit_ts, txn.txid, txn.begin_ts, tuple(sorted(txn.reads.items())), txn.writes)
        for txn in history
    ))


def describe(schedule):
    """A schedule as steps, ``T1 begin, T1 R(x), ...``."""
    return ", ".join(
        f"T{slot + 1} "
        + (action if isinstance(action, str) else f"{action[0].upper()}({action[1].decode()})")
        for slot, action in schedule
    )


def n_ops(schedule):
    return sum(not isinstance(action, str) for _, action in schedule)


class Census:
    """Histories a mode committed: how many final states were reached,
    each distinct committed history and whether the oracle serializes
    it, and for each non-serializable one a schedule with the fewest
    operations found."""

    def __init__(self, mode):
        self.mode = mode
        self.finals = 0
        self.verdicts = {}
        self.anomalies = {}

    def run(self, max_ops=2, programs=None):
        for schedule, run in final_states(Run(self.mode, max_ops, programs)):
            certifier = run.certifier
            assert not certifier.active and not certifier.pending
            self.finals += 1
            key = history_key(certifier.history)
            if key not in self.verdicts:
                self.verdicts[key] = oracle_serializable(certifier.history)
            if not self.verdicts[key]:
                found = self.anomalies.get(key)
                if found is None or n_ops(schedule) < n_ops(found[0]):
                    self.anomalies[key] = (schedule, certifier.history)
        return self

    def minimal_anomaly(self):
        """A non-serializable history with the fewest operations, spelled out."""
        schedule, history = min(
            self.anomalies.values(), key=lambda found: (n_ops(found[0]), len(found[0]))
        )
        return f"{describe(schedule)}\n  committed: {history}"

    def summary(self):
        return (
            f"{self.mode}: {self.finals} final states, {len(self.verdicts)} "
            f"distinct committed histories, {len(self.anomalies)} non-serializable"
        )


def write_skew(history):
    """Two committed writers of one key each, each reading the initial
    version of the key the other writes."""
    writers = [txn for txn in history if txn.writes]
    if len(writers) != 2 or any(len(txn.writes) != 1 for txn in writers):
        return False
    first, second = writers
    return first.reads.get(second.writes[0]) == 0 and second.reads.get(first.writes[0]) == 0


def read_only_anomaly(history):
    """A committed read-only transaction the history is serializable
    without: its reads alone make the cycle (Fekete et al.)."""
    return any(
        not txn.writes and oracle_serializable([t for t in history if t is not txn])
        for txn in history
    )


# The anomalies' programs: Fekete's T2 R(y) W(x), T1 W(y), T3 R(x) R(y)
# in begin order, and write skew beside an empty third transaction.
FEKETE = (
    (("r", b"y"), ("w", b"x")),
    (("w", b"y"),),
    (("r", b"x"), ("r", b"y")),
)
WRITE_SKEW = ((("r", b"x"), ("w", b"y")), (("r", b"y"), ("w", b"x")), ())


def test_ssi_commits_only_serializable_histories():
    """The tier-1 slice: every program of at most one operation, and
    the two anomalies' programs."""
    for census in (
        Census("ssi").run(max_ops=1),
        Census("ssi").run(programs=FEKETE),
        Census("ssi").run(programs=WRITE_SKEW),
    ):
        print(census.summary())
        if census.anomalies:
            pytest.fail("non-serializable: " + census.minimal_anomaly())


def test_si_shows_write_skew_and_the_read_only_anomaly():
    fekete = Census("si").run(programs=FEKETE)
    skew = Census("si").run(programs=WRITE_SKEW)
    assert any(read_only_anomaly(history) for _, history in fekete.anomalies.values())
    assert any(write_skew(history) for _, history in skew.anomalies.values())


def test_the_reductions_lose_no_history(monkeypatch):
    """Running commuting steps in one order reaches every committed
    history that running them in both orders does."""
    reduced = Census("ssi").run(max_ops=1)
    monkeypatch.setattr(sys.modules[__name__], "out_of_order", lambda last, step: False)
    every = Census("ssi").run(max_ops=1)
    assert every.finals > reduced.finals
    assert reduced.verdicts == every.verdicts


def main():
    """The full bound: every program of at most two operations in
    ``ssi``, and the anomalies' programs in ``si``."""
    start = time.perf_counter()
    census = Census("ssi").run(max_ops=2)
    print(f"{census.summary()} in {time.perf_counter() - start:.1f} s")
    if census.anomalies:
        print("FAIL: ssi committed a non-serializable history:", census.minimal_anomaly())
        return 1
    test_si_shows_write_skew_and_the_read_only_anomaly()
    print("si: write skew and the read-only anomaly shown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
