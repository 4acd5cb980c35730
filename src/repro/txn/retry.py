"""Abort-reason-aware retry policies for the transaction layer.

A transaction abort is not one thing. SSI pivot aborts and
first-committer-wins conflicts are *contention*: the transaction lost
a race to the peers the abort names (``TxnAborted.peers``), and a
retry that begins before they have published re-creates the race —
the loop the SafarDB evaluation measures as retry amplification.
``unavailable`` aborts are different: the Available-Copies read
already blocked for its full budget (``max_wait_ns``), so a retry only
needs a short re-probe delay. Failover/epoch casualties are the
workload harness's business (replay on the repaired chain); policies
treat them as fatal.

Three policies ship, forming the experiment's control ladder:

* :class:`NoRetry` — the control; aborted transactions are dropped.
* :class:`ImmediateRetry` — retry at once, capped attempts; the
  "naive client" that maximizes retry amplification under contention.
* :class:`ExponentialBackoff` — a contention abort whose newest peer is
  still pending (``TxnAborted.after``) waits for its publish and begins
  again at once, drawing no jitter. The peer ending is progress, so a
  waited attempt counts toward neither the cap nor the window. Any
  other abort sleeps a capped exponential delay with *seeded*
  equal-jitter.

Determinism: a policy's randomness comes only from the
``random.Random`` handed to it (workloads pass ``sim.rng("txn-retry")``),
never from global state or wall clocks. Attempt accounting is
surfaced through ``repro.obs`` counters (``txn.attempt``,
``txn.retry.<reason>``, ``txn.giveup.<reason>``) and the
:class:`RetryStats` the workload folds into its report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, Optional

from ..obs.trace import TRACER
from ..sim import MS
from .coordinator import TxnAborted

__all__ = [
    "CONTENTION_REASONS",
    "AVAILABILITY_REASONS",
    "RetryPolicy",
    "NoRetry",
    "ImmediateRetry",
    "ExponentialBackoff",
    "RetryStats",
    "make_policy",
    "run_with_retries",
]


CONTENTION_REASONS = frozenset({"ssi-pivot", "ssi-phantom", "ww-conflict"})
"""Aborts where the transaction lost a race: back off, then retry."""

AVAILABILITY_REASONS = frozenset({"unavailable"})
"""Aborts where the read path already waited out its blocking budget."""


class RetryPolicy:
    """Decides whether (and when) attempt ``n+1`` should follow an abort.

    ``next_delay_ns(attempt, reason)`` returns the virtual-time delay
    before the next attempt, or ``None`` to give up. ``attempt`` is the
    1-based number of the attempt that just aborted (attempts a peer
    wait followed not counted), so with ``max_attempts=3`` it is
    ``None`` once ``attempt >= 3``.
    """

    name = "?"

    def next_delay_ns(self, attempt: int, reason: str) -> Optional[int]:
        raise NotImplementedError

    def peer_wait(self, exc: TxnAborted):
        """The pending event to wait for instead of a delay, or None."""
        return None

    def __repr__(self) -> str:
        return f"<RetryPolicy {self.name}>"


class NoRetry(RetryPolicy):
    """The control: every abort is final (PR 7 behavior)."""

    name = "none"

    def next_delay_ns(self, attempt: int, reason: str) -> Optional[int]:
        return None


class ImmediateRetry(RetryPolicy):
    """Retry contention and availability aborts at once, capped.

    No delay means the next attempt begins on the same virtual
    timestamp the abort cleanup finished — the maximally impatient
    client, useful as the upper bound on retry amplification.
    """

    name = "immediate"

    def __init__(self, max_attempts: int = 4):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts

    def next_delay_ns(self, attempt: int, reason: str) -> Optional[int]:
        if attempt >= self.max_attempts:
            return None
        if reason in CONTENTION_REASONS or reason in AVAILABILITY_REASONS:
            return 0
        return None


class ExponentialBackoff(RetryPolicy):
    """Wait for a contention abort's pending peer, else back off.

    A contention abort whose peer is pending (:meth:`peer_wait`) begins
    again when the peer publishes or dies. One with none waits
    ``base_ns * 2**(attempt-1)`` capped at ``cap_ns``, half fixed and
    half drawn uniformly from the policy's RNG (equal jitter: bounded
    below, de-synchronized above). ``unavailable`` aborts wait a flat
    ``availability_delay_ns``: the Available-Copies read already
    blocked for the full budget. Everything else is fatal. The RNG must
    be a dedicated stream (``sim.rng("txn-retry")``), so the schedule
    replays bit-for-bit from the plan seed.
    """

    name = "backoff"

    def __init__(
        self,
        rng: random.Random,
        base_ns: int = 50_000,
        cap_ns: int = 2 * MS,
        max_attempts: int = 6,
        availability_delay_ns: int = 200_000,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_ns < 1 or cap_ns < base_ns:
            raise ValueError("need 1 <= base_ns <= cap_ns")
        self.rng = rng
        self.base_ns = base_ns
        self.cap_ns = cap_ns
        self.max_attempts = max_attempts
        self.availability_delay_ns = availability_delay_ns

    def peer_wait(self, exc: TxnAborted):
        after = exc.after
        return after if after is not None and not after.triggered else None

    def next_delay_ns(self, attempt: int, reason: str) -> Optional[int]:
        if attempt >= self.max_attempts:
            return None
        if reason in AVAILABILITY_REASONS:
            return self.availability_delay_ns
        if reason not in CONTENTION_REASONS:
            return None
        window = min(self.cap_ns, self.base_ns * (2 ** (attempt - 1)))
        half = window // 2
        return half + self.rng.randrange(window - half + 1)


def make_policy(
    name: str, rng: Optional[random.Random] = None, **kwargs
) -> RetryPolicy:
    """Build a policy by name (``none`` / ``immediate`` / ``backoff``)."""
    if name == "none":
        return NoRetry()
    if name == "immediate":
        return ImmediateRetry(**kwargs)
    if name == "backoff":
        if rng is None:
            raise ValueError("backoff needs a seeded rng (sim.rng('txn-retry'))")
        return ExponentialBackoff(rng, **kwargs)
    raise ValueError(f"unknown retry policy {name!r}")


@dataclass
class RetryStats:
    """Aggregated attempt accounting across one workload run."""

    attempts: int = 0  # every attempt, first tries included
    retries: int = 0  # attempts after the first
    gave_up: int = 0  # logical transactions abandoned
    committed: int = 0  # logical transactions that committed
    backoff_ns: int = 0  # total virtual time spent between attempts
    peer_waits: int = 0  # retries that waited for a peer's publish
    by_reason: Dict[str, int] = field(default_factory=dict)  # retried aborts

    def note_retry(self, reason: str, spent_ns: int, waited: bool) -> None:
        self.retries += 1
        self.backoff_ns += spent_ns
        self.peer_waits += waited
        self.by_reason[reason] = self.by_reason.get(reason, 0) + 1

    @property
    def amplification(self) -> float:
        """Attempts per committed transaction (1.0 = no retries needed)."""
        return self.attempts / self.committed if self.committed else 0.0


def run_with_retries(
    task,
    policy: RetryPolicy,
    attempt: Callable[..., Generator],
    stats: Optional[RetryStats] = None,
) -> Generator:
    """Drive one logical transaction through a retry policy.

    ``attempt(task)`` is a generator performing one full
    begin/…/commit attempt and raising
    :class:`~repro.txn.coordinator.TxnAborted` on failure (each
    attempt must open a *fresh* transaction — an aborted one is dead).
    Returns ``("committed", attempts, result)`` or
    ``("aborted:<reason>", attempts, None)`` once the policy gives up.
    """
    number = waited = 0  # attempts; those a peer wait followed
    while True:
        number += 1
        if stats is not None:
            stats.attempts += 1
        if TRACER.enabled:
            TRACER.count("txn.attempt")
        try:
            result = yield from attempt(task)
        except TxnAborted as exc:
            after = policy.peer_wait(exc)
            delay = 0 if after is not None else policy.next_delay_ns(number - waited, exc.reason)
            if delay is None:
                if stats is not None:
                    stats.gave_up += 1
                if TRACER.enabled:
                    TRACER.count(f"txn.giveup.{exc.reason}")
                return (f"aborted:{exc.reason}", number, None)
            if TRACER.enabled:
                TRACER.count(f"txn.retry.{exc.reason}")
            aborted = task.sim.now
            if after is not None:
                waited += 1
                yield from task.wait(after)
            elif delay:
                yield from task.sleep(delay)
            if stats is not None:
                stats.note_retry(exc.reason, task.sim.now - aborted, after is not None)
            continue
        if stats is not None:
            stats.committed += 1
        return ("committed", number, result)
