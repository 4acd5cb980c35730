"""Cross-group serializable transactions over replicated groups.

``repro.txn`` layers general transactions on the replicated-log /
group-write machinery: MVCC snapshot reads (:mod:`~repro.txn.mvcc`),
an SSI serialization graph with pivot aborts (:mod:`~repro.txn.ssi`),
the certifier that decides what commits (:mod:`~repro.txn.certify`),
Available-Copies read placement under failures
(:mod:`~repro.txn.available_copies`), the commit coordinator doing the
I/O around it (:mod:`~repro.txn.coordinator`), abort-reason-aware
retry policies (:mod:`~repro.txn.retry`), and two deterministic
workload drivers: the shaped mix (:mod:`~repro.txn.workload`,
``python -m repro txn``) and transactional YCSB
(:mod:`~repro.txn.ycsb`, ``python -m repro txn --ycsb``), both writing
transactions as step lists that one interpreter runs
(:func:`~repro.txn.workload.run_txn`).
"""

from .available_copies import AvailabilityTracker, NoAvailableCopy
from .certify import Transaction, TxnAborted, Version
from .coordinator import TxnCoordinator
from .mvcc import SlotExhausted, VersionedGroupStore
from .retry import (
    ExponentialBackoff,
    ImmediateRetry,
    NoRetry,
    RetryPolicy,
    RetryStats,
    make_policy,
    run_with_retries,
)
from .ssi import (
    CommittedTxn,
    SerializationGraph,
    build_serialization_edges,
    describe_cycle,
    find_cycle,
    key_in_range,
)
from .workload import TxnWorkloadReport, build_txn_system, run_txn_workload
from .ycsb import (
    YcsbSuiteReport,
    YcsbTxnReport,
    run_ycsb,
    run_ycsb_mix,
    run_ycsb_point,
)

__all__ = [
    "AvailabilityTracker",
    "NoAvailableCopy",
    "Transaction",
    "TxnAborted",
    "TxnCoordinator",
    "SlotExhausted",
    "Version",
    "VersionedGroupStore",
    "CommittedTxn",
    "SerializationGraph",
    "build_serialization_edges",
    "describe_cycle",
    "find_cycle",
    "key_in_range",
    "RetryPolicy",
    "NoRetry",
    "ImmediateRetry",
    "ExponentialBackoff",
    "RetryStats",
    "make_policy",
    "run_with_retries",
    "TxnWorkloadReport",
    "build_txn_system",
    "run_txn_workload",
    "YcsbTxnReport",
    "YcsbSuiteReport",
    "run_ycsb_mix",
    "run_ycsb_point",
    "run_ycsb",
]
