"""Replicated storage systems built on the group primitives (§5)."""

from .docstore import DocStoreError, ReplicatedDocStore
from .encoding import decode_document, encode_document
from .kvstore import ReplicatedKVStore
from .locks import LockManager, LockTimeout
from .log import ReplicatedLog
from .mongo import MongoClient, MongoServer, split_mongo
from .recovery import ChainRepair, HeartbeatMonitor
from .transactions import TransactionManager
from .twophase import TwoPhaseCoordinator
from .wal import LogEntry, LogRecord, RegionLayout, scan_records

__all__ = [
    "ReplicatedLog",
    "ReplicatedKVStore",
    "ReplicatedDocStore",
    "DocStoreError",
    "LockManager",
    "LockTimeout",
    "LogRecord",
    "LogEntry",
    "RegionLayout",
    "scan_records",
    "encode_document",
    "decode_document",
    "MongoServer",
    "MongoClient",
    "split_mongo",
    "HeartbeatMonitor",
    "ChainRepair",
]
