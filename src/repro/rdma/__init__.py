"""RDMA verbs layer: WQE/CQE formats and the userspace driver."""

from .verbs import AccessFlags, Mr, POST_COST_NS, QueuePair, RdmaDevice
from ..hw.wqe import (
    Cqe,
    FLAG_SGL,
    FLAG_SIGNALED,
    FLAG_VALID,
    Opcode,
    WC_REMOTE_ACCESS_ERROR,
    WC_SUCCESS,
    Wqe,
    WQE_SIZE,
)

__all__ = [
    "RdmaDevice",
    "QueuePair",
    "Mr",
    "AccessFlags",
    "POST_COST_NS",
    "Wqe",
    "Cqe",
    "Opcode",
    "WQE_SIZE",
    "FLAG_VALID",
    "FLAG_SIGNALED",
    "FLAG_SGL",
    "WC_SUCCESS",
    "WC_REMOTE_ACCESS_ERROR",
]
