"""Hardware substrate models: CPU/OS, memory/NVM, network, RNIC."""

from .cpu import Core, OperatingSystem, SchedParams, Task
from .memory import MemoryRegion, MemorySystem, WriteCache
from .network import Fabric, Port
from .wqe import Cqe, Opcode, Wqe, WQE_SIZE
from .nic import AccessFlags, CompletionChannel, HwCq, NicParams, NicQp, Rnic
from .host import Cluster, Host

__all__ = [
    "OperatingSystem",
    "SchedParams",
    "Task",
    "Core",
    "MemorySystem",
    "MemoryRegion",
    "WriteCache",
    "Fabric",
    "Port",
    "Rnic",
    "NicQp",
    "NicParams",
    "HwCq",
    "CompletionChannel",
    "AccessFlags",
    "Wqe",
    "Cqe",
    "Opcode",
    "WQE_SIZE",
    "Host",
    "Cluster",
]
