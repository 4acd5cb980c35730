"""Host and cluster containers wiring CPU, memory, NIC and fabric."""

from __future__ import annotations

from typing import List, Optional

from ..sim import Simulator
from .cpu import OperatingSystem
from .memory import MemorySystem
from .network import Fabric
from .nic import NicParams, Rnic

__all__ = ["Host", "Cluster"]


class Host:
    """One server: cores + memory/NVM + one RNIC on the fabric."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        fabric: Fabric,
        n_cores: int = 16,
        dram_size: int = 1 << 26,
        nvm_size: int = 1 << 26,
        nic_params: Optional[NicParams] = None,
        hyperloop_driver: bool = True,
    ):
        self.sim = sim
        self.name = name
        self.memory = MemorySystem(dram_size=dram_size, nvm_size=nvm_size)
        self.os = OperatingSystem(sim, n_cores=n_cores, name=name)
        self.nic = Rnic(sim, name, self.memory, fabric, params=nic_params)
        # Imported here to keep repro.hw importable without pulling the
        # verbs layer in at module-import time (verbs imports repro.hw).
        from ..rdma.verbs import RdmaDevice

        self.dev = RdmaDevice(self.nic, hyperloop=hyperloop_driver)
        self.down = False
        # Virtual time of the last restart (None = never restarted).
        # Read-side failure rules use this to tell a fresh copy from a
        # recovered one that has not been written since recovery.
        self.last_restart_ns: Optional[int] = None

    def power_failure(self) -> None:
        """Lose power: NIC cache dropped, DRAM zeroed, NVM survives.

        Order matters: the NIC's volatile write cache must revert its
        un-flushed windows *before* DRAM is zeroed, so NVM bytes whose
        durability window was still open land back on their last
        durable contents — exactly the loss gFLUSH exists to prevent
        (DESIGN.md, durability model).
        """
        self.nic.power_failure()
        self.memory.power_failure()

    def crash(self) -> None:
        """Whole-host failure: power loss plus a dark NIC.

        Composes :meth:`Rnic.crash` (engines halt, volatile WQE/QP
        caches and un-flushed write windows lost, inbound traffic
        discarded) with :meth:`MemorySystem.power_failure` (DRAM
        zeroed, NVM intact). CPU tasks of the crashed host keep their
        sim processes but can no longer reach the wire, so heartbeats
        stop at the NIC — which is what failure detectors observe.
        """
        self.down = True
        self.nic.crash()
        self.memory.power_failure()

    def restart(self) -> None:
        """Bring a crashed host back: NVM contents are whatever
        survived the crash, DRAM is zeroed, the NIC is up but every
        pre-crash ring holds zeroed (invalid) WQEs. Software rebuilds
        its groups/QPs on top, as §5.1's recovery flow does."""
        self.down = False
        self.last_restart_ns = self.sim.now
        self.nic.restart()

    def __repr__(self) -> str:
        return f"<Host {self.name} cores={len(self.os.cores)}>"


class Cluster:
    """A set of hosts on one switch, as in the paper's testbed."""

    def __init__(
        self,
        sim: Simulator,
        n_hosts: int,
        n_cores: int = 16,
        dram_size: int = 1 << 26,
        nvm_size: int = 1 << 26,
        nic_params: Optional[NicParams] = None,
        propagation_ns: int = 1300,
    ):
        self.sim = sim
        self.fabric = Fabric(sim, propagation_ns=propagation_ns)
        self.hosts: List[Host] = [
            Host(
                sim,
                f"host{i}",
                self.fabric,
                n_cores=n_cores,
                dram_size=dram_size,
                nvm_size=nvm_size,
                nic_params=nic_params,
            )
            for i in range(n_hosts)
        ]

    def __getitem__(self, index: int) -> Host:
        return self.hosts[index]

    def __len__(self) -> int:
        return len(self.hosts)

    def host(self, name: str) -> Host:
        for host in self.hosts:
            if host.name == name:
                return host
        raise KeyError(name)
