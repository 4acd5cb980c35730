"""Host memory model: flat physical address space with DRAM and NVM.

The address space is one contiguous range of bytes. Addresses below
``dram_size`` are volatile DRAM; addresses at or above it are NVM
(battery-backed DRAM in the paper's testbed). A bump-pointer allocator
with per-space free lists hands out aligned buffers.

Durability is modelled explicitly:

* CPU stores and DMA writes normally go straight to the backing bytes.
* RDMA WRITEs arriving at a NIC land in the NIC's :class:`WriteCache`
  first (see :mod:`repro.hw.nic`), which holds the *newest* data until
  it drains; reads go through the cache.
* :meth:`MemorySystem.power_failure` zeroes DRAM and leaves NVM intact.
  Whatever was still in a NIC write cache is gone — which is exactly
  the failure mode gFLUSH exists to close.
"""

from __future__ import annotations

import mmap
from typing import Dict, List, Optional, Tuple

from ..obs.trace import TRACER

__all__ = ["MemorySystem", "MemoryRegion", "WriteCache", "MemoryError_"]


class MemoryError_(RuntimeError):
    """Out-of-range access or allocation failure.

    Named with a trailing underscore to avoid shadowing the builtin
    ``MemoryError``.
    """


class MemoryRegion:
    """A contiguous, allocated range of a host's physical memory.

    Regions are handles: all data lives in the owning
    :class:`MemorySystem`. A region knows whether it sits in NVM and
    provides bounds-checked relative access.
    """

    __slots__ = ("memory", "addr", "length", "label", "_rounded")

    def __init__(self, memory: "MemorySystem", addr: int, length: int, label: str):
        self.memory = memory
        self.addr = addr
        self.length = length
        self.label = label
        self._rounded: Optional[int] = None  # set by MemorySystem.alloc

    @property
    def end(self) -> int:
        """One past the last address of the region."""
        return self.addr + self.length

    @property
    def is_nvm(self) -> bool:
        """Whether the whole region lies in the non-volatile range."""
        return self.memory.is_nvm(self.addr, self.length)

    def contains(self, addr: int, length: int = 1) -> bool:
        """Whether ``[addr, addr+length)`` lies inside the region."""
        return self.addr <= addr and addr + length <= self.end

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` relative to the region."""
        self._check(offset, length)
        return self.memory.read(self.addr + offset, length)

    def read_view(self, offset: int, length: int) -> memoryview:
        """Zero-copy view of ``length`` bytes at ``offset`` relative to
        the region; aliases live memory (:meth:`MemorySystem.read_view`)."""
        self._check(offset, length)
        return self.memory.read_view(self.addr + offset, length)

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset`` relative to the region."""
        self._check(offset, len(data))
        self.memory.write(self.addr + offset, data)

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.length:
            raise MemoryError_(
                f"access [{offset}, {offset + length}) outside region "
                f"{self.label!r} of length {self.length}"
            )

    def free(self) -> None:
        """Return the region's bytes to the allocator."""
        self.memory.free(self)

    def __repr__(self) -> str:
        kind = "nvm" if self.is_nvm else "dram"
        return (
            f"<MemoryRegion {self.label!r} {kind} "
            f"addr={self.addr:#x} len={self.length}>"
        )


class _Space:
    """Allocator state for one of the two address ranges."""

    __slots__ = ("base", "limit", "cursor", "free_lists")

    def __init__(self, base: int, limit: int):
        self.base = base
        self.limit = limit
        self.cursor = base
        self.free_lists: Dict[int, List[int]] = {}


class MemorySystem:
    """Byte-addressable physical memory of one host.

    Parameters
    ----------
    dram_size, nvm_size:
        Sizes in bytes of the volatile and non-volatile ranges. NVM
        starts immediately after DRAM.
    """

    def __init__(self, dram_size: int = 1 << 26, nvm_size: int = 1 << 26):
        if dram_size <= 0 or nvm_size < 0:
            raise ValueError("sizes must be positive")
        self.dram_size = dram_size
        self.nvm_size = nvm_size
        # Anonymous mapping: pages are backed (and zero-filled) by the
        # OS on first touch, so an idle host costs no RSS and no memset.
        # MAP_PRIVATE, not Python's default MAP_SHARED, so forked pool
        # workers get copy-on-write memory instead of aliasing it.
        self._bytes = mmap.mmap(
            -1, dram_size + nvm_size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
        )
        # Zero-copy views (read_view) are slices of one long-lived
        # memoryview. The mapping is never resized, so the view stays
        # valid for the system's lifetime.
        self._view = memoryview(self._bytes)
        self._size = dram_size + nvm_size
        self._dram = _Space(0, dram_size)
        self._nvm = _Space(dram_size, dram_size + nvm_size)
        self.power_failures = 0

    @property
    def size(self) -> int:
        """Total bytes of physical memory."""
        return len(self._bytes)

    @property
    def nvm_base(self) -> int:
        """First NVM address."""
        return self.dram_size

    # -- raw access ----------------------------------------------------------

    def read(self, addr: int, length: int) -> bytes:
        """Bounds-checked read of ``length`` bytes at ``addr``."""
        if addr < 0 or length < 0 or addr + length > self._size:
            self._check(addr, length)
        # Slicing the mapping is one copy, and cheaper than a view
        # slice plus ``tobytes`` at every size the NIC reads.
        return self._bytes[addr : addr + length]

    def read_view(self, addr: int, length: int) -> memoryview:
        """Bounds-checked zero-copy view of ``length`` bytes at ``addr``.

        The view aliases live memory: it reflects later writes and must
        not be held across a :meth:`power_failure`. Use for transient
        parsing of a large area (e.g. a WAL scan over the log's mirror)
        where the copy in :meth:`read` would be pure overhead.
        """
        if addr < 0 or length < 0 or addr + length > self._size:
            self._check(addr, length)
        return self._view[addr : addr + length]

    def write(self, addr: int, data: bytes) -> None:
        """Bounds-checked write of ``data`` at ``addr``."""
        length = len(data)
        if addr < 0 or addr + length > self._size:
            self._check(addr, length)
        self._bytes[addr : addr + length] = data

    def is_nvm(self, addr: int, length: int = 1) -> bool:
        """Whether ``[addr, addr+length)`` lies fully inside NVM."""
        self._check(addr, length)
        return addr >= self.dram_size

    def _check(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > len(self._bytes):
            raise MemoryError_(
                f"physical access [{addr:#x}, {addr + length:#x}) outside "
                f"memory of size {len(self._bytes):#x}"
            )

    # -- allocation ------------------------------------------------------------

    def alloc(
        self, length: int, nvm: bool = False, align: int = 64, label: str = ""
    ) -> MemoryRegion:
        """Allocate ``length`` bytes and return a :class:`MemoryRegion`.

        ``align`` must be a power of two. Freed regions of the exact
        same (aligned) size are reused before the bump pointer grows.
        """
        if length <= 0:
            raise ValueError(f"allocation length must be positive, got {length}")
        if align & (align - 1):
            raise ValueError(f"alignment must be a power of two, got {align}")
        space = self._nvm if nvm else self._dram
        rounded = (length + align - 1) & ~(align - 1)
        free_list = space.free_lists.get(rounded)
        if free_list:
            addr = free_list.pop()
        else:
            addr = (space.cursor + align - 1) & ~(align - 1)
            if addr + rounded > space.limit:
                kind = "NVM" if nvm else "DRAM"
                raise MemoryError_(
                    f"{kind} exhausted: need {rounded} bytes, "
                    f"{space.limit - space.cursor} left"
                )
            space.cursor = addr + rounded
        region = MemoryRegion(self, addr, length, label or f"region@{addr:#x}")
        region._rounded = rounded
        return region

    def free(self, region: MemoryRegion) -> None:
        """Recycle a region allocated by :meth:`alloc`."""
        rounded, region._rounded = region._rounded, None
        if rounded is None:
            raise MemoryError_(f"double free or foreign region: {region!r}")
        space = self._nvm if region.addr >= self.dram_size else self._dram
        space.free_lists.setdefault(rounded, []).append(region.addr)

    # -- failure injection ------------------------------------------------------

    def power_failure(self) -> None:
        """Simulate power loss: DRAM is zeroed, NVM survives.

        Callers (hosts/NICs) are responsible for dropping their own
        volatile state (caches, in-flight queues) alongside this.
        """
        # Hand the DRAM pages back to the OS (they read as zero when
        # next touched) instead of writing zeros over all of them; the
        # sub-page remainder of an unaligned DRAM size is zeroed by hand.
        whole_pages = self.dram_size - self.dram_size % mmap.PAGESIZE
        if whole_pages:
            self._bytes.madvise(mmap.MADV_DONTNEED, 0, whole_pages)
        self._bytes[whole_pages : self.dram_size] = bytes(
            self.dram_size - whole_pages
        )
        self.power_failures += 1
        if TRACER.enabled:
            TRACER.count("fault.memory.power_failures")



class WriteCache:
    """A NIC's volatile write buffer, modelled as write-through + undo.

    Hosts are cache-coherent: data DMA'd by the NIC is immediately
    visible to CPU loads, so writes go straight to memory. What lags is
    **durability** — the destination NIC ACKs an RDMA WRITE while the
    data may still be in its volatile buffers, not yet accepted by the
    memory/persistence domain. This class tracks that window as *undo
    records*: each buffered write remembers the bytes it replaced.

    * :meth:`flush_all` / :meth:`flush_range` — the data has reached
      the persistence domain; undo records are discarded. A remote
      READ triggers this (the paper's gFLUSH mechanism, §4.2).
    * :meth:`drop` — power failure before the flush: undo records are
      applied in reverse, reverting memory to its last durable state.
    """

    def __init__(self, memory: MemorySystem, capacity: int = 1 << 20):
        self.memory = memory
        self.capacity = capacity
        self._entries: List[Tuple[int, bytes]] = []  # (addr, pre-image)
        self.pending_bytes = 0
        self.total_writes = 0
        self.total_flushes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def dirty(self) -> bool:
        """Whether any write is still in its volatile window."""
        return bool(self._entries)

    def write(self, addr: int, data: bytes) -> None:
        """NIC write: visible immediately, durable only after a flush.

        If tracking would exceed capacity, the oldest window closes
        first (real NICs drain under pressure), keeping the volatile
        window bounded.
        """
        if not data:
            return
        if self.pending_bytes + len(data) > self.capacity:
            if TRACER.enabled:
                TRACER.count("nic.write_cache_evictions")
                TRACER.count("nic.write_cache_evicted_entries", len(self._entries))
            self.flush_all()
        pre_image = self.memory.read(addr, len(data))
        self._entries.append((addr, pre_image))
        self.pending_bytes += len(data)
        self.memory.write(addr, data)
        self.total_writes += 1

    def read(self, addr: int, length: int) -> bytes:
        """Coherent read (CPU and NIC see the same bytes)."""
        return self.memory.read(addr, length)

    def flush_range(self, addr: int, length: int) -> int:
        """Mark every write overlapping ``[addr, addr+length)`` durable.

        Returns the number of undo records discarded. Note: if a later
        un-flushed write overlaps the range, its undo record still
        holds older bytes; READ-triggered flushes use
        :meth:`flush_all`, which has no such partial-window subtlety.
        """
        kept: List[Tuple[int, bytes]] = []
        discarded = 0
        for entry_addr, pre_image in self._entries:
            overlaps = (
                entry_addr < addr + length and addr < entry_addr + len(pre_image)
            )
            if overlaps or (length == 0 and entry_addr == addr):
                self.pending_bytes -= len(pre_image)
                discarded += 1
            else:
                kept.append((entry_addr, pre_image))
        self._entries = kept
        self.total_flushes += 1 if discarded else 0
        return discarded

    def flush_all(self) -> int:
        """Mark every tracked write durable. Returns records discarded."""
        discarded = len(self._entries)
        self._entries.clear()
        self.pending_bytes = 0
        if discarded:
            self.total_flushes += 1
        return discarded

    def drop(self) -> int:
        """Power failure: revert all un-flushed writes (newest first).

        Returns the number of writes lost. Memory is restored to its
        last durable contents; the caller separately zeroes DRAM.
        """
        lost = len(self._entries)
        for entry_addr, pre_image in reversed(self._entries):
            self.memory.write(entry_addr, pre_image)
        self._entries.clear()
        self.pending_bytes = 0
        return lost
