"""Unit tests for the memory/NVM model (repro.hw.memory)."""

import mmap
import os
import random

import pytest

from repro.hw.memory import MemoryError_, MemoryRegion, MemorySystem, WriteCache


@pytest.fixture
def mem():
    return MemorySystem(dram_size=4096, nvm_size=4096)


class TestMemorySystem:
    def test_sizes(self, mem):
        assert mem.size == 8192
        assert mem.nvm_base == 4096

    def test_read_write_roundtrip(self, mem):
        mem.write(100, b"hello")
        assert mem.read(100, 5) == b"hello"

    def test_memory_starts_zeroed(self, mem):
        assert mem.read(0, 16) == bytes(16)

    def test_out_of_range_read_raises(self, mem):
        with pytest.raises(MemoryError_):
            mem.read(8190, 10)

    def test_negative_address_raises(self, mem):
        with pytest.raises(MemoryError_):
            mem.read(-1, 1)

    def test_is_nvm_boundaries(self, mem):
        assert not mem.is_nvm(0)
        assert not mem.is_nvm(4095)
        assert mem.is_nvm(4096)
        assert not mem.is_nvm(4000, 200)  # straddles the boundary

    def test_power_failure_zeroes_dram_keeps_nvm(self, mem):
        mem.write(10, b"volatile")
        mem.write(5000, b"durable")
        mem.power_failure()
        assert mem.read(10, 8) == bytes(8)
        assert mem.read(5000, 7) == b"durable"
        assert mem.power_failures == 1


def _rss_bytes() -> int:
    """Current (not peak) resident set size of this process."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * mmap.PAGESIZE


MIB = 1 << 20


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs Linux /proc"
)
class TestLazyBacking:
    """Host memory is an anonymous private mapping: untouched pages
    cost neither RSS nor a memset (ROADMAP item 2a)."""

    def test_default_system_costs_no_rss(self):
        before = _rss_bytes()
        mem = MemorySystem()
        assert mem.size == 128 * MIB
        assert _rss_bytes() - before < MIB

    def test_power_failure_drops_dram_without_touching_it(self):
        before = _rss_bytes()
        mem = MemorySystem()
        mem.write(0, b"\xAB" * MIB)
        mem.write(mem.nvm_base, b"durable")
        assert _rss_bytes() - before >= MIB // 2
        mem.power_failure()
        # Zero-filling 64 MiB of DRAM would have made it all resident.
        assert _rss_bytes() < before + 2 * MIB
        assert mem.read(0, MIB) == bytes(MIB)
        assert mem.read(mem.nvm_base, 7) == b"durable"

    def test_power_failure_zeroes_unaligned_dram_tail(self):
        mem = MemorySystem(dram_size=mmap.PAGESIZE + 100, nvm_size=64)
        mem.write(mmap.PAGESIZE + 90, b"tail")
        mem.write(mem.nvm_base, b"nvm")
        mem.power_failure()
        assert mem.read(mmap.PAGESIZE + 90, 4) == bytes(4)
        assert mem.read(mem.nvm_base, 3) == b"nvm"

    def test_forked_child_writes_are_private(self):
        """MAP_PRIVATE: a forked pool worker must not alias the
        parent's simulated DRAM (Python's mmap default is MAP_SHARED)."""
        mem = MemorySystem(dram_size=4096, nvm_size=4096)
        mem.write(0, b"parent")
        pid = os.fork()
        if pid == 0:
            mem.write(0, b"child!")
            mem.write(5000, b"child!")
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert status == 0
        assert mem.read(0, 6) == b"parent"
        assert mem.read(5000, 6) == bytes(6)


class TestAllocator:
    def test_alloc_respects_alignment(self, mem):
        region = mem.alloc(10, align=64)
        assert region.addr % 64 == 0
        assert region.length == 10

    def test_alloc_nvm_lands_in_nvm(self, mem):
        region = mem.alloc(100, nvm=True)
        assert region.is_nvm

    def test_alloc_dram_lands_in_dram(self, mem):
        assert not mem.alloc(100).is_nvm

    def test_allocations_do_not_overlap(self, mem):
        a = mem.alloc(100)
        b = mem.alloc(100)
        assert a.end <= b.addr or b.end <= a.addr

    def test_exhaustion_raises(self, mem):
        with pytest.raises(MemoryError_):
            mem.alloc(10000)

    def test_free_and_reuse(self, mem):
        a = mem.alloc(128)
        addr = a.addr
        a.free()
        b = mem.alloc(128)
        assert b.addr == addr

    def test_double_free_raises(self, mem):
        region = mem.alloc(64)
        region.free()
        with pytest.raises(MemoryError_):
            region.free()

    def test_zero_length_alloc_raises(self, mem):
        with pytest.raises(ValueError):
            mem.alloc(0)

    def test_bad_alignment_raises(self, mem):
        with pytest.raises(ValueError):
            mem.alloc(10, align=3)


class TestMemoryRegion:
    def test_relative_access(self, mem):
        region = mem.alloc(64)
        region.write(8, b"abc")
        assert region.read(8, 3) == b"abc"
        assert mem.read(region.addr + 8, 3) == b"abc"

    def test_bounds_enforced(self, mem):
        region = mem.alloc(16)
        with pytest.raises(MemoryError_):
            region.write(10, b"0123456789")
        with pytest.raises(MemoryError_):
            region.read(-1, 2)

    def test_contains(self, mem):
        region = mem.alloc(64)
        assert region.contains(region.addr)
        assert region.contains(region.addr, 64)
        assert not region.contains(region.addr, 65)
        assert not region.contains(region.addr - 1)


class TestWriteCache:
    def test_write_is_immediately_visible(self, mem):
        """Hosts are cache-coherent: DMA'd data is visible to CPU loads
        right away; only durability lags."""
        cache = WriteCache(mem)
        cache.write(100, b"xyz")
        assert mem.read(100, 3) == b"xyz"
        assert cache.read(100, 3) == b"xyz"
        assert cache.dirty

    def test_empty_write_is_noop(self, mem):
        cache = WriteCache(mem)
        cache.write(100, b"")
        assert not cache.dirty

    def test_drop_reverts_to_pre_image(self, mem):
        cache = WriteCache(mem)
        mem.write(100, b"old-data")
        cache.write(102, b"NEW")
        assert mem.read(100, 8) == b"olNEWata"
        lost = cache.drop()
        assert lost == 1
        assert mem.read(100, 8) == b"old-data"

    def test_drop_reverts_overlapping_writes_in_order(self, mem):
        cache = WriteCache(mem)
        mem.write(10, b"ORIG")
        cache.write(10, b"aaaa")
        cache.write(12, b"bb")
        assert mem.read(10, 4) == b"aabb"
        cache.drop()
        assert mem.read(10, 4) == b"ORIG"

    def test_flush_all_makes_writes_durable(self, mem):
        cache = WriteCache(mem)
        cache.write(100, b"xyz")
        discarded = cache.flush_all()
        assert discarded == 1
        assert not cache.dirty
        cache.drop()
        assert mem.read(100, 3) == b"xyz"

    def test_flush_range_is_selective(self, mem):
        cache = WriteCache(mem)
        cache.write(0, b"aa")
        cache.write(1000, b"bb")
        cache.flush_range(0, 10)
        cache.drop()
        assert mem.read(0, 2) == b"aa"      # flushed: survives
        assert mem.read(1000, 2) == bytes(2)  # volatile: reverted

    def test_flush_range_discards_exactly_the_overlapping_writes(self, mem):
        """Ranges inside, across, at either edge of and outside the
        tracked writes — zero-length ones included, which discard a
        write starting at their address — discard what a walk over
        every record says they should, flush after flush."""
        rng = random.Random(7)
        for _ in range(200):
            cache = WriteCache(mem)
            live = []
            for _ in range(rng.randrange(0, 6)):
                addr, size = 1000 + rng.randrange(200), rng.randrange(1, 16)
                cache.write(addr, b"x" * size)
                live.append((addr, size))
            for _ in range(3):
                addr, length = 1000 + rng.randrange(-20, 230), rng.choice([0, 0, 1, 8, 40])
                hit = [
                    (a, n) for a, n in live
                    if (a < addr + length and addr < a + n) or (length == 0 and a == addr)
                ]
                live = [entry for entry in live if entry not in hit]
                assert cache.flush_range(addr, length) == len(hit)
                assert cache.pending_bytes == sum(n for _, n in live)
        # Both edges of the tracked writes.
        cache = WriteCache(mem)
        cache.write(1000, b"ab")
        cache.write(1010, b"cd")
        assert cache.flush_range(1012, 0) == 0
        assert cache.flush_range(1012, 8) == 0
        assert cache.flush_range(1000, 0) == 1
        assert cache.flush_range(990, 11) == 0  # the first is gone already
        assert cache.flush_range(1011, 1) == 1

    def test_capacity_closes_oldest_windows(self, mem):
        cache = WriteCache(mem, capacity=8)
        cache.write(0, b"12345678")
        cache.write(8, b"9")
        # The first window had to close to stay under capacity.
        assert cache.pending_bytes == 1
        cache.drop()
        assert mem.read(0, 8) == b"12345678"  # now durable
        assert mem.read(8, 1) == bytes(1)     # reverted

    def test_power_failure_scenario(self, mem):
        """The exact failure gFLUSH exists to close: ACKed data that
        never left the NIC's volatile window is lost on power failure."""
        cache = WriteCache(mem)
        nvm_region = mem.alloc(64, nvm=True)
        cache.write(nvm_region.addr, b"acked-but-volatile")
        cache.drop()
        mem.power_failure()
        assert nvm_region.read(0, 18) == bytes(18)

    def test_flushed_data_survives_power_failure(self, mem):
        cache = WriteCache(mem)
        nvm_region = mem.alloc(64, nvm=True)
        cache.write(nvm_region.addr, b"flushed")
        cache.flush_all()
        cache.drop()
        mem.power_failure()
        assert nvm_region.read(0, 7) == b"flushed"

    def test_counters(self, mem):
        cache = WriteCache(mem)
        cache.write(0, b"a")
        cache.write(1, b"b")
        cache.flush_all()
        assert cache.total_writes == 2
        assert cache.total_flushes == 1
