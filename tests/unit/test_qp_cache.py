"""Unit tests for the on-NIC QP context (ICM) cache model."""

import random

import pytest

from repro.hw import Cluster, NicParams
from repro.sim import Simulator


def make_nic(entries=4):
    sim = Simulator(seed=37)
    cluster = Cluster(
        sim, n_hosts=1, n_cores=1,
        nic_params=NicParams(qp_cache_entries=entries),
    )
    return cluster[0].nic


class TestQpContextCache:
    def test_first_touch_misses(self):
        nic = make_nic()
        assert nic.qp_context_penalty(1) == nic.params.qp_cache_miss_ns
        assert nic.qp_cache_misses == 1

    def test_hot_qp_hits(self):
        nic = make_nic()
        nic.qp_context_penalty(1)
        assert nic.qp_context_penalty(1) == 0
        assert nic.qp_cache_misses == 1

    def test_lru_eviction(self):
        nic = make_nic(entries=2)
        nic.qp_context_penalty(1)
        nic.qp_context_penalty(2)
        nic.qp_context_penalty(3)  # evicts 1
        assert nic.qp_context_penalty(2) == 0  # still resident
        assert nic.qp_context_penalty(1) != 0  # was evicted

    def test_touch_refreshes_recency(self):
        nic = make_nic(entries=2)
        nic.qp_context_penalty(1)
        nic.qp_context_penalty(2)
        nic.qp_context_penalty(1)  # refresh 1
        nic.qp_context_penalty(3)  # evicts 2, not 1
        assert nic.qp_context_penalty(1) == 0
        assert nic.qp_context_penalty(2) != 0

    def test_working_set_within_cache_never_misses_again(self):
        nic = make_nic(entries=8)
        for qpn in range(8):
            nic.qp_context_penalty(qpn)
        misses = nic.qp_cache_misses
        for _ in range(10):
            for qpn in range(8):
                assert nic.qp_context_penalty(qpn) == 0
        assert nic.qp_cache_misses == misses

    def test_thrash_when_working_set_exceeds_cache(self):
        """The §7 scalability effect: more active QPs than contexts
        fit on the adapter -> every touch misses."""
        nic = make_nic(entries=4)
        for _ in range(5):
            for qpn in range(8):  # round-robin over 2x the cache
                nic.qp_context_penalty(qpn)
        assert nic.qp_cache_misses == 40  # every single touch missed

    @pytest.mark.parametrize("entries", [0, 1, 2, 4])
    def test_answers_like_a_plain_lru_list(self, entries):
        """Runs of one QP, evictions and crashes that drop every
        context: each touch pays exactly what a plain LRU list says it
        should."""
        nic = make_nic(entries=entries)
        rng = random.Random(entries)
        lru = []
        for _ in range(400):
            if rng.random() < 0.02:
                nic.crash()
                nic.restart()
                lru.clear()
                continue
            qpn = rng.choice([1, 1, 1, 2, 3, 4, 5])
            expected = 0 if qpn in lru else nic.params.qp_cache_miss_ns
            if qpn in lru:
                lru.remove(qpn)
            lru.append(qpn)
            del lru[: max(0, len(lru) - entries)]
            assert nic.qp_context_penalty(qpn) == expected
