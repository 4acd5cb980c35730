"""Smoke tests for the benchmark experiment builders.

Tiny configurations of every experiment in repro.bench.experiments, so
the benchmark layer cannot silently rot between full runs.
"""

import pytest

from repro.bench.experiments import (
    fig2_mongodb_motivation,
    fig11_rocksdb,
    fig12_mongodb,
    microbench_latency,
    microbench_throughput,
)
from tests.pins import assert_pinned


def measure_fig8():
    """§6.1 Fig 8: 1 KiB HyperLoop gWRITE at the default seed and load,
    p50 and p99 in sim µs. A simulation result, identical on every
    host: a change that moves it changed the simulated schedule."""
    result = microbench_latency("hyperloop", message_size=1024, n_ops=500)
    assert not result.errors
    return {"p50_us": round(result.stats.p50, 3), "p99_us": round(result.stats.p99, 4)}


class TestMicrobench:
    @pytest.mark.parametrize("system", ["hyperloop", "naive-event", "naive-polling"])
    def test_latency_all_systems(self, system):
        result = microbench_latency(
            system, "gwrite", 512, n_ops=60, stress_per_core=1,
            n_cores=4, pipeline_depth=2, rounds=64,
        )
        assert result.stats.count == 60
        assert result.stats.mean > 0
        assert not result.errors

    @pytest.mark.parametrize("primitive", ["gwrite", "gmemcpy", "gcas"])
    def test_latency_all_primitives(self, primitive):
        result = microbench_latency(
            "hyperloop", primitive, 256, n_ops=40, stress_per_core=0,
            n_cores=4, pipeline_depth=2, rounds=64,
        )
        assert result.stats.count == 40
        assert not result.errors

    def test_fig8_reference_point(self):
        assert_pinned("fig8", measure_fig8())

    def test_throughput(self):
        result = microbench_throughput(
            "hyperloop", 4096, total_bytes=1 << 20, n_cores=4, pipeline_depth=4
        )
        assert result.throughput_kops > 0
        assert 0 <= result.replica_cpu_fraction < 1.5
        assert not result.errors

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            microbench_latency("magic", n_ops=1, rounds=8)

    def test_unknown_primitive_rejected(self):
        with pytest.raises(Exception):
            microbench_latency("hyperloop", "gteleport", n_ops=4, n_cores=4, rounds=8)


class TestApplicationExperiments:
    def test_fig2_small(self):
        result = fig2_mongodb_motivation(3, n_cores=4, ops_per_set=6, load_docs=3)
        assert result.stats.count == 18
        assert result.context_switches > 0

    def test_fig11_small(self):
        stats = fig11_rocksdb(
            "hyperloop", n_ops=40, n_records=10, stress_per_core=1,
            n_cores=4, app_threads=2, rounds=128,
        )
        assert stats.count > 0

    def test_fig12_small(self):
        stats = fig12_mongodb(
            True, "A", n_ops=20, n_records=10, stress_per_core=1,
            n_cores=4, rounds=64,
        )
        assert stats.count == 20
