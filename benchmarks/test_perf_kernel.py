"""Kernel and NIC microbenchmark smoke: they run and the physics holds.

The two host-speed microbenchmarks in ``repro.bench.harness`` isolate
code the end-to-end workloads cannot: the dispatch loop alone and the
NIC send engine alone. These tests assert only **correctness
properties** — the benchmarks complete and their simulated results are
deterministic — never wall-clock thresholds, which are noise on shared
runners.
"""

from repro.bench.harness import bench_kernel_events, bench_nic_hotpath


def test_kernel_events_benchmark_runs():
    result = bench_kernel_events(n_procs=20, events_per_proc=200)
    assert result["events"] == 4000
    assert result["events_per_sec"] > 0
    # Virtual end time is a simulation result: identical on every
    # machine, every run. 20 tickers with delays 1 + (i % 13) ending
    # after 200 yields — the slowest finishes at 200 * 13 ns.
    assert result["final_now"] == 2600


class TestNicHotpathBench:
    def test_completes_all_ops_and_is_deterministic(self):
        # Tiny sizing: this is a correctness check of the harness, not
        # a timing assertion (timing on shared runners is noise).
        first = bench_nic_hotpath(n_ops=64, burst=8)
        second = bench_nic_hotpath(n_ops=64, burst=8)
        assert first["ops"] == second["ops"] == 64
        assert first["final_now"] == second["final_now"]
        assert first["wqe_per_sec"] > 0
