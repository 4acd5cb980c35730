"""Perf suite smoke: the microbenchmarks run and the physics holds.

This is the CI face of ``repro.bench.perfsuite``. It asserts only
**correctness properties** — benchmarks complete, simulated results are
sane and deterministic, serial and parallel execution agree — never
wall-clock thresholds, which are noise on shared runners. The timing
numbers themselves go to ``BENCH_kernel.json`` via
``python -m repro.bench.perfsuite``, where humans (and future PRs)
compare them with hardware context attached.
"""

from repro.bench.perfsuite import (
    bench_fig8,
    bench_gwrite,
    bench_kernel_events,
    bench_parallel_scaling,
    bench_txn_commit,
    run_suite,
)


def test_kernel_events_benchmark_runs():
    result = bench_kernel_events(n_procs=20, events_per_proc=200)
    assert result["events"] == 4000
    assert result["events_per_sec"] > 0
    # Virtual end time is a simulation result: identical on every
    # machine, every run. 20 tickers with delays 1 + (i % 13) ending
    # after 200 yields — the slowest finishes at 200 * 13 ns.
    assert result["final_now"] == 2600


def test_gwrite_benchmark_runs():
    result = bench_gwrite(total_bytes=1 << 19, message_size=4096)
    assert result["ops"] == 128
    assert result["sim_kops"] > 0


def test_fig8_benchmark_preserves_simulated_latency():
    result = bench_fig8(n_ops=60)
    # The simulated p50 is a model output, not a host-speed number:
    # HyperLoop's 1 KB gWRITE sits in the single-digit-microsecond
    # band (§6.1) regardless of how fast the simulator itself runs.
    assert 2.0 < result["p50_us"] < 50.0
    assert result["p99_us"] >= result["p50_us"]


def test_parallel_scaling_benchmark_is_exact():
    result = bench_parallel_scaling(workers=2, n_runs=2, n_ops=40)
    assert result["identical"], "pooled sweep diverged from serial reference"
    assert result["runs"] == 2


def test_txn_commit_benchmark_upholds_isolation():
    result = bench_txn_commit(n_txns=24)
    # Simulated outcomes, identical on every machine: the full default
    # mix commits, the write-skew pairs cost their SSI aborts, and the
    # committed history stays anomaly-free (asserted inside the bench).
    assert result["commits"] > 0
    assert result["aborts_ssi"] >= 1
    assert 0.0 < result["abort_rate"] < 0.5
    assert result["commits_per_sec"] > 0


def test_run_suite_quick_produces_complete_entry():
    entry = run_suite(quick=True, repeats=1)
    for key in (
        "kernel_events_per_sec",
        "gwrite_ops_per_sec",
        "fig8_wall_s",
        "fig8_p50_us",
        "txn_commits_per_sec",
        "txn_abort_rate",
        "cpu_count",
        "python",
    ):
        assert key in entry, f"suite entry missing {key}"
    assert entry["kernel_events_per_sec"] > 0
