"""Unit tests for the parallel experiment runner and stats merging.

The acceptance bar (DESIGN.md decision 7 applied to the runner): for a
fixed seed set, experiment output is bit-for-bit identical serial vs
parallel, and identical under the kernel's batched run loop and the
one-pop reference loop. Merging is order-independent.
"""

import dataclasses
import random

import numpy
import pytest

from repro.bench.harness import LatencyRecorder, LatencyStats, merge_stats
from repro.bench.parallel import (
    RunResult,
    RunSpec,
    derive_seed,
    make_specs,
    merge_run_stats,
    normalize_result,
    run_parallel,
    run_serial,
)
from repro.sim import Simulator
from tests.reference.one_pop import run_one_pop

# One cheap-but-real configuration used by every runner test: a full
# HyperLoop group with background tenants, shrunk to tens of ops.
QUICK = dict(
    system="hyperloop",
    message_size=256,
    n_ops=30,
    stress_per_core=1,
    pipeline_depth=2,
    n_cores=4,
    rounds=256,
)


def quick_specs(n_seeds=2):
    return make_specs("latency", base_seed=7, n_seeds=n_seeds, **QUICK)


class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)

    def test_known_values(self):
        # Pinned: these must never change, or every recorded sweep
        # stops being reproducible.
        assert derive_seed(42, 0) == 3899403707
        assert derive_seed(42, 1) == 776859331

    def test_distinct_per_index_and_base(self):
        seeds = {derive_seed(base, i) for base in (1, 2) for i in range(50)}
        assert len(seeds) == 100


class TestSpecs:
    def test_make_specs_is_deterministic(self):
        assert quick_specs() == quick_specs()

    def test_grid_expansion_order(self):
        specs = make_specs(
            "latency", 1, 2, grid=[{"message_size": 128}, {"message_size": 256}]
        )
        sizes = [spec.kwargs["message_size"] for spec in specs]
        assert sizes == [128, 256, 128, 256]
        assert len({spec.seed for spec in specs}) == 4

    def test_specs_are_hashable_and_picklable(self):
        import pickle

        spec = RunSpec.make("latency", 3, message_size=64)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, spec}) == 1


class TestSerialParallelEquivalence:
    def test_parallel_matches_serial_bit_for_bit(self):
        specs = quick_specs()
        serial = run_serial(specs)
        parallel = run_parallel(specs, workers=2)
        assert serial == parallel

    def test_parallel_result_independent_of_worker_count(self):
        specs = quick_specs()
        assert run_parallel(specs, workers=2) == run_parallel(specs, workers=3)

    def test_single_spec_short_circuits(self):
        specs = quick_specs(n_seeds=1)
        assert run_parallel(specs, workers=4) == run_serial(specs)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            run_parallel(quick_specs(), workers=0)


class TestHotPathEquivalence:
    def test_experiment_output_identical_fast_vs_generic(self, monkeypatch):
        """A whole experiment run by the one-pop reference loop must
        reproduce the batched loop's results exactly."""
        spec = quick_specs(n_seeds=1)[0]
        fast = run_serial([spec])
        monkeypatch.setattr(Simulator, "run", run_one_pop)
        generic = run_serial([spec])
        assert fast == generic


class TestMerging:
    def test_recorder_merge_is_sample_exact(self):
        reference = LatencyRecorder("all")
        left = LatencyRecorder("a")
        right = LatencyRecorder("b")
        for index, sample in enumerate([1500, 900, 4200, 800, 2600, 3100]):
            reference.record(sample)
            (left if index % 2 else right).record(sample)
        merged = LatencyRecorder("merged")
        merged.merge(left)
        merged.merge(right)
        assert merged.stats() == reference.stats()

    def test_recorder_merge_order_independent(self):
        parts = []
        for offset in range(3):
            recorder = LatencyRecorder(f"p{offset}")
            for sample in range(1000 + offset * 7, 1100 + offset * 7, 13):
                recorder.record(sample)
            parts.append(recorder)
        forward = LatencyRecorder("f")
        backward = LatencyRecorder("b")
        for part in parts:
            forward.merge(part)
        for part in reversed(parts):
            backward.merge(part)
        assert forward.stats() == backward.stats()

    def test_stats_cache_tracks_new_samples(self):
        recorder = LatencyRecorder("cache")
        recorder.record(1000)
        first = recorder.stats()
        assert first.count == 1
        recorder.record(3000)
        second = recorder.stats()
        assert second.count == 2
        assert second.maximum == pytest.approx(3.0)

    def test_merge_stats_order_independent(self):
        parts = [
            LatencyStats(10, 5.0, 4.0, 9.0, 9.9, 1.0, 10.0),
            LatencyStats(3, 50.0, 40.0, 90.0, 99.0, 10.0, 100.0),
            LatencyStats(7, 2.0, 1.5, 3.0, 3.3, 0.5, 4.0),
        ]
        forward = merge_stats(parts)
        backward = merge_stats(reversed(parts))
        assert forward == backward
        assert forward.count == 20
        assert forward.minimum == 0.5
        assert forward.maximum == 100.0

    def test_merge_run_stats_over_sweep(self):
        results = run_parallel(quick_specs(), workers=2)
        merged = merge_run_stats(results)
        assert merged.count == sum(
            result.output["stats"]["count"] for result in results
        )

    def test_latency_output_ships_raw_samples(self):
        # The sample-exact merge path exists because latency outputs
        # now carry every recorded sample, not just the summary.
        (result,) = run_serial(quick_specs(n_seeds=1))
        samples = result.output["samples_ns"]
        assert len(samples) == result.output["stats"]["count"]
        assert all(isinstance(sample, int) for sample in samples)

    def test_merge_run_stats_is_sample_exact_over_sweep(self):
        # Merged percentiles must equal those of one recorder that saw
        # every sample — not the count-weighted approximation. One run
        # records more than 8,192 ops: no run size ships less than its
        # full sample list.
        large = make_specs(
            "latency",
            base_seed=9,
            n_seeds=1,
            **dict(QUICK, group_size=1, n_ops=8_193, pipeline_depth=8),
        )
        results = run_serial(quick_specs() + large)
        reference = LatencyRecorder("reference")
        for result in results:
            samples = result.output["samples_ns"]
            assert len(samples) == result.output["stats"]["count"]
            for sample in samples:
                reference.record(sample)
        assert merge_run_stats(results) == reference.stats()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_recorder_percentiles_are_exact(self, seed):
        # 20,000 samples, above the old 8,192-sample threshold: every
        # sample is kept and every percentile matches numpy's (linear
        # interpolation) over the same values.
        rng = random.Random(seed)
        samples = [int(rng.lognormvariate(8, 1.2)) + 1 for _ in range(20_000)]
        recorder = LatencyRecorder("exact")
        for sample in samples:
            recorder.record(sample)
        stats = recorder.stats()
        values = numpy.array(samples) / 1000.0
        assert len(recorder) == stats.count == len(samples)
        assert stats.mean == sum(samples) / 1000.0 / len(samples)
        assert stats.minimum == values.min()
        assert stats.maximum == values.max()
        for field, fraction in (("p50", 50), ("p95", 95), ("p99", 99)):
            assert getattr(stats, field) == pytest.approx(
                numpy.percentile(values, fraction), rel=1e-12
            )

    @pytest.mark.parametrize("n_parts", [1, 3, 8])
    def test_merge_run_stats_is_exact_for_any_split(self, n_parts):
        # One sample list shipped as 1, 3 or 8 runs merges to the stats
        # of a single recorder that saw every sample.
        rng = random.Random(n_parts)
        samples = [int(rng.expovariate(1 / 3000)) + 1 for _ in range(9_000)]
        reference = LatencyRecorder("reference")
        results = []
        for index in range(n_parts):
            part = samples[index::n_parts]
            result = self._summary_only_result(index, part)
            result.output["samples_ns"] = part
            results.append(result)
            for sample in part:
                reference.record(sample)
        assert merge_run_stats(results) == reference.stats()

    def _summary_only_result(self, seed, samples):
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(sample)
        return RunResult(
            spec=RunSpec.make("latency", seed),
            output={"stats": dataclasses.asdict(recorder.stats())},
        )

    def test_merge_run_stats_falls_back_without_samples(self):
        left = self._summary_only_result(1, [1000, 2000, 4000])
        right = self._summary_only_result(2, [500, 8000])
        merged = merge_run_stats([left, right])
        expected = merge_stats(
            [
                LatencyStats(**left.output["stats"]),
                LatencyStats(**right.output["stats"]),
            ]
        )
        assert merged == expected

    def test_merge_run_stats_mismatched_samples_use_fallback(self):
        # A run whose sample list does not match its count (truncated
        # transport, say) poisons exactness for the whole merge: the
        # approximation is honest, a partial sample-merge would not be.
        complete = self._summary_only_result(1, [1000, 2000])
        truncated = self._summary_only_result(2, [3000, 5000, 7000])
        truncated.output["samples_ns"] = [3000]
        merged = merge_run_stats([complete, truncated])
        expected = merge_stats(
            [
                LatencyStats(**complete.output["stats"]),
                LatencyStats(**truncated.output["stats"]),
            ]
        )
        assert merged == expected

    def test_merge_stats_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_stats([])


class TestNormalization:
    def test_dataclass_results_become_dicts(self):
        stats = LatencyStats(1, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0)
        normalized = normalize_result(stats)
        assert normalized == {
            "count": 1,
            "mean": 2.0,
            "p50": 2.0,
            "p95": 2.0,
            "p99": 2.0,
            "minimum": 2.0,
            "maximum": 2.0,
        }

    def test_plain_values_pass_through(self):
        assert normalize_result({"a": 1}) == {"a": 1}
        assert normalize_result(3) == 3
