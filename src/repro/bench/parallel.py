"""Parallel experiment runner: fan independent simulations across cores.

A single simulation is inherently serial — virtual time is one total
order — but a *sweep* (seeds × configs × workloads) is embarrassingly
parallel: every run owns its own :class:`~repro.sim.kernel.Simulator`
and shares nothing. This module ships runs to a ``multiprocessing``
pool and reassembles results in spec order.

Determinism is the design constraint (DESIGN.md decision 7):

* Every run is described by a :class:`RunSpec` — experiment name,
  frozen parameters, and an explicit seed. Nothing about a run depends
  on which worker executes it or when.
* Per-run seeds come from :func:`derive_seed`, a SHA-256 construction
  over ``(base_seed, index)`` — stable across processes, platforms,
  and Python hash randomization.
* :func:`run_parallel` returns results in the same order as the input
  specs, regardless of completion order, so
  ``run_parallel(specs) == run_serial(specs)`` bit-for-bit
  (asserted by ``tests/unit/test_bench_parallel.py``).

Results are normalized to plain dicts (:func:`normalize_result`) so
comparisons are structural and transport is plain pickling.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import multiprocessing
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .harness import LatencyRecorder, LatencyStats, merge_stats

__all__ = [
    "RUNNERS",
    "RunSpec",
    "RunResult",
    "derive_seed",
    "make_specs",
    "resolve_runner",
    "run_serial",
    "run_parallel",
    "merge_run_stats",
    "normalize_result",
    "default_workers",
]


RUNNERS: Dict[str, str] = {
    "experiment": "repro.bench.experiments:run_experiment",
    "chaos": "repro.faults.sweep:run_chaos_point",
    "ycsb": "repro.txn.ycsb:run_ycsb_point",
}
"""Named run targets, as ``module:callable`` import paths.

A :class:`RunSpec` names its runner rather than holding a callable so
specs pickle as plain data and worker processes resolve the target by
import — the pool never ships code, only ``(runner, name, seed,
params)`` tuples. Every runner has the signature
``fn(name, seed=..., **params)`` and must return picklable output.
"""


def resolve_runner(runner: str) -> Callable[..., Any]:
    """Import and return the callable behind a registered runner name."""
    try:
        path = RUNNERS[runner]
    except KeyError:
        known = ", ".join(sorted(RUNNERS))
        raise ValueError(f"unknown runner {runner!r} (known: {known})") from None
    module_name, _, attr = path.partition(":")
    return getattr(importlib.import_module(module_name), attr)


def derive_seed(base_seed: int, index: int) -> int:
    """A stable, well-separated per-run seed.

    SHA-256 over the decimal rendering of ``base_seed/index`` — no
    dependence on process identity, platform word size, or
    ``PYTHONHASHSEED``, and adjacent indices land far apart.
    """
    digest = hashlib.sha256(f"{base_seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run.

    ``params`` is a sorted tuple of ``(key, value)`` pairs rather than
    a dict so specs are hashable, orderable, and structurally
    comparable. ``runner`` names the :data:`RUNNERS` entry that
    executes the spec — benchmark experiments by default, chaos
    scenario points for fault-plan sweeps.
    """

    experiment: str
    seed: int
    params: Tuple[Tuple[str, Any], ...] = ()
    runner: str = "experiment"

    @classmethod
    def make(
        cls, experiment: str, seed: int, runner: str = "experiment", **params: Any
    ) -> "RunSpec":
        return cls(experiment, seed, tuple(sorted(params.items())), runner)

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)

    def label(self) -> str:
        rendered = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.experiment}[{rendered}] seed={self.seed}"


@dataclass
class RunResult:
    """A completed run: its spec plus the normalized experiment output."""

    spec: RunSpec
    output: Any

    def stats_dict(self) -> Optional[Dict[str, Any]]:
        """The embedded latency-stats dict, if the experiment has one."""
        if isinstance(self.output, dict):
            if "stats" in self.output:
                return self.output["stats"]
            if "p50" in self.output:
                return self.output
        return None


def normalize_result(result: Any) -> Any:
    """Flatten experiment output into comparable plain data.

    Dataclasses (``MicrobenchResult``, ``LatencyStats``, …) become
    nested dicts; everything else is returned as-is. Equality on the
    normalized form is exactly "same experiment outcome".
    """
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return dataclasses.asdict(result)
    return result


def make_specs(
    experiment: str,
    base_seed: int,
    n_seeds: int,
    grid: Optional[Sequence[Mapping[str, Any]]] = None,
    **common: Any,
) -> List[RunSpec]:
    """Expand ``n_seeds`` × ``grid`` into a flat, ordered spec list.

    ``grid`` is a sequence of parameter dicts (one spec per entry per
    seed); ``common`` parameters apply to every spec. Seeds are derived
    from ``base_seed`` and the flat index, so the spec list — and hence
    every result — is a pure function of the arguments.
    """
    points: Sequence[Mapping[str, Any]] = grid if grid else [{}]
    specs: List[RunSpec] = []
    index = 0
    for seed_index in range(n_seeds):
        del seed_index
        for point in points:
            params = dict(common)
            params.update(point)
            specs.append(
                RunSpec.make(experiment, derive_seed(base_seed, index), **params)
            )
            index += 1
    return specs


def _execute(spec: RunSpec) -> RunResult:
    """Run one spec in the current process (the pool's map target)."""
    fn = resolve_runner(spec.runner)
    output = fn(spec.experiment, seed=spec.seed, **spec.kwargs)
    return RunResult(spec=spec, output=normalize_result(output))


def run_serial(specs: Iterable[RunSpec]) -> List[RunResult]:
    """Execute every spec in-process, in order (the reference path)."""
    return [_execute(spec) for spec in specs]


def default_workers() -> int:
    """Worker count: every core, floor 1."""
    return max(1, os.cpu_count() or 1)


def run_parallel(
    specs: Sequence[RunSpec],
    workers: Optional[int] = None,
    mp_context: Optional[str] = None,
) -> List[RunResult]:
    """Execute specs across a process pool; results in spec order.

    ``workers`` defaults to the machine's core count; a single worker
    (or a single spec) short-circuits to :func:`run_serial`, so callers
    need no special-casing. ``mp_context`` selects the start method
    ("fork"/"spawn"/"forkserver"); the platform default is used
    otherwise — results are identical either way, only startup cost
    differs.
    """
    specs = list(specs)
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(specs) <= 1:
        return run_serial(specs)
    context = (
        multiprocessing.get_context(mp_context)
        if mp_context
        else multiprocessing.get_context()
    )
    # chunksize=1: sweep points have wildly uneven runtimes (a 10:1
    # tenancy config simulates far more events than an unloaded one),
    # so fine-grained dispatch is what keeps the pool busy.
    with context.Pool(processes=min(workers, len(specs))) as pool:
        return pool.map(_execute, specs, chunksize=1)


def merge_run_stats(results: Iterable[RunResult]) -> LatencyStats:
    """Merge the latency stats of completed runs into one summary.

    When every contributing run carries its raw samples
    (``output["samples_ns"]``, recorded by the latency experiments),
    the merge is **sample-exact**: all samples are folded into one
    :class:`~repro.bench.harness.LatencyRecorder`, so merged
    percentiles equal those of a single run that saw every operation.
    Runs that only ship summaries fall back to the count-weighted
    :func:`~repro.bench.harness.merge_stats` approximation.

    Order-independent on both paths. Runs without latency stats
    (e.g. pure-throughput outputs) are skipped; raises if nothing
    remains.
    """
    parts: List[LatencyStats] = []
    sample_lists: List[List[int]] = []
    for result in results:
        stats = result.stats_dict()
        if not (stats and stats.get("count")):
            continue
        parts.append(LatencyStats(**stats))
        output = result.output if isinstance(result.output, dict) else {}
        samples = output.get("samples_ns")
        if samples and len(samples) == stats["count"]:
            sample_lists.append(samples)
    if not parts:
        raise ValueError("no run carried latency stats")
    if len(sample_lists) == len(parts):
        merged = LatencyRecorder("merged")
        for samples in sample_lists:
            part = LatencyRecorder()
            part.samples_ns = list(samples)
            part._sum_ns = sum(samples)
            merged.merge(part)
        return merged.stats()
    return merge_stats(parts)
