"""Existing experiments, sliced the way a shard worker slices them.

The HyperLoop experiments and the chaos corpus are single-clique
worlds (one replica chain sharing a fabric), so the partitioner never
splits them across shards. What a shard worker would still change is
how the run loop is driven: bounded ``run(until=...)`` slices one
lookahead past each next event, with the clock left unpinned between
them (``tests/reference/windows.py``). Patched in for every simulator
an experiment builds, that must leave results — and traces — byte-
identical to one unsliced run.
"""

import dataclasses

import pytest

from repro.bench.experiments import microbench_latency
from repro.faults.sweep import run_replay
from repro.obs.trace import tracing
from repro.sim import Simulator
from tests.integration.test_chaos_corpus import corpus_specs
from tests.reference.windows import run_in_windows

MICROBENCH = dict(system="hyperloop", primitive="gwrite", n_ops=30, seed=9)


def _trace(tracer):
    return tracer.dispatches, [
        (rec.ts, rec.ph, rec.cat, rec.name, rec.pid, rec.tid, rec.dur, rec.args)
        for rec in tracer.iter_records()
    ]


def test_microbench_identical_in_lookahead_windows(monkeypatch):
    base = microbench_latency(**MICROBENCH)
    monkeypatch.setattr(Simulator, "run", run_in_windows)
    windowed = microbench_latency(**MICROBENCH)
    assert dataclasses.asdict(windowed) == dataclasses.asdict(base)


def test_microbench_trace_identical_in_lookahead_windows(monkeypatch):
    with tracing() as tracer:
        microbench_latency(**MICROBENCH)
    base = _trace(tracer)
    assert {"kernel", "nic", "group"} <= {rec[2] for rec in base[1]}
    monkeypatch.setattr(Simulator, "run", run_in_windows)
    with tracing() as tracer:
        microbench_latency(**MICROBENCH)
    assert _trace(tracer) == base


@pytest.mark.parametrize("spec", corpus_specs()[:4])
def test_corpus_spec_identical_in_lookahead_windows(spec, monkeypatch):
    base = run_replay(spec)
    monkeypatch.setattr(Simulator, "run", run_in_windows)
    windowed = run_replay(spec)
    assert windowed.render() == base.render()
    assert windowed.passed == base.passed
    assert [
        (inv.name, inv.ok, inv.detail) for inv in windowed.invariants
    ] == [(inv.name, inv.ok, inv.detail) for inv in base.invariants]
