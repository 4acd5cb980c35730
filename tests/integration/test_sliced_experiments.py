"""Existing experiments, driven as back-to-back bounded slices.

The harness runs long experiments in chunks and every scenario drains
with ``run(until=...)``. Patched in for every simulator an experiment
builds, ``tests/reference/slices.py`` runs each one as fixed-width
bounded slices; results — and traces — must be byte-identical to one
unsliced run.
"""

import dataclasses

import pytest

from repro.bench.experiments import microbench_latency
from repro.faults.sweep import run_replay
from repro.obs.trace import tracing
from repro.sim import Simulator
from tests.integration.test_chaos_corpus import corpus_specs
from tests.reference.slices import run_in_slices

MICROBENCH = dict(system="hyperloop", primitive="gwrite", n_ops=30, seed=9)


def _trace(tracer):
    return tracer.dispatches, [
        (rec.ts, rec.ph, rec.cat, rec.name, rec.pid, rec.tid, rec.dur, rec.args)
        for rec in tracer.iter_records()
    ]


def test_microbench_identical_in_slices(monkeypatch):
    base = microbench_latency(**MICROBENCH)
    monkeypatch.setattr(Simulator, "run", run_in_slices)
    sliced = microbench_latency(**MICROBENCH)
    assert dataclasses.asdict(sliced) == dataclasses.asdict(base)


def test_microbench_trace_identical_in_slices(monkeypatch):
    with tracing() as tracer:
        microbench_latency(**MICROBENCH)
    base = _trace(tracer)
    assert {"kernel", "nic", "group"} <= {rec[2] for rec in base[1]}
    monkeypatch.setattr(Simulator, "run", run_in_slices)
    with tracing() as tracer:
        microbench_latency(**MICROBENCH)
    assert _trace(tracer) == base


@pytest.mark.parametrize("spec", corpus_specs()[:4])
def test_corpus_spec_identical_in_slices(spec, monkeypatch):
    base = run_replay(spec)
    monkeypatch.setattr(Simulator, "run", run_in_slices)
    sliced = run_replay(spec)
    assert sliced.render() == base.render()
    assert sliced.passed == base.passed
    assert [
        (inv.name, inv.ok, inv.detail) for inv in sliced.invariants
    ] == [(inv.name, inv.ok, inv.detail) for inv in base.invariants]
