"""Transactional YCSB: determinism across every execution mode.

The suite rendering must be a pure function of ``(mixes, seed,
params)``: byte-identical when run twice, across pool worker counts,
with the batched dispatch loop swapped for the one-pop reference loop
(``tests/reference/one_pop.py``), and with every run driven as
back-to-back bounded slices (``tests/reference/slices.py``).
All six Cooper mixes run — D and E drive the coordinator's insert and
snapshot-scan paths — and unknown mixes fail with the full supported
vocabulary.
"""

import pytest

from repro.sim import Simulator
from repro.txn import run_ycsb, run_ycsb_mix, run_ycsb_point
from repro.txn.ycsb import TXN_MIXES
from tests.reference.one_pop import run_one_pop
from tests.reference.slices import run_in_slices


SMALL = dict(n_keys=24, n_txns=12, n_workers=2)


def test_mix_report_is_reasonable():
    report = run_ycsb_mix(mix="A", seed=7, **SMALL)
    assert report.committed + report.gave_up == report.n_txns
    assert report.attempts == report.committed + report.retries + report.gave_up
    assert report.anomaly == "none"
    assert report.errors == []
    assert report.throughput_tps > 0
    # Mix C is read-only: no write-write races are possible.
    readonly = run_ycsb_mix(mix="C", seed=7, **SMALL)
    assert readonly.aborts_ww == 0
    assert readonly.committed == readonly.n_txns
    assert readonly.amplification == 1.0


def test_all_six_mixes_supported():
    assert TXN_MIXES == ("A", "B", "C", "D", "E", "F")


def test_unknown_mix_lists_supported_set():
    with pytest.raises(ValueError, match="A/B/C/D/E/F"):
        run_ycsb_mix(mix="Z", seed=7)


def test_workload_d_runs_with_inserts():
    report = run_ycsb_mix(mix="D", seed=7, **SMALL)
    assert report.inserts >= 1 and report.scans == 0
    assert report.committed + report.gave_up == report.n_txns
    assert report.anomaly == "none"
    assert report.errors == []


def test_workload_e_runs_with_scans():
    report = run_ycsb_mix(mix="E", seed=7, **SMALL)
    assert report.scans >= 1
    assert report.committed + report.gave_up == report.n_txns
    assert report.anomaly == "none"
    assert report.errors == []


def test_dynamic_mixes_render_identically_across_runs():
    base = run_ycsb(mixes=("D", "E"), seed=7, workers=1, **SMALL)
    again = run_ycsb(mixes=("D", "E"), seed=7, workers=1, **SMALL)
    pooled = run_ycsb(mixes=("D", "E"), seed=7, workers=4, **SMALL)
    assert base.render() == again.render()
    assert base.render() == pooled.render()
    assert base.ok


def test_dynamic_mixes_identical_across_dispatch_modes(monkeypatch):
    base = run_ycsb(mixes=("D", "E"), seed=7, workers=1, **SMALL)
    monkeypatch.setattr(Simulator, "run", run_one_pop)
    oracle = run_ycsb(mixes=("D", "E"), seed=7, workers=1, **SMALL)
    assert oracle.render() == base.render()


def test_suite_renders_identically_across_runs_and_workers():
    base = run_ycsb(mixes=("A", "B"), seed=7, workers=1, **SMALL)
    again = run_ycsb(mixes=("A", "B"), seed=7, workers=1, **SMALL)
    pooled = run_ycsb(mixes=("A", "B"), seed=7, workers=4, **SMALL)
    assert base.render() == again.render()
    assert base.render() == pooled.render()
    assert base.ok


def test_suite_identical_across_dispatch_modes(monkeypatch):
    base = run_ycsb(mixes=("A", "F"), seed=7, workers=1, **SMALL)
    monkeypatch.setattr(Simulator, "run", run_one_pop)
    oracle = run_ycsb(mixes=("A", "F"), seed=7, workers=1, **SMALL)
    assert oracle.render() == base.render()


def test_mix_point_identical_in_slices(monkeypatch):
    base = run_ycsb_point("A", seed=7, **SMALL)
    monkeypatch.setattr(Simulator, "run", run_in_slices)
    sliced = run_ycsb_point("A", seed=7, **SMALL)
    assert sliced.render() == base.render()
    assert sliced == base


def test_dynamic_mix_point_identical_in_slices(monkeypatch):
    base = run_ycsb_point("E", seed=7, **SMALL)
    monkeypatch.setattr(Simulator, "run", run_in_slices)
    sliced = run_ycsb_point("E", seed=7, **SMALL)
    assert sliced.render() == base.render()
    assert sliced == base
