"""Smoke test of the end-to-end benchmark (run explicitly; not tier-1):

    python -m pytest -q benchmarks/e2e/test_e2e_smoke.py

One ``--quick --repeat-check`` run of ``run.py`` (the whole suite twice
at 1/20 size) checks the plumbing, not the numbers: every metric named
in ``BENCHMARK.json`` comes out with its unit for every workload,
counts are integers that repeat across the two passes, the span files
parse with every parent present, and the tracer's layer self times fit
inside the traced wall (``run.py`` marks the workload incorrect
otherwise).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def suite():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--repeat-check", "--seed", "7"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900,
    )
    results = json.loads((HERE / "out" / "results.json").read_text())["results"]
    return done, results["run1"], results["run2"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(suite, workload):
    _, run1, _ = suite
    for kind in ("end_to_end", "per_layer"):
        line = run1[workload][kind]
        assert line["correct"] is True
        assert line["attempted"] >= 1 and isinstance(line["failed"], int)
        assert set(line["metrics"]) == {m["name"] for m in SPEC[kind]}
        for metric in SPEC[kind]:
            got = line["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
    for metric in SPEC["end_to_end"]:
        assert run1[workload]["end_to_end"]["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_are_integers_that_repeat(suite, workload):
    _, run1, run2 = suite
    counts = run1[workload]["counts"]
    assert counts["dispatches"] > 0
    assert all(isinstance(value, int) for value in counts.values())
    assert counts == run2[workload]["counts"]
    for name in ("sim_p50_us", "sim_p99_us", "sim_kops"):
        assert (
            run1[workload]["end_to_end"]["metrics"][name]
            == run2[workload]["end_to_end"]["metrics"][name]
        )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_file_parses_and_every_parent_exists(suite, workload):
    trace = json.loads((HERE / "out" / f"{workload}.trace.json").read_text())
    fields = trace["fields"]
    spans = [dict(zip(fields, row)) for row in trace["spans"]]
    ids = {span["id"] for span in spans}
    assert len(ids) == len(spans) > 0
    for span in spans:
        assert span["parent"] is None or span["parent"] in ids
        assert span["end_ns"] >= span["start_ns"]
        assert span["sim_end_ns"] >= span["sim_start_ns"]
    names = {span["name"] for span in spans}
    assert {"setup", "hw.memory.cluster_build", "core.group_build", "timed", "op"} <= names


def test_layer_split_matches_each_workloads_purpose(suite):
    _, run1, _ = suite

    def layer(workload, name):
        return run1[workload]["per_layer"]["metrics"][name]["value"]

    for workload in ("gwrite_chain", "naive_tenancy"):
        for name in ("txn.commit_host_us", "txn.begin_host_us", "storage.put_host_us"):
            assert layer(workload, name) == 0
    assert layer("gwrite_chain", "sim_replica_cpu_frac") < 0.01
    assert layer("naive_tenancy", "sim_replica_cpu_frac") > 0.01
    assert layer("txn_ycsb_e", "txn.scan_host_us") > 0
    for workload in WORKLOADS:
        if workload != "txn_ycsb_e":
            assert layer(workload, "txn.scan_host_us") == 0


def test_suite_exit_code_follows_the_repeat_check(suite):
    done, _, _ = suite
    # Host timings of a 1/20-size run are too short to hold their bounds,
    # so only a crash (3) or a correctness failure may fail this test.
    assert done.returncode in (0, 1), done.stderr
    assert "ERROR" not in done.stdout, done.stdout
