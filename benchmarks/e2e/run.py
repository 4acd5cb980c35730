#!/usr/bin/env python3
"""End-to-end benchmark of the HyperLoop reproduction: the repo's ruler.

    python3 benchmarks/e2e/run.py --seed 7            # every workload, both passes
    python3 benchmarks/e2e/run.py --repeat-check      # the suite twice, compared
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The last form is the driver's contract (``BENCHMARK.json``): one
workload, and on the last line of stdout one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — every
``end_to_end`` metric with ``--trace 0``, every ``per_layer`` metric
with ``--trace 1``. ``BENCHMARK.json`` is the single list of metric
names, units and bounds; this file computes a value for each name and
refuses to run if one is missing.

Each pass of a workload runs in a fresh subprocess (``worker.py``).
An untraced run is three repeats, each on its own sub-seed of
``--seed``: host metrics are medians over them, simulated ones are
taken over their pooled samples. A traced run is one pass under
``repro.obs.tracing()`` at a quarter of the size plus an untraced twin
of the same size and seed, which must reproduce the traced pass's
simulated latencies exactly — the licence to quote counts from it, and
the determinism check of every traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from worker import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
REPEATS = 3
TRACED_SHARE = 4  # the traced pass and its twin run 1/4 of the ops
QUICK_SHARE = 20  # --quick: 1/20 of the ops (smoke test)
PASS_TIMEOUT_S = 170

# What the suite prints beside BENCHMARK.json's end_to_end list: ISSUE's
# other three end-to-end figures. They are listed under per_layer there,
# because an end_to_end metric may never be 0 and must be steady across
# seeds (README, "What the driver gates").
ALSO_END_TO_END = ("events_per_op", "sim_replica_cpu_frac", "failed_frac")
# Must agree exactly between two runs of one commit and seed.
EXACT = ("sim_p50_us", "sim_p99_us", "sim_kops")


class BenchError(RuntimeError):
    pass


def load_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- one pass ------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    """The child's environment: every ``REPRO_*`` switch scrubbed, so the
    program runs its default dispatch and install modes whatever the
    caller's shell has set; hash seed fixed so set order cannot move host
    time between runs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: int, size: Tuple[float, int], traced: bool = False,
             spans: str = "") -> Dict:
    """One pass in a fresh process. ``size`` is (timed seconds of a run,
    divisor): the worker scales the workload's op count by both."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(size[0]), "--divide", str(size[1]),
        "--traced", str(int(traced)), "--spans", spans,
        "--t0", repr(time.monotonic()),
    ]
    done = subprocess.run(
        command, env=child_env(), cwd=str(ROOT), capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchError(f"{workload}: pass exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


# -- untraced run: the end-to-end metrics ------------------------------------------


def spread(values: List[float]) -> float:
    mid = statistics.median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def fast_quartile(values: List[float], fraction: float) -> float:
    """The quartile on the fast side of a batch figure (0.75 of a rate,
    0.25 of a cost). Interference on a shared host only ever slows a
    batch down, in bursts from a second to minutes: the fast quartile
    still reads true when two of the three repeats ran in a slow spell,
    where the median does not (README, "Measured steadiness")."""
    return percentile(sorted(values), fraction)


def sub_seed(seed: int, repeat: int) -> int:
    """The seed of one repeat: distinct for every (seed, repeat)."""
    return seed * REPEATS + repeat


def replica_cpu_frac(passes: List[Dict]) -> float:
    return sum(p["replica_core_ns"] for p in passes) / sum(p["elapsed_sim_ns"] for p in passes)


def end_to_end(passes: List[Dict]) -> Tuple[Dict[str, float], Dict[str, float], List[str]]:
    """(metrics, spreads of the host metrics, errors) of a run's repeats.

    Set-up time and RSS are medians over the repeats, the two host
    rates fast quartiles over their batches. Simulated metrics are taken
    over the pooled samples of all repeats: each repeat has its own
    sub-seed, so pooling is what three times the ops on one seed would
    give, at no extra host time.
    """
    errors = [e for p in passes for e in p["errors"]]
    host = {
        "setup_s": [p["setup_s"] for p in passes],
        "host_ops_per_s": [fast_quartile(p["batch_host_ops_per_s"], 0.75) for p in passes],
        "cpu_us_per_op": [fast_quartile(p["batch_cpu_us_per_op"], 0.25) for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    metrics = {
        "setup_s": statistics.median(host["setup_s"]),
        "peak_rss_mb": statistics.median(host["peak_rss_mb"]),
        "host_ops_per_s": fast_quartile(
            [x for p in passes for x in p["batch_host_ops_per_s"]], 0.75
        ),
        "cpu_us_per_op": fast_quartile(
            [x for p in passes for x in p["batch_cpu_us_per_op"]], 0.25
        ),
    }
    pooled = sorted(ns for p in passes for ns in p["latencies_ns"])
    elapsed_s = sum(p["elapsed_sim_ns"] for p in passes) / 1e9
    metrics["sim_p50_us"] = percentile(pooled, 0.50) / 1e3
    metrics["sim_p99_us"] = percentile(pooled, 0.99) / 1e3
    metrics["sim_kops"] = sum(p["ok"] for p in passes) / elapsed_s / 1e3
    metrics["sim_replica_cpu_frac"] = replica_cpu_frac(passes)
    metrics["failed_frac"] = (
        sum(p["failed"] + p["anomalies"] for p in passes) / sum(p["timed_ops"] for p in passes)
    )
    return metrics, {name: spread(values) for name, values in host.items()}, errors


# -- traced run: the per-layer metrics ----------------------------------------------


def per_layer(traced: Dict, twin: Dict) -> Tuple[Dict[str, float], Dict[str, int], List[str]]:
    """(metrics, raw integer counts, errors) of a traced pass and its twin."""
    errors = list(traced["errors"]) + list(twin["errors"])
    if traced["sim_digest"] != twin["sim_digest"]:
        errors.append(
            "tracing changed behaviour: latency digest "
            f"{traced['sim_digest']} (traced) != {twin['sim_digest']} (untraced)"
        )
    ops = traced["timed_ops"]
    counters, self_ns = traced["counters"], traced["self_ns"]
    calls, layer = traced["span_calls"], traced["layer"]

    def per_op(counter: str) -> float:
        return counters.get(counter, 0) / ops

    def hit_ratio(stem: str) -> float:
        hits, misses = counters.get(f"{stem}_hits", 0), counters.get(f"{stem}_misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0

    def self_ms(*subsystems: str) -> float:
        return sum(
            ns for name, ns in self_ns.items() if name.startswith(subsystems)
        ) / 1e6

    def host_us(span: str) -> float:
        entry = calls.get(span)
        return entry["host_ns"] / entry["calls"] / 1e3 if entry else 0.0

    def sim_us(span: str) -> float:
        entry = calls.get(span)
        return entry["sim_p50_ns"] / 1e3 if entry else 0.0

    # hw.cpu's dispatches run every task body, so the tracer bills it the
    # software of core/storage/txn that runs in a client task's context.
    # The benchmark's spans measured exactly that time: take it back out.
    in_task_ms = sum(e["host_ns"] for name, e in calls.items() if name != "op") / 1e6
    attempts = layer.get("attempts", 0)
    committed = layer.get("committed", 0)
    naive = traced["workload"] == "naive_tenancy"
    rates = twin["batch_host_ops_per_s"]
    metrics = {
        "events_per_op": traced["dispatches"] / ops,
        "sim_replica_cpu_frac": replica_cpu_frac([traced]),
        "failed_frac": (traced["failed"] + traced["anomalies"]) / ops,
        "sim.dispatches_per_op": traced["dispatches"] / ops,
        "sim.host_ns_per_dispatch": twin["wall_s"] * 1e9 / traced["dispatches"],
        "sim.self_ms": self_ms("sim."),
        "sim.timeout_recycled_per_op": per_op("kernel.timeout_pool_recycled"),
        "hw.nic.wqe_per_op": per_op("nic.wqe_executed"),
        "hw.nic.doorbells_per_op": per_op("nic.doorbells"),
        "hw.nic.rx_messages_per_op": per_op("nic.rx_messages"),
        "hw.nic.wait_triggers_per_op": per_op("nic.wait_triggers"),
        "hw.nic.qp_cache_hit_ratio": hit_ratio("nic.qp_cache"),
        "hw.nic.wqe_decode_hit_ratio": hit_ratio("nic.wqe_decode"),
        "hw.nic.self_ms": self_ms("hw.nic", "hw.wqe", "rdma."),
        "hw.network.deliveries_per_op": per_op("fabric.deliveries"),
        "hw.network.dropped": traced["fabric_dropped"],
        "hw.cpu.context_switches_per_op": per_op("cpu.context_switches"),
        "hw.cpu.dispatches_per_op": per_op("cpu.dispatches"),
        "hw.cpu.preempt_checks_per_op": per_op("cpu.preempt_checks"),
        "hw.cpu.self_ms": self_ms("hw.cpu") - in_task_ms,
        "hw.memory.cluster_build_s": traced["cluster_build_s"],
        "hw.memory.rss_after_build_mb": traced["rss_after_build_mb"],
        "core.group_build_s": traced["group_build_s"],
        "core.gwrite_host_us": host_us("core.gwrite"),
        "core.gwrite_sim_us_p50": sim_us("core.gwrite"),
        "baseline.gwrite_host_us": host_us("baseline.gwrite"),
        "baseline.replica_cpu_frac": replica_cpu_frac([traced]) if naive else 0.0,
        "storage.load_s": traced["load_s"],
        "storage.put_host_us": host_us("storage.put"),
        "storage.get_host_us": host_us("storage.get"),
        "storage.put_sim_us_p50": sim_us("storage.put"),
        "storage.get_sim_us_p50": sim_us("storage.get"),
        "storage.wal_bytes_per_user_byte": (
            layer["wal_tail"] / layer["user_bytes"] if layer.get("user_bytes") else 0.0
        ),
        "txn.begin_host_us": host_us("txn.begin"),
        "txn.read_host_us": host_us("txn.read"),
        "txn.scan_host_us": host_us("txn.scan"),
        "txn.commit_host_us": host_us("txn.commit"),
        "txn.commit_sim_us_p50": sim_us("txn.commit"),
        "txn.commit_ratio": committed / attempts if attempts else 0.0,
        "txn.aborts_ww": layer.get("aborts_ww", 0),
        "txn.aborts_ssi": layer.get("aborts_ssi", 0),
        "txn.aborts_phantom": layer.get("aborts_phantom", 0),
        "txn.retry_amplification": attempts / committed if committed else 0.0,
        "txn.backoff_sim_ms": layer.get("backoff_ns", 0) / 1e6,
        "txn.gave_up": layer.get("gave_up", 0),
        "txn.anomalies": traced["anomalies"],
        # Host time per op in the last batch over the first: state that
        # grows without bound (history, graph) shows as a ratio above 1.
        "txn.late_over_early": rates[0] / rates[-1] if "attempts" in layer else 0.0,
        "workloads.plan_s": traced["plan_s"],
        "obs.trace_overhead_frac": (
            fast_quartile(traced["batch_cpu_us_per_op"], 0.25)
            / fast_quartile(twin["batch_cpu_us_per_op"], 0.25) - 1.0
        ),
    }
    counts = {"dispatches": traced["dispatches"], "failed": traced["failed"],
              "anomalies": traced["anomalies"], "samples": traced["samples"]}
    counts.update({f"counter.{k}": v for k, v in counters.items()})
    counts.update({f"layer.{k}": v for k, v in layer.items()})
    if sum(self_ns.values()) > traced["wall_s"] * 1e9:
        errors.append("layer self times sum to more than the traced wall")
    return metrics, counts, errors


# -- running a workload -------------------------------------------------------------


def header(first: Dict, seed: int) -> str:
    return (
        f"{first['workload']}: seed {seed}, {first['timed_ops']} timed ops after "
        f"{first['warm_ops']} warm-up, {first['clients']} closed-loop clients, "
        f"dispatch={first['dispatch_mode']} install={first['install_mode']} (REPRO_* scrubbed)"
    )


def run_untraced(workload: str, seed: int, size: Tuple[float, int]) -> Dict:
    passes = [run_pass(workload, sub_seed(seed, r), size) for r in range(REPEATS)]
    metrics, spreads, errors = end_to_end(passes)
    return {
        "header": header(passes[0], seed), "metrics": metrics, "spreads": spreads,
        "errors": errors, "samples": sum(p["samples"] for p in passes),
        "attempted": sum(p["timed_ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }


def run_traced(workload: str, seed: int, size: Tuple[float, int]) -> Dict:
    OUT.mkdir(exist_ok=True)
    size = (size[0], size[1] * TRACED_SHARE)
    first = sub_seed(seed, 0)
    twin = run_pass(workload, first, size)
    traced = run_pass(workload, first, size, traced=True,
                      spans=str(OUT / f"{workload}.trace.json"))
    metrics, counts, errors = per_layer(traced, twin)
    return {
        "header": header(traced, seed), "metrics": metrics, "counts": counts, "errors": errors,
        "attempted": traced["timed_ops"] + twin["timed_ops"],
        "failed": traced["failed"] + twin["failed"],
    }


def contract_line(spec_metrics: List[Dict], result: Dict) -> Dict:
    """The driver's result object for one run."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in result["metrics"]]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics this file does not compute: {missing}")
    return {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in spec_metrics
        },
    }


# -- reports ------------------------------------------------------------------------


def print_untraced(spec: Dict, result: Dict, also: Optional[Dict] = None) -> None:
    print(f"== {result['header']}")
    print(f"   {'end to end':<26}{'value':>14}  {'unit':<12}{'spread of 3':>12}{'bound':>7}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        shown = f"{100 * result['spreads'][name]:.1f}%" if name in result["spreads"] else "pooled"
        note = f"  n={result['samples']}" if name == "sim_p99_us" else ""
        print(f"   {name:<26}{result['metrics'][name]:>14.4f}  {metric['unit']:<12}"
              f"{shown:>12}{100 * metric['bound']:>6.0f}%{note}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    known = {**(also or {}), **result["metrics"]}  # events_per_op: traced pass only
    for name in ALSO_END_TO_END:
        if name in known:
            print(f"   {name:<26}{known[name]:>14.6f}  {units[name]:<12}")
    for error in result["errors"]:
        print(f"   ERROR {error}")


def print_traced(spec: Dict, result: Dict) -> None:
    print(f"-- per layer, traced pass: {result['header']}")
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name not in ALSO_END_TO_END:
            print(f"   {name:<34}{result['metrics'][name]:>14.4f}  {metric['unit']}")
    for error in result["errors"]:
        print(f"   ERROR {error}")


def run_suite(spec: Dict, seed: int, size: Tuple[float, int]) -> Dict:
    """Every workload, untraced then traced; returns the results by workload."""
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = run_untraced(workload, seed, size)
        traced = run_traced(workload, seed, size)
        print_untraced(spec, untraced, also=traced["metrics"])
        print_traced(spec, traced)
        sys.stdout.flush()
        results[workload] = {
            "end_to_end": contract_line(spec["end_to_end"], untraced),
            "per_layer": contract_line(spec["per_layer"], traced),
            "counts": traced["counts"],
            "spreads": untraced["spreads"],
        }
    return results


def suite_correct(results: Dict) -> bool:
    return all(r["end_to_end"]["correct"] and r["per_layer"]["correct"] for r in results.values())


def repeat_check(spec: Dict, first: Dict, second: Dict) -> bool:
    """Compare two suites of one commit and seed; True when they agree."""
    agree = True
    print("== repeat check: run 1 vs run 2")
    print(f"   {'workload':<15}{'metric':<18}{'run 1':>14}{'run 2':>14}{'diff':>9}{'bound':>7}")
    for workload, one in first.items():
        two = second[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = one["end_to_end"]["metrics"][name]["value"]
            b = two["end_to_end"]["metrics"][name]["value"]
            diff = abs(a - b) / abs(a) if a else float(a != b)
            bound = 0.0 if name in EXACT else metric["bound"]
            ok = diff <= bound
            agree &= ok
            print(f"   {workload:<15}{name:<18}{a:>14.4f}{b:>14.4f}{100 * diff:>8.2f}%"
                  f"{100 * bound:>6.0f}%{'' if ok else '  DISAGREE'}")
        if one["counts"] != two["counts"]:
            agree = False
            moved = sorted(k for k in one["counts"] if one["counts"][k] != two["counts"].get(k))
            print(f"   {workload:<15}per-layer counts differ: {moved[:6]}")
    return agree


# -- entry ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds of a run; scales every workload's op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="1/20 of the ops (smoke test)")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run the suite twice and compare within the bounds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    size = (
        args.seconds if args.seconds is not None else float(spec["run_seconds"]),
        QUICK_SHARE if args.quick else 1,
    )
    try:
        if args.workload:
            if args.workload not in [w["name"] for w in spec["workloads"]]:
                parser.error(f"unknown workload {args.workload!r}")
            if args.trace:
                result = run_traced(args.workload, args.seed, size)
                print_traced(spec, result)
                line = contract_line(spec["per_layer"], result)
            else:
                result = run_untraced(args.workload, args.seed, size)
                print_untraced(spec, result)
                line = contract_line(spec["end_to_end"], result)
            print(json.dumps(line))
            return 0 if line["correct"] else 1
        results = run_suite(spec, args.seed, size)
        ok = suite_correct(results)
        if args.repeat_check:
            second = run_suite(spec, args.seed, size)
            ok = ok and suite_correct(second) and repeat_check(spec, results, second)
            results = {"run1": results, "run2": second}
        OUT.mkdir(exist_ok=True)
        with open(OUT / "results.json", "w") as handle:
            json.dump({"seed": args.seed, "results": results}, handle, indent=1)
        print(f"{'PASS' if ok else 'FAIL'}: results in {OUT / 'results.json'}")
        return 0 if ok else 1
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
