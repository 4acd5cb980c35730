"""Command-line interface: run experiments and demos without pytest.

Examples::

    python -m repro list
    python -m repro latency --system hyperloop --size 4096 --ops 2000
    python -m repro latency --system naive-polling --stress 6
    python -m repro throughput --size 8192
    python -m repro fig2 --replica-sets 18
    python -m repro fig11
    python -m repro fig12 --workload A
    python -m repro sweep          # the tenancy sweep headline table
    python -m repro bench diff old.json new.json      # two e2e results.json, compared
    python -m repro trace          # traced run -> Chrome-trace JSON + report
    python -m repro chaos --seed 7 # fault-injection matrix, invariant report
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench import format_table
from .bench.experiments import (
    fig2_mongodb_motivation,
    fig11_rocksdb,
    fig12_mongodb,
    microbench_latency,
    microbench_throughput,
)

__all__ = ["main", "build_parser"]

SYSTEMS = ["hyperloop", "naive-event", "naive-polling"]


def _positive_int(text: str) -> int:
    """argparse type of every count flag: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HyperLoop reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    latency = sub.add_parser("latency", help="§6.1 latency microbenchmark")
    latency.add_argument("--system", choices=SYSTEMS, default="hyperloop")
    latency.add_argument("--primitive", choices=["gwrite", "gmemcpy", "gcas"], default="gwrite")
    latency.add_argument("--size", type=int, default=1024, help="message bytes")
    latency.add_argument("--group", type=int, default=3, help="replicas in the chain")
    latency.add_argument("--ops", type=_positive_int, default=2000)
    latency.add_argument("--stress", type=int, default=6, help="tenants per replica core")
    latency.add_argument("--seed", type=int, default=42)

    throughput = sub.add_parser("throughput", help="§6.1 throughput benchmark")
    throughput.add_argument("--system", choices=SYSTEMS, default="hyperloop")
    throughput.add_argument("--size", type=int, default=4096)
    throughput.add_argument("--mbytes", type=int, default=32, help="total MB to write")

    fig2 = sub.add_parser("fig2", help="§2.2 MongoDB motivation study")
    fig2.add_argument("--replica-sets", type=int, default=18)
    fig2.add_argument("--cores", type=int, default=16)
    fig2.add_argument("--ops-per-set", type=int, default=40)

    fig11 = sub.add_parser("fig11", help="§6.2 replicated RocksDB comparison")
    fig11.add_argument("--ops", type=_positive_int, default=1200)
    fig11.add_argument("--stress", type=int, default=10)

    fig12 = sub.add_parser("fig12", help="§6.2 MongoDB YCSB comparison")
    fig12.add_argument("--workload", choices=list("ABDEF"), default="A")
    fig12.add_argument("--ops", type=_positive_int, default=450)

    sweep = sub.add_parser("sweep", help="latency vs tenancy, all systems")
    sweep.add_argument("--ops", type=_positive_int, default=1500)
    sweep.add_argument("--levels", type=int, nargs="+", default=[0, 2, 6, 10])

    bench = sub.add_parser(
        "bench",
        help="parallel seed/config sweep with merged stats",
        description=(
            "Fan independent simulations (seeds x systems x sizes) across "
            "worker processes; per-run seeds derive deterministically from "
            "--seed, and results are identical to an in-process run "
            "(--workers 1)."
        ),
    )
    bench.add_argument("--experiment", choices=["latency", "throughput"], default="latency")
    bench.add_argument("--systems", choices=SYSTEMS, nargs="+", default=["hyperloop"])
    bench.add_argument("--sizes", type=int, nargs="+", default=[1024])
    bench.add_argument("--seeds", type=_positive_int, default=4, help="independent seeds per config")
    bench.add_argument("--seed", type=int, default=42, help="base seed for derivation")
    bench.add_argument("--ops", type=_positive_int, default=500)
    bench.add_argument("--stress", type=int, default=3, help="tenants per replica core")
    bench.add_argument("--workers", type=_positive_int, default=None, help="processes (default: all cores)")
    diff = bench.add_subparsers(dest="bench_command").add_parser(
        "diff",
        help="compare two benchmarks/e2e/out/results.json files",
        description=(
            "Per workload: every end-to-end metric old -> new against its "
            "BENCHMARK.json bound, the traced pass's counts that differ, "
            "and the layer whose self time moved most."
        ),
    )
    diff.add_argument("old", help="results.json of the parent commit")
    diff.add_argument("new", help="results.json of the change")
    diff.add_argument("--spec", default="BENCHMARK.json", help="metric bounds and directions")

    txn = sub.add_parser(
        "txn",
        help="cross-group SSI transaction workload (repro.txn)",
        description=(
            "Run the deterministic multi-group transaction mix through the "
            "SSI coordinator (snapshot reads, first-committer-wins, pivot "
            "aborts) and verify the committed history offline. The report "
            "depends only on the arguments — two runs with the same seed "
            "print byte-identical output."
        ),
    )
    txn.add_argument("--seed", type=int, default=7)
    txn.add_argument(
        "--mode",
        choices=["ssi", "si"],
        default="ssi",
        help="ssi = abort dangerous structures; si = plain snapshot isolation",
    )
    txn.add_argument("--txns", type=int, default=24, help="mixed transactions")
    txn.add_argument("--groups", type=int, default=2, help="replica groups")
    txn.add_argument(
        "--write-skew-pairs",
        type=int,
        default=2,
        help="rendezvoused write-skew pairs (SI admits, SSI must abort)",
    )
    txn.add_argument(
        "--retry",
        choices=["none", "immediate", "backoff"],
        default=None,
        help="retry policy for aborted transactions "
        "(default: none for the mix, backoff for --ycsb)",
    )
    txn.add_argument(
        "--ycsb",
        action="store_true",
        help="run the transactional YCSB suite instead of the shaped mix",
    )
    txn.add_argument(
        "--mixes",
        default="A,B,C",
        help="comma-separated YCSB mixes for --ycsb (A/B/C/D/E/F)",
    )
    txn.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="process-pool width for --ycsb (output is worker-independent)",
    )

    trace = sub.add_parser(
        "trace",
        help="traced experiment run: Chrome-trace export + attribution report",
        description=(
            "Run one experiment with the repro.obs tracer enabled, export a "
            "Chrome-trace/Perfetto JSON timeline, and print the counter and "
            "kernel time-attribution report. Tracing changes no simulated "
            "result — the run produces exactly the numbers an untraced run "
            "would."
        ),
    )
    trace.add_argument("--system", choices=SYSTEMS, default="hyperloop")
    trace.add_argument(
        "--primitive", choices=["gwrite", "gmemcpy", "gcas"], default="gwrite"
    )
    trace.add_argument("--size", type=int, default=1024, help="message bytes")
    trace.add_argument("--ops", type=_positive_int, default=50)
    trace.add_argument("--stress", type=int, default=1, help="tenants per replica core")
    trace.add_argument("--cores", type=int, default=8)
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument(
        "--out", default="trace.json", help="Chrome-trace JSON path ('-' skips export)"
    )
    trace.add_argument(
        "--op",
        type=int,
        default=None,
        help="print this round's chain timeline (default: a mid-run round)",
    )
    trace.add_argument(
        "--capacity", type=int, default=None, help="ring-buffer record capacity"
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection scenario matrix with invariant checks",
        description=(
            "Run the repro.faults chaos matrix: each scenario pairs a workload "
            "with a declarative fault plan (drops, partitions, NIC/host crashes, "
            "power failures) and checks the paper's guarantees afterwards. The "
            "report depends only on (scenario, seed) — two runs with the same "
            "seed print byte-identical output."
        ),
    )
    chaos.add_argument("--seed", type=int, default=42)
    chaos.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="run only this scenario (repeatable; default: the full matrix)",
    )
    chaos.add_argument(
        "--list", action="store_true", dest="list_scenarios", help="list scenarios"
    )
    chaos.add_argument(
        "--trace",
        default=None,
        help="also export a Chrome-trace JSON of the run (fault events included)",
    )
    chaos.add_argument(
        "--sweep",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "chaos sweep: N derived seeds x the compound+generated matrix "
            "through the parallel pool; byte-identical report for any "
            "--workers value. On a generated-plan failure the plan is "
            "shrunk and the replay command printed."
        ),
    )
    chaos.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="sweep worker processes (default: all cores; 1 = in-process)",
    )
    chaos.add_argument(
        "--replay",
        default=None,
        metavar="SPEC",
        help=(
            "re-run one failure: scenario:seed, or generated:seed:i0,i1,... "
            "for a (shrunk) generated plan subset"
        ),
    )
    chaos.add_argument(
        "--sabotage",
        default=None,
        help=(
            "append a deliberately-broken invariant to generated runs "
            "(corrupt-fired / drop-fired / any-fault) — a shrinker demo/test "
            "hook"
        ),
    )

    return parser


def _cmd_list() -> int:
    rows = [
        ("latency", "gWRITE/gMEMCPY/gCAS latency distribution (Fig 8, 10, Table 2)"),
        ("throughput", "bulk gWRITE throughput + replica CPU (Fig 9)"),
        ("fig2", "vanilla MongoDB under multi-tenancy (Fig 2)"),
        ("fig11", "replicated RocksDB, three data paths (Fig 11)"),
        ("fig12", "split MongoDB on YCSB, native vs HyperLoop (Fig 12)"),
        ("sweep", "the headline tenancy sweep"),
        ("bench", "parallel seed/config sweep with merged stats"),
        ("trace", "traced run: Chrome-trace timeline + attribution report"),
        ("chaos", "fault-injection scenario matrix with invariant checks"),
        ("txn", "cross-group SSI transactions with Available-Copies reads"),
    ]
    print(format_table("Experiments", ["command", "what it reproduces"], rows))
    return 0


def _cmd_latency(args) -> int:
    result = microbench_latency(
        args.system,
        primitive=args.primitive,
        message_size=args.size,
        group_size=args.group,
        n_ops=args.ops,
        stress_per_core=args.stress,
        seed=args.seed,
    )
    stats = result.stats
    rows = [
        (
            args.system,
            args.primitive,
            args.size,
            round(stats.mean, 1),
            round(stats.p50, 1),
            round(stats.p95, 1),
            round(stats.p99, 1),
            f"{result.replica_cpu_fraction * 100:.2f}%",
        )
    ]
    print(
        format_table(
            f"Latency (us), group={args.group}, {args.stress} tenants/core",
            ["system", "primitive", "size_B", "avg", "p50", "p95", "p99", "replica CPU"],
            rows,
        )
    )
    if result.errors:
        print(f"errors: {result.errors[:3]}", file=sys.stderr)
        return 1
    return 0


def _cmd_throughput(args) -> int:
    result = microbench_throughput(
        args.system, message_size=args.size, total_bytes=args.mbytes << 20
    )
    rows = [
        (
            args.system,
            args.size,
            round(result.throughput_kops, 1),
            f"{result.replica_cpu_fraction * 100:.1f}%",
        )
    ]
    print(
        format_table(
            "Throughput",
            ["system", "size_B", "Kops/s", "replica CPU"],
            rows,
        )
    )
    return 0


def _cmd_fig2(args) -> int:
    result = fig2_mongodb_motivation(
        args.replica_sets, n_cores=args.cores, ops_per_set=args.ops_per_set
    )
    stats = result.stats
    rows = [
        (
            args.replica_sets,
            args.cores,
            round(stats.mean / 1000, 2),
            round(stats.p99 / 1000, 2),
            result.context_switches,
        )
    ]
    print(
        format_table(
            "Figure 2 configuration",
            ["replica-sets", "cores", "avg_ms", "p99_ms", "ctx switches"],
            rows,
        )
    )
    return 0


def _cmd_fig11(args) -> int:
    rows = []
    for system in ("naive-event", "naive-polling", "hyperloop"):
        stats = fig11_rocksdb(system, n_ops=args.ops, stress_per_core=args.stress)
        rows.append((system, round(stats.mean, 1), round(stats.p99, 1)))
    print(
        format_table(
            "Figure 11: RocksDB update latency (us)",
            ["system", "avg", "p99"],
            rows,
        )
    )
    return 0


def _cmd_fig12(args) -> int:
    rows = []
    for label, offloaded in (("native", False), ("hyperloop", True)):
        stats = fig12_mongodb(offloaded, args.workload, n_ops=args.ops)
        rows.append(
            (label, round(stats.mean / 1000, 2), round(stats.p99 / 1000, 2))
        )
    print(
        format_table(
            f"Figure 12: MongoDB YCSB-{args.workload} (ms)",
            ["system", "avg_ms", "p99_ms"],
            rows,
        )
    )
    return 0


def _cmd_sweep(args) -> int:
    rows = []
    for level in args.levels:
        for system in SYSTEMS:
            result = microbench_latency(
                system, "gwrite", 1024, n_ops=args.ops, stress_per_core=level
            )
            rows.append(
                (
                    level,
                    system,
                    round(result.stats.mean, 1),
                    round(result.stats.p99, 1),
                )
            )
    print(
        format_table(
            "Latency (us) vs tenants-per-core",
            ["tenants/core", "system", "avg", "p99"],
            rows,
        )
    )
    return 0


def _cmd_bench_diff(args) -> int:
    """``bench diff OLD NEW``: where two benchmark runs differ, and by
    how much of what ``BENCHMARK.json`` allows."""
    import json

    def load(path):
        with open(path) as handle:
            results = json.load(handle)["results"]
        return results.get("run1", results)  # --repeat-check wrote two suites

    with open(args.spec) as handle:
        spec = json.load(handle)["end_to_end"]
    old, new = load(args.old), load(args.new)
    outside = 0
    rows, count_rows, layer_rows = [], [], []
    for workload in (w for w in old if w in new):
        one, two = old[workload], new[workload]
        for metric in spec:
            a = one["end_to_end"]["metrics"][metric["name"]]["value"]
            b = two["end_to_end"]["metrics"][metric["name"]]["value"]
            change = (b - a) / abs(a) if a else float(b != a)
            worse = change if metric["better"] == "lower" else -change
            verdict = "same" if a == b else "better" if worse < 0 else "inside"
            if worse > metric["bound"]:
                verdict = "OUTSIDE"
                outside += 1
            rows.append((
                workload, metric["name"], f"{a:.4g}", f"{b:.4g}", f"{100 * change:+.1f}%",
                f"{100 * metric['bound']:.0f}%", verdict,
            ))
        for name in sorted(set(one["counts"]) | set(two["counts"])):
            a, b = one["counts"].get(name, 0), two["counts"].get(name, 0)
            if a != b:
                count_rows.append((workload, name, a, b, f"{b - a:+d}"))
        layers = {
            name: (metric["value"], two["per_layer"]["metrics"][name]["value"])
            for name, metric in one["per_layer"]["metrics"].items()
            if name.endswith(".self_ms") and name in two["per_layer"]["metrics"]
        }
        if layers:
            name = max(layers, key=lambda n: abs(layers[n][1] - layers[n][0]))
            a, b = layers[name]
            layer_rows.append((
                workload, name, f"{a:.1f}", f"{b:.1f}", f"{b - a:+.1f}",
                f"{100 * (b - a) / a:+.1f}%" if a else "-",
            ))
    print(format_table(
        "End to end, old -> new", ["workload", "metric", "old", "new", "change", "bound", ""], rows
    ))
    print(format_table(
        "Traced-pass counts that differ" if count_rows else "Traced-pass counts: all identical",
        ["workload", "count", "old", "new", "diff"], count_rows,
    ))
    print(format_table(
        "Layer whose self time moved most", ["workload", "layer", "old ms", "new ms", "ms", "%"],
        layer_rows,
    ))
    return 1 if outside else 0


def _cmd_bench(args) -> int:
    import time

    if args.bench_command == "diff":
        return _cmd_bench_diff(args)

    from .bench.parallel import (
        make_specs,
        merge_run_stats,
        run_parallel,
    )

    grid = [
        {"system": system, "message_size": size}
        for system in args.systems
        for size in args.sizes
    ]
    common = dict(stress_per_core=args.stress)
    if args.experiment == "latency":
        common["n_ops"] = args.ops
    specs = make_specs(args.experiment, args.seed, args.seeds, grid=grid, **common)
    started = time.perf_counter()
    results = run_parallel(specs, workers=args.workers)
    mode = f"parallel x{args.workers or 'auto'}"
    elapsed = time.perf_counter() - started

    rows = []
    for result in results:
        spec = result.spec
        params = spec.kwargs
        stats = result.stats_dict()
        if args.experiment == "throughput":
            rows.append(
                (
                    params["system"],
                    params["message_size"],
                    spec.seed,
                    round(result.output["throughput_kops"], 1),
                )
            )
        else:
            rows.append(
                (
                    params["system"],
                    params["message_size"],
                    spec.seed,
                    round(stats["mean"], 1),
                    round(stats["p99"], 1),
                )
            )
    columns = (
        ["system", "size_B", "seed", "Kops/s"]
        if args.experiment == "throughput"
        else ["system", "size_B", "seed", "avg_us", "p99_us"]
    )
    print(format_table(f"Sweep ({mode}, {elapsed:.1f}s wall)", columns, rows))
    if args.experiment == "latency":
        merged = merge_run_stats(results)
        print(
            f"merged over {len(results)} runs: n={merged.count} "
            f"avg={merged.mean:.1f}us p50={merged.p50:.1f}us "
            f"p95={merged.p95:.1f}us p99={merged.p99:.1f}us"
        )
    return 0


def _cmd_trace(args) -> int:
    from .obs import (
        op_timeline,
        render_report,
        tracing,
        validate_chrome_trace,
        write_chrome_trace,
    )

    with tracing(capacity=args.capacity) as tracer:
        result = microbench_latency(
            args.system,
            primitive=args.primitive,
            message_size=args.size,
            n_cores=args.cores,
            n_ops=args.ops,
            stress_per_core=args.stress,
            pipeline_depth=min(4, args.ops),
            rounds=512,
            seed=args.seed,
        )
    stats = result.stats
    print(
        f"{args.system} {args.primitive} {args.size}B x{args.ops}: "
        f"p50={stats.p50:.1f}us p99={stats.p99:.1f}us "
        f"({len(tracer)} trace records, {tracer.dispatches} dispatches)"
    )
    if args.out != "-":
        document = write_chrome_trace(tracer, args.out)
        problems = validate_chrome_trace(document)
        if problems:
            print(f"exported {args.out} has schema problems:", file=sys.stderr)
            for problem in problems[:10]:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(
            f"wrote {args.out} ({len(document['traceEvents'])} events) — "
            "open in chrome://tracing or https://ui.perfetto.dev"
        )
    print()
    print(render_report(tracer))
    round_ = args.op if args.op is not None else args.ops // 2
    print()
    print(op_timeline(tracer, round_, primitive=args.primitive))
    if result.errors:
        print(f"errors: {result.errors[:3]}", file=sys.stderr)
        return 1
    return 0


def _cmd_txn(args) -> int:
    from .txn import run_txn_workload

    if args.ycsb:
        return _cmd_txn_ycsb(args)
    report = run_txn_workload(
        seed=args.seed,
        mode=args.mode,
        n_groups=args.groups,
        n_txns=args.txns,
        write_skew_pairs=args.write_skew_pairs,
        retry=args.retry or "none",
    )
    print(report.render())
    if report.errors:
        return 1
    if args.mode == "ssi":
        # The acceptance gate: a serializable mode must never commit an
        # anomalous history, and must catch at least one write skew
        # whenever the generator runs.
        if report.anomaly != "none":
            return 1
        if args.write_skew_pairs > 0 and report.aborts_ssi < 1:
            return 1
    return 0


def _cmd_txn_ycsb(args) -> int:
    from .txn import run_ycsb

    kwargs = {}
    if args.groups != 2:  # YCSB default is 4 groups, the scale-out shape
        kwargs["n_groups"] = args.groups
    report = run_ycsb(
        mixes=[mix.strip() for mix in args.mixes.split(",") if mix.strip()],
        seed=args.seed,
        workers=args.workers,
        retry=args.retry or "backoff",
        **kwargs,
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_chaos(args) -> int:
    from .faults import SCENARIOS, render_matrix, run_matrix

    if args.list_scenarios:
        rows = [(name, spec.description) for name, spec in SCENARIOS.items()]
        rows.append(
            ("generated", "seeded random fault plan (the sweep fuzzer)")
        )
        print(format_table("Chaos scenarios", ["scenario", "what it injects"], rows))
        return 0
    if args.replay is not None:
        return _chaos_replay(args)
    if args.sweep is not None:
        return _chaos_sweep(args)
    names = args.scenario
    if names:
        unknown = [name for name in names if name not in SCENARIOS]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
    if args.trace:
        from .obs import tracing, write_chrome_trace

        with tracing() as tracer:
            reports = run_matrix(args.seed, names)
        document = write_chrome_trace(tracer, args.trace)
        fault_events = sum(
            1 for event in document["traceEvents"] if event.get("cat") == "fault"
        )
        print(f"wrote {args.trace} ({fault_events} fault events)", file=sys.stderr)
    else:
        reports = run_matrix(args.seed, names)
    print(render_matrix(reports))
    return 0 if all(report.passed for report in reports) else 1


def _chaos_sweep(args) -> int:
    from .faults import SCENARIOS, SWEEP_SCENARIOS, run_sweep, shrink_failure
    from .faults.sweep import GENERATED, replay_command

    names = args.scenario or list(SWEEP_SCENARIOS)
    known = set(SCENARIOS) | {GENERATED}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    report = run_sweep(
        args.seed,
        args.sweep,
        scenarios=names,
        workers=args.workers,
        sabotage=args.sabotage,
    )
    print(report.render())
    if report.ok:
        return 0
    # Shrink every failing generated seed to a minimal replayable plan.
    for failure in report.failures:
        if failure["scenario"] != GENERATED:
            print(
                f"replay: python -m repro chaos "
                f"--scenario {failure['scenario']} --seed {failure['seed']}"
            )
            continue
        shrunk = shrink_failure(failure["seed"], sabotage=args.sabotage)
        if shrunk is None:
            print(
                f"seed {failure['seed']}: failure did not reproduce "
                "standalone (suspect cross-run state)"
            )
            continue
        keep, shrunk_report = shrunk
        print()
        print(
            f"shrunk seed {failure['seed']} to {len(keep)} event(s): "
            + "; ".join(shrunk_report.notes)
        )
        print(
            "replay: "
            + replay_command(failure["seed"], keep, sabotage=args.sabotage)
        )
    return 1


def _chaos_replay(args) -> int:
    from .faults import run_replay

    report = run_replay(args.replay, sabotage=args.sabotage)
    print(report.render())
    return 0 if report.passed else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": lambda: _cmd_list(),
        "latency": lambda: _cmd_latency(args),
        "throughput": lambda: _cmd_throughput(args),
        "fig2": lambda: _cmd_fig2(args),
        "fig11": lambda: _cmd_fig11(args),
        "fig12": lambda: _cmd_fig12(args),
        "sweep": lambda: _cmd_sweep(args),
        "bench": lambda: _cmd_bench(args),
        "trace": lambda: _cmd_trace(args),
        "chaos": lambda: _cmd_chaos(args),
        "txn": lambda: _cmd_txn(args),
    }
    return handlers[args.command]()


if __name__ == "__main__":
    sys.exit(main())
