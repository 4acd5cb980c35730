"""Unit tests for the CLI (repro.cli)."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_latency_defaults(self):
        args = build_parser().parse_args(["latency"])
        assert args.system == "hyperloop"
        assert args.size == 1024 and args.ops == 2000

    def test_latency_options(self):
        args = build_parser().parse_args(
            ["latency", "--system", "naive-polling", "--size", "4096",
             "--primitive", "gcas", "--ops", "100", "--stress", "2"]
        )
        assert args.system == "naive-polling"
        assert args.primitive == "gcas"
        assert args.size == 4096

    def test_bad_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["latency", "--system", "quantum"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig12_workload_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig12", "--workload", "Z"])


class TestExecution:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out and "fig12" in out

    def test_tiny_latency_run(self, capsys):
        code = main(
            ["latency", "--ops", "30", "--stress", "0", "--size", "256"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hyperloop" in out and "p99" in out

    def test_tiny_throughput_run(self, capsys):
        code = main(["throughput", "--mbytes", "1", "--size", "8192"])
        assert code == 0
        assert "Kops/s" in capsys.readouterr().out


class TestBenchDiff:
    """``bench diff`` over two miniature ``results.json`` files (one
    written plain, one as ``--repeat-check`` writes it)."""

    DATA = Path(__file__).parent / "data"
    SPEC = DATA.parents[2] / "BENCHMARK.json"

    def _diff(self, capsys, old, new):
        code = main([
            "bench", "diff", str(self.DATA / old), str(self.DATA / new),
            "--spec", str(self.SPEC),
        ])
        return code, capsys.readouterr().out

    def test_names_the_metric_outside_its_bound_the_counts_and_the_layer(self, capsys):
        code, out = self._diff(capsys, "bench_diff_old.json", "bench_diff_new.json")
        assert code == 1  # setup_s on gwrite_chain is 40% worse, bound 25%
        rows = {tuple(line.split()[:2]): line.split() for line in out.splitlines()}
        assert rows["gwrite_chain", "setup_s"][2:] == [
            "0.5", "0.7", "+40.0%", "25%", "OUTSIDE"
        ]
        assert rows["naive_tenancy", "peak_rss_mb"][2:] == [
            "102.4", "35.9", "-64.9%", "5%", "better"
        ]
        assert rows["gwrite_chain", "sim_p50_us"][-1] == "same"
        # Only the counts that differ, absent ones reading 0.
        assert rows["gwrite_chain", "dispatches"][2:] == ["7024", "7000", "-24"]
        assert rows["gwrite_chain", "counter.nic.rx_stages"][2:] == ["0", "3", "+3"]
        assert ("naive_tenancy", "dispatches") not in rows
        # The layer behind the delta, per workload.
        assert rows["gwrite_chain", "hw.nic.self_ms"][2:] == [
            "400.0", "310.0", "-90.0", "-22.5%"
        ]
        assert rows["naive_tenancy", "hw.cpu.self_ms"][-1] == "-26.6%"

    def test_a_run_against_itself_is_all_same(self, capsys):
        code, out = self._diff(capsys, "bench_diff_old.json", "bench_diff_old.json")
        assert code == 0
        assert "OUTSIDE" not in out and "better" not in out
        assert "Traced-pass counts: all identical" in out

    def test_plain_bench_still_parses(self):
        args = build_parser().parse_args(["bench", "--seeds", "2", "--serial"])
        assert args.bench_command is None and args.seeds == 2
