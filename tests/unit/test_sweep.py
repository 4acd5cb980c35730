"""Unit tests for repro.faults.sweep: the seeded chaos-fuzzing harness.

Covers the fault-plan generator (purity, recoverability shape), the
property-fuzz contract (50 generated plans through the lossy-fabric
scenario uphold no-acked-write-lost and replicas-identical), sweep
aggregation (byte-identical reports regardless of worker count),
deterministic ddmin shrinking with paired shrink units, and the replay
spec round-trip.
"""

import pytest

from repro.bench.parallel import derive_seed
from repro.faults.plan import FaultPlan
from repro.faults.sweep import (
    GENERATED,
    SABOTAGES,
    SWEEP_SCENARIOS,
    _shrink_units,
    generate_plan,
    make_sweep_specs,
    parse_replay,
    replay_command,
    run_generated,
    run_replay,
    run_sweep,
    shrink_failure,
)

BASE_SEED = 42


def _invariant(report, name):
    for result in report.invariants:
        if result.name == name:
            return result
    raise AssertionError(f"no invariant {name!r} in {report.render()}")


def _failing_seed(sabotage, limit=20):
    """First derived seed whose generated plan trips ``sabotage``."""
    for index in range(limit):
        seed = derive_seed(BASE_SEED, index)
        if not run_generated(seed, sabotage=sabotage).passed:
            return seed
    raise AssertionError(f"no failing seed for {sabotage!r} in {limit} tries")


class TestGeneratePlan:
    def test_pure_in_seed(self):
        first = generate_plan(7)
        again = generate_plan(7)
        assert [e.describe() for e in first.events] == [
            e.describe() for e in again.events
        ]
        assert first.label == again.label
        other = generate_plan(8)
        assert [e.describe() for e in first.events] != [
            e.describe() for e in other.events
        ]

    def test_plans_are_recoverable_by_construction(self):
        # Every stall has its resume, every partition its heal, and no
        # unrecoverable action (crash / power failure) is ever sampled.
        for index in range(30):
            plan = generate_plan(derive_seed(BASE_SEED, index))
            assert 2 <= len(plan.events) <= 12
            stalls = [e for e in plan.events if e.action == "nic_stall"]
            resumes = [e for e in plan.events if e.action == "nic_resume"]
            assert sorted(e.target for e in stalls) == sorted(
                e.target for e in resumes
            )
            partitions = [e for e in plan.events if e.action == "partition"]
            heals = [e for e in plan.events if e.action == "heal"]
            assert sorted(e.pair for e in partitions) == sorted(
                e.pair for e in heals
            )
            for event in plan.events:
                assert event.action not in (
                    "nic_crash",
                    "host_crash",
                    "host_restart",
                    "host_power_failure",
                )


class TestPropertyFuzz:
    def test_50_generated_plans_uphold_core_invariants(self):
        failures = []
        for index in range(50):
            seed = derive_seed(BASE_SEED, index)
            report = run_generated(seed)
            for name in ("no-acked-write-lost", "replicas-identical"):
                if not _invariant(report, name).ok:
                    failures.append((seed, name))
        assert not failures, f"invariant violations: {failures}"

    def test_replaying_failing_seed_reproduces_identical_report(self):
        seed = _failing_seed("any-fault")
        first = run_generated(seed, sabotage="any-fault")
        replayed = run_replay(f"{GENERATED}:{seed}", sabotage="any-fault")
        assert not first.passed
        assert first.render() == replayed.render()


class TestSweepDeterminism:
    def test_specs_enumerate_seeds_by_scenario(self):
        specs = make_sweep_specs(BASE_SEED, 2, ["client-crash", GENERATED])
        assert [s.experiment for s in specs] == [
            "client-crash",
            GENERATED,
            "client-crash",
            GENERATED,
        ]
        assert specs[0].seed == derive_seed(BASE_SEED, 0)
        assert len({s.seed for s in specs}) == len(specs)

    def test_report_byte_identical_across_worker_counts(self):
        scenarios = [GENERATED, "client-crash"]
        serial = run_sweep(BASE_SEED, 2, scenarios=scenarios, workers=1)
        pooled = run_sweep(BASE_SEED, 2, scenarios=scenarios, workers=4)
        assert serial.render() == pooled.render()
        assert serial.ok
        assert serial.runs == 4 and serial.passed == 4

    def test_sabotage_rides_in_the_generated_specs_only(self):
        specs = make_sweep_specs(
            BASE_SEED, 1, ["client-crash", GENERATED], sabotage="any-fault"
        )
        assert [spec.kwargs for spec in specs] == [{}, {"sabotage": "any-fault"}]

    def test_sabotaged_sweep_is_byte_identical_across_worker_counts(self):
        scenarios = [GENERATED, "client-crash"]
        serial = run_sweep(
            BASE_SEED, 2, scenarios=scenarios, workers=1, sabotage="any-fault"
        )
        pooled = run_sweep(
            BASE_SEED, 2, scenarios=scenarios, workers=2, sabotage="any-fault"
        )
        assert serial.render() == pooled.render()
        tallies = serial.per_scenario
        assert "sabotage-any-fault" in tallies[GENERATED]["invariants"]
        assert "sabotage-any-fault" not in tallies["client-crash"]["invariants"]

    def test_default_scenarios_cover_the_compound_matrix(self):
        assert GENERATED in SWEEP_SCENARIOS
        assert len(SWEEP_SCENARIOS) >= 5


class TestShrinking:
    def test_shrink_units_keep_fault_recovery_pairs_atomic(self):
        plan = (
            FaultPlan(label="u")
            .add("drop", probability=0.01)
            .add("nic_stall", target="host2", at_ms=0.5)
            .add("nic_resume", target="host2", at_ms=1.0)
            .add("corrupt", probability=0.01)
            .add("partition", pair=("host1", "host3"), at_ms=0.5)
            .add("heal", pair=("host1", "host3"), at_ms=1.5)
        )
        assert _shrink_units(plan) == [[0], [1, 2], [3], [4, 5]]

    def test_shrink_is_deterministic_and_minimal(self):
        seed = _failing_seed("corrupt-fired")
        first = shrink_failure(seed, sabotage="corrupt-fired")
        again = shrink_failure(seed, sabotage="corrupt-fired")
        assert first is not None and again is not None
        keep, report = first
        assert keep == again[0]
        assert report.render() == again[1].render()
        # The minimal plan is exactly the corrupt rule(s) that fired.
        plan = generate_plan(seed)
        assert all(plan.events[i].action == "corrupt" for i in keep)
        # And it reproduces from the replay command's subset alone.
        replayed = run_generated(seed, keep=keep, sabotage="corrupt-fired")
        assert not replayed.passed
        assert not _invariant(replayed, "sabotage-corrupt-fired").ok

    def test_shrink_returns_none_when_plan_passes(self):
        passing = None
        for index in range(20):
            seed = derive_seed(BASE_SEED, index)
            if run_generated(seed).passed:
                passing = seed
                break
        assert passing is not None
        assert shrink_failure(passing) is None


class TestReplaySpecs:
    def test_round_trip(self):
        command = replay_command(123, keep=[0, 3], sabotage="corrupt-fired")
        spec = command.split("--replay ")[1].split(" ")[0]
        assert parse_replay(spec) == (GENERATED, 123, [0, 3])

    def test_plain_scenario_spec(self):
        assert parse_replay("client-crash:9") == ("client-crash", 9, None)

    def test_subset_rejected_for_named_scenarios(self):
        with pytest.raises(ValueError, match="generated"):
            parse_replay("client-crash:9:0,1")

    def test_malformed_spec_rejected(self):
        with pytest.raises(ValueError, match="replay spec"):
            parse_replay("generated")

    def test_sabotage_names_are_stable(self):
        assert set(SABOTAGES) == {"corrupt-fired", "drop-fired", "any-fault"}
