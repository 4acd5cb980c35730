"""Seeded chaos sweeps: fuzz the fault plane, aggregate, shrink.

The sweep harness closes the loop PR 3 opened: instead of hand-written
plans only, a *generator* samples random recoverable
:class:`~repro.faults.plan.FaultPlan`s — event types, windows,
probabilities — from one named RNG stream, runs N seeds × M scenarios
through the :mod:`repro.bench.parallel` pool, and folds per-invariant
pass/fail into one :class:`SweepReport`.

Determinism rules (the whole design hangs on these):

* The generator stream is ``random.Random(f"{seed}/faults/sweep-gen")``
  — exactly the construction :meth:`repro.sim.Simulator.rng` uses for
  a named stream, so ``generate_plan(seed)`` is a pure function of the
  seed and never touches global RNG state.
* A sweep point is a pure function of ``(scenario, seed)``; per-point
  seeds come from :func:`~repro.bench.parallel.derive_seed`. Results
  come back in spec order whatever the worker count, and
  :class:`SweepReport` contains no wall-clock state — its rendering is
  byte-identical for 1 worker and 16.
* Shrinking replays ``(seed, index-subset)`` — never a mutated plan
  object — so a shrunk failure is reproducible from its replay command
  alone: ``python -m repro chaos --replay generated:SEED:i0,i1``.

Generated plans contain only *recoverable* faults (message rules,
stall/resume pairs, partition/heal pairs); crash/repair flows live in
the hand-written compound scenarios, which the sweep runs alongside
the generated stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bench.parallel import RunResult, RunSpec, derive_seed, run_parallel
from .invariants import InvariantResult, tally_invariants
from .plan import FaultInjector, FaultPlan
from .scenario import (
    COMPOUND_SCENARIOS,
    _STREAM,
    Scenario,
    ScenarioReport,
    _no_hang,
    _paced,
    run_scenario,
)

__all__ = [
    "GENERATED",
    "SABOTAGES",
    "SWEEP_SCENARIOS",
    "SweepReport",
    "generate_plan",
    "run_generated",
    "run_chaos_point",
    "run_sweep",
    "build_report",
    "shrink_failure",
    "parse_replay",
    "run_replay",
    "replay_command",
]


GENERATED = "generated"
SWEEP_SCENARIOS: Tuple[str, ...] = COMPOUND_SCENARIOS + (GENERATED,)
"""Default sweep matrix: every compound scenario plus the fuzzer."""


# -- fault-plan generator -----------------------------------------------------------


_GEN_HOSTS = ("host0", "host1", "host2", "host3")
_GEN_STREAM = "faults/sweep-gen"


def generate_plan(seed: int) -> FaultPlan:
    """Sample a random recoverable fault plan; pure in ``seed``.

    2–6 events drawn from one named stream. Message rules get bounded
    probabilities and optional activation windows; stall and partition
    faults are always emitted as (fault, recovery) pairs whose windows
    close before the scenario's drain, so every generated plan is
    survivable by design — failures indicate harness bugs, not
    unsatisfiable plans.
    """
    rng = random.Random(f"{seed}/{_GEN_STREAM}")
    plan = FaultPlan(label=f"gen-{seed}")
    for _ in range(rng.randint(2, 6)):
        kind = rng.choice(
            ["drop", "delay", "duplicate", "corrupt", "stall", "partition"]
        )
        if kind in ("drop", "delay", "duplicate", "corrupt"):
            at_ms: Optional[float] = None
            until_ms: Optional[float] = None
            if rng.random() < 0.5:
                at_ms = round(rng.uniform(0.0, 2.0), 3)
                until_ms = round(at_ms + rng.uniform(0.5, 2.0), 3)
            target = rng.choice(_GEN_HOSTS) if rng.random() < 0.3 else None
            window = dict(at_ms=at_ms, until_ms=until_ms, target=target)
            if kind == "drop":
                plan.add(
                    "drop", probability=round(rng.uniform(0.005, 0.03), 4), **window
                )
            elif kind == "delay":
                plan.add(
                    "delay",
                    probability=round(rng.uniform(0.01, 0.1), 4),
                    extra_delay_ns=rng.randrange(500, 5_000),
                    **window,
                )
            elif kind == "duplicate":
                plan.add(
                    "duplicate",
                    probability=round(rng.uniform(0.005, 0.03), 4),
                    duplicates=rng.randint(1, 2),
                    **window,
                )
            else:
                plan.add(
                    "corrupt", probability=round(rng.uniform(0.005, 0.02), 4), **window
                )
        elif kind == "stall":
            start = round(rng.uniform(0.2, 1.5), 3)
            length = round(rng.uniform(0.3, 1.5), 3)
            target = rng.choice(_GEN_HOSTS[1:])  # never the client
            plan.add("nic_stall", target=target, at_ms=start)
            plan.add("nic_resume", target=target, at_ms=round(start + length, 3))
        else:
            pair = tuple(rng.sample(_GEN_HOSTS, 2))
            start = round(rng.uniform(0.2, 1.5), 3)
            length = round(rng.uniform(0.5, 2.0), 3)
            plan.add("partition", pair=pair, at_ms=start)
            plan.add("heal", pair=pair, at_ms=round(start + length, 3))
    return plan


# -- sabotage hooks (intentionally-broken invariants, for shrink tests) -------------


def _sabotage_corrupt_fired(injector: FaultInjector) -> InvariantResult:
    hits = injector.counters.get("corrupt", 0)
    return InvariantResult(
        "sabotage-corrupt-fired", hits == 0, f"corrupt={hits}"
    )


def _sabotage_drop_fired(injector: FaultInjector) -> InvariantResult:
    hits = injector.counters.get("drop", 0)
    return InvariantResult("sabotage-drop-fired", hits == 0, f"drop={hits}")


def _sabotage_any_fault(injector: FaultInjector) -> InvariantResult:
    total = sum(injector.counters.values())
    return InvariantResult("sabotage-any-fault", total == 0, f"fired={total}")


SABOTAGES = {
    "corrupt-fired": _sabotage_corrupt_fired,
    "drop-fired": _sabotage_drop_fired,
    "any-fault": _sabotage_any_fault,
}
"""Named broken invariants: each fails iff a fault class actually hit.

These exist to *test the shrinker* (and demo it end-to-end): sabotage
``corrupt-fired`` and the minimal reproducing plan is exactly the
corrupt rule(s) whose hits made it fire.
"""


# -- the generated-plan scenario ----------------------------------------------------


def run_generated(
    seed: int,
    keep: Optional[Sequence[int]] = None,
    sabotage: Optional[str] = None,
) -> ScenarioReport:
    """Run one generated plan against the paced gWRITE stream.

    ``keep`` replays an index subset of the generated plan (the
    shrinker's replay path); ``sabotage`` appends a deliberately
    broken invariant from :data:`SABOTAGES`. No ``fault-exercised``
    check here: a generated plan whose windows fall after the stream
    legitimately fires nothing. Ops are paced 100 µs apart to spread
    them across fault windows, and the drain runs past the largest
    generated window (heals land by ~3.5ms) plus retransmission tails.
    """
    plan = generate_plan(seed)
    if keep is not None:
        plan = plan.subset(keep)
    checks = (_no_hang, *_STREAM)
    if sabotage is not None:
        broken = SABOTAGES[sabotage]
        checks += (lambda world: broken(world.injector),)
    return Scenario(
        GENERATED,
        "a generated recoverable fault plan under a paced gWRITE stream",
        events=tuple(plan.events),
        workload=_paced(20, 100_000, slot=128),
        checks=checks,
        deadline_ms=10_000,
        faults_end_ms=4,
        region_size=1 << 12,
        label=plan.label,
        note="plan: " + ("; ".join(plan.describe()) or "(empty)"),
    ).run(seed)


# -- pool integration ---------------------------------------------------------------


def run_chaos_point(name: str, seed: int, **kwargs: Any) -> ScenarioReport:
    """The ``chaos`` runner target (see ``repro.bench.parallel.RUNNERS``).

    ``name`` is either a registered scenario or :data:`GENERATED`;
    workers resolve this function by import path, so a sweep ships only
    ``(scenario, seed)`` tuples across the pool.
    """
    if name == GENERATED:
        return run_generated(seed, **kwargs)
    if kwargs:
        raise ValueError(f"scenario {name!r} takes no extra parameters: {kwargs}")
    return run_scenario(name, seed)


def make_sweep_specs(
    base_seed: int,
    n_seeds: int,
    scenarios: Optional[Sequence[str]] = None,
    sabotage: Optional[str] = None,
) -> List[RunSpec]:
    """The sweep's spec list: seeds × scenarios, in deterministic order.

    ``sabotage`` rides in the generated specs' parameters (it applies
    to generated plans only), so a sabotaged sweep runs through the
    pool like any other."""
    names = list(scenarios or SWEEP_SCENARIOS)
    specs: List[RunSpec] = []
    index = 0
    for _ in range(n_seeds):
        for name in names:
            params = {"sabotage": sabotage} if sabotage and name == GENERATED else {}
            specs.append(
                RunSpec.make(
                    name, derive_seed(base_seed, index), runner="chaos", **params
                )
            )
            index += 1
    return specs


@dataclass
class SweepReport:
    """Aggregated outcome of one chaos sweep (no wall-clock state)."""

    base_seed: int
    n_seeds: int
    scenarios: List[str]
    runs: int
    passed: int
    per_scenario: Dict[str, Dict[str, Any]]
    failures: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.passed == self.runs

    def render(self) -> str:
        lines = [
            f"chaos sweep: base_seed={self.base_seed} seeds={self.n_seeds} "
            f"scenarios={','.join(self.scenarios)}",
            f"runs: {self.passed}/{self.runs} passed",
            "",
        ]
        for name in self.scenarios:
            agg = self.per_scenario[name]
            lines.append(
                f"  {name}: {agg['passed']}/{agg['runs']} "
                f"(ops={agg['ops']} faults_fired={agg['faults_fired']})"
            )
            for inv_name, (ok_count, fail_count) in agg["invariants"].items():
                marker = "ok " if fail_count == 0 else "FAIL"
                lines.append(
                    f"      [{marker}] {inv_name}: {ok_count} pass"
                    + (f", {fail_count} fail" if fail_count else "")
                )
        if self.failures:
            lines.append("")
            lines.append("failures:")
            for failure in self.failures:
                lines.append(
                    f"  {failure['scenario']} seed={failure['seed']}: "
                    f"{failure['invariant']} ({failure['detail']})"
                )
        lines.append("")
        lines.append("RESULT: PASS" if self.ok else "RESULT: FAIL")
        return "\n".join(lines)


def build_report(
    base_seed: int,
    n_seeds: int,
    scenarios: Sequence[str],
    results: Sequence[RunResult],
) -> SweepReport:
    """Fold pool results (spec order) into a :class:`SweepReport`.

    The fold only touches normalized output dicts in their given
    order, so the report is identical for any worker count.
    """
    names = list(scenarios)
    by_scenario: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    failures: List[Dict[str, Any]] = []
    passed = 0
    for result in results:
        output = result.output
        by_scenario[output["name"]].append(output)
        if output["passed"]:
            passed += 1
        else:
            first_bad = next(
                inv for inv in output["invariants"] if not inv["ok"]
            )
            failures.append(
                {
                    "scenario": output["name"],
                    "seed": output["seed"],
                    "invariant": first_bad["name"],
                    "detail": first_bad["detail"],
                }
            )
    per_scenario: Dict[str, Dict[str, Any]] = {}
    for name in names:
        outputs = by_scenario[name]
        per_scenario[name] = {
            "runs": len(outputs),
            "passed": sum(1 for output in outputs if output["passed"]),
            "ops": sum(output["ops"] for output in outputs),
            "faults_fired": sum(
                sum(output["faults"].values()) for output in outputs
            ),
            "invariants": tally_invariants(
                output["invariants"] for output in outputs
            ),
        }
    return SweepReport(
        base_seed=base_seed,
        n_seeds=n_seeds,
        scenarios=names,
        runs=len(results),
        passed=passed,
        per_scenario=per_scenario,
        failures=failures,
    )


def run_sweep(
    base_seed: int,
    n_seeds: int,
    scenarios: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    sabotage: Optional[str] = None,
) -> SweepReport:
    """Run the full sweep through the parallel pool and aggregate."""
    names = list(scenarios or SWEEP_SCENARIOS)
    specs = make_sweep_specs(base_seed, n_seeds, names, sabotage)
    results = run_parallel(specs, workers=workers)
    return build_report(base_seed, n_seeds, names, results)


# -- shrinking ----------------------------------------------------------------------


_RECOVERY = {"nic_stall": "nic_resume", "partition": "heal"}


def _shrink_units(plan: FaultPlan) -> List[List[int]]:
    """Partition event indices into atomic shrink units.

    A ``(nic_stall, nic_resume)`` or ``(partition, heal)`` pair is one
    unit: dropping a fault but keeping its recovery is pointless, and
    dropping a recovery but keeping its fault turns a survivable plan
    into a guaranteed hang — the shrinker would "minimize" into a
    different failure than the one under investigation.
    """
    units: List[List[int]] = []
    events = plan.events
    index = 0
    while index < len(events):
        event, following = events[index], events[index + 1 : index + 2]
        paired = bool(following) and (
            _RECOVERY.get(event.action) == following[0].action
            and event.where == following[0].where
        )
        width = 2 if paired else 1
        units.append(list(range(index, index + width)))
        index += width
    return units


def shrink_failure(
    seed: int,
    sabotage: Optional[str] = None,
) -> Optional[Tuple[List[int], ScenarioReport]]:
    """Bisect a failing generated plan to a minimal event subset.

    ddmin-style and fully deterministic: first try halves (classic
    bisection), then greedy single-unit removal in fixed order until no
    unit can be dropped. Shrinking operates on :func:`_shrink_units`
    (fault/recovery pairs stay together), and a candidate only counts
    as reproducing when the *same invariant* that failed on the full
    plan fails again — not just any failure. Every candidate is a
    fresh run of ``(seed, subset)`` — nothing is carried over — so the
    final subset reproduces from its replay command alone. Returns
    ``None`` when the full plan does not fail (nothing to shrink);
    otherwise the minimal index list and its failing report.
    """
    plan = generate_plan(seed)
    units = _shrink_units(plan)

    full = run_generated(seed, sabotage=sabotage)
    if full.passed:
        return None
    target = next(result.name for result in full.invariants if not result.ok)

    def failing(keep_units: List[List[int]]) -> Optional[ScenarioReport]:
        keep = [index for unit in keep_units for index in unit]
        report = run_generated(seed, keep=keep, sabotage=sabotage)
        for result in report.invariants:
            if result.name == target and not result.ok:
                return report
        return None

    report = full
    # Phase 1: bisect — keep whichever half still fails.
    while len(units) > 1:
        mid = len(units) // 2
        first = failing(units[:mid])
        if first is not None:
            units, report = units[:mid], first
            continue
        second = failing(units[mid:])
        if second is not None:
            units, report = units[mid:], second
            continue
        break  # failure needs events from both halves
    # Phase 2: greedy single-unit removals to a fixed point.
    changed = True
    while changed and len(units) > 1:
        changed = False
        for unit in list(units):
            candidate = [other for other in units if other is not unit]
            result = failing(candidate)
            if result is not None:
                units, report = candidate, result
                changed = True
    return [index for unit in units for index in unit], report


def replay_command(
    seed: int,
    keep: Optional[Sequence[int]] = None,
    sabotage: Optional[str] = None,
) -> str:
    """The shell command that reproduces a (shrunk) generated failure."""
    spec = f"{GENERATED}:{seed}"
    if keep is not None:
        spec += ":" + ",".join(str(index) for index in keep)
    command = f"python -m repro chaos --replay {spec}"
    if sabotage:
        command += f" --sabotage {sabotage}"
    return command


def parse_replay(spec: str) -> Tuple[str, int, Optional[List[int]]]:
    """Parse ``scenario:seed[:i0,i1,...]`` replay specs."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"bad replay spec {spec!r} (want scenario:seed[:i0,i1,...])"
        )
    name, seed = parts[0], int(parts[1])
    keep: Optional[List[int]] = None
    if len(parts) == 3 and parts[2]:
        keep = [int(piece) for piece in parts[2].split(",")]
    if keep is not None and name != GENERATED:
        raise ValueError("event subsets only apply to generated plans")
    return name, seed, keep


def run_replay(
    spec: str, sabotage: Optional[str] = None
) -> ScenarioReport:
    """Re-run a failure from its replay spec."""
    name, seed, keep = parse_replay(spec)
    if name == GENERATED:
        return run_generated(seed, keep=keep, sabotage=sabotage)
    if sabotage is not None:
        raise ValueError("--sabotage only applies to generated plans")
    return run_scenario(name, seed)
