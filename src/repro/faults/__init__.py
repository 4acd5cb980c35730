"""repro.faults — deterministic fault injection + failover verification.

The robustness pillar: HyperLoop's replication guarantees only matter
under failure, so this package makes failures schedulable, seeded and
reproducible bit-for-bit:

* :class:`FaultEvent` / :class:`FaultPlan` — a declarative schedule of
  faults (message drop / extra delay / duplication / corruption,
  host-pair partitions, NIC stall/crash, host crash/power-failure),
  triggered at a sim time, at an operation count, or probabilistically
  per message from a named :meth:`~repro.sim.Simulator.rng` stream.
* :class:`FaultInjector` — the live object wiring a plan into the
  hardware: it installs itself as the fabric's fault filter and
  schedules node-level events on the sim clock.
* :class:`~repro.faults.scenario.Scenario` — a chaos scenario as data
  (cluster, plan, workload, recovery, invariant checks), all run by
  one function; :func:`run_scenario` / :func:`run_matrix` run the
  table, ``python -m repro chaos`` prints it.
* :mod:`repro.faults.invariants` — the checks every scenario must
  hold: no acknowledged gWRITE lost, surviving replicas byte-identical,
  WAL recovery restores every committed operation, heartbeat suspicion
  within its bound.

Determinism contract: a scenario's report depends only on ``(scenario,
seed)``. Probabilistic draws come from ``sim.rng("faults/<label>")``,
timed events from the virtual clock, and reports never include host
wall-clock state — two runs with the same seed render byte-identical
reports (the CI chaos job asserts this).
"""

from .plan import (
    ACTIONS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from .invariants import InvariantResult, check_model_match, check_replicas_identical
from .scenario import (
    COMPOUND_SCENARIOS,
    SCENARIOS,
    ScenarioReport,
    render_matrix,
    run_matrix,
    run_scenario,
)
from .sweep import (
    SWEEP_SCENARIOS,
    SweepReport,
    generate_plan,
    run_generated,
    run_replay,
    run_sweep,
    shrink_failure,
)

__all__ = [
    "ACTIONS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "InvariantResult",
    "check_model_match",
    "check_replicas_identical",
    "COMPOUND_SCENARIOS",
    "SCENARIOS",
    "ScenarioReport",
    "run_scenario",
    "run_matrix",
    "render_matrix",
    "SWEEP_SCENARIOS",
    "SweepReport",
    "generate_plan",
    "run_generated",
    "run_replay",
    "run_sweep",
    "shrink_failure",
]
