"""Golden pins of every chaos scenario's report.

A chaos report is a pure function of ``(scenario, seed)``, so the
SHA-256 of ``report.render()`` pins everything a scenario builds and
schedules: fault timing, detection latency, repair rounds, re-issued
ops and the invariants' details. A refactor of the scenario harness
must leave every digest unchanged; a change that moves a simulated
schedule on purpose re-records them with ``python -m tests.pins
chaos-reports`` (a mismatch prints the new report so the diff can be
reviewed first; a report that does not pass is never recorded). Three
seeds are pinned (1, 7 and 42) for every scenario, in
``tests/pins.json``.
"""

import hashlib

import pytest

from repro.faults import SCENARIOS, run_scenario
from tests.pins import assert_pinned, pinned

SEEDS = (1, 7, 42)
CASES = [(name, seed) for seed in SEEDS for name in SCENARIOS]


def _rendered(name, seed):
    report = run_scenario(name, seed)
    rendered = report.render()
    assert report.passed, rendered
    return rendered


def _digest(rendered):
    return hashlib.sha256(rendered.encode()).hexdigest()


def measure():
    """``{"scenario/seed": digest}`` of every passing report."""
    return {f"{name}/{seed}": _digest(_rendered(name, seed)) for name, seed in CASES}


def test_every_scenario_is_pinned():
    assert set(pinned("chaos-reports")) == {f"{name}/{seed}" for name, seed in CASES}


@pytest.mark.parametrize("name,seed", CASES)
def test_report_matches_golden(name, seed):
    rendered = _rendered(name, seed)
    print(rendered)  # shown on a mismatch
    assert_pinned("chaos-reports", _digest(rendered), key=f"{name}/{seed}")
