"""Golden digests of the seed-7 transaction reports.

The shaped mix (``python -m repro txn``) under SSI, under plain SI and
with the backoff retry policy, and the six-mix transactional YCSB
suite, each pinned by the SHA-256 of its rendered report
(``tests/pins.json``, ``txn-reports``). Repeat runs of one tree are
compared elsewhere; these pins catch a change to the workloads, the
coordinator or anything below them that moves a report the same way on
every run. A mismatch prints the new report.

The SSI run is also CI's no-retry control (``python -m repro txn
--seed 7 --retry none``): its committed count is pinned on its own
(``txn-retry-control``), and CI's retry-ladder step reads it from the
table.
"""

import hashlib

import pytest

from repro.txn import run_txn_workload, run_ycsb
from tests.pins import assert_pinned

REPORTS = {
    "ssi": lambda: run_txn_workload(seed=7),
    "si": lambda: run_txn_workload(seed=7, mode="si"),
    "backoff": lambda: run_txn_workload(seed=7, retry="backoff"),
    "ycsb-A-F": lambda: run_ycsb(mixes=("A", "B", "C", "D", "E", "F"), seed=7),
}


def _rendered(name):
    return REPORTS[name]().render()


def _digest(rendered):
    return hashlib.sha256(rendered.encode()).hexdigest()


def measure():
    """``{report: digest}`` over every report."""
    return {name: _digest(_rendered(name)) for name in REPORTS}


def measure_retry_control():
    """The no-retry control's committed count, as CI greps it."""
    report = run_txn_workload(seed=7)
    assert report.retry == "none"
    assert f" committed={report.commits} " in report.render()
    return {"committed": report.commits}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_its_digest(name):
    rendered = _rendered(name)
    print(rendered)  # shown on a mismatch
    assert_pinned("txn-reports", _digest(rendered), key=name)


def test_the_no_retry_control_commits_the_pinned_count():
    assert_pinned("txn-retry-control", measure_retry_control())
