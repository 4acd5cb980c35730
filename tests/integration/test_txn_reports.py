"""Golden digests of the seed-7 transaction reports.

The shaped mix (``python -m repro txn``) under SSI, under plain SI and
with the backoff retry policy, and the six-mix transactional YCSB
suite, each pinned by the SHA-256 of its rendered report. Repeat runs
of one tree are compared elsewhere; these pins catch a change to the
workloads, the coordinator or anything below them that moves a report
the same way on every run. A mismatch prints the new report.
"""

import hashlib

import pytest

from repro.txn import run_txn_workload, run_ycsb

REPORTS = {
    "ssi": (
        lambda: run_txn_workload(seed=7).render(),
        "529c1308898bc7fb8e41761150e797661077bdcabae27cd2041064b42490aa1d",
    ),
    "si": (
        lambda: run_txn_workload(seed=7, mode="si").render(),
        "bfcc40a8935254aeb39b414f4686e1c20700be946227132b458616a58e31512f",
    ),
    "backoff": (
        lambda: run_txn_workload(seed=7, retry="backoff").render(),
        "29893899538660b863e5d2c4567e1c73d002ab62e5becf74543fc335f07205b3",
    ),
    "ycsb-A-F": (
        lambda: run_ycsb(mixes=("A", "B", "C", "D", "E", "F"), seed=7).render(),
        "bfe9a43b0ab77b034ae9dfcb7cb58a99af83f1802a9b2c714a0c620646dcafcb",
    ),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_its_digest(name):
    render, digest = REPORTS[name]
    report = render()
    assert hashlib.sha256(report.encode()).hexdigest() == digest, report
