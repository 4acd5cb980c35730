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
        "3d8891f0404bb913d98c168362a20cced83408ee7381ed5fea44289477d20da6",
    ),
    "si": (
        lambda: run_txn_workload(seed=7, mode="si").render(),
        "7c17541cabf6a4bb70b6c0edbf9c6e68e3378b22c27d5e1869eeca917bc26028",
    ),
    "backoff": (
        lambda: run_txn_workload(seed=7, retry="backoff").render(),
        "35f37eca09e63620619713890043c86c3368d8ce42254c98dc939018ee7acc8d",
    ),
    "ycsb-A-F": (
        lambda: run_ycsb(mixes=("A", "B", "C", "D", "E", "F"), seed=7).render(),
        "66d203893cfc59430aad0015f43dc7949644d683428eceef11f22ef39b31b34d",
    ),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_its_digest(name):
    render, digest = REPORTS[name]
    report = render()
    assert hashlib.sha256(report.encode()).hexdigest() == digest, report
