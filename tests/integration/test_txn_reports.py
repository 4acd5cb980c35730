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
        "304e1dbbdb8f9a10e383b434f645179074a1879062d49fe7dca562fd004c563f",
    ),
    "si": (
        lambda: run_txn_workload(seed=7, mode="si").render(),
        "f13468f6f3f4e2d4f698a6c2f5c8d0d46959aa7ee43e50ad8b7077de2eedb4e5",
    ),
    "backoff": (
        lambda: run_txn_workload(seed=7, retry="backoff").render(),
        "660c0944905c945b3c8bb4a3b3302bda5159cb52626c87761317664024d6cf8e",
    ),
    "ycsb-A-F": (
        lambda: run_ycsb(mixes=("A", "B", "C", "D", "E", "F"), seed=7).render(),
        "1a68e08f90bb6432a31a74b8abaea5c7c3ae802820236393551d32b2fbe2a834",
    ),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_its_digest(name):
    render, digest = REPORTS[name]
    report = render()
    assert hashlib.sha256(report.encode()).hexdigest() == digest, report
