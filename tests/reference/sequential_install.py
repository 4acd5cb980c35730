"""The commit-install reference: one group at a time.

``TxnCoordinator.commit`` installs a multi-group write set into its
groups concurrently (``TxnCoordinator._install_parallel``). That is
admissible only because it changes *when* a commit finishes, not what
it decides. ``install_sequentially`` installs the same write set one
group after the other in sorted group order, the latency-sum path the
parallel install replaced. Same signature as ``_install_parallel``, so
tests patch it in (``monkeypatch.setattr(TxnCoordinator,
"_install_parallel", install_sequentially)``) and diff the two paths.
"""


def install_sequentially(coordinator, task, txn, per_group, commit_ts):
    for index in sorted(per_group):
        yield from coordinator.stores[index].install(
            task, per_group[index], commit_ts, txn.txid
        )
