"""The commit-install reference: one group at a time.

``TxnCoordinator.commit`` queues a validated commit's install at each
participant group, and the committer's install loop
(``TxnCoordinator._install``) posts every idle group's batch before it
waits for any, so a multi-group commit installs into its groups
concurrently. That is admissible only because it changes *when* a
commit finishes, not what it decides. ``install_sequentially`` drains
the same queues from the committer's own task, one group after the
other in sorted group order — post a batch, wait for it, settle it —
the latency-sum path the concurrent install replaced. Same signature
as ``_install``, so tests patch it in
(``monkeypatch.setattr(TxnCoordinator, "_install",
install_sequentially)``) and diff the two paths.
"""


def install_sequentially(coordinator, task, txid, groups, done):
    for index in groups:
        queue = coordinator._queues[index]
        while queue.staged:
            if (yield from coordinator._post(task, index, queue, txid)):
                yield from coordinator._settle(task, index, queue)
    return (yield from task.wait(done))
