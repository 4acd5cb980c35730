"""The commit-install reference: one group at a time.

``TxnCoordinator.commit`` queues a validated commit's install at each
participant group and starts a flusher task on every idle one
(``TxnCoordinator._install``), so a multi-group commit installs into
its groups concurrently. That is admissible only because it changes
*when* a commit finishes, not what it decides. ``install_sequentially``
flushes the same queues from the committer's own task, one group after
the other in sorted group order, the latency-sum path the concurrent
install replaced. Same signature as ``_install``, so tests patch it in
(``monkeypatch.setattr(TxnCoordinator, "_install",
install_sequentially)``) and diff the two paths.
"""


def install_sequentially(coordinator, task, groups, done):
    for index in groups:
        queue = coordinator._queues[index]
        queue.busy = True
        yield from coordinator._flush(task, index, queue)
    return (yield from task.wait(done))
