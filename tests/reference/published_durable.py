"""Published implies durable on every replica: a check hooked into
:meth:`~repro.txn.certify.VersionIndex.publish`.

The certifier publishes a commit once every participant group has
installed it, one ``publish`` per group. At that moment every replica
of the group must hold, in the slot of each key it publishes, a
version whose ``commit_ts`` is at least the published one (a newer one
is a later install or an orphan; an older one, or none, means the
install was counted done before its slot images landed everywhere).
The check reads the replicas' memory directly
(:meth:`~repro.txn.mvcc.VersionedGroupStore.read_durable_offline`), so
it takes no simulated time and moves no schedule.
"""

from contextlib import contextmanager

import pytest

from repro.txn import VersionedGroupStore


@contextmanager
def published_is_durable():
    """Check every publish of every :class:`VersionedGroupStore` while
    the block runs. Yields ``{"checked": slots read, "violations":
    [(store, replica, key, commit_ts, slot commit_ts or None)]}``; the
    caller asserts on it after the run (an exception raised inside a
    simulated task would only fail that task)."""
    seen = {"checked": 0, "violations": []}
    publish = VersionedGroupStore.publish

    def checked_publish(store, items, commit_ts, txid):
        for key, _ in items:
            for replica in range(store.group.group_size):
                slot = store.read_durable_offline(replica, key)
                seen["checked"] += 1
                if slot is None or slot[0] < commit_ts:
                    seen["violations"].append(
                        (store.name, replica, key, commit_ts, slot and slot[0])
                    )
        return publish(store, items, commit_ts, txid)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VersionedGroupStore, "publish", checked_publish)
        yield seen
