"""Drive a simulator as back-to-back bounded ``run(until=...)`` slices.

The harness runs long experiments in chunks and every scenario drains
with ``run(until=...)``, so a bounded run must resume exactly where the
previous one stopped. ``run_in_slices`` does that to any simulator:
each slice runs to ``width_ns`` past the next pending event, capped at
``until`` and at the latest pending event. A bounded run pins the clock
to its end; the second cap keeps that end on an event that will fire,
so a sliced run to quiescence ends at the same clock as a whole one.
Same signature as ``Simulator.run`` (plus the slice width), so tests
can patch it in and replay a whole experiment sliced.
"""

from repro.sim import Simulator

_run = Simulator.run


def run_in_slices(sim, until=None, width_ns=64):
    """Run ``sim`` to ``until`` (or to quiescence) in slices of
    ``width_ns`` past each next event; returns the clock."""
    queue = sim._queue
    while queue:
        head = queue[0][0]
        if until is not None and head > until:
            break
        end = min(head + width_ns, max(entry[0] for entry in queue))
        if until is not None and end > until:
            end = until
        _run(sim, end)
    if until is not None:
        return _run(sim, until)
    return sim.now
