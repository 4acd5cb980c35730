"""Drive a simulator in lookahead windows, the way a shard worker does.

A sharded-engine worker (:mod:`repro.sim.shard`) never runs its
simulator in one go: each round it runs ``run(until=window_end)`` with
``window_end`` one lookahead past the next pending event, and with
``_advance_clock`` off so an intermediate slice leaves the clock at
the last dispatched event. ``run_in_windows`` does the same to any
simulator. Same signature as ``Simulator.run`` (plus the window
width), so tests can patch it in and replay a whole experiment sliced.
"""

from repro.sim import Simulator
from repro.sim.shard import DEFAULT_LOOKAHEAD_NS

_run = Simulator.run


def run_in_windows(sim, until=None, window_ns=DEFAULT_LOOKAHEAD_NS):
    """Run ``sim`` to ``until`` (or to quiescence) in windows of
    ``window_ns`` past each next event; returns the clock."""
    advance = sim._advance_clock
    queue = sim._queue
    sim._advance_clock = False
    try:
        while queue:
            head = queue[0][0]
            if until is not None and head > until:
                break
            end = head + window_ns
            if until is not None and end > until:
                end = until
            _run(sim, end)
    finally:
        sim._advance_clock = advance
    if until is not None and advance and until > sim.now:
        sim.now = until
    return sim.now
