"""The dispatch-order reference: one heap pop per dispatch.

``Simulator.run`` dispatches same-timestamp work in batches off the
heap; that is admissible only because the order is exactly the
``(time, seq)`` order of this loop. ``run_one_pop`` drives an ordinary
:class:`~repro.sim.kernel.Simulator` with no batch installed, so every
push — zero-delay ones included — goes through the heap, and fire
markers dispatch through ``Timeout._fire``. An attached, enabled
tracer observes each dispatch exactly as ``Simulator.run`` would let
it. Same signature as ``Simulator.run``, so tests can patch it in.
"""

from heapq import heappop


def run_one_pop(sim, until=None):
    obs = sim._obs
    observe = obs.dispatch if obs is not None and obs.enabled else None
    queue = sim._queue
    while queue and (until is None or queue[0][0] <= until):
        sim.now, _seq, fn, args = heappop(queue)
        if observe is not None:
            observe(sim.now, fn, args)
        elif args is None:
            fn._fire()
        else:
            fn(*args)
    if until is not None and until > sim.now:
        sim.now = until
    return sim.now
