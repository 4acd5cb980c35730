"""A host-time deadline for tests whose failure mode is a spin.

Simulated code that loops without ever yielding back to the event
loop hangs ``Simulator.run`` forever at one instant. Inside
``host_deadline`` such a spin is interrupted by ``SIGALRM`` instead: the
``TimeoutError`` either escapes ``run`` or, raised inside a process's
generator, ends that process — which the test then sees as a failure.
"""

import contextlib
import signal


@contextlib.contextmanager
def host_deadline(seconds: int):
    def expire(_signum, _frame):
        raise TimeoutError(f"still inside sim.run after {seconds} s of host time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
