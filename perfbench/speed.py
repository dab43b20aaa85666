"""Core-speed correction for pass times on a machine whose speed drifts.

On a shared virtual machine the same fixed work can take 30 % longer from one
second to the next, and the drift is specific to the core a process runs on,
so a probe on another core does not see it.  SpeedProbe therefore samples the
speed of the measuring process's own core during the pass: every INTERVAL_S
a timer signal runs a fixed reference snippet (benchmark code, independent of
trirank) twice and times the second run.  A pass's time at the reference speed
is its wall time, less the time spent in the probe, times
REF_PROBE_S / mean probe time.  A change to trirank moves the pass's wall time
and leaves the snippet alone, so the correction cancels only the machine.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
REF_PROBE_S = 1.2e-4  # nominal snippet time: reference-speed seconds equal wall seconds there

_TABLE = (np.arange(49, dtype=np.int32).reshape(7, 7) * 3) % 7
_VEC = np.arange(64, dtype=np.int32) % 7


def reference_snippet() -> int:
    """Fixed interpreter and small-array work, like trirank's inner loops."""
    acc = 0
    for i in range(300):
        acc += (i * i) % 7
    x = _VEC
    for _ in range(20):
        x = _TABLE[x, _VEC]
    return acc + int(x[0])


class SpeedProbe:
    """Context manager: samples the snippet's time while a pass runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside the signal handler

    def _sample(self):
        reference_snippet()  # warm the caches the pass evicted
        start = time.perf_counter()
        reference_snippet()
        self.samples.append(time.perf_counter() - start)

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self._sample()
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def calibrate(self, seconds: float = 0.2) -> None:
        """Sample the snippet back to back (for passes shorter than one interval)."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self._sample()


def reference_seconds(wall: float, probe: SpeedProbe) -> float:
    """Pass time at the reference speed; the probe must hold samples."""
    mean = sum(probe.samples) / len(probe.samples)
    return (wall - probe.spent) * REF_PROBE_S / mean
