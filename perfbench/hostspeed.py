"""Host-speed sampling, so that times can be read at a fixed host speed.

On a shared host the speed of one core drifts by tens of percent, both
within seconds and over minutes, as other tenants load the machine; CPU
time drifts with wall time, so it is no remedy.  A daemon thread in the
measured process therefore times a fixed pure-Python snippet every
INTERVAL_S seconds while the process works, on the vCPU the workload is
pinned to (`pin_to_one_cpu`).  A phase's time scaled to the reference
speed is

    raw seconds * REFERENCE_SNIPPET_S / mean snippet time during the phase.

The snippet must see the host and not the workload.  Two channels would
let the workload move it, and both are closed:

- caches: each sample runs the snippet twice and times only the second
  pass, which touches exactly the entries the first pass just loaded (about
  100 KB, resident in L2).  What the workload left in the caches changes
  the untimed first pass only;
- preemption: while the workload runs numpy code it releases the GIL and
  the kernel may preempt the sampler in mid-snippet; the snippet is timed
  in the thread's own CPU time, which does not count that.

design.json (host_speed) records the A/B that checks this and why the
sampler is not a separate process.  The thread costs about 3% of the phase
it samples, the same share on every commit measured.
"""

from __future__ import annotations

import os
import threading
import time

INTERVAL_S = 0.02
# Timed-pass CPU time of a quiet host: 2 vCPUs of an Intel Xeon at 2.1 GHz,
# Python 3.11.  Scaled times are seconds on a host this fast.
REFERENCE_SNIPPET_S = 2.3e-4

_TABLE_SIZE = 512
_TABLE = {i: (i, str(i)) for i in range(_TABLE_SIZE)}


def snippet() -> int:
    s, x = 0, 12345
    for _ in range(1200):
        x = (x * 1103515245 + 12345) % _TABLE_SIZE
        s += _TABLE[x][0]
    return s


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _timed_snippet() -> float:
    snippet()
    t = time.thread_time()
    snippet()
    return time.thread_time() - t


class HostSpeed:
    """Samples the snippet in a background thread; `phase()` returns the
    host slowdown (mean snippet time over the reference) since the last
    call."""

    def __init__(self):
        self._lock = threading.Lock()
        self._samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            dt = _timed_snippet()
            with self._lock:
                self._samples.append(dt)

    def start(self) -> "HostSpeed":
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()

    def phase(self) -> tuple[float, int]:
        """(slowdown, samples) over the phase that ends now.  A phase too
        short for the thread to sample gets one sample taken here."""
        with self._lock:
            samples, self._samples = self._samples, []
        if not samples:
            samples = [_timed_snippet()]
        return sum(samples) / len(samples) / REFERENCE_SNIPPET_S, len(samples)
