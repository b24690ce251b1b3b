"""Host-speed probe: normalizes timings for a shared, noisy host.

On a host shared with other tenants the same code runs up to a third
slower from one second to the next, and now and then the process loses
its core for milliseconds.  The benchmark therefore times each call in
process CPU seconds, which leaves out the time the core was taken
away, and runs a short fixed probe (interpreter dict work and an
in-place numpy sort) between calls, also in CPU seconds.  Each call's
CPU time is scaled by how slow the probe ran around it:
``normalized = cpu * REFERENCE_S / local_probe_s``.  The probe shares
no code with the program under test, so a change to the program moves
the raw and the normalized numbers alike; only the host drops out.
Raw wall-clock numbers and probe times are reported beside the
normalized ones.
"""

from __future__ import annotations

from array import array
from time import perf_counter, process_time

import numpy as np

#: The probe's median time on the reference host (2-vCPU x86-64 VM,
#: Python 3.11, numpy 2.4) when it is not contended.
REFERENCE_S = 40e-6
#: Run a probe before a timed call when the last one is this old.
INTERVAL_S = 0.002
#: A call's host speed is the median of this many probes around it.
WINDOW = 15

_KEYS = [f"key{i}" for i in range(256)]
_TABLE = dict.fromkeys(_KEYS, 0)
_SOURCE = np.random.default_rng(0).random(512)
_BUFFER = np.empty_like(_SOURCE)


def _work() -> None:
    # Allocates nothing (cached small ints, an in-place sort into a
    # preallocated buffer), so the probe's time does not depend on the
    # state of the program's heap, and probing cannot shift when the
    # program's collections run.
    table = _TABLE
    for _ in range(3):
        for i, key in enumerate(_KEYS):
            table[key] = i
    np.copyto(_BUFFER, _SOURCE)
    _BUFFER.sort()


class HostSpeed:
    """Probe samples of one pass: when each ran (wall clock) and how
    many CPU seconds it took."""

    def __init__(self) -> None:
        self.at = array("d")
        self.took = array("d")
        self._last = float("-inf")

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            # Only the second, warm run is timed: the first refills the
            # caches the program's last call evicted, so the sample
            # tracks the host's speed, not the program's footprint.
            _work()
            start = process_time()
            _work()
            took = process_time() - start
            self._last = perf_counter()
            self.at.append(self._last)
            self.took.append(took)

    def maybe_probe(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.probe()

    def median_s(self) -> float:
        return float(np.median(np.frombuffer(self.took))) if self.took \
            else float("nan")

    def scale(self, starts, lengths) -> np.ndarray:
        """``REFERENCE_S / local probe time`` for each interval
        (``starts[i]``, ``starts[i] + lengths[i]``)."""
        took = np.frombuffer(self.took)
        at = np.frombuffer(self.at)
        if took.size < WINDOW:
            local = np.full(took.size, np.median(took))
        else:
            half = WINDOW // 2
            padded = np.pad(took, half, mode="edge")
            local = np.median(np.lib.stride_tricks.sliding_window_view(
                padded, WINDOW), axis=1)
        mids = np.asarray(starts) + np.asarray(lengths) / 2
        nearest = np.clip(np.searchsorted(at, mids), 0, at.size - 1)
        return REFERENCE_S / local[nearest]
