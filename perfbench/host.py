"""Host-speed normalisation.

On a shared virtual machine the host's own speed swings by up to 2x from
one second to the next, so raw wall times cannot repeat within a tenth.
Every timing the benchmark reports is therefore taken relative to a fixed
pure-Python reference loop run in the same process, just before and just
after the timed work, and scaled back to seconds by :data:`REF_NOMINAL_S`:

    normalised = wall_s / mean(ref_before_s, ref_after_s) * REF_NOMINAL_S

The result is the time the work would take on a host that runs the
reference loop in exactly :data:`REF_NOMINAL_S`.  To recover raw seconds
on the measuring host, multiply by ``host.ref_loop_s / REF_NOMINAL_S``.
Set-up time is the exception: see :func:`cold_start_s`.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from itertools import repeat
from time import perf_counter
from typing import List, Sequence

#: Iterations of the reference loop (about 4 ms on the reference host).
REF_ITERATIONS = 200_000

#: Reference-loop duration on the reference host: the median measured on
#: a 2-vCPU Intel Xeon KVM guest under CPython 3.11.  Fixed, so that
#: normalised timings compare across runs, commits and hosts.
REF_NOMINAL_S = 0.0043

#: Time for a fresh interpreter to start and print one line on the
#: reference host: the yardstick of ``setup_s`` (see :func:`cold_start_s`).
REF_START_NOMINAL_S = 0.040


def ref_sample() -> float:
    """One run of the reference loop, in wall seconds.

    The loop only adds small cached integers, so it allocates nothing and
    never triggers the garbage collector: it measures how fast the host
    executes interpreter bytecode right now, and nothing else.
    """
    value = 0
    start = perf_counter()
    for _ in repeat(None, REF_ITERATIONS):
        value = (value + 7) & 255
    return perf_counter() - start


class Normaliser:
    """Brackets consecutive timed intervals with reference samples.

    The sample taken after one interval is the sample before the next, so
    back-to-back ops pay for one reference loop each.
    """

    def __init__(self) -> None:
        self.samples: List[float] = [ref_sample()]

    def factor(self) -> float:
        """Sample the host now; the factor for the interval just ended.

        Multiply the interval's wall seconds by the factor to get seconds
        at the reference host speed.
        """
        before = self.samples[-1]
        after = ref_sample()
        self.samples.append(after)
        return REF_NOMINAL_S / ((before + after) / 2)

    def median_s(self) -> float:
        """Median raw reference-loop time of the run (``host.ref_loop_s``)."""
        return statistics.median(self.samples)


def _time_to_ready(command: Sequence[str]) -> float:
    """Wall seconds from spawning ``command`` until it prints ``ready``."""
    start = perf_counter()
    child = subprocess.Popen(list(command), stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        ready = perf_counter()
        child.stdout.read()
        code = child.wait(timeout=120)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"child exited with {code} after printing {line!r}")
    return ready - start


def cold_start_s(command: Sequence[str], starts: int) -> float:
    """Median normalised time from spawning ``command`` to its ready line.

    Process creation and imports slow down with the host differently from
    bytecode, so each start is normalised by a reference start next to it
    (an interpreter that prints ``ready`` at once) instead of by the
    reference loop, and scaled by :data:`REF_START_NOMINAL_S`.
    Starts run one at a time, each after the previous child has exited;
    the pair's order alternates.  ``command`` must print ``ready`` once set
    up and then exit with 0.
    """
    reference = [sys.executable, "-c", "print('ready')"]
    values = []
    for index in range(starts):
        if index % 2:
            base = _time_to_ready(reference)
            wall = _time_to_ready(command)
        else:
            wall = _time_to_ready(command)
            base = _time_to_ready(reference)
        values.append(wall / base * REF_START_NOMINAL_S)
    return statistics.median(values)
