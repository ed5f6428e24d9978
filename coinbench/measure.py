"""Statistics, the host fingerprint, the calibration loop and host speed."""

from __future__ import annotations

import bisect
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Sequence, Tuple

#: Iterations of one host tick: a short run of the calibration loop.
TICK_ITERATIONS = 20_000
#: Milliseconds one tick takes on the reference host (2 vCPU "Intel(R)
#: Xeon(R) Processor", CPython 3.11.7) when no other tenant competes.
REFERENCE_TICK_MS = 2.25
#: Ticks around a moment whose median gives the host speed at that moment.
TICK_WINDOW = 5


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 1))))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _loop_ms(iterations: int) -> float:
    """Time of a fixed pure-Python loop (interpreter-bound, like the program)."""
    started = time.perf_counter()
    total, table = 0, {}
    for index in range(iterations):
        total += index * 7 % 13
        table[index & 1023] = total
    return (time.perf_counter() - started) * 1000.0


def calibration_ms(rounds: int = 5) -> float:
    """Median time of the calibration loop at 10 ticks' length.

    Results taken on hosts whose calibration differs are not comparable
    without saying so, even when the fingerprint matches.
    """
    return statistics.median(_loop_ms(10 * TICK_ITERATIONS) for _ in range(rounds))


class HostSpeed:
    """Ticks taken through a run, and the host's speed at any moment of it.

    On a shared host other tenants slow every interpreter-bound loop alike,
    by up to 2x for seconds or minutes at a time; the program's statements
    and the tick slow down in proportion.  ``factor(at)`` is
    :data:`REFERENCE_TICK_MS` over the median of the ticks nearest ``at``:
    multiplying a time measured at ``at`` by it gives the time on the
    reference host.
    """

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []

    def tick(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append((time.perf_counter(), _loop_ms(TICK_ITERATIONS)))

    def factor(self, at: float) -> float:
        if not self.samples:
            return 1.0
        index = bisect.bisect_left(self.samples, (at,))
        low = max(0, min(index - TICK_WINDOW // 2, len(self.samples) - TICK_WINDOW))
        window = [ms for _, ms in self.samples[low:low + TICK_WINDOW]]
        return REFERENCE_TICK_MS / statistics.median(window)

    def median_tick_ms(self) -> float:
        return statistics.median(ms for _, ms in self.samples) if self.samples else 0.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_fingerprint() -> Dict[str, object]:
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "python_build": " ".join(platform.python_build()),
        "compiler": platform.python_compiler(),
        "platform": platform.platform(),
        "executable_bits": 64 if sys.maxsize > 2**32 else 32,
    }
