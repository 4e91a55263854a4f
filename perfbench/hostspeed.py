"""Corrects timings for drift in a shared host's speed.

On a shared host the same pass can take 25% longer, for seconds or tens
of seconds at a time, because other tenants load the cores.  The probe is
a fixed pure-Python loop that runs no k3carpets code, so a change to the
program cannot move it; only the host's speed does.  `Sampler` runs the
probe every INTERVAL_S of wall time during a pass, from SIGALRM, and its
`clock` leaves out the time the probes take.  A timing multiplied by
`factor()` reads as at the reference speed, at which one probe takes
PROBE_REF_S.
"""

from __future__ import annotations

import signal
import statistics
import time

# One probe on a quiet 2-vCPU Xeon host with Python 3.11, so that corrected
# timings there read about as measured.
PROBE_REF_S = 0.0009
INTERVAL_S = 0.05


def _step(x: int, y: int, table: dict) -> tuple[int, int]:
    key = (x % 97, y % 89)
    table[key] = table.get(key, 0) + (x ^ y) // 3
    return key


def probe() -> float:
    """Seconds the probe loop takes right now."""
    start = time.perf_counter()
    table: dict = {}
    keys = []
    for i in range(2_000):
        key = _step(i * 7919, i * 104729, table)
        if key[0] < 5:
            keys.append(key)
    keys.sort()
    return time.perf_counter() - start


def factor_now() -> float:
    """The correction factor from 25 probes in a row."""
    return PROBE_REF_S / statistics.mean(probe() for _ in range(25))


class Sampler:
    """Probes the host's speed at regular intervals while a pass runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        """perf_counter() without the time spent in probes."""
        return time.perf_counter() - self.spent

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(probe())  # a pass shorter than INTERVAL_S gets one too

    def factor(self) -> float:
        """Multiply a timing of the sampled pass by this."""
        return PROBE_REF_S / statistics.mean(self.samples)
