"""A fixed numpy loop that gauges how fast the host runs at the moment.

On a shared host the speed of a core changes by up to 1.7x for seconds to
minutes at a time, and process CPU time moves with wall time, so a rate
timed in one window of a few seconds can differ from the next window's by
more than any useful bound. The benchmark therefore runs one of these loops
next to each timed piece of work and scales that work's wall time by
``REFERENCE_S / loop time``: the figure reads as if the host ran at its
reference speed. The loop touches nothing of the package under test,
so a change to the package moves the scaled figure exactly as it moves the
wall time; only the host's speed cancels out.

Each kind mimics one workload's cost profile: ``d2`` is numpy dispatch on
tiny arrays (the d=2 testbed), ``d1024`` is arithmetic on a 64x1024
mixture (the d=1024 workload), ``d2-short`` is a short ``d2`` for sampling
while the CLI's processes run. All evaluate the posterior mean of a
Gaussian mixture, as a mixture model's velocity does.

``Gauge`` probes between pieces of work done in the same process.
``Sampler`` probes on a thread while child processes do the work on every
core, and reads the probe's thread CPU time, not its wall time: a probe
that waits for a busy core would otherwise measure the work itself. Thread
CPU time leaves out the time the hypervisor gave this machine's virtual
CPUs to other guests (steal time, up to a quarter of all CPU time during a
CLI sweep on a shared host), so ``Sampler`` also reads that from
``/proc/stat`` and counts it as slowness.
"""

from __future__ import annotations

import os
import statistics
import threading
from time import perf_counter, thread_time

import numpy as np

# kind -> (dimension, components, iterations)
KINDS = {"d2": (2, 4, 2000), "d1024": (1024, 64, 300), "d2-short": (2, 4, 300)}
# Seconds of one loop of each kind at the reference speed: near the middle
# of what it took on a shared 2-vCPU Intel Xeon at 2.1 GHz with numpy on one
# thread over an hour (d2 0.024-0.047 s, d1024 0.033-0.060 s); for
# d2-short, thread CPU seconds while a CLI sweep runs (0.0072-0.0085 s).
REFERENCE_S = {"d2": 0.036, "d1024": 0.046, "d2-short": 0.0078}
SAMPLE_PERIOD_S = 0.2


def loop(kind: str) -> float:
    """Run the fixed loop of ``kind`` once; its result, so nothing is skipped."""
    dim, components, iterations = KINDS[kind]
    rng = np.random.default_rng(12345)
    means = rng.standard_normal((components, dim))
    x = np.zeros(dim)
    total = 0.0
    for _ in range(iterations):
        diff = means - (x + rng.standard_normal(dim))
        logits = -0.5 * np.einsum("ij,ij->i", diff, diff)
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        x = 0.9 * x + 0.01 * (weights @ means)
        total += float(np.sqrt(x @ x))
    return total


def probe(kind: str) -> float:
    """Wall seconds of one loop of ``kind``."""
    start = perf_counter()
    loop(kind)
    return perf_counter() - start


class Gauge:
    """Probes between timed pieces of work; each piece is scaled by its two neighbours."""

    def __init__(self, kind: str):
        self.kind = kind
        loop(kind)  # warm-up, not used
        self.probes = [probe(kind)]

    def mark(self) -> None:
        """Probe once; call after every timed piece of work."""
        self.probes.append(probe(self.kind))

    def factor(self, index: int) -> float:
        """Host slowness around piece ``index``: its neighbouring probes over the reference."""
        around = (self.probes[index] + self.probes[index + 1]) / 2.0
        return around / REFERENCE_S[self.kind]

    def median_factor(self) -> float:
        return statistics.median(self.probes) / REFERENCE_S[self.kind]


def stolen_s() -> float:
    """Seconds of steal time so far, summed over CPUs; 0 where ``/proc/stat`` lacks it."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Sampler:
    """``with Sampler():`` around work done by child processes; ``factor()`` afterwards."""

    def __init__(self, kind: str = "d2-short"):
        self.kind = kind
        loop(kind)  # warm-up, not used
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            start = thread_time()
            loop(self.kind)
            self.samples.append(thread_time() - start)

    def __enter__(self) -> "Sampler":
        self._stolen = stolen_s()
        self._start = perf_counter()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        wall = perf_counter() - self._start
        stolen = (stolen_s() - self._stolen) / (os.cpu_count() or 1)
        # steal is counted in clock ticks, which can overstate it over a short wall
        self.available = max(1.0 - stolen / wall, 0.5) if wall > 0 else 1.0
        if not self.samples:  # work shorter than one period
            start = thread_time()
            loop(self.kind)
            self.samples.append(thread_time() - start)

    def factor(self) -> float:
        """Host slowness while the work ran.

        Median probe CPU time over the reference, divided by the share of
        wall time the CPUs were not stolen.
        """
        return statistics.median(self.samples) / REFERENCE_S[self.kind] / self.available
