"""Calibration loop: a fixed piece of work that does not touch volkit.

The host's speed drifts by tens of percent over minutes on a shared
machine.  The benchmark runs this loop next to what it measures and divides
by its time, which cancels most of that drift.  It mixes interpreter work,
small-array numpy and large-array numpy, like the workloads do.
"""

import time

import numpy as np

# Calibration time that defines the reference host speed for ``setup_s``,
# about the loop's time on a 2-core x86-64 test host.
REFERENCE_S = 0.03


def calibration_loop() -> float:
    """Run the fixed work once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(40_000):
        table[i % 997] = table.get(i % 997, 0) + i
    x = np.ones((10, 324))
    for _ in range(1000):
        x = 0.5 * x + 0.25 * np.tanh(x)
    z = np.exp(2j * np.pi * np.linspace(0.0, 50.0, 200_000))
    np.sort(np.abs(z.reshape(200, -1) @ z[:1000]))
    return time.perf_counter() - t0
