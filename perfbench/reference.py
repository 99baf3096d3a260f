"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the speed available to one process drifts by up to 2x over
seconds, as neighbours start and stop work.  Every verdict is therefore
bracketed by timings of a reference kernel, and its times are rescaled to a
nominal machine speed, wall time by the kernel's wall time and CPU time by
the kernel's CPU time:

    reported_s     = measured_s     * NOMINAL_S / reference["wall_s"]
    reported_cpu_s = measured_cpu_s * NOMINAL_S / reference["cpu_s"]

When the vCPU is time-shared a process's wall time grows but its CPU time
does not, so each clock is rescaled by the same clock of the kernel.  The
kernel is the benchmark's own code and never calls stoplab, so a change to
stoplab cannot move it.
"""

import statistics
import time

import numpy as np

# Typical time of the kernel on the 2-vCPU x86-64 host the benchmark was
# calibrated on; only ratios between runs matter.
NOMINAL_S = 0.05


def _kernel() -> tuple:
    """(wall, CPU) seconds of three kinds of work: whole-array numpy steps on
    (1000, 2) rows, passes over 2 MB arrays, and a Python loop of tiny numpy
    operations (compensated sums over the columns of an (8, 1200) array).
    Contention slows each kind by a different factor, and the workloads mix
    all three."""
    steps = 100
    rng = np.random.Generator(np.random.Philox(key=12345))
    noise = rng.standard_normal((steps, 1000, 2))
    wide = rng.standard_normal(1 << 18)
    cols = rng.standard_normal((8, 1200))
    diag = np.array([1.0, 2.0])
    t0, c0 = time.perf_counter(), time.process_time()
    x = np.ones((1000, 2))
    x_prev = x.copy()
    low = np.zeros(1000)
    for k in range(1, steps + 1):
        g = diag * x - noise[k - 1]
        x_next = x + k / (k + 2.0) * (x - x_prev) - 0.01 / (k + 2.0) * g
        v = x_next + (k + 1.0) * (x_next - x)
        energy = np.sum(v * v, axis=-1) + 0.5 * np.sum(diag * x * x, axis=-1)
        np.minimum(low, energy - np.sum(g * g, axis=-1), out=low)
        x_prev, x = x, x_next
    for _ in range(4):
        wide = np.exp(-np.abs(wide)) - 0.5 * wide
        float(np.sum(wide * wide))
    for _ in range(3):
        total = np.zeros(8)
        comp = np.zeros(8)
        for j in range(cols.shape[1]):
            term = cols[:, j] * cols[:, j] - comp
            t = total + term
            comp = (t - total) - term
            total = t
    return time.perf_counter() - t0, time.process_time() - c0


def measure(repeats: int = 3) -> dict:
    """Medians of a few kernel runs: the machine's speed at this moment."""
    runs = [_kernel() for _ in range(repeats)]
    return {"wall_s": statistics.median(w for w, _ in runs),
            "cpu_s": statistics.median(c for _, c in runs)}


def at_nominal_speed(seconds: float, *references: dict, clock: str = "wall_s") -> float:
    """``seconds`` rescaled by the mean of the references' ``clock`` times."""
    return seconds * NOMINAL_S / statistics.fmean(r[clock] for r in references)
