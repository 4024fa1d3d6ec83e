"""Machine-speed probe: a fixed kernel that times the host, not the program.

On a shared host the speed of the machine drifts: the same train step took
23 ms in one run and 43 ms in another a few minutes later, with CPU time
tracking wall time (contention for the core and its caches, not
preemption).  The probe is a few milliseconds of work of the kinds the
program does: strided einsums like `tensor.conv2d`'s, a chain of small
matmul + tanh calls like the dense model's, a BLAS matmul, and plain
interpreter work.  Its code and inputs belong to the benchmark and never
change with the program.

A run takes a probe before its first batch, after every K batches, and
after its last, where K batches take about as long as one probe.  Each
batch's latency is then reported at the reference speed, scaled by the
mean of the probes just before and just after its group of K:

    reported = measured * REF_PROBE_S / mean(probe before, probe after)

A slower host slows the probes and the batches alike and the reported
figure stays put, while a change to the program moves only the batches.
Percentiles and totals are taken over the scaled latencies.  On the
machine the benchmark was tuned on, the probe's median ranged over
2.1-6.3 ms between runs and batch p50 by 40%, while the scaled p50, p90
and throughput spread by 1-5% (quartile distance over median, six runs).

Set-up is mostly import time, which the probe does not track: the median
set-up of a run moved between 0.37 and 0.52 s over half an hour while
the probe did not.  Set-up times are scaled instead by the import probe,
a fresh interpreter importing numpy and scipy.ndimage, run alternately
with the set-ups:

    reported = median(set-up) * REF_IMPORT_S / median(import probe)
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

_clock = time.perf_counter

# The probes' times at the reference speed: round figures near their
# medians on the 2-vCPU Intel Xeon guest the benchmark was tuned on (probe
# 3.7-6.3 ms, import probe 0.29-0.39 s).  Any fixed values would do, as
# long as they never change: they only set the scale of reported times.
REF_PROBE_S = 4.0e-3
REF_IMPORT_S = 0.3

_IMPORT_PROBE = "import time; t = time.perf_counter(); import numpy, scipy.ndimage; print(time.perf_counter() - t)"

_rng = np.random.default_rng(20240120)
_CONV_X = _rng.normal(size=(32, 16, 6, 6))
_CONV_K = _rng.normal(size=(32, 16))
_DENSE_X = _rng.normal(size=(16, 32))
_DENSE_W = _rng.normal(size=(32, 32))
_MM = _rng.normal(size=(64, 64))


def _work() -> None:
    for i in range(10):
        np.einsum("bchw,oc->bohw", _CONV_X[:, :, i % 3 : i % 3 + 4, :4], _CONV_K)
    a = _DENSE_X
    for _ in range(100):
        a = np.tanh(a @ _DENSE_W * 0.1 + 1.0)
    for _ in range(20):
        _MM @ _MM
    s = 0
    for i in range(10000):
        s += i * i


def probe() -> float:
    """Seconds one run of the fixed kernel takes now."""
    t0 = _clock()
    _work()
    return _clock() - t0


def factor(before: float, after: float) -> float:
    """Multiplier to the reference speed for work done between two probes."""
    return 2.0 * REF_PROBE_S / (before + after)


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import numpy and scipy.ndimage."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)
