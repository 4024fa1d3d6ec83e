"""Run one workload: set up, check, time, and report metrics.

The load is a closed loop: one process is one caller, and each batch is
issued only after the previous one returned.

Untraced run (--trace 0): set-up probes, then the check batches, then
timed batches for --seconds; reports the end-to-end metrics.  Traced run
(--trace 1): the same, plus a second set-up from the same seed with the
tracer installed; one-second blocks of the two loops alternate for
--seconds in all.  It reports the per-layer metrics, and requires the two
loops' per-batch values (losses or PSNRs) to be bit-identical over their
common length.

Timed batches are interleaved with speed probes, and every time is
reported at a fixed reference speed of the machine (speed.py).
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array

import numpy as np
import scipy

from . import speed, workloads
from .tracer import BUCKETS, Tracer

_clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 7
MIN_BATCHES = 100  # p90 of 100 samples leaves 10 beyond it
TRACE_BLOCK_S = 1.0
REFERENCE_FILE = os.path.join(HERE, "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


@contextlib.contextmanager
def scratch_dir():
    """A temporary directory inside the checkout, removed afterwards."""
    parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(parent)
        except OSError:
            pass  # another run still uses it


def probe_setup(workload: str, seed: int, import_s: float) -> dict:
    """Set-up timings of one workload in this (fresh) interpreter."""
    with scratch_dir() as workdir:
        run = workloads.WORKLOADS[workload](seed, workdir)
    timings = dict(run.timings)
    timings["hyperajscc.import_s"] = import_s
    timings["setup_s"] += import_s
    return timings


def probe_setups(workload: str, seed: int, runs: int) -> list[dict]:
    """Set the workload up `runs` times, each in a fresh interpreter.

    Each set-up is followed by an import probe (speed.py), stored with it
    as `import_probe_s`.
    """
    out = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        timings = json.loads(proc.stdout.strip().splitlines()[-1])
        timings["import_probe_s"] = speed.import_probe()
        out.append(timings)
    return out


class Loop:
    """Per-batch records of one run of the closed loop.

    Latencies go to a flat array, and timed batches' values are kept only
    when asked for, so the benchmark's own records barely move the
    process's peak RSS however many batches a run times.

    Timed batches are interleaved with speed probes (speed.py): one at the
    start of each timed stretch, one after every `probe_every` batches (as
    many as take about one probe's time in the check batches) and one at
    its end.  `scaled` holds each timed batch's latency at the reference
    speed; `wall` excludes the probes.
    """

    def __init__(self, keep_values: bool = False):
        self.keep_values = keep_values
        self.values: list[float] = []  # check batches, and timed ones if keep_values
        self.latency = array("d")  # seconds, timed batches only
        self.scaled = array("d")  # the same at the reference speed
        self.check_latency: list[float] = []
        self.probes = array("d")  # seconds per speed probe
        self.probe_every = 0
        self._group = 0  # timed batches since the last probe
        self.fetch_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.samples = 0

    def speed_factor(self) -> float:
        """Multiplier from measured batch time to time at the reference speed."""
        return sum(self.scaled) / sum(self.latency)

    def latency_ms(self, q: float) -> float:
        """The q-th percentile of batch latency at the reference speed."""
        return float(np.percentile(self.scaled, q)) * 1e3

    def batch(self, run, timed=True) -> None:
        index = self.attempted
        self.attempted += 1
        try:
            value, seconds, fetch = run.step()
            ok = run.batch_ok(index, value)
        except Exception:
            if self.failed == 0:
                traceback.print_exc(file=sys.stderr)
            value, ok, timed = float("nan"), False, False
        if not ok:
            self.failed += 1
        if not timed or self.keep_values:
            self.values.append(value)
        if not timed and ok:
            self.check_latency.append(seconds)
        if timed:
            self.latency.append(seconds)
            self._group += 1
            self.fetch_s += fetch
            self.samples += run.batch_size

    def check(self, run) -> None:
        """The untimed batches whose values are compared with the reference."""
        for _ in range(run.check_batches):
            self.batch(run, timed=False)

    def probe(self) -> float:
        """Take a probe and scale the batches since the previous one."""
        seconds = speed.probe()
        if self._group:
            f = speed.factor(self.probes[-1], seconds)
            self.scaled.extend(t * f for t in self.latency[-self._group :])
            self._group = 0
        self.probes.append(seconds)
        return seconds

    def timed(self, run, seconds: float, min_batches: int = 0) -> None:
        """Timed batches for `seconds`, and at least `min_batches` of them."""
        if not self.probe_every:
            probe_s = statistics.median(speed.probe() for _ in range(3))  # also the warm-up
            typical = statistics.median(self.check_latency) if self.check_latency else probe_s
            self.probe_every = max(1, round(probe_s / typical))
        start = _clock()
        deadline = start + seconds
        probing = self.probe()
        n = 0
        while n < min_batches or _clock() < deadline:
            self.batch(run)
            n += 1
            if self._group == self.probe_every:
                probing += self.probe()
        if self._group:
            probing += self.probe()
        self.wall += _clock() - start - probing


def _median(rows: list[dict], key: str) -> float:
    return statistics.median(r.get(key, 0.0) for r in rows)


def _setup_time(setups: list[dict], key: str) -> float:
    """Median set-up time at the reference speed of the import probe."""
    return _median(setups, key) * speed.REF_IMPORT_S / _median(setups, "import_probe_s")


def _check(run, loop: Loop, reference: dict, workload: str, seed: int, notes: list) -> bool:
    """Reference values for this seed, and unit channel power."""
    ok = True
    table = reference[workload]["values"]
    got = run.reference_of(loop.values[: run.check_batches])
    if str(seed) in table:
        if not run.matches(got, table[str(seed)]):
            notes.append(f"reference mismatch: got {got!r}, recorded {table[str(seed)]!r}")
            ok = False
    else:
        notes.append(f"no recorded reference for seed {seed}")
    if not workloads.unit_power(run):
        notes.append("power_normalize output does not have unit mean complex power")
        ok = False
    return ok


def environment(workload: str, seed: int, loop: Loop, setups: list[dict], trace: bool, notes: list) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": _commit(),
        "load": "closed loop, 1 caller",
        "percentile_samples": len(loop.latency),
        "speed": {
            "ref_probe_ms": speed.REF_PROBE_S * 1e3,
            "probe_ms_p50": statistics.median(loop.probes) * 1e3,
            "probe_every": loop.probe_every,
            "probes": len(loop.probes),
            "factor": loop.speed_factor(),
            "measured_batch_ms_p50": float(np.percentile(loop.latency, 50)) * 1e3,
            "ref_import_probe_s": speed.REF_IMPORT_S,
            "import_probe_s": _median(setups, "import_probe_s"),
            "measured_setup_s": _median(setups, "setup_s"),
        },
        "notes": notes,
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, setups: list[dict]) -> dict:
    """The end-to-end metrics.

    Batch times are at the reference speed of the speed probe, set-up times
    at that of the import probe (speed.py).
    """
    f = loop.speed_factor()
    return {
        "setup_s": _metric(_setup_time(setups, "setup_s"), "s"),
        "samples_per_s": _metric(loop.samples / (loop.wall * f), "1/s"),
        "batch_ms_p50": _metric(loop.latency_ms(50), "ms"),
        "batch_ms_p90": _metric(loop.latency_ms(90), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": _metric(1.0 - loop.failed / loop.attempted, "ratio"),
    }


def per_layer(tr: Tracer, loop: Loop, untraced: Loop, setups: list[dict]) -> dict:
    """The per-layer metrics; times are scaled like the end-to-end ones."""
    n = len(loop.latency)
    f = loop.speed_factor()
    tot, own, cnt = tr.total, tr.self_s, tr.counts

    def ms(seconds):
        return _metric(seconds * f / n * 1e3, "ms")

    def per_batch(count):
        return _metric(count / n, "count")

    batch = np.asarray(loop.latency)
    conv_fwd = tot["tensor.conv2d"]
    macs = cnt["tensor.conv2d.macs"]
    m = {
        "tensor.conv2d.fwd_ms": ms(conv_fwd),
        "tensor.conv2d.bwd_ms": ms(tot["tensor.conv2d.bwd"]),
    }
    for layer in ("enc.0", "enc.1", "enc.2", "dec.1", "dec.2", "dec.3"):
        m[f"tensor.conv2d.{layer}.fwd_ms"] = ms(tot[f"tensor.conv2d.{layer}"])
        m[f"tensor.conv2d.{layer}.bwd_ms"] = ms(tot[f"tensor.conv2d.{layer}.bwd"])
    m.update({
        "tensor.conv2d.macs": per_batch(macs),
        "tensor.conv2d.useful_mac_ratio": _metric(cnt["tensor.conv2d.useful_macs"] / macs if macs else 0.0, "ratio"),
        "tensor.conv2d.gmac_per_s": _metric(macs / (conv_fwd * f) / 1e9 if conv_fwd else 0.0, "GMAC/s"),
        "tensor.upsample_zero.ms": ms(own["tensor.upsample_zero"]),
        "tensor.linear.fwd_ms": ms(tot["tensor.linear"]),
        "tensor.linear.bwd_ms": ms(tot["tensor.linear.bwd"]),
        "tensor.activation.ms": ms(own["tensor.activation"]),
        "tensor.other_ops.ms": ms(own["tensor.other_ops"]),
        "tensor.tape.backward_self_ms": ms(own["tensor.tape"]),
        "tensor.ops.calls": per_batch(cnt["tensor.ops.calls"]),
        "tensor.tape.nodes": per_batch(cnt["tensor.tape.nodes"]),
        "layers.hyper_scale.ms": ms(own["layers.hyper_scale"]),
        "layers.hyper_scale.calls": per_batch(cnt["layers.hyper_scale.calls"]),
        "models.encode_ms": ms(tot["models.encode"]),
        "models.decode_ms": ms(tot["models.decode"]),
        "models.glue_ms": ms(own["models.glue"]),
        "channel.power_normalize.ms": ms(own["channel.power_normalize"]),
        "channel.awgn_transmit.ms": ms(own["channel.awgn_transmit"]),
        "training.forward_ms": ms(tot["models.forward_pipeline"]),
        "training.loss_ms": ms(tot["training.mse_loss"]),
        "training.backward_ms": ms(tot["tensor.backward"]),
        "training.adam_step_ms": ms(tot["training.adam_step"]),
        "training.glue_ms": ms(own["training.glue"]),
        "data.batch_ms": ms(loop.fetch_s),
        "data.synthetic_s": _metric(_setup_time(setups, "data.synthetic_s"), "s"),
        "metrics.sweep_point_ms": ms(tot["metrics.sweep_point"]),
        "metrics.glue_ms": ms(own["metrics.glue"]),
        "checkpoint.save_ms": _metric(_setup_time(setups, "checkpoint.save_ms"), "ms"),
        "checkpoint.load_ms": _metric(_setup_time(setups, "checkpoint.load_ms"), "ms"),
        "checkpoint.bytes": _metric(_median(setups, "checkpoint.bytes"), "bytes"),
        "config.parse_ms": _metric(_setup_time(setups, "config.parse_ms"), "ms"),
        "hyperajscc.import_s": _metric(_setup_time(setups, "hyperajscc.import_s"), "s"),
        "trace.overhead_ratio": _metric(
            (untraced.samples / (untraced.wall * untraced.speed_factor())) / (loop.samples / (loop.wall * f)),
            "ratio",
        ),
        "trace.batch_ms_p50": _metric(loop.latency_ms(50), "ms"),
        "trace.batch_ms_mean": ms(float(batch.sum())),
        "trace.unaccounted_ms": ms(float(batch.sum()) - sum(own[b] for b in BUCKETS)),
    })
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool,
            setup_runs: int = SETUP_RUNS, min_batches: int = MIN_BATCHES) -> tuple[dict, dict]:
    """Returns (result, environment stamp) for one run of one workload."""
    make = workloads.WORKLOADS[workload]
    reference = load_reference()
    setups = probe_setups(workload, seed, setup_runs)
    notes: list[str] = []
    with scratch_dir() as workdir:
        run = make(seed, workdir)
        untraced = Loop(keep_values=trace)
        untraced.check(run)
        if not trace:
            untraced.timed(run, seconds, min_batches)
        else:
            # Fresh set-up from the same seed, traced; its blocks alternate
            # with untraced ones so both see the same machine load.
            traced_run = make(seed, workdir)
            tracer = Tracer(traced_run.model)
            loop = Loop(keep_values=True)
            with tracer:
                loop.check(traced_run)
            tracer.reset()
            blocks = max(1, round(seconds / (2 * TRACE_BLOCK_S)))
            for i in range(blocks):
                last = i == blocks - 1
                untraced.timed(run, seconds / (2 * blocks), min_batches - len(untraced.latency) if last else 0)
                with tracer:
                    loop.timed(traced_run, seconds / (2 * blocks), min_batches - len(loop.latency) if last else 0)
        correct = _check(run, untraced, reference, workload, seed, notes)
        if not trace:
            metrics = end_to_end(untraced, setups)
            attempted, failed, loop = untraced.attempted, untraced.failed, untraced
        else:
            correct = _check(traced_run, loop, reference, workload, seed, notes) and correct
            n = min(len(untraced.values), len(loop.values))
            if untraced.values[:n] != loop.values[:n]:
                notes.append("traced and untraced runs produced different values")
                correct = False
            metrics = per_layer(tracer, loop, untraced, setups)
            attempted = untraced.attempted + loop.attempted
            failed = untraced.failed + loop.failed
    result = {"correct": correct and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, environment(workload, seed, loop, setups, trace, notes)
