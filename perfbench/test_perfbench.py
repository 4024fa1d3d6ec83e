"""Tests of the benchmark itself: observation only, determinism, names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from hyperajscc import layers, tensor, training
from perfbench import measure, speed, workloads
from perfbench.tracer import Tracer

ROOT = measure.ROOT
FAST = dict(setup_runs=1, min_batches=3)


def _bindings() -> dict:
    """Every callable bound in a hyperajscc module or a patched class."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "hyperajscc" or name.startswith("hyperajscc.")):
            snap.update({(name, a): v for a, v in vars(mod).items() if callable(v)})
    for cls in (tensor.Tensor, training.Adam, layers.HyperScale, layers.HyperLayer):
        snap.update({(cls.__qualname__, a): v for a, v in vars(cls).items()})
    return snap


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_untraced_run_calls_the_original_functions():
    before = _bindings()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        result, _ = measure.measure("dense_train", 0, 0.05, trace=False, **FAST)
    finally:
        sys.setprofile(None)
    assert result["correct"]
    tracer_file = os.path.join(measure.HERE, "tracer.py")
    assert not any(code.co_filename == tracer_file for code in called)
    for fn in (training.train_step, tensor.linear, tensor.Tensor.backward, training.Adam.step):
        assert fn.__code__ in called
    assert _bindings() == before


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_restores_every_binding_and_only_observes(workload):
    before = _bindings()
    result, env = measure.measure(workload, 1, 0.1, trace=True, **FAST)
    assert _bindings() == before
    # correct includes: traced and untraced per-batch values bit-identical
    assert result["correct"], env["notes"]
    assert result["failed"] == 0
    names = [m["name"] for m in _spec()["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)


def test_tracer_is_removed_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            assert tensor.conv2d is not before[("hyperajscc.tensor", "conv2d")]
            1 / 0
    assert _bindings() == before


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_metric_names_match_benchmark_json(workload):
    result, env = measure.measure(workload, 2, 0.05, trace=False, **FAST)
    assert result["correct"], env["notes"]
    spec = _spec()
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(m["unit"] == units[name] for name, m in result["metrics"].items())
    assert workload in {w["name"] for w in spec["workloads"]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    make = workloads.WORKLOADS[workload]
    a, b, c = make(5, str(tmp_path)), make(5, str(tmp_path)), make(6, str(tmp_path))
    params = [p.data for p in a.model.parameters()]
    assert all(np.array_equal(p, q.data) for p, q in zip(params, b.model.parameters()))
    assert not all(np.array_equal(p, q.data) for p, q in zip(params, c.model.parameters()))
    steps = [(a.step()[0], b.step()[0], c.step()[0]) for _ in range(3)]
    assert all(x == y for x, y, _ in steps)
    assert any(x != z for x, _, z in steps)


class _FixedRun:
    """A stand-in workload whose batches take no time and always pass."""

    batch_size = 1

    def step(self):
        return 0.0, 0.002, 0.0

    def batch_ok(self, index, value):
        return True


def test_every_timed_batch_is_scaled_by_the_probes_around_it(monkeypatch):
    # three warm-up probes, then the timed ones
    probes = iter([0.005, 0.004, 0.006, 0.004, 0.006, 0.002, 0.010])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    loop = measure.Loop()
    loop.check_latency = [0.002]  # a probe takes two batches' time
    loop.timed(_FixedRun(), 0.0, min_batches=5)
    assert loop.probe_every == 2
    assert list(loop.probes) == [0.004, 0.006, 0.002, 0.010]
    f = [speed.factor(0.004, 0.006)] * 2 + [speed.factor(0.006, 0.002)] * 2 + [speed.factor(0.002, 0.010)]
    assert np.allclose(loop.scaled, [0.002 * x for x in f])
    assert len(loop.scaled) == len(loop.latency) == 5


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(measure.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_train", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
