"""Steady-state train steps and sweep chunks must not page-fault their scratch back in.

The conv ops allocate large scratch arrays on every pass and free them at
its end.  If glibc trims the heap after a pass, the next one faults the same
pages back in: hundreds of minor faults and about 16% of a step
(tensor._keep_the_heap says how the program prevents it).  Each case runs in
a fresh interpreter, like a training run or a sweep, and counts the
process's own minor faults (resource.getrusage) over 200 steady-state calls.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import json, resource, sys
import numpy as np
from hyperajscc.config import parse_run_config
from hyperajscc.data import Dataset, synthetic_dataset
from hyperajscc.metrics import snr_sweep
from hyperajscc.models import build_model
from hyperajscc.training import Adam, train_step

with open(sys.argv[2]) as fh:
    cfg = parse_run_config(fh.read())
seed = int(sys.argv[3])
images = synthetic_dataset("gaussian-blobs-images", 256, cfg.model.input_shape, seed=seed)
model = build_model(cfg.model, seed=seed)
rng = np.random.default_rng(seed)
if sys.argv[1] == "train_step":
    opt = Adam(model.parameters(), cfg.train.lr)

    def call(i):
        idx = rng.permutation(256)[:32]
        train_step(model, images.samples[idx], None, rng.uniform(0, 20, 32), "mse", opt, rng)
else:
    chunk = Dataset(images.samples[:64], None, images.name, "probe")

    def call(i):
        snr_sweep(model, chunk, (float(2 * (i % 11)),), seeds=(i,))

for i in range(20):
    call(i)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(200):
    call(i)
print(json.dumps((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 200))
"""


def steady_state_faults(call: str, seed: int) -> float:
    """Minor faults per call over 200 calls after 20 warm-up calls, in a fresh interpreter."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, call, os.path.join(ROOT, "configs", "default_recon.cfg"), str(seed)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("call", ["train_step", "snr_sweep"])
def test_default_recon_steady_state_faults_are_rare(call):
    per_call = steady_state_faults(call, 0)
    # well under 1 per call when the heap stays put; a trimmed heap faults hundreds of times
    assert per_call < 50, f"{per_call:.1f} minor faults per {call} of default_recon"
