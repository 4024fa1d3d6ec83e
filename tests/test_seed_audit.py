"""scripts/seed_audit.py reruns the acceptance gate's experiments, so it keeps copies of the gate's settings."""

import importlib.util
import os

import test_acceptance

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts", "seed_audit.py")


def test_the_audit_runs_with_the_gates_settings():
    spec = importlib.util.spec_from_file_location("seed_audit", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for name in ("RECON_EPOCHS", "CLASS_EPOCHS", "MATCHED_SNRS", "FULL_GRID"):
        assert getattr(script, name) == getattr(test_acceptance, name), name
