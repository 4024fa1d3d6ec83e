import hashlib
import importlib.util
import os
import re

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts", "numerics_digest.py")


def load_script():
    spec = importlib.util.spec_from_file_location("numerics_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_print_the_same_digest_and_another_seed_another(capsys):
    script = load_script()
    runs = []
    for seeds in (["3"], ["3"], ["4"]):
        assert script.main(seeds, steps=2) == 0
        runs.append(capsys.readouterr().out.splitlines())
    first, again, other = runs
    parts = ["default_recon train", "tiny_recon train", "sweep", "all"]
    assert [line.split("  ")[1] for line in first] == parts
    assert all(re.fullmatch("[0-9a-f]{64}  [a-z_ ]+", line) for line in first)
    assert again == first
    assert all(a != b for a, b in zip(first, other))


def test_all_is_one_digest_over_the_parts_seed_by_seed():
    script = load_script()
    h = hashlib.sha256()
    for seed in (3, 4):
        for name, batch_size in script.TRAIN_RUNS:
            h.update(script.train_numbers(name, batch_size, seed, 2).astype("<f8").tobytes())
        h.update(script.sweep_numbers(seed).astype("<f8").tobytes())
    assert script.digests((3, 4), steps=2)["all"] == h.hexdigest()
