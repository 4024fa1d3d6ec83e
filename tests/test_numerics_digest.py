import hashlib
import re

import numerics_digest


def test_two_runs_print_the_same_digest_and_another_seed_another(capsys):
    runs = []
    for seeds in (["3"], ["3"], ["4"]):
        assert numerics_digest.main(seeds, steps=2) == 0
        runs.append(capsys.readouterr().out.splitlines())
    first, again, other = runs
    parts = ["default_recon train", "tiny_recon train", "sweep", "all"]
    assert [line.split("  ")[1] for line in first] == parts
    assert all(re.fullmatch("[0-9a-f]{64}  [a-z_ ]+", line) for line in first)
    assert again == first
    assert all(a != b for a, b in zip(first, other))


def test_all_is_one_digest_over_the_parts_seed_by_seed():
    h = hashlib.sha256()
    for seed in (3, 4):
        for name, batch_size in numerics_digest.TRAIN_RUNS:
            h.update(numerics_digest.train_numbers(name, batch_size, seed, 2).astype("<f8").tobytes())
        h.update(numerics_digest.sweep_numbers(seed).astype("<f8").tobytes())
    assert numerics_digest.digests((3, 4), steps=2)["all"] == h.hexdigest()
