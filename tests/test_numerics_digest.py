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
    for seeds in (["3"], ["3"], ["4"]):
        assert script.main(seeds, steps=2) == 0
    first, again, other = capsys.readouterr().out.split("\n")[:3]
    assert re.fullmatch("[0-9a-f]{64}", first)
    assert again == first and other != first
