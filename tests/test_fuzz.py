"""Fuzzed inputs keep the CLI's exit-code contract: a documented code, no traceback.

An exception that escapes `main` fails the test with its traceback, so each
case checks both the returned code and that nothing escaped.
"""

import contextlib
import io
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperajscc.cli import EXIT_CONFIG, EXIT_CORRUPT, EXIT_NUMERIC, EXIT_OK, main
from hyperajscc.data import RECORD_BYTES

from test_cli import _malformed_cifar
from test_config import GOOD

FUZZ = settings(max_examples=100, derandomize=True, database=None, deadline=None)

# (start, end) of every `key = value` value in GOOD
VALUE_SPANS = [m.span(1) for m in re.finditer(r"^\w+ = (.*)$", GOOD, re.M)]


def run_main(argv):
    """main(argv) with its output captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def checkpoint_path(workdir):
    cfg = workdir / "good.cfg"
    cfg.write_text(GOOD)
    out = str(workdir / "run")
    assert run_main(["train", str(cfg), "--out", out])[0] == EXIT_OK
    return os.path.join(out, "checkpoint.haj")


@pytest.fixture(scope="module")
def checkpoint_bytes(checkpoint_path):
    with open(checkpoint_path, "rb") as fh:
        return fh.read()


@FUZZ
@given(which=st.integers(0, len(VALUE_SPANS) - 1), value=st.text())
def test_fuzzed_config_value_exits_0_or_2(workdir, which, value):
    start, end = VALUE_SPANS[which]
    path = workdir / "fuzzed.cfg"
    path.write_text(GOOD[:start] + value + GOOD[end:], encoding="utf-8")
    code, err = run_main(["count-params", str(path)])
    assert code in (EXIT_OK, EXIT_CONFIG), err
    assert "Traceback" not in err


@FUZZ
@given(data=st.data())
def test_damaged_checkpoint_exits_0_3_or_4(workdir, checkpoint_bytes, data):
    blob = bytearray(checkpoint_bytes)
    n = len(blob)
    if data.draw(st.booleans(), label="truncate"):
        del blob[data.draw(st.integers(0, n - 1), label="keep"):]
    else:
        flips = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 255)), min_size=1, max_size=8))
        for pos, mask in flips:
            blob[pos] ^= mask
    path = workdir / "damaged.haj"
    path.write_bytes(bytes(blob))
    code, err = run_main(["sweep", str(path), "--csv", str(workdir / "damaged.csv")])
    assert code in (EXIT_OK, EXIT_NUMERIC, EXIT_CORRUPT), err
    assert "Traceback" not in err


# free text, plus LO:HI:STEP ranges, sorted comma lists and seed lists
# that get past the parsers into the sweep
NUMBER = st.one_of(st.integers(-30, 30), st.floats(-1e3, 1e3), st.floats())
SNR_GRID = st.one_of(
    st.text(),
    st.tuples(NUMBER, NUMBER, NUMBER).map(lambda t: ":".join(map(repr, t))),
    st.lists(NUMBER, min_size=1, max_size=6).map(lambda v: ",".join(map(repr, sorted(v)))),
)
SEEDS = st.one_of(st.text(), st.lists(st.integers(-3, 2**70), min_size=1, max_size=3).map(lambda v: ",".join(map(str, v))))
# whole records whose label byte may be out of range, or bytes of any length
CIFAR_RECORD = st.tuples(st.integers(0, 12), st.binary(min_size=RECORD_BYTES - 1, max_size=RECORD_BYTES - 1))
CIFAR_BATCH = st.one_of(
    st.binary(max_size=2 * RECORD_BYTES + 1),
    st.lists(CIFAR_RECORD, max_size=2).map(lambda recs: b"".join(bytes([lab]) + px for lab, px in recs)),
)


@FUZZ
@given(grid=SNR_GRID, seeds=SEEDS, joined=st.booleans())
def test_fuzzed_sweep_arguments_exit_0_or_2(workdir, checkpoint_path, grid, seeds, joined):
    flags = [f"--snr-grid={grid}", f"--seeds={seeds}"] if joined else ["--snr-grid", grid, "--seeds", seeds]
    argv = ["sweep", checkpoint_path, *flags, "--csv", str(workdir / "args.csv")]
    code, err = run_main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG), err
    assert "Traceback" not in err


@FUZZ
@given(record=CIFAR_BATCH)
def test_fuzzed_cifar_batch_exits_2_or_4(tmp_path_factory, record):
    tmp_path = tmp_path_factory.mktemp("cifar")
    argv = _malformed_cifar(tmp_path)
    (tmp_path / "cifar" / "data_batch_1.bin").write_bytes(record)
    code, err = run_main(argv)
    assert code in (EXIT_CONFIG, EXIT_CORRUPT), err
    assert "Traceback" not in err
