import importlib
import inspect
import json
import os
import pkgutil

import numpy as np
import pytest

import hyperajscc
from hyperajscc import cli
from hyperajscc.cli import (
    EXIT_CONFIG,
    EXIT_CORRUPT,
    EXIT_GRADCHECK,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
)

from hyperajscc.checkpoint import save_checkpoint
from hyperajscc.config import parse_run_config
from hyperajscc.errors import ConfigError, CorruptArtifactError, NumericAbortError
from hyperajscc.models import build_model

from test_checkpoint import as_version_1, overwrite_last_value, overwrite_omega_map
from test_config import CONFIGS, GOOD
from test_data import write_fake_cifar


def package_error_classes():
    """Every Exception subclass defined in a hyperajscc module, found by walking the package."""
    found = set()
    for info in pkgutil.walk_packages(hyperajscc.__path__, "hyperajscc."):
        module = importlib.import_module(info.name)
        found.update(
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, Exception) and cls.__module__ == module.__name__
        )
    return sorted(found, key=lambda cls: cls.__name__)


# the exit code and stderr prefix main() gives each error a command can raise
EXIT_OF_ERROR = {
    ConfigError: (EXIT_CONFIG, "config error"),
    OSError: (EXIT_CONFIG, "config error"),
    NumericAbortError: (EXIT_NUMERIC, "numeric abort"),
    CorruptArtifactError: (EXIT_CORRUPT, "artifact error"),
}


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD)
    return str(path)


def train_once(cfg_path, tmp_path, name="run"):
    out = str(tmp_path / name)
    assert main(["train", cfg_path, "--out", out]) == EXIT_OK
    return out


class TestTrainCommand:
    def test_writes_checkpoint_and_log(self, cfg_path, tmp_path, capsys):
        out = train_once(cfg_path, tmp_path)
        assert os.path.exists(os.path.join(out, "checkpoint.haj"))
        assert not os.path.exists(os.path.join(out, "train_log.csv"))
        records = [json.loads(line) for line in open(os.path.join(out, "train_log.jsonl"))]
        # GOOD sets no val_every, so no epoch validates
        assert [list(r) for r in records] == [["epoch", "loss", "grad_norm", "wall_s"]] * 2  # 2 epochs
        assert [r["epoch"] for r in records] == [1, 2]
        assert "trained reconstruction model" in capsys.readouterr().out

    def test_byte_identical_across_runs(self, cfg_path, tmp_path):
        a = train_once(cfg_path, tmp_path, "a")
        b = train_once(cfg_path, tmp_path, "b")
        ckpt_a = open(os.path.join(a, "checkpoint.haj"), "rb").read()
        ckpt_b = open(os.path.join(b, "checkpoint.haj"), "rb").read()
        assert ckpt_a == ckpt_b
        # the train log is identical except the wall-clock times
        def records(run):
            return [{**json.loads(line), "wall_s": None} for line in open(os.path.join(run, "train_log.jsonl"))]

        assert records(a) == records(b)

    def test_seed_override_changes_artifact(self, tmp_path):
        # [train] seed is the one seed source; train has no --seed option
        ckpts = []
        for seed in ("5", "6"):
            path = tmp_path / f"seed{seed}.cfg"
            path.write_text(GOOD.replace("seed = 1\n", f"seed = {seed}\n"))
            out = train_once(str(path), tmp_path, f"s{seed}")
            ckpts.append(open(os.path.join(out, "checkpoint.haj"), "rb").read())
        assert ckpts[0] != ckpts[1]

    def test_train_has_no_seed_option(self, cfg_path, tmp_path, capsys):
        assert main(["train", cfg_path, "--out", str(tmp_path / "out"), "--seed", "5"]) == EXIT_CONFIG
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exit_code_and_message(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD.replace("lr = 0.002", "lrn = 0.002"))
        assert main(["train", str(path)]) == EXIT_CONFIG
        assert "'lrn'" in capsys.readouterr().err

    @pytest.mark.parametrize("error", package_error_classes() + [OSError], ids=lambda cls: cls.__name__)
    def test_error_class_exit_code(self, error, cfg_path, tmp_path, capsys, monkeypatch):
        # a real run rarely reaches some of these (normalization and tanh keep
        # the loss bounded), so inject each one to exercise the exit-code mapping
        assert set(package_error_classes()) == {ConfigError, NumericAbortError, CorruptArtifactError}

        def fail(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(cli, "train", fail)
        code, prefix = EXIT_OF_ERROR[error]
        assert main(["train", cfg_path, "--out", str(tmp_path / "x")]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"{prefix}: injected failure") and "Traceback" not in err


class TestSweepCommand:
    def test_writes_csv_with_expected_grid(self, cfg_path, tmp_path, capsys):
        out = train_once(cfg_path, tmp_path)
        ckpt = os.path.join(out, "checkpoint.haj")
        csv = str(tmp_path / "sweep.csv")
        assert main(["sweep", ckpt, "--snr-grid", "0:20:2", "--csv", csv]) == EXIT_OK
        lines = open(csv).read().strip().splitlines()
        assert lines[0] == "snr_db,metric,mean,std,n"
        assert len(lines) == 1 + 11  # 0:20:2 inclusive
        assert "11 SNR points" in capsys.readouterr().out

    def test_sweep_deterministic_csv(self, cfg_path, tmp_path):
        out = train_once(cfg_path, tmp_path)
        ckpt = os.path.join(out, "checkpoint.haj")
        c1, c2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["sweep", ckpt, "--seeds", "0,1", "--csv", c1]) == EXIT_OK
        assert main(["sweep", ckpt, "--seeds", "0,1", "--csv", c2]) == EXIT_OK
        assert open(c1, "rb").read() == open(c2, "rb").read()

    def test_svg_output(self, cfg_path, tmp_path):
        out = train_once(cfg_path, tmp_path)
        ckpt = os.path.join(out, "checkpoint.haj")
        svg = str(tmp_path / "chart.svg")
        assert main(["sweep", ckpt, "--csv", str(tmp_path / "s.csv"), "--svg", svg]) == EXIT_OK
        assert "<svg" in open(svg).read()

    def test_negative_grid_in_either_form(self, cfg_path, tmp_path):
        # a value after the flag may start with '-': both forms give the same sweep
        ckpt = os.path.join(train_once(cfg_path, tmp_path), "checkpoint.haj")
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["sweep", ckpt, "--snr-grid", "-4:10:2", "--seeds", "1,0", "--csv", a]) == EXIT_OK
        assert main(["sweep", ckpt, "--snr-grid=-4:10:2", "--seeds=1,0", "--csv", b]) == EXIT_OK
        lines = open(a).read().splitlines()
        assert open(a, "rb").read() == open(b, "rb").read()
        assert [line.split(",")[0] for line in lines[1:]] == [f"{float(s):g}" for s in range(-4, 11, 2)]

    @pytest.mark.parametrize(
        "flag,value",
        [("--snr-grid", "a,b"), ("--snr-grid", "0:x:2"), ("--snr-grid", ""), ("--snr-grid", "10,5"),
         ("--seeds", "x"), ("--seeds", "")],
    )
    def test_bad_grid_or_seeds_exit_code(self, cfg_path, tmp_path, capsys, flag, value):
        ckpt = os.path.join(train_once(cfg_path, tmp_path), "checkpoint.haj")
        csv = str(tmp_path / "s.csv")
        assert main(["sweep", ckpt, flag, value, "--csv", csv]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not os.path.exists(csv)

    def test_corrupt_checkpoint_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.haj"
        path.write_bytes(b"HAJ1" + b"\xff" * 20)
        assert main(["sweep", str(path)]) == EXIT_CORRUPT
        assert "artifact error" in capsys.readouterr().err


def _malformed_cifar(tmp_path):
    cifar = tmp_path / "cifar"
    cifar.mkdir()
    (cifar / "data_batch_1.bin").write_bytes(bytes(3000))  # not a 3073-byte record
    path = tmp_path / "cifar.cfg"
    path.write_text(GOOD.replace("kind = synthetic-recon", f"kind = cifar10\ncifar_dir = {cifar}"))
    return ["train", str(path), "--out", str(tmp_path / "out")]


def _all_zero_symbols(tmp_path):
    # one relu unit feeds the last encoder layer, whose bias starts at 0: a sample
    # whose unit is off gets an all-zero symbol row in the first batch
    path = tmp_path / "zero.cfg"
    path.write_text(
        GOOD.replace("bandwidth = 4", "bandwidth = 1")
        .replace("dense o32 relu hyper | dense o8 linear hyper", "dense o1 relu hyper | dense o2 linear hyper")
    )
    return ["train", str(path), "--out", str(tmp_path / "out")]


def _omega_map_mismatch(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD)
    ckpt = os.path.join(train_once(str(path), tmp_path), "checkpoint.haj")
    overwrite_omega_map(ckpt, 7.0, 3.0)
    return ["sweep", ckpt, "--csv", str(tmp_path / "s.csv")]


def _unparsable_embedded_config(tmp_path):
    cfg = parse_run_config(GOOD)
    ckpt = str(tmp_path / "m.haj")
    save_checkpoint(ckpt, build_model(cfg.model, seed=0), GOOD.replace("bandwidth = 4", "bandwidth = 5"))
    return ["sweep", ckpt, "--csv", str(tmp_path / "s.csv")]


def _nan_tensor(tmp_path):
    cfg = parse_run_config(GOOD)
    ckpt = str(tmp_path / "m.haj")
    save_checkpoint(ckpt, build_model(cfg.model, seed=0), GOOD)
    overwrite_last_value(ckpt, float("nan"))
    return ["sweep", ckpt, "--csv", str(tmp_path / "s.csv")]


def _flipped_tensor_bit(tmp_path):
    cfg = parse_run_config(DEFAULT_RECON)
    ckpt = str(tmp_path / "m.haj")
    save_checkpoint(ckpt, build_model(cfg.model, seed=0), DEFAULT_RECON)
    blob = bytearray(open(ckpt, "rb").read())
    blob[-32 - 100] ^= 0x40  # a dec.3.C0 weight, 100 bytes before the file digest
    open(ckpt, "wb").write(bytes(blob))
    return ["sweep", ckpt, "--csv", str(tmp_path / "s.csv")]


def _version_1(tmp_path):
    cfg = parse_run_config(GOOD)
    ckpt = str(tmp_path / "m.haj")
    save_checkpoint(ckpt, build_model(cfg.model, seed=0), GOOD)
    as_version_1(ckpt)
    return ["sweep", ckpt, "--csv", str(tmp_path / "s.csv")]


def _empty_cifar_test_batch(tmp_path):
    # 0 bytes is a whole number of records; the sweep would divide by the 0 images
    cifar = tmp_path / "cifar"
    cifar.mkdir()
    write_fake_cifar(cifar, n_per_file=1)
    (cifar / "test_batch.bin").write_bytes(b"")
    text = (
        GOOD.replace("1x8x8", "3x32x32")
        .replace("dense o64 tanh", "dense o3072 tanh")
        .replace("kind = synthetic-recon", f"kind = cifar10\ncifar_dir = {cifar}")
    )
    cfg = parse_run_config(text)
    ckpt = str(tmp_path / "m.haj")
    save_checkpoint(ckpt, build_model(cfg.model, seed=0), text)
    return ["sweep", ckpt, "--csv", str(tmp_path / "s.csv")]


def _sweep_below_snr_floor(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD)
    ckpt = os.path.join(train_once(str(path), tmp_path), "checkpoint.haj")
    return ["sweep", ckpt, "--snr-grid", "-4000,0", "--csv", str(tmp_path / "s.csv")]


with open(os.path.join(CONFIGS, "default_class.cfg")) as fh:
    DEFAULT_CLASS = fh.read()
with open(os.path.join(CONFIGS, "default_recon.cfg")) as fh:
    DEFAULT_RECON = fh.read()


def _edited_good(old, new, text=GOOD):
    """argv that trains `text` (GOOD by default) with `old` replaced by `new`."""
    assert old in text

    def make_argv(tmp_path):
        path = tmp_path / "edited.cfg"
        path.write_text(text.replace(old, new))
        return ["train", str(path), "--out", str(tmp_path / "out")]

    return make_argv


def _binary_config(tmp_path):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"\xff\xfe\x00 not text")
    return ["count-params", str(path)]


@pytest.mark.parametrize(
    "make_argv,code,prefix",
    [
        (lambda tmp_path: ["sweep", str(tmp_path)], EXIT_CONFIG, "config error"),
        (lambda tmp_path: ["count-params", str(tmp_path)], EXIT_CONFIG, "config error"),
        (_malformed_cifar, EXIT_CORRUPT, "artifact error"),
        (_all_zero_symbols, EXIT_NUMERIC, "numeric abort"),
        (_omega_map_mismatch, EXIT_CORRUPT, "artifact error"),
        (_edited_good("kind = synthetic-class", "kind = synthetic-recon", DEFAULT_CLASS), EXIT_CONFIG, "config error"),
        (_unparsable_embedded_config, EXIT_CORRUPT, "artifact error"),
        (_nan_tensor, EXIT_CORRUPT, "artifact error"),
        (_flipped_tensor_bit, EXIT_CORRUPT, "artifact error"),
        (_version_1, EXIT_CORRUPT, "artifact error"),
        (_binary_config, EXIT_CONFIG, "config error"),
        (_edited_good("seed = 0\n", "seed = -1\n"), EXIT_CONFIG, "config error"),
        (_edited_good("seed = 1\n", "seed = -1\n"), EXIT_CONFIG, "config error"),
        (lambda tmp_path: ["gradcheck", "--seed", "-1"], EXIT_CONFIG, "config error"),
        (_edited_good("lr = 0.002", "lr = nan"), EXIT_CONFIG, "config error"),
        (_edited_good("lr = 0.002", "lr = inf"), EXIT_CONFIG, "config error"),
        (_edited_good("uniform 0 20", "fixed nan"), EXIT_CONFIG, "config error"),
        (_sweep_below_snr_floor, EXIT_CONFIG, "config error"),
        (_edited_good("uniform 0 20", "uniform -4000 0"), EXIT_CONFIG, "config error"),
        (_edited_good("input_shape = 1x8x8", "input_shape = 8x8"), EXIT_CONFIG, "config error"),
        (_edited_good("input_shape = 1x8x8", "input_shape = 1x1x8x8"), EXIT_CONFIG, "config error"),
        (_edited_good("epochs = 2", "epochs = 2\nval_every = -1"), EXIT_CONFIG, "config error"),
        (_edited_good("dense o2 softmax hyper", "dense o2 linear hyper", DEFAULT_CLASS), EXIT_CONFIG, "config error"),
        (_empty_cifar_test_batch, EXIT_CORRUPT, "artifact error"),
        (_edited_good("dense o8 linear hyper", "dense o8 linear hyper hyper"), EXIT_CONFIG, "config error"),
        (_edited_good("deconv o16 u2 k3 p1", "deconv o16 u2 s2 k3 p1", DEFAULT_RECON), EXIT_CONFIG, "config error"),
        (_edited_good("resblock o16 k3", "resblock o16 k2", DEFAULT_CLASS), EXIT_CONFIG, "config error"),
        (_edited_good("dense o8 linear hyper", "dense o8 relu hyper"), EXIT_CONFIG, "config error"),
        (
            _edited_good("deconv o16 u2 k3 p1 relu", "deconv o16 u2 k3 p1 softmax", DEFAULT_RECON),
            EXIT_CONFIG, "config error",
        ),
        (
            _edited_good(
                "bandwidth = 4\nencoder = flatten | dense o32 relu hyper | dense o8 linear hyper",
                "bandwidth = 8\nencoder = conv o1 k2 s2 p0 linear hyper | flatten",
            ),
            EXIT_CONFIG, "config error",
        ),
    ],
    ids=[
        "sweep-directory", "count-params-directory", "malformed-cifar", "all-zero-symbols", "omega-map-mismatch",
        "classification-on-recon-data", "unparsable-embedded-config", "nan-tensor", "flipped-tensor-bit",
        "version-1",
        "binary-config",
        "data-seed-negative", "train-seed-negative", "gradcheck-seed-negative", "lr-nan", "lr-inf", "prior-fixed-nan",
        "snr-grid-below-floor", "prior-below-floor", "input-shape-2d", "input-shape-4d", "val-every-negative",
        "classifier-without-softmax", "empty-cifar-test-batch", "layer-token-twice",
        "deconv-stride", "resblock-even-kernel", "relu-last-encoder-layer", "softmax-deconv",
        "one-channel-hyper-last-encoder-layer",
    ],
)
def test_bad_input_exit_code(make_argv, code, prefix, tmp_path, capsys):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "Traceback" not in err


class TestCountParamsCommand:
    def test_from_config(self, cfg_path, capsys):
        assert main(["count-params", cfg_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "introduced" in out and "ratio" in out

    def test_from_checkpoint(self, cfg_path, tmp_path, capsys):
        out_dir = train_once(cfg_path, tmp_path)
        assert main(["count-params", os.path.join(out_dir, "checkpoint.haj")]) == EXIT_OK
        assert "storage at 32-bit" in capsys.readouterr().out


class TestGradcheckCommand:
    def test_tiny_suite_passes(self, capsys):
        assert main(["gradcheck", "--size", "tiny"]) == EXIT_OK
        assert "all" in capsys.readouterr().out

    def test_fault_injection_detected(self, capsys, monkeypatch):
        # corrupt one backward rule and confirm the suite notices
        from hyperajscc import tensor as T

        real_tanh = T.tanh

        def broken_tanh(x):
            out = np.tanh(x.data)
            return T._make(out, (x,), lambda g: [(x, g * (1.0 - 0.9 * out * out))])

        monkeypatch.setattr(T, "tanh", broken_tanh)
        try:
            assert main(["gradcheck", "--size", "tiny"]) == EXIT_GRADCHECK
        finally:
            monkeypatch.setattr(T, "tanh", real_tanh)
        assert "FAIL" in capsys.readouterr().out
