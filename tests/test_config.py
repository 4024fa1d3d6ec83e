import os
from dataclasses import MISSING, fields

import pytest

from hyperajscc.config import RunConfig, load_datasets, parse_run_config, parse_seeds, parse_snr_grid
from hyperajscc.errors import ConfigError
from hyperajscc.models import ModelConfig
from hyperajscc.training import TrainConfig

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

GOOD = """\
[model]
task = reconstruction
input_shape = 1x8x8
bandwidth = 4
encoder = flatten | dense o32 relu hyper | dense o8 linear hyper
decoder = dense o32 relu hyper | dense o64 tanh hyper

[data]
kind = synthetic-recon
n_train = 32
n_val = 16
seed = 0

[train]
epochs = 2
batch_size = 8
lr = 0.002
prior = uniform 0 20
seed = 1

[eval]
snr_grid = 0:20:10
seeds = 0,1
"""


class TestParseRunConfig:
    def test_good_config_round_values(self):
        cfg = parse_run_config(GOOD)
        assert cfg.model.bandwidth == 4
        assert cfg.model.input_shape == (1, 8, 8)
        assert [l.kind for l in cfg.model.encoder] == ["flatten", "dense", "dense"]
        assert cfg.model.encoder[1].out == 32 and cfg.model.encoder[1].hyper
        assert cfg.train.epochs == 2 and cfg.train.lr == 0.002
        assert cfg.train.prior == (0.0, 20.0)
        assert cfg.snr_grid == (0.0, 10.0, 20.0)
        assert cfg.eval_seeds == (0, 1)

    def test_unknown_section_names_line(self):
        bad = GOOD + "\n[plotting]\ncolor = red\n"
        with pytest.raises(ConfigError, match=r"line \d+: unknown section"):
            parse_run_config(bad)

    def test_unknown_key_names_line_and_key(self):
        bad = GOOD.replace("lr = 0.002", "learning_rate = 0.002")
        with pytest.raises(ConfigError, match="'learning_rate'"):
            parse_run_config(bad)

    def test_duplicate_key_rejected(self):
        bad = GOOD.replace("epochs = 2", "epochs = 2\nepochs = 3")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_run_config(bad)

    def test_missing_encoder_rejected(self):
        bad = GOOD.replace("encoder = flatten | dense o32 relu hyper | dense o8 linear hyper\n", "")
        with pytest.raises(ConfigError, match="encoder"):
            parse_run_config(bad)

    @pytest.mark.parametrize(
        "layer,token",
        [
            ("dense o32 q7 relu hyper", "q7"),
            ("dense o32 k5 relu hyper", "k5"),
            ("dense o32 s3 relu hyper", "s3"),
            ("dense o32 p2 relu hyper", "p2"),
            ("dense o32 u4 relu hyper", "u4"),
            ("reshape 32x1x1 | conv o32 k1 s1 p0 u2 relu hyper | flatten", "u2"),
            ("reshape 32x1x1 | resblock o32 k1 s1 relu hyper | flatten", "s1"),
            ("reshape 32x1x1 | resblock o32 k1 p0 relu hyper | flatten", "p0"),
            ("reshape 32x1x1 | resblock o32 k1 u1 relu hyper | flatten", "u1"),
            ("flatten relu", "relu"),
            ("dense o32 o16 relu hyper", "o16"),
            ("reshape 32x1x1 | conv o32 k3 s1 p1 k1 relu hyper | flatten", "k1"),
            ("dense o32 relu tanh hyper", "tanh"),
            ("dense o32 relu hyper hyper", "hyper"),
            ("reshape 32x1x1 | deconv o16 u2 s2 k3 p1 relu hyper | flatten", "s2"),
            ("reshape 4x4x4 | resblock o1 k2 relu hyper | flatten", r"encoder\[2\] \(resblock\).*k2"),
        ],
        ids=["dense-q7", "dense-k5", "dense-s3", "dense-p2", "dense-u4", "conv-u2",
             "resblock-s1", "resblock-p0", "resblock-u1", "flatten-relu",
             "dense-o-twice", "conv-k-twice", "second-activation", "hyper-twice", "deconv-s2",
             "resblock-even-kernel"],
    )
    def test_bad_layer_token(self, layer, token):
        bad = GOOD.replace("dense o32 relu hyper", layer, 1)
        with pytest.raises(ConfigError, match=token):
            parse_run_config(bad)

    @pytest.mark.parametrize("token", ["k0", "s0", "u0"])
    def test_non_positive_layer_number_rejected(self, token):
        layer = f"reshape 64x1x1 | {'deconv' if token == 'u0' else 'conv'} o32 {token} relu hyper | flatten"
        with pytest.raises(ConfigError, match="must be positive"):
            parse_run_config(GOOD.replace("dense o32 relu hyper", layer, 1))

    @pytest.mark.parametrize("shape", ["0x8x8", "1x-8x8", "-1x-8x8"])
    def test_non_positive_input_shape_rejected(self, shape):
        with pytest.raises(ConfigError, match="positive"):
            parse_run_config(GOOD.replace("input_shape = 1x8x8", f"input_shape = {shape}"))

    @pytest.mark.parametrize("key", ["task", "input_shape", "bandwidth", "decoder"])
    def test_missing_required_model_key_named(self, key):
        text = "\n".join(line for line in GOOD.splitlines() if not line.startswith(key + " ="))
        with pytest.raises(ConfigError, match=f"must define {key}"):
            parse_run_config(text)

    @pytest.mark.parametrize("line", ["loss = mse", "beta1 = 0.9", "beta2 = 0.999", "eps = 1e-8"])
    def test_fixed_training_constants_are_not_keys(self, line):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_run_config(GOOD.replace("seed = 1\n", f"seed = 1\n{line}\n"))

    def test_left_out_keys_keep_dataclass_defaults(self):
        model_only = GOOD.split("[data]")[0]
        cfg = parse_run_config(model_only)
        assert cfg.train == TrainConfig()
        for obj, cls in ((cfg, RunConfig), (cfg.model, ModelConfig)):
            for f in fields(cls):
                if f.default is not MISSING and f.name != "text":
                    assert getattr(obj, f.name) == f.default, f.name

    def test_data_kind_follows_task(self):
        assert parse_run_config(GOOD.replace("kind = synthetic-recon\n", "")).data_kind == "synthetic-recon"
        with open(os.path.join(CONFIGS, "default_class.cfg")) as fh:
            text = fh.read()
        assert parse_run_config(text.replace("kind = synthetic-class\n", "")).data_kind == "synthetic-class"

    @pytest.mark.parametrize("kind", ["synthetic-class", "synthetic", "imagenet"])
    def test_data_kind_must_fit_task(self, kind):
        with pytest.raises(ConfigError, match="data kind"):
            parse_run_config(GOOD.replace("kind = synthetic-recon", f"kind = {kind}"))

    def test_width_mismatch_fails_validation(self):
        bad = GOOD.replace("dense o8 linear", "dense o9 linear")
        with pytest.raises(ConfigError):
            parse_run_config(bad)

    @pytest.mark.parametrize(
        "encoder,where",
        [
            ("flatten | dense o32 relu hyper | dense o8 relu hyper", r"encoder\[2\] \(dense\)"),
            ("conv o2 k4 s4 p0 relu hyper | flatten", r"encoder\[0\] \(conv\)"),
            ("conv o2 k4 s4 p0 linear | resblock o2 k1 relu hyper | flatten", r"encoder\[1\] \(resblock\)"),
        ],
        ids=["dense", "conv-then-flatten", "resblock"],
    )
    def test_relu_as_the_last_encoder_activation_rejected(self, encoder, where):
        # a relu can zero a whole symbol row, and power normalization cannot scale it
        text = GOOD.replace("flatten | dense o32 relu hyper | dense o8 linear hyper", encoder)
        with pytest.raises(ConfigError, match=where + ".*relu"):
            parse_run_config(text)

    @pytest.mark.parametrize(
        "encoder,where",
        [
            ("conv o1 k2 s2 p0 linear hyper | flatten", r"encoder\[0\] \(conv\)"),
            ("conv o1 k4 s4 p0 tanh | deconv o1 u2 k3 p1 linear hyper | flatten", r"encoder\[1\] \(deconv\)"),
            ("conv o1 k2 s2 p0 tanh hyper | flatten", None),
            ("conv o1 k2 s2 p0 linear | flatten", None),
            ("conv o4 k4 s4 p0 linear hyper | flatten", None),
            ("conv o1 k2 s2 p0 tanh | resblock o1 k3 linear hyper | flatten", None),
        ],
        ids=["conv", "deconv", "tanh-kept", "no-scale-kept", "four-channels-kept", "resblock-kept"],
    )
    def test_one_channel_linear_hyper_last_encoder_layer_rejected(self, encoder, where):
        # its s is one scalar per sample, which power normalization divides out, so nu and c never learn
        text = GOOD.replace("bandwidth = 4", "bandwidth = 8")
        text = text.replace("flatten | dense o32 relu hyper | dense o8 linear hyper", encoder)
        if where is None:
            parse_run_config(text)
        else:
            with pytest.raises(ConfigError, match=where + ".*one channel"):
                parse_run_config(text)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_run_config("# leading comment\n\n" + GOOD)
        assert cfg.model.bandwidth == 4

    def test_bad_prior(self):
        bad = GOOD.replace("uniform 0 20", "uniform 20")
        with pytest.raises(ConfigError, match="prior"):
            parse_run_config(bad)

    @pytest.mark.parametrize(
        "value,pair", [("uniform 4 9", (4.0, 9.0)), ("fixed 13", (13.0, 13.0)), ("uniform -100 0", (-100.0, 0.0))]
    )
    def test_prior_is_a_range(self, value, pair):
        assert parse_run_config(GOOD.replace("uniform 0 20", value)).train.prior == pair

    @pytest.mark.parametrize(
        "value",
        [
            "discrete 5:0.5 10:0.5", "discrete 5:-1 10:2", "fixed nan", "uniform 20 0", "uniform 0 inf", "fixed",
            "uniform -4000 0", "fixed -100.5",
        ],
    )
    def test_unusable_prior_rejected(self, value):
        with pytest.raises(ConfigError, match="prior"):
            parse_run_config(GOOD.replace("uniform 0 20", value))

    @pytest.mark.parametrize(
        "old,new,reason",
        [
            ("seed = 1\n", "seed = 1\nval_grid = 10,5\n", "'val_grid': .*strictly increasing"),
            ("seeds = 0,1", "seeds = -1", "'seeds': .*non-negative"),
            ("seed = 0\n", "seed = -1\n", "'seed': .*non-negative"),
            ("seed = 1\n", "seed = -1\n", "'seed': .*non-negative"),
            ("uniform 0 20", "uniform 20", "'prior': .*expected 'uniform LO HI' or 'fixed V'$"),
        ],
        ids=["val_grid", "seeds", "data-seed", "train-seed", "prior"],
    )
    def test_value_parser_reason_is_reported(self, old, new, reason):
        with pytest.raises(ConfigError, match=reason):
            parse_run_config(GOOD.replace(old, new))


class TestParseSnrGrid:
    def test_range_form_inclusive(self):
        assert parse_snr_grid("0:20:2") == tuple(float(s) for s in range(0, 21, 2))

    def test_range_length(self):
        assert len(parse_snr_grid("0:20:2")) == 11

    @pytest.mark.parametrize(
        "value,n_points,last",
        [
            ("0:20:3", 7, 18.0), ("-4:10:2.5", 6, 8.5), ("0:0.3:0.1", 4, 0.3), ("0:20:2", 11, 20.0),
            ("0:999.6:1", 1000, 999.0),
        ],
    )
    def test_range_stops_at_or_below_hi(self, value, n_points, last):
        # an inclusive range ends at the last point at or below hi
        grid = parse_snr_grid(value)
        assert len(grid) == n_points and grid[-1] == pytest.approx(last, abs=1e-12)

    def test_comma_form(self):
        assert parse_snr_grid("1,7,19") == (1.0, 7.0, 19.0)

    def test_bad_step(self):
        with pytest.raises(ConfigError):
            parse_snr_grid("0:20:0")

    def test_reversed_range(self):
        with pytest.raises(ConfigError):
            parse_snr_grid("20:0:2")

    @pytest.mark.parametrize(
        "value", ["a,b", "0:x:2", "", "1,,2", "0:20", "10,5", "1,1", "nan,1", "0:inf:2", "1e16:1.0000000000000002e16:1"]
    )
    def test_malformed_or_non_increasing_rejected(self, value):
        with pytest.raises(ConfigError):
            parse_snr_grid(value)

    @pytest.mark.parametrize("value", ["0:1000:1", "0:999.9999999:1", "0:1e308:1e-308", ",".join(map(str, range(1001)))])
    def test_more_than_1000_points_rejected(self, value):
        with pytest.raises(ConfigError, match="more than 1000 points"):
            parse_snr_grid(value)

    @pytest.mark.parametrize("value", ["-100.5,0", "-200:0:10", "-1.1073628059927948e+16,-3,6"])
    def test_snr_below_floor_rejected(self, value):
        with pytest.raises(ConfigError, match="below -100 dB"):
            parse_snr_grid(value)

    def test_snr_at_floor_accepted(self):
        assert parse_snr_grid("-100:0:50") == (-100.0, -50.0, 0.0)

    def test_1000_points_accepted(self):
        assert len(parse_snr_grid("0:999:1")) == len(parse_snr_grid(",".join(map(str, range(1000))))) == 1000

    def test_non_increasing_val_grid_fails_at_parse_time(self):
        with pytest.raises(ConfigError, match="val_grid"):
            parse_run_config(GOOD.replace("seed = 1\n", "seed = 1\nval_grid = 10,5\n"))


class TestParseSeeds:
    def test_comma_list(self):
        assert parse_seeds("0,1,7") == (0, 1, 7)

    @pytest.mark.parametrize("value", ["x", "", "1,", "1.5", "-1"])
    def test_malformed_rejected(self, value):
        with pytest.raises(ConfigError):
            parse_seeds(value)


def test_val_every_default_comes_from_train_config():
    assert TrainConfig().val_every == 0
    assert parse_run_config(GOOD).train.val_every == TrainConfig().val_every


class TestLoadDatasets:
    def test_synthetic_recon_sizes(self):
        cfg = parse_run_config(GOOD)
        train, val = load_datasets(cfg)
        assert train.samples.shape == (32, 1, 8, 8)
        assert val.samples.shape == (16, 1, 8, 8)
        assert train.labels is None

    def test_val_uses_different_seed(self):
        import numpy as np

        cfg = parse_run_config(GOOD)
        train, val = load_datasets(cfg)
        assert not np.array_equal(train.samples[:16], val.samples)
