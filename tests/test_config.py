import pytest

from hyperajscc.config import (
    ConfigError,
    load_datasets,
    parse_run_config,
    parse_seeds,
    parse_snr_grid,
)
from hyperajscc.training import TrainConfig

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
        assert cfg.train.prior.kind == "uniform"
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

    def test_bad_layer_token(self):
        bad = GOOD.replace("dense o32 relu", "dense o32 q7 relu")
        with pytest.raises(ConfigError, match="q7"):
            parse_run_config(bad)

    def test_width_mismatch_fails_validation(self):
        bad = GOOD.replace("dense o8 linear", "dense o9 linear")
        with pytest.raises(ConfigError):
            parse_run_config(bad)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_run_config("# leading comment\n\n" + GOOD)
        assert cfg.model.bandwidth == 4

    def test_bad_prior(self):
        bad = GOOD.replace("uniform 0 20", "uniform 20")
        with pytest.raises(ConfigError, match="prior"):
            parse_run_config(bad)

    @pytest.mark.parametrize(
        "old,new,reason",
        [
            ("seed = 1\n", "seed = 1\nval_grid = 10,5\n", "'val_grid': .*strictly increasing"),
            ("seeds = 0,1", "seeds = -1", "'seeds': .*non-negative"),
            ("uniform 0 20", "uniform 20", "'prior': .*expected 'uniform LO HI', 'fixed V' or 'discrete v:w ...'"),
        ],
        ids=["val_grid", "seeds", "prior"],
    )
    def test_value_parser_reason_is_reported(self, old, new, reason):
        with pytest.raises(ConfigError, match=reason):
            parse_run_config(GOOD.replace(old, new))


class TestParseSnrGrid:
    def test_range_form_inclusive(self):
        assert parse_snr_grid("0:20:2") == tuple(float(s) for s in range(0, 21, 2))

    def test_range_length(self):
        assert len(parse_snr_grid("0:20:2")) == 11

    def test_comma_form(self):
        assert parse_snr_grid("1,7,19") == (1.0, 7.0, 19.0)

    def test_bad_step(self):
        with pytest.raises(ConfigError):
            parse_snr_grid("0:20:0")

    def test_reversed_range(self):
        with pytest.raises(ConfigError):
            parse_snr_grid("20:0:2")

    @pytest.mark.parametrize("value", ["a,b", "0:x:2", "", "1,,2", "0:20", "10,5", "1,1", "nan,1", "0:inf:2"])
    def test_malformed_or_non_increasing_rejected(self, value):
        with pytest.raises(ConfigError):
            parse_snr_grid(value)

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
