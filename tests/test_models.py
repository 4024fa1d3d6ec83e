import hashlib
import os

import numpy as np
import pytest

from hyperajscc.channel import awgn_transmit
from hyperajscc.config import parse_run_config
from hyperajscc.models import (
    LayerSpec,
    ModelConfig,
    build_model,
    compression_ratio,
    count_params,
    decode,
    encode,
    forward_pipeline,
)
from hyperajscc.errors import ConfigError
from hyperajscc.tensor import Tensor

from test_config import CONFIGS


def shipped_model_config(name, hyper=True):
    """[model] of configs/<name>.cfg; hyper=False drops every ` hyper` token (the fixed-SNR baseline)."""
    with open(os.path.join(CONFIGS, name + ".cfg")) as fh:
        text = fh.read()
    return parse_run_config(text if hyper else text.replace(" hyper", "")).model


def toy_dense_config(hyper=True):
    # dense 64 -> 32 -> 2d=8, mirrored decoder
    return ModelConfig(
        task="reconstruction",
        input_shape=(1, 8, 8),
        bandwidth=4,
        encoder=[
            LayerSpec("flatten"),
            LayerSpec("dense", out=32, act="relu", hyper=hyper),
            LayerSpec("dense", out=8, act="linear", hyper=hyper),
        ],
        decoder=[
            LayerSpec("dense", out=32, act="relu", hyper=hyper),
            LayerSpec("dense", out=64, act="tanh", hyper=hyper),
        ],
    )


def rand_x(config, batch=4, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(-0.9, 0.9, (batch,) + tuple(config.input_shape)))


class TestBuildModel:
    def test_toy_config_param_hand_count(self):
        model = build_model(toy_dense_config(), 0)
        report = count_params(model)
        # dense base: 64*32+32, 32*8+8, 8*32+32, 32*64+64
        assert report["total_base"] == (64 * 32 + 32) + (32 * 8 + 8) + (8 * 32 + 32) + (32 * 64 + 64)
        assert report["total_introduced"] == 2 * (32 + 8 + 32 + 64)
        assert report["per_layer"][0] == ("enc.0", "flatten", 0, 0)
        assert report["per_layer"][1] == ("enc.1", "dense", 64 * 32 + 32, 2 * 32)

    def test_same_seed_bit_identical(self):
        a = build_model(toy_dense_config(), 5)
        b = build_model(toy_dense_config(), 5)
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb and np.array_equal(ta.data, tb.data)

    def test_classification_head_width_enforced(self):
        cfg = shipped_model_config("default_class")
        cfg.decoder[-1].out = 5
        with pytest.raises(ConfigError, match="num_classes"):
            build_model(cfg, 0)

    def test_inconsistent_widths_name_the_layer(self):
        cfg = toy_dense_config()
        cfg.encoder[2].out = 9  # encoder width != 2d
        with pytest.raises(ConfigError, match="2\\*d"):
            build_model(cfg, 0)

    # sha256 prefix of the concatenated named_parameters() bytes at seeds 0, 1 and 7: this pins
    # every initial draw and its order, the default_class resblock's conv1-then-conv2 included
    INIT_SHA256 = {
        ("default_recon", True): ("02db8b2de9b6", "6bc03396aa43", "79bca40d9bbd"),
        ("default_recon", False): ("384a6f6d3462", "120239989cfb", "2524de69c197"),
        ("default_class", True): ("e833b914cd66", "d538620865df", "07e17845e515"),
        ("default_class", False): ("ca62fe98ea45", "2f3a0e644010", "51dc62635c12"),
        ("tiny_recon", True): ("50fb77a3c8e4", "cac3be6857ba", "b1c834e1392d"),
        ("tiny_recon", False): ("3a770d82fbf5", "c161101d200a", "0644f55ecf9a"),
    }

    @pytest.mark.parametrize("name,hyper", list(INIT_SHA256))
    def test_initial_parameters_pinned(self, name, hyper):
        digests = []
        for seed in (0, 1, 7):
            h = hashlib.sha256()
            for _, t in build_model(shipped_model_config(name, hyper), seed).named_parameters():
                h.update(t.data.tobytes())
            digests.append(h.hexdigest()[:12])
        assert tuple(digests) == self.INIT_SHA256[name, hyper]


class TestEncode:
    def test_unit_output_power(self):
        model = build_model(toy_dense_config(), 0)
        sym = encode(model, rand_x(model.config), 10.0)
        power = (sym.values.data**2).sum(axis=1) / sym.d
        np.testing.assert_allclose(power, 1.0, atol=1e-9)

    def test_hyper_off_is_omega_invariant(self):
        model = build_model(toy_dense_config(hyper=False), 0)
        x = rand_x(model.config)
        a = encode(model, x, 0.0).values.data
        b = encode(model, x, 20.0).values.data
        assert np.array_equal(a, b)

    def test_nonzero_nu_changes_encoding(self):
        model = build_model(toy_dense_config(), 0)
        rng = np.random.default_rng(1)
        for layer in model.encoder:
            if getattr(layer, "scale", None) is not None:
                layer.scale.nu.data = rng.uniform(0.1, 0.3, layer.scale.nu.shape[0])
        x = rand_x(model.config)
        assert not np.array_equal(encode(model, x, 0.0).values.data, encode(model, x, 20.0).values.data)


class TestDecode:
    def test_classification_rows_sum_to_one(self):
        model = build_model(shipped_model_config("default_class"), 0)
        z_hat = Tensor(np.random.default_rng(0).standard_normal((6, 2 * model.config.bandwidth)))
        out = decode(model, z_hat, 10.0)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_reconstruction_range_is_tanh(self):
        model = build_model(shipped_model_config("default_recon"), 0)
        z_hat = Tensor(np.random.default_rng(0).standard_normal((3, 2 * model.config.bandwidth)))
        out = decode(model, z_hat, 10.0)
        assert out.shape == (3,) + model.config.input_shape
        assert np.all(out.data >= -1.0) and np.all(out.data <= 1.0)

    def test_untrained_classifier_ce_near_ln_k(self):
        from hyperajscc.training import cross_entropy_loss

        model = build_model(shipped_model_config("default_class"), 0)
        x = rand_x(model.config, batch=32)
        out = forward_pipeline(model, x, 10.0, np.random.default_rng(0))
        labels = np.zeros(32, dtype=int)
        ce = float(cross_entropy_loss(out, labels).data)
        assert abs(ce - np.log(2)) < 0.5


class TestForwardPipeline:
    def test_capped_snr_is_noiseless(self):
        model = build_model(toy_dense_config(), 0)
        x = rand_x(model.config)
        out = forward_pipeline(model, x, 40.0, np.random.default_rng(0))
        direct = decode(model, Tensor(encode(model, x, 40.0).values.data), 40.0)
        assert np.array_equal(out.data, direct.data)

    @pytest.mark.parametrize("name", ["default_recon", "tiny_recon"])
    @pytest.mark.parametrize("per_sample", [False, True])
    def test_equals_its_three_public_steps_bit_for_bit(self, name, per_sample):
        """forward_pipeline maps the SNR once for both halves; encode and decode map it each."""
        model = build_model(shipped_model_config(name), 0)
        rng = np.random.default_rng(5)
        for _, t in model.named_parameters():
            t.data[...] += rng.normal(0.0, 0.2, t.data.shape)  # nu and c off identity, so omega matters
        x = rand_x(model.config, batch=5)
        omega = rng.uniform(0.0, 20.0, 5) if per_sample else 7.5
        out = forward_pipeline(model, x, omega, np.random.default_rng(3))
        steps = decode(model, awgn_transmit(encode(model, x, omega), omega, np.random.default_rng(3)), omega)
        assert np.array_equal(out.data, steps.data)

    def test_first_encoder_weight_gets_gradient(self):
        from hyperajscc.training import mse_loss

        model = build_model(toy_dense_config(), 0)
        x = rand_x(model.config)
        out = forward_pipeline(model, x, 10.0, np.random.default_rng(0))
        mse_loss(x, out).backward()
        first_w = model.encoder[1].base.w0
        assert np.abs(first_w.grad).max() > 0

    def test_same_seed_identical(self):
        model = build_model(toy_dense_config(), 0)
        x = rand_x(model.config)
        a = forward_pipeline(model, x, 6.0, np.random.default_rng(3))
        b = forward_pipeline(model, x, 6.0, np.random.default_rng(3))
        assert np.array_equal(a.data, b.data)

    def test_markov_factorization(self):
        # z_hat depends on x only through z: feeding identical z from
        # different x must give identical decodes
        model = build_model(toy_dense_config(), 0)
        z = Tensor(np.random.default_rng(0).standard_normal((2, 8)))
        a = decode(model, z, 9.0)
        b = decode(model, Tensor(z.data.copy()), 9.0)
        assert np.array_equal(a.data, b.data)


class TestAccounting:
    def test_hyper_off_introduces_nothing(self):
        model = build_model(shipped_model_config("default_recon", hyper=False), 0)
        assert count_params(model)["total_introduced"] == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_analytic_formula_on_random_configs(self, seed):
        rng = np.random.default_rng(seed)
        widths = [int(w) for w in rng.integers(2, 30, size=3)]
        d = int(rng.integers(1, 8))
        n_in = 16
        cfg = ModelConfig(
            task="reconstruction",
            input_shape=(1, 4, 4),
            bandwidth=d,
            encoder=[LayerSpec("flatten")]
            + [LayerSpec("dense", out=w, act="relu", hyper=True) for w in widths]
            + [LayerSpec("dense", out=2 * d, act="linear", hyper=True)],
            decoder=[LayerSpec("dense", out=n_in, act="tanh", hyper=True)],
        )
        model = build_model(cfg, seed)
        expected_intro = 2 * (sum(widths) + 2 * d + n_in)
        assert count_params(model)["total_introduced"] == expected_intro

    def test_bytes_at_32bit(self):
        model = build_model(toy_dense_config(), 0)
        r = count_params(model)
        assert r["bytes_at_32bit"] == 4 * (r["total_base"] + r["total_introduced"])


class TestCompressionRatio:
    def test_common_operating_points(self):
        cfg = toy_dense_config()
        cfg.input_shape = (3, 32, 32)
        assert compression_ratio(ModelConfig("reconstruction", (3, 32, 32), 256, [], [])) == pytest.approx(1 / 12)
        assert compression_ratio(ModelConfig("reconstruction", (3, 32, 32), 512, [], [])) == pytest.approx(1 / 6)

    def test_full_bandwidth(self):
        assert compression_ratio(ModelConfig("reconstruction", (1, 4, 4), 16, [], [])) == 1.0


class TestIdentityInitEquivalence:
    def test_fresh_hyper_model_is_omega_invariant(self):
        model = build_model(shipped_model_config("default_recon"), 3)
        x = rand_x(model.config, batch=2, seed=1)
        ref = encode(model, x, 0.0).values.data
        for om in (5.0, 10.0, 15.0, 20.0):
            assert np.array_equal(encode(model, x, om).values.data, ref)


def excite_scales(model, rng):
    """Move every layer's (nu, c) away from the identity init."""
    for layer in list(model.encoder) + list(model.decoder):
        if getattr(layer, "scale", None) is not None:
            n = layer.scale.nu.shape[0]
            layer.scale.nu.data = rng.uniform(-0.3, 0.3, n)
            layer.scale.c.data = rng.uniform(0.5, 1.5, n)


def scalar_and_per_sample(model, cfg, seed, om):
    """[(encode at om dB, encode at om dB per sample), the same for decode], for a batch of 5 drawn from seed."""
    x = rand_x(cfg, batch=5, seed=seed)
    z = Tensor(np.random.default_rng(seed).standard_normal((5, 2 * cfg.bandwidth)))
    return [
        (encode(model, x, om).values.data, encode(model, x, np.full(5, om)).values.data),
        (decode(model, z, om).data, decode(model, z, np.full(5, om)).data),
    ]


@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_scalar_omega_folds_into_the_weights_up_to_rounding(kind):
    # one SNR for the batch folds s into each layer's kernel and bias; one per sample scales the accumulator
    cfg = toy_dense_config() if kind == "dense" else shipped_model_config("default_recon")
    for seed in range(10, 20):
        model = build_model(cfg, seed)
        excite_scales(model, np.random.default_rng(seed))
        for om in (0.0, 7.3, 20.0):
            for folded, per_sample in scalar_and_per_sample(model, cfg, seed, om):
                assert np.abs(folded - per_sample).max() <= 1e-13 * np.abs(per_sample).max()


@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_scalar_omega_is_bit_equal_to_per_sample_omega_at_the_identity(kind):
    # at nu = 0, c = 1 the folded s is exactly 1, so k * s and b * s are k and b
    cfg = toy_dense_config() if kind == "dense" else shipped_model_config("default_recon")
    model = build_model(cfg, 10)
    rng = np.random.default_rng(10)
    for name, t in model.named_parameters():
        if name.endswith("b0"):
            t.data = rng.uniform(-0.3, 0.3, t.shape)
    for om in (0.0, 7.3, 20.0):
        for folded, per_sample in scalar_and_per_sample(model, cfg, 11, om):
            assert np.array_equal(folded, per_sample)


def test_range_midpoint_maps_to_zero_omega():
    # over 10..30 dB, 20 dB maps to omega_t = 0, so s = c whatever nu is
    cfg = toy_dense_config()
    cfg.omega_lo_db, cfg.omega_hi_db = 10.0, 30.0
    model = build_model(cfg, 4)
    excite_scales(model, np.random.default_rng(4))
    x = rand_x(cfg)
    excited = encode(model, x, 20.0).values.data
    assert not np.array_equal(encode(model, x, 10.0).values.data, excited)  # nu matters elsewhere
    for layer in model.encoder:
        if getattr(layer, "scale", None) is not None:
            layer.scale.nu.data = np.zeros(layer.scale.nu.shape[0])
    assert np.array_equal(encode(model, x, 20.0).values.data, excited)


def test_omega_saturates_at_the_top_of_the_range():
    # a better channel than omega_hi_db is coded as omega_hi_db; below the range the map stays linear
    cfg = toy_dense_config()
    model = build_model(cfg, 4)
    excite_scales(model, np.random.default_rng(4))
    x = rand_x(cfg)
    top = encode(model, x, cfg.omega_hi_db).values.data
    assert np.array_equal(encode(model, x, cfg.omega_hi_db + 40.0).values.data, top)
    bottom = encode(model, x, cfg.omega_lo_db).values.data
    assert not np.array_equal(encode(model, x, cfg.omega_lo_db - 10.0).values.data, bottom)


@pytest.mark.parametrize("kind", ["conv", "deconv", "resblock"])
def test_softmax_on_a_spatial_layer_is_refused(kind):
    # on NCHW data it would normalize each image row over W, not over the channels
    spec = LayerSpec(kind, out=2, padding=1, upsample=2 if kind == "deconv" else 1, act="softmax")
    cfg = ModelConfig("reconstruction", (1, 4, 4), 16, [spec], [])
    with pytest.raises(ConfigError, match=rf"^encoder\[0\] \({kind}\): softmax"):
        cfg.validate()
