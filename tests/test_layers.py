import numpy as np
import pytest

from hyperajscc import tensor as T
from hyperajscc.layers import Conv2dLayer, DenseLayer, HyperLayer, HyperScale
from hyperajscc.errors import ConfigError
from hyperajscc.models import HyperAJSCCModel, LayerSpec, ModelConfig, build_layer, count_params
from hyperajscc.tensor import Tensor, finite_diff_check


def scale_from(nu, c):
    return HyperScale(
        Tensor(np.asarray(nu, float), requires_grad=True),
        Tensor(np.asarray(c, float), requires_grad=True),
    )


def om_t(batch, snr_db):
    """The mapped condition a model passes its layers for a 0..20 dB range."""
    return np.full(batch, 0.1 * snr_db - 1.0)


def param_counts(spec, c_in, rng):
    """(base, introduced) of the one layer built from spec, as count_params reports it."""
    config = ModelConfig("reconstruction", (c_in, 1, 1), 1, [spec], [])
    model = HyperAJSCCModel([build_layer(spec, c_in, rng)], [], config)
    ((name, kind, base, introduced),) = count_params(model)["per_layer"]
    assert (name, kind) == ("enc.0", spec.kind)
    return base, introduced


class TestHyperScale:
    def test_identity_configuration(self):
        s = HyperScale.identity(4)
        np.testing.assert_array_equal(s.vector(0.1 * np.array([0.0, 7.3, 20.0]) - 1.0).data, np.ones((3, 4)))

    def test_arithmetic(self):
        # mapped omega = 2
        s = scale_from([1, -1], [0, 3])
        np.testing.assert_array_equal(s.vector(np.array([2.0])).data, [[2, 1]])

    def test_gradient_wrt_nu_is_mapped_omega(self):
        s = scale_from([0.5, 0.5], [1, 1])
        T.tsum(s.vector(np.array([2.0]))).backward()
        np.testing.assert_array_equal(s.nu.grad, [2, 2])

    def test_per_sample_vector(self):
        s = scale_from([1, 2], [0, 0])
        out = s.vector(np.array([1.0, 3.0]))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 6]])


class TestDenseForward:
    def test_scale_absent_is_plain_layer(self):
        rng = np.random.default_rng(0)
        layer = build_layer(LayerSpec("dense", out=2, act="tanh"), 3, rng)
        x = Tensor(rng.standard_normal((4, 3)))
        expected = np.tanh(x.data @ layer.base.w0.data.T + layer.base.b0.data)
        np.testing.assert_array_equal(layer.forward(x, om_t(4, 7.0)).data, expected)

    def test_identity_scale_matches_base_exactly(self):
        rng = np.random.default_rng(1)
        hyper = build_layer(LayerSpec("dense", out=2, act="tanh", hyper=True), 3, rng)
        plain = HyperLayer(hyper.base, None)
        x = Tensor(rng.standard_normal((4, 3)))
        for om in (0.0, 10.0, 20.0):
            assert np.array_equal(hyper.forward(x, om_t(4, om)).data, plain.forward(x, om_t(4, om)).data)

    def test_arithmetic(self):
        layer = HyperLayer(
            DenseLayer(Tensor(np.eye(2)), Tensor(np.zeros(2)), "linear"),
            scale_from([2, 3], [0, 0]),
        )
        out = layer.forward(Tensor([[1.0, 1.0]]), np.array([1.0]))
        np.testing.assert_array_equal(out.data, [[2, 3]])

    def test_width_mismatch(self):
        rng = np.random.default_rng(2)
        layer = build_layer(LayerSpec("dense", out=2, hyper=True), 3, rng)
        with pytest.raises(ConfigError):
            layer.forward(Tensor(np.ones((1, 5))), om_t(1, 0.0))


class TestConvForward:
    def test_identity_scale_matches_unscaled(self):
        rng = np.random.default_rng(3)
        hyper = build_layer(LayerSpec("conv", out=3, padding=1, act="relu", hyper=True), 2, rng)
        plain = HyperLayer(hyper.base, None)
        x = Tensor(rng.standard_normal((2, 2, 4, 4)))
        for om in (0.0, 5.0, 20.0):
            assert np.array_equal(hyper.forward(x, om_t(2, om)).data, plain.forward(x, om_t(2, om)).data)

    def test_single_channel_scale_doubles_output(self):
        rng = np.random.default_rng(4)
        layer = build_layer(LayerSpec("conv", out=1, padding=1, hyper=True), 1, rng)
        layer.scale.nu.data[:] = 0.0
        layer.scale.c.data[:] = 2.0
        plain = HyperLayer(layer.base, None)
        x = Tensor(rng.standard_normal((1, 1, 4, 4)))
        om = om_t(1, 3.0)
        np.testing.assert_allclose(layer.forward(x, om).data, 2 * plain.forward(x, om).data, rtol=1e-15)

    def test_kernel_scaling_commutes_with_channel_scaling(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        k = Tensor(rng.standard_normal((3, 2, 3, 3)))
        b = Tensor(rng.standard_normal(3))
        s = Tensor(rng.uniform(0.5, 2.0, 3))
        via_kernels = T.conv2d(x, Tensor(k.data * s.data[:, None, None, None]), Tensor(s.data * b.data), 1, 1)
        via_channels = T.conv2d(x, k, b, 1, 1).data * s.data[None, :, None, None]
        np.testing.assert_allclose(via_kernels.data, via_channels, rtol=0, atol=1e-12)


# bases with 2 input and 3 output channels, given a bias of the stated width, an input for them, and their op
BASES = {
    "dense": (lambda n: DenseLayer(Tensor(np.ones((3, 2))), Tensor(np.zeros(n))), (1, 2), "linear"),
    "conv": (
        lambda n: Conv2dLayer(Tensor(np.ones((3, 2, 3, 3))), Tensor(np.zeros(n)), padding=1), (1, 2, 4, 4), "conv2d",
    ),
    "deconv": (
        lambda n: Conv2dLayer(Tensor(np.ones((3, 2, 3, 3))), Tensor(np.zeros(n)), padding=1, upsample=2),
        (1, 2, 4, 4),
        "upconv2d",
    ),
}


@pytest.mark.parametrize("one_snr", [False, True], ids=["per_sample", "one_snr_off_the_tape"])
@pytest.mark.parametrize("kind", sorted(BASES))
class TestShapesCheckedByTheOps:
    """A layer is built without checks; the op it calls refuses a mismatch on the first forward.

    That holds at one SNR off the tape too, where a well-formed layer folds its scale into its weights.
    """

    def run(self, kind, bias_width, scale=None, one_snr=False):
        make_base, x_shape, _ = BASES[kind]
        layer = HyperLayer(make_base(bias_width), scale)
        if not one_snr:
            return layer.forward(Tensor(np.ones(x_shape)), om_t(1, 0.0))
        with T.no_tape():
            return layer.forward(Tensor(np.ones(x_shape)), np.asarray(-1.0))

    def test_bias_mismatch(self, kind, one_snr):
        with pytest.raises(ConfigError, match="bias"):
            self.run(kind, 4, scale_from([0, 0, 0], [1, 1, 1]) if one_snr else None, one_snr)

    def test_scale_width_mismatch(self, kind, one_snr):
        with pytest.raises(ConfigError, match=f"^{BASES[kind][2]}: scale"):
            self.run(kind, 3, scale_from([0, 0], [1, 1]), one_snr)

    def test_nu_and_c_widths_differ(self, kind, one_snr):
        with pytest.raises(ConfigError, match=f"^{BASES[kind][2]}: scale"):
            self.run(kind, 3, scale_from([0, 0, 0], [1, 1]), one_snr)


# (layer spec, input shape, its op with no scale): a dense layer, a conv on its dense path (a 3x3 map, no
# larger than the kernel window) and on its taps (a 4x4 map), and a deconv
FOLD_LAYERS = {
    "dense": (LayerSpec("dense", out=5, act="tanh", hyper=True), (6, 8), T.linear),
    "conv_3x3_map": (
        LayerSpec("conv", out=5, padding=1, act="sigmoid", hyper=True), (6, 4, 3, 3),
        lambda x, k, b, act: T.conv2d(x, k, b, 1, 1, act=act),
    ),
    "conv_4x4_map": (
        LayerSpec("conv", out=5, padding=1, act="relu", hyper=True), (6, 4, 4, 4),
        lambda x, k, b, act: T.conv2d(x, k, b, 1, 1, act=act),
    ),
    "deconv": (
        LayerSpec("deconv", out=5, padding=1, upsample=2, act="linear", hyper=True), (6, 4, 3, 3),
        lambda x, k, b, act: T.upconv2d(x, k, b, 2, 1, act=act),
    ),
}


@pytest.mark.parametrize("kind", sorted(FOLD_LAYERS))
def test_one_snr_off_the_tape_is_the_op_on_the_folded_weights_bit_for_bit(kind):
    # HyperLayer.forward is the one place a condition folds: at a 0-d omega_t inside no_tape() it runs
    # its op, with no scale, on W0 * s and b0 * s; handing the op the scale instead differs in rounding
    spec, x_shape, op = FOLD_LAYERS[kind]
    rng = np.random.default_rng(8)
    layer = build_layer(spec, x_shape[1], rng)
    layer.base.b0.data = rng.uniform(-0.5, 0.5, 5)
    layer.scale.nu.data = rng.uniform(-0.5, 0.5, 5)
    layer.scale.c.data = rng.uniform(0.5, 1.5, 5)
    x = Tensor(rng.standard_normal(x_shape))
    s = 0.37 * layer.scale.nu.data + layer.scale.c.data
    w0 = layer.base.w0 if kind == "dense" else layer.base.c0
    want = op(x, Tensor(w0.data * s.reshape(-1, *(1,) * (w0.data.ndim - 1))), Tensor(layer.base.b0.data * s), spec.act)
    with T.no_tape():
        got = layer.forward(x, np.asarray(0.37))
    np.testing.assert_array_equal(got.data, want.data)


class TestParamCounts:
    def test_dense_with_scale(self):
        rng = np.random.default_rng(6)
        assert param_counts(LayerSpec("dense", out=8, act="relu", hyper=True), 4, rng) == (40, 16)

    def test_conv_with_scale(self):
        rng = np.random.default_rng(7)
        spec = LayerSpec("conv", out=16, padding=1, act="relu", hyper=True)
        assert param_counts(spec, 3, rng) == (3 * 16 * 9 + 16, 32)

    def test_scale_absent(self):
        rng = np.random.default_rng(8)
        assert param_counts(LayerSpec("conv", out=16, padding=1, act="relu"), 3, rng)[1] == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_introduced_is_twice_out_channels(self, seed):
        rng = np.random.default_rng(seed)
        c_out = int(rng.integers(1, 20))
        kind = "dense" if seed % 2 else "conv"
        spec = LayerSpec(kind, out=c_out, padding=1, act="relu", hyper=True)
        assert param_counts(spec, int(rng.integers(1, 10 if kind == "dense" else 5)), rng)[1] == 2 * c_out


class TestResNetBlock:
    def test_zero_kernels_identity_skip(self):
        rng = np.random.default_rng(9)
        block = build_layer(LayerSpec("resblock", out=2, act="tanh"), 2, rng)
        for layer in (block.conv1, block.conv2):
            layer.base.c0.data[:] = 0.0
            layer.base.b0.data[:] = 0.0
        assert block.skip is None
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        np.testing.assert_array_equal(block.forward(x, om_t(1, 0.0)).data, np.tanh(x.data))

    def test_identity_scales_match_plain_block(self):
        rng = np.random.default_rng(10)
        hyper = build_layer(LayerSpec("resblock", out=3, act="relu", hyper=True), 2, rng)
        plain = build_layer(LayerSpec("resblock", out=3, act="relu"), 2, np.random.default_rng(10))
        x = Tensor(rng.standard_normal((2, 2, 4, 4)))
        for om in (0.0, 5.0, 10.0, 15.0, 20.0):
            assert np.array_equal(hyper.forward(x, om_t(2, om)).data, plain.forward(x, om_t(2, om)).data)

    def test_gradients_through_both_branches(self):
        rng = np.random.default_rng(11)
        block = build_layer(LayerSpec("resblock", out=3, act="tanh", hyper=True), 2, rng)
        for layer in (block.conv1, block.conv2, block.skip):
            layer.scale.nu.data = rng.uniform(-0.3, 0.3, layer.scale.nu.shape[0])
        x = Tensor(rng.standard_normal((1, 2, 3, 3)))
        params = [t for _, t in block.named_params()]
        assert finite_diff_check(lambda: T.tsum(block.forward(x, om_t(1, 12.0))), params) < 1e-5


class TestOmegaSensitivity:
    @pytest.mark.parametrize("seed", range(5))
    def test_nonzero_nu_means_omega_matters(self, seed):
        rng = np.random.default_rng(seed)
        layer = build_layer(LayerSpec("conv", out=2, padding=1, act="tanh", hyper=True), 1, rng)
        layer.scale.nu.data = rng.uniform(0.1, 0.5, 2) * rng.choice([-1, 1], 2)
        x = Tensor(rng.standard_normal((1, 1, 4, 4)))
        assert not np.array_equal(layer.forward(x, om_t(1, 0.0)).data, layer.forward(x, om_t(1, 20.0)).data)
