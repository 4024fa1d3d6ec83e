import numpy as np
import pytest

from hyperajscc import tensor as T
from hyperajscc.layers import (
    Conv2dLayer,
    DenseLayer,
    HyperLayer,
    HyperScale,
    make_conv,
    make_dense,
    make_resblock,
)
from hyperajscc.tensor import ShapeError, Tensor, finite_diff_check


def scale_from(nu, c, gain=1.0, offset=0.0):
    return HyperScale(
        Tensor(np.asarray(nu, float), requires_grad=True),
        Tensor(np.asarray(c, float), requires_grad=True),
        gain,
        offset,
    )


class TestHyperScale:
    def test_identity_configuration(self):
        s = HyperScale.identity(4)
        np.testing.assert_array_equal(s.vector(np.array([0.0, 7.3, 20.0])).data, np.ones((3, 4)))

    def test_arithmetic(self):
        # mapped omega = 2 with a unit map
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
        layer = make_dense(3, 2, "tanh", False, rng)
        x = Tensor(rng.standard_normal((4, 3)))
        expected = np.tanh(x.data @ layer.base.w0.data.T + layer.base.b0.data)
        np.testing.assert_array_equal(layer.forward(x, 7.0).data, expected)

    def test_identity_scale_matches_base_exactly(self):
        rng = np.random.default_rng(1)
        hyper = make_dense(3, 2, "tanh", True, rng)
        plain = HyperLayer(hyper.base, None)
        x = Tensor(rng.standard_normal((4, 3)))
        for om in (0.0, 10.0, 20.0):
            assert np.array_equal(hyper.forward(x, om).data, plain.forward(x, om).data)

    def test_arithmetic(self):
        layer = HyperLayer(
            DenseLayer(Tensor(np.eye(2)), Tensor(np.zeros(2)), "linear"),
            scale_from([2, 3], [0, 0], gain=1.0, offset=0.0),
        )
        out = layer.forward(Tensor([[1.0, 1.0]]), 1.0)
        np.testing.assert_array_equal(out.data, [[2, 3]])

    def test_width_mismatch(self):
        rng = np.random.default_rng(2)
        layer = make_dense(3, 2, "linear", True, rng)
        with pytest.raises(ShapeError):
            layer.forward(Tensor(np.ones((1, 5))), 0.0)


class TestConvForward:
    def test_identity_scale_matches_unscaled(self):
        rng = np.random.default_rng(3)
        hyper = make_conv(2, 3, 3, 1, 1, 1, "relu", True, rng)
        plain = HyperLayer(hyper.base, None)
        x = Tensor(rng.standard_normal((2, 2, 4, 4)))
        for om in (0.0, 5.0, 20.0):
            assert np.array_equal(hyper.forward(x, om).data, plain.forward(x, om).data)

    def test_single_channel_scale_doubles_output(self):
        rng = np.random.default_rng(4)
        layer = make_conv(1, 1, 3, 1, 1, 1, "linear", True, rng)
        layer.scale.nu.data[:] = 0.0
        layer.scale.c.data[:] = 2.0
        plain = HyperLayer(layer.base, None)
        x = Tensor(rng.standard_normal((1, 1, 4, 4)))
        np.testing.assert_allclose(layer.forward(x, 3.0).data, 2 * plain.forward(x, 3.0).data, rtol=1e-15)

    def test_kernel_scaling_commutes_with_channel_scaling(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        k = Tensor(rng.standard_normal((3, 2, 3, 3)))
        b = Tensor(rng.standard_normal(3))
        s = Tensor(rng.uniform(0.5, 2.0, 3))
        via_kernels = T.conv2d(x, T.scale_rowwise(k, s), Tensor(s.data * b.data), 1, 1)
        via_channels = T.scale_channels(T.conv2d(x, k, b, 1, 1), Tensor(s.data[None, :]))
        np.testing.assert_allclose(via_kernels.data, via_channels.data, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_scalar_omega_is_bit_equal_to_per_sample_omega(kind):
    rng = np.random.default_rng(10)
    if kind == "dense":
        layer = make_dense(4, 3, "tanh", True, rng)
        x = rng.standard_normal((5, 4))
    else:
        layer = make_conv(2, 3, 3, 1, 1, 2, "tanh", True, rng)
        x = rng.standard_normal((5, 2, 4, 4))
    layer.scale.nu.data = rng.uniform(-0.3, 0.3, 3)
    layer.scale.c.data = rng.uniform(0.5, 1.5, 3)
    for om in (0.0, 7.3, 20.0):
        scalar = layer.forward(Tensor(x), om)
        per_sample = layer.forward(Tensor(x), np.full(5, om))
        assert np.array_equal(scalar.data, per_sample.data)


class TestParamCounts:
    def test_dense_with_scale(self):
        rng = np.random.default_rng(6)
        layer = make_dense(4, 8, "relu", True, rng)
        assert layer.param_counts() == (40, 16)

    def test_conv_with_scale(self):
        rng = np.random.default_rng(7)
        layer = make_conv(3, 16, 3, 1, 1, 1, "relu", True, rng)
        assert layer.param_counts() == (3 * 16 * 9 + 16, 32)

    def test_scale_absent(self):
        rng = np.random.default_rng(8)
        assert make_conv(3, 16, 3, 1, 1, 1, "relu", False, rng).param_counts()[1] == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_introduced_is_twice_out_channels(self, seed):
        rng = np.random.default_rng(seed)
        c_out = int(rng.integers(1, 20))
        if seed % 2:
            layer = make_dense(int(rng.integers(1, 10)), c_out, "relu", True, rng)
        else:
            layer = make_conv(int(rng.integers(1, 5)), c_out, 3, 1, 1, 1, "relu", True, rng)
        assert layer.param_counts()[1] == 2 * c_out


class TestResNetBlock:
    def test_zero_kernels_identity_skip(self):
        rng = np.random.default_rng(9)
        block = make_resblock(2, 2, 3, "tanh", False, rng)
        for layer in (block.conv1, block.conv2):
            layer.base.c0.data[:] = 0.0
            layer.base.b0.data[:] = 0.0
        assert block.skip is None
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        np.testing.assert_array_equal(block.forward(x, 0.0).data, np.tanh(x.data))

    def test_identity_scales_match_plain_block(self):
        rng = np.random.default_rng(10)
        hyper = make_resblock(2, 3, 3, "relu", True, rng)
        plain = make_resblock(2, 3, 3, "relu", False, np.random.default_rng(10))
        x = Tensor(rng.standard_normal((2, 2, 4, 4)))
        for om in (0.0, 5.0, 10.0, 15.0, 20.0):
            assert np.array_equal(hyper.forward(x, om).data, plain.forward(x, om).data)

    def test_gradients_through_both_branches(self):
        rng = np.random.default_rng(11)
        block = make_resblock(2, 3, 3, "tanh", True, rng)
        for layer in (block.conv1, block.conv2, block.skip):
            layer.scale.nu.data = rng.uniform(-0.3, 0.3, layer.out_channels)
        x = Tensor(rng.standard_normal((1, 2, 3, 3)))
        params = [t for _, t in block.named_params()]
        assert finite_diff_check(lambda: T.tsum(block.forward(x, 12.0)), params) < 1e-5


class TestOmegaSensitivity:
    @pytest.mark.parametrize("seed", range(5))
    def test_nonzero_nu_means_omega_matters(self, seed):
        rng = np.random.default_rng(seed)
        layer = make_conv(1, 2, 3, 1, 1, 1, "tanh", True, rng)
        layer.scale.nu.data = rng.uniform(0.1, 0.5, 2) * rng.choice([-1, 1], 2)
        x = Tensor(rng.standard_normal((1, 1, 4, 4)))
        assert not np.array_equal(layer.forward(x, 0.0).data, layer.forward(x, 20.0).data)
