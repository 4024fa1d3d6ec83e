import contextlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hyperajscc import tensor as T
from hyperajscc.errors import ConfigError
from hyperajscc.tensor import Tensor, finite_diff_check

from test_fuzz import FUZZ


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=float), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        out = T.matmul(t(np.eye(2)), t([[1, 2], [3, 4]]))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_inner_product(self):
        out = T.matmul(t([[1, 2]]), t([[3], [4]]))
        np.testing.assert_array_equal(out.data, [[11]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ConfigError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))

    def test_gradient_of_sum(self):
        # d sum(A@B)/dA with B = 2I: every entry sees both columns -> 2
        a = t(np.ones((2, 2)), grad=True)
        b = t([[2, 0], [0, 2]])
        T.tsum(T.matmul(a, b)).backward()
        np.testing.assert_allclose(a.grad, [[2, 2], [2, 2]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        err = finite_diff_check(lambda: T.tsum(T.matmul(a, b)), [a, b])
        assert err < 1e-8


class TestElementwise:
    def test_mul_identity(self):
        out = T.mul(t([1, 2, 3]), t([1, 1, 1]))
        np.testing.assert_array_equal(out.data, [1, 2, 3])

    def test_scale_rowwise(self):
        out = T.scale_rowwise(t([[1, 2], [3, 4]]), t([2, 0]))
        np.testing.assert_array_equal(out.data, [[2, 4], [0, 0]])

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 4, 5)])
    def test_scale_channels_per_sample(self, shape):
        rng = np.random.default_rng(4)
        x = t(rng.standard_normal(shape), grad=True)
        s = t(rng.standard_normal(shape[:2]), grad=True)
        out = T.scale_channels(x, s)
        sr = s.data.reshape(shape[:2] + (1,) * (len(shape) - 2))
        np.testing.assert_array_equal(out.data, x.data * sr)
        T.tsum(out).backward()
        np.testing.assert_array_equal(x.grad, np.broadcast_to(sr, shape))
        np.testing.assert_allclose(s.grad, x.data.reshape(shape[:2] + (-1,)).sum(axis=2), rtol=1e-15)

    def test_scale_channels_rejects_shared_scale(self):
        with pytest.raises(ConfigError):
            T.scale_channels(t(np.ones((2, 3, 4, 4))), t([1, 2, 3]))
        with pytest.raises(ConfigError):
            T.scale_channels(t(np.ones((2, 3))), t([1, 2, 3]))

    def test_mul_backward_is_product_rule(self):
        a = t([1.0, 1.0], grad=True)
        b = t([5.0, 7.0])
        T.tsum(T.mul(a, b)).backward()
        np.testing.assert_array_equal(a.grad, [5, 7])

    def test_incompatible_shapes(self):
        with pytest.raises(ConfigError):
            T.add(t([1, 2]), t([1, 2, 3]))
        with pytest.raises(ConfigError):
            T.scale_rowwise(t(np.ones((2, 2))), t([1, 2, 3]))


def softmax_closed_form(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(T.relu(t([-1, 0, 2])).data, [0, 0, 2])

    def test_tanh_zero(self):
        assert T.tanh(t([0.0])).data[0] == 0.0

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(T.softmax(t([0.0, 0.0])).data, [0.5, 0.5])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = T.softmax(t(rng.standard_normal((5, 7))))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_sigmoid_range(self):
        out = T.sigmoid(t([-50.0, 0.0, 50.0])).data
        assert out[0] >= 0 and out[2] <= 1 and out[1] == 0.5

    def test_relu_propagates_nan_and_has_zero_slope_at_zero(self):
        x = t([np.nan, -1.0, 0.0, 2.0], grad=True)
        out = T.relu(x)
        np.testing.assert_array_equal(out.data, [np.nan, 0, 0, 2])
        T.tsum(T.mul(out, t([0.0, 1.0, 1.0, 1.0]))).backward()
        np.testing.assert_array_equal(x.grad, [0, 0, 0, 1])

    # each activation's output and input gradient, as functions of the input x,
    # the output and the incoming gradient g
    CLOSED_FORMS = {
        "relu": (lambda x: np.maximum(x, 0.0), lambda x, out, g: g * (x > 0)),
        "tanh": (np.tanh, lambda x, out, g: g * (1.0 - out * out)),
        "sigmoid": (lambda x: 0.5 * (1.0 + np.tanh(0.5 * x)), lambda x, out, g: g * out * (1.0 - out)),
        "softmax": (
            softmax_closed_form,
            lambda x, out, g: out * (g - (g * out).sum(axis=-1, keepdims=True)),
        ),
    }

    @pytest.mark.parametrize("shape", [(4, 5), (3, 5, 4, 2)], ids=["dense", "nchw_of_batch_last"])
    @pytest.mark.parametrize("kind", T.ACTIVATIONS)
    def test_closed_form_bit_for_bit(self, kind, shape):
        rng = np.random.default_rng(len(kind) + len(shape))
        x = 3.0 * rng.standard_normal(shape)
        x.flat[0] = 0.0  # relu's kink
        if kind == "relu":
            x.flat[1] = np.nan
        g = rng.standard_normal(shape)
        if len(shape) == 4:  # NCHW views of [C, H, W, B] memory, as the conv ops hand them on
            x, g = (np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0) for a in (x, g))
        xt = t(x, grad=True)
        out = T.activation(kind, xt)
        if kind == "linear":
            assert out is xt
            return
        forward, derivative = self.CLOSED_FORMS[kind]
        ((parent, dx),) = out._backward_fn(g)
        assert parent is xt
        plain_op = getattr(T, kind)(xt).data
        for got, want in ((out.data, forward(x)), (dx, derivative(x, out.data, g)), (plain_op, out.data)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestConv2d:
    def test_scaling_kernel(self):
        x = t(np.ones((1, 1, 3, 3)))
        k = t(np.full((1, 1, 1, 1), 2.0))
        out = T.conv2d(x, k, t([0.0]))
        np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 3), 2.0))

    def test_sum_of_entries(self):
        x = t([[[[1, 2], [3, 4]]]])
        k = t(np.ones((1, 1, 2, 2)))
        out = T.conv2d(x, k, t([0.0]))
        np.testing.assert_array_equal(out.data, [[[[10]]]])

    def test_non_integral_output_size(self):
        with pytest.raises(ConfigError, match="non-integral"):
            T.conv2d(t(np.ones((1, 1, 5, 5))), t(np.ones((1, 1, 2, 2))), t([0.0]), stride=2)

    def test_input_gradient_matches_finite_differences(self):
        # stride 2, padding 1 and a non-square input: the strided slice-adds of dx
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 2, 5, 3)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 2, 3, 3)))
        b = Tensor(rng.standard_normal(3))
        err = finite_diff_check(lambda: T.tsum(T.tanh(T.conv2d(x, k, b, 2, 1))), [x])
        assert err < 1e-6

    def test_kernel_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        k = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        err = finite_diff_check(lambda: T.tsum(T.conv2d(x, k, b, 1, 1)), [k, b])
        assert err < 1e-6


def conv2d_reference(x, k, b, g, stride, padding):
    """(out, dx, dk, db) of conv2d by one einsum per kernel offset, in plain numpy."""
    B, Cin, H, W = x.shape
    Cout, _, KH, KW = k.shape
    Ho = (H + 2 * padding - KH) // stride + 1
    Wo = (W + 2 * padding - KW) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.empty((B, Cout, Ho, Wo))
    out[:] = b.reshape(1, Cout, 1, 1)
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(k)
    for ki in range(KH):
        for kj in range(KW):
            rows, cols = slice(ki, ki + stride * Ho, stride), slice(kj, kj + stride * Wo, stride)
            window = (slice(None), slice(None), rows, cols)
            out += np.einsum("bchw,oc->bohw", xp[window], k[:, :, ki, kj])
            dxp[window] += np.einsum("bohw,oc->bchw", g, k[:, :, ki, kj])
            dk[:, :, ki, kj] = np.einsum("bohw,bchw->oc", g, xp[window])
    return out, dxp[:, :, padding : padding + H, padding : padding + W], dk, g.sum(axis=(0, 2, 3))


@FUZZ
@given(
    dims=st.tuples(*[st.integers(1, 5)] * 5),  # B, Cin, Cout, Ho, Wo
    kernel=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv2d_matches_einsum_reference(dims, kernel, stride, padding, seed):
    B, Cin, Cout, Ho, Wo = dims
    KH, KW = kernel
    # the input size that gives a Ho x Wo output; H and W vary independently
    H, W = (Ho - 1) * stride + KH - 2 * padding, (Wo - 1) * stride + KW - 2 * padding
    assume(H >= 1 and W >= 1)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((B, Cin, H, W)), requires_grad=True)
    k = Tensor(rng.standard_normal((Cout, Cin, KH, KW)), requires_grad=True)
    b = Tensor(rng.standard_normal(Cout), requires_grad=True)
    g = rng.standard_normal((B, Cout, Ho, Wo))
    out = T.conv2d(x, k, b, stride, padding)
    T.tsum(T.mul(out, Tensor(g))).backward()  # the output gradient is exactly g
    expected = conv2d_reference(x.data, k.data, b.data, g, stride, padding)
    for got, want in zip((out.data, x.grad, k.grad, b.grad), expected):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# (Cin, H, W, Cout, KH, KW, stride, padding): the shipped convs at the channel bottleneck, whose map is
# no larger than the kernel window (H*W <= KH*KW), and two maps just past that rule
SMALL_MAP_CONVS = {
    "enc1_4x4_k4_s2_16to32": (16, 4, 4, 32, 4, 4, 2, 1),
    "enc2_2x2_k3_32to4": (32, 2, 2, 4, 3, 3, 1, 1),
    "dec1_2x2_k3_4to32": (4, 2, 2, 32, 3, 3, 1, 1),
    "resblock_2x2_k3_16to16": (16, 2, 2, 16, 3, 3, 1, 1),
    "past_rule_3x3_k2": (3, 3, 3, 5, 2, 2, 1, 0),
    "past_rule_5x2_k3": (3, 5, 2, 4, 3, 3, 1, 1),
}


@pytest.mark.parametrize("geometry", sorted(SMALL_MAP_CONVS))
def test_conv2d_at_the_bottleneck_maps_matches_the_reference(geometry, monkeypatch):
    """Output and gradients of conv2d against the einsum reference, on the path the geometry picks.

    The dense path sums each kernel element's gradient over up to Ho*Wo
    entries of its dense matrix: dropping one slot of that sum moves dk.
    """
    Cin, H, W, Cout, KH, KW, stride, padding = SMALL_MAP_CONVS[geometry]
    dense_plans = []
    plan = T._dense_plan
    monkeypatch.setattr(T, "_dense_plan", lambda *key: dense_plans.append(key) or plan(*key))
    rng = np.random.default_rng(len(geometry))
    x = Tensor(rng.standard_normal((5, Cin, H, W)), requires_grad=True)
    k = Tensor(rng.standard_normal((Cout, Cin, KH, KW)), requires_grad=True)
    b = Tensor(rng.standard_normal(Cout), requires_grad=True)
    out = T.conv2d(x, k, b, stride, padding)
    g = rng.standard_normal(out.shape)
    T.tsum(T.mul(out, Tensor(g))).backward()  # the output gradient is exactly g
    assert len(dense_plans) == (H * W <= KH * KW)
    expected = conv2d_reference(x.data, k.data, b.data, g, stride, padding)
    for got, want in zip((out.data, x.grad, k.grad, b.grad), expected):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_dense_plan_lists_every_kernel_element_as_often_as_the_taps_reach_it():
    """A 4x4 kernel at stride 2 as the dense matrix over a 4x4 map: each element once per output it reaches."""
    idx, inv = T._dense_plan(2, 3, 4, 4, 4, 4, 2, 2, 2, 1)
    assert idx.shape == (2 * 2 * 2 * 3 * 4 * 4,) and inv.shape == (4, 2 * 3 * 4 * 4)
    # kernel row a reaches the outputs i with 0 <= 2*i + a - 1 < 4, and a kernel column likewise
    reach = np.array([1, 2, 2, 1])
    counts = np.sum(inv < idx.size, axis=0).reshape(2, 3, 4, 4)
    assert np.array_equal(counts, np.broadcast_to(np.outer(reach, reach), counts.shape))
    assert np.sum(idx == 2 * 3 * 4 * 4) == idx.size - counts.sum() > 0  # entries off the kernel read the zero
    for n, entries in enumerate(inv.T):
        m = np.sum(entries < idx.size)
        assert np.array_equal(entries[:m], np.flatnonzero(idx == n)) and np.all(entries[m:] == idx.size)


@FUZZ
@given(
    dims=st.tuples(*[st.integers(1, 4)] * 7),  # C, M, KH, KW, h, w, B
    step=st.integers(1, 3),
    origin=st.tuples(st.integers(-3, 2), st.integers(-3, 2)),  # (oh, ow)
    size=st.tuples(st.integers(1, 9), st.integers(1, 9)),  # H, W
    seed=st.integers(0, 2**32 - 1),
)
def test_tap_sum_is_the_adjoint_of_the_take(dims, step, origin, size, seed):
    """<inv-sum(t), a> = <t, take(a)>, and both are plain einsums over the zero-padded image's windows.

    The image is drawn small or large against the grid, so the origins and
    the far edge put taps off it: they read the zero row, and their
    products are dropped from the sum.  inv lists exactly the taps on each
    row, in ascending order.  The operands are nonnegative, so no sum
    cancels and rtol 1e-12 measures only rounding.
    """
    C, M, KH, KW, h, w, B = dims
    (oh, ow), (H, W) = origin, size
    idx, inv = T._tap_plan(C, H, W, KH, KW, h, w, step, oh, ow)
    rng = np.random.default_rng(seed)
    a, k, g = rng.random((C, H, W, B)), rng.random((M, C, KH, KW)), rng.random((M, h * w * B))
    kf = k.transpose(0, 2, 3, 1).reshape(M, KH * KW * C)  # the engine's flattened kernel
    cols = T._zero_row_below(a).take(idx, axis=0).reshape(KH * KW * C, h * w * B)
    y, dk = kf @ cols, g @ cols.T
    dst = T._tap_sum(kf.T, g, inv, B)
    np.testing.assert_allclose(np.vdot(dst, a.reshape(-1, B)), np.vdot(g, y), rtol=1e-12)
    assert not cols.reshape(-1, B)[idx == C * H * W].any()
    for r, taps in enumerate(inv.T):
        m = np.sum(taps < idx.size)
        assert np.array_equal(taps[:m], np.flatnonzero(idx == r)) and np.all(taps[m:] == idx.size)
    # the image padded on every side by more than any tap reaches past it
    P = 3 * max(KH, KW, h, w) + 3
    ap = np.pad(a, ((0, 0), (P, P), (P, P), (0, 0)))
    ri, ci = slice(P + oh, P + oh + step * h, step), slice(P + ow, P + ow + step * w, step)
    windows = np.lib.stride_tricks.sliding_window_view(ap, (KH, KW), axis=(1, 2))[:, ri, ci]  # [C, h, w, B, KH, KW]
    gw = g.reshape(M, h, w, B)
    np.testing.assert_allclose(y, np.einsum("mckl,chwbkl->mhwb", k, windows).reshape(M, -1), rtol=1e-12)
    np.testing.assert_allclose(dk, np.einsum("mhwb,chwbkl->mklc", gw, windows).reshape(M, -1), rtol=1e-12)
    dp = np.zeros_like(ap)
    for ki in range(KH):
        for kj in range(KW):
            r0, c0 = P + oh + ki, P + ow + kj
            taps = np.einsum("mhwb,mc->chwb", gw, k[:, :, ki, kj])
            dp[:, r0 : r0 + step * h : step, c0 : c0 + step * w : step] += taps
    np.testing.assert_allclose(dst, dp[:, P : P + H, P : P + W].reshape(-1, B), rtol=1e-12)


@FUZZ
@given(
    grid=st.tuples(st.integers(1, 3), st.integers(1, 3)),  # conv2d's output, upconv2d's input
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True),  # KH and KW
    steps=st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True),
    paddings=st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv_ops_through_one_plan_cache_at_interleaved_geometries(grid, sizes, steps, paddings, seed):
    """conv2d and upconv2d at every drawn kernel, step and padding, all run twice in a shuffled turn.

    Every call goes through the one process-wide plan cache.  The
    geometries share a grid, so many pairs of them agree on all but a few
    fields of _tap_plan's key (C, H, W, KH, KW, h, w, step, oh, ow): a plan
    keyed on too few of them, or a stale one, moves, drops or misreads
    taps.  Every call's output and its three gradients are held to plain
    numpy: conv2d_reference, and for upconv2d the same over the
    zero-inserted input.  A key without the channel count C, without the
    step, or without both of (oh, ow), (H, W), (KH, KW), (H, oh) or
    (W, ow), fails it, and so does a plan reused whatever the key.  C is
    drawn per call, and conv2d (k, stride 1, padding p) and upconv2d
    (k, upsample 1, padding k-1-p) share every other field.  (For the
    geometries these two ops make, h and w together, or any one of the
    other fields but C and the step, follow from the rest of the key.)
    """
    h, w = grid
    rng = np.random.default_rng(seed)
    cases = []
    for up, KH, KW, s, p in itertools.product((False, True), sizes, sizes, steps, paddings):
        conv_in = s * (h - 1) + KH - 2 * p, s * (w - 1) + KW - 2 * p  # gives an h x w output
        upconv_out = s * h + 2 * p - KH + 1, s * w + 2 * p - KW + 1  # of an h x w input
        if min(upconv_out if up else conv_in) < 1:
            continue
        H, W = (h, w) if up else conv_in
        B, Cin, Cout = rng.integers(1, 4, size=3)
        arrays = rng.standard_normal((B, Cin, H, W)), rng.standard_normal((Cout, Cin, KH, KW)), rng.standard_normal(Cout)
        cases.append((up, s, p, *arrays))
    assume(len(cases) >= 2)
    for i in [*rng.permutation(len(cases)), *rng.permutation(len(cases))]:
        up, s, p, xd, kd, bd = cases[i]
        x, k, b = (Tensor(a, requires_grad=True) for a in (xd, kd, bd))
        out = T.upconv2d(x, k, b, s, p) if up else T.conv2d(x, k, b, s, p)
        g = rng.standard_normal(out.shape)
        T.tsum(T.mul(out, Tensor(g))).backward()  # the output gradient is exactly g
        if up:
            xu = np.zeros(xd.shape[:2] + (s * xd.shape[2], s * xd.shape[3]))
            xu[:, :, ::s, ::s] = xd
            want, dxu, dk, db = conv2d_reference(xu, kd, bd, g, 1, p)
            expected = want, dxu[:, :, ::s, ::s], dk, db
        else:
            expected = conv2d_reference(xd, kd, bd, g, s, p)
        for got, want in zip((out.data, x.grad, k.grad, b.grad), expected):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    info = T._tap_plan.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_conv2d_scratch_memory_holds_one_column_matrix():
    """Forward and backward of a 3x3 conv from 16 to 3 channels over an 8x8 input, B=64.

    Live at the backward peak: the column matrix [KH*KW*Cin, Ho*Wo*B]
    kept from the forward for dk (KH*KW = 9x the input), the input
    gradient's tap rows (another 9x), the input gradient and one slot's
    take of the tap rows (1x each), plus small arrays: 20.9x
    x.data.nbytes as measured (20.6x with the plan already cached).  A
    second column matrix live at once adds 9x, and so does summing the
    tap rows through one [Cin*H*W, M, B] take: the bound of 24x admits
    one and refuses either.
    """
    rng = np.random.default_rng(0)
    x = T.upsample_zero(Tensor(rng.standard_normal((64, 16, 4, 4)), requires_grad=True), 2)
    k = Tensor(rng.standard_normal((3, 16, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    tracemalloc.start()
    try:
        T.tsum(T.conv2d(x, k, b, 1, 1)).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * x.data.nbytes, f"traced peak {peak / x.data.nbytes:.2f}x the input"


class TestUpconv2d:
    """upconv2d against its definition, conv2d over upsample_zero's output."""

    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("kernel,padding", [(k, p) for k in range(1, 5) for p in range(k + 2)])
    @pytest.mark.parametrize("upsample", [1, 2, 3])
    def test_matches_zero_inserted_conv(self, upsample, kernel, padding, B):
        # non-square input and kernel (KH x 5-KH), Cin != Cout
        rng = np.random.default_rng(1000 * upsample + 10 * kernel + padding)
        xd = rng.standard_normal((B, 2, 5, 4))
        kd = rng.standard_normal((3, 2, kernel, 5 - kernel))
        bd = rng.standard_normal(3)
        results = []
        for op in (
            lambda x, k, b: T.upconv2d(x, k, b, upsample, padding),
            lambda x, k, b: T.conv2d(T.upsample_zero(x, upsample), k, b, 1, padding),
        ):
            x, k, b = (Tensor(a, requires_grad=True) for a in (xd, kd, bd))
            out = op(x, k, b)
            g = np.random.default_rng(7).standard_normal(out.shape)
            T.tsum(T.mul(out, Tensor(g))).backward()  # the output gradient is exactly g
            results.append((out.data, x.grad, k.grad, b.grad))
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 2, 3, 2)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 2, 3, 3)))
        b = Tensor(rng.standard_normal(3))
        err = finite_diff_check(lambda: T.tsum(T.tanh(T.upconv2d(x, k, b, 2, 1))), [x])
        assert err < 1e-6

    def test_empty_output_rejected(self):
        with pytest.raises(ConfigError, match="empty output"):
            T.upconv2d(t(np.ones((1, 1, 1, 1))), t(np.ones((1, 1, 3, 3))), t([0.0]), 1, 0)

    def test_scratch_memory_is_under_half_the_zero_inserted_conv(self):
        """Forward and backward of the decoder's last layer (16->3, 4x4 -> 8x8, B=64).

        The zero-inserted conv holds the 4x larger upsampled input, its padded
        batch-last copy and their gradients; upconv2d multiplies the real
        pixels only.  Measured: 5.4x against 86.4x the input's bytes.
        """
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((64, 16, 4, 4)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 16, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)

        def peak(op):
            x.grad = k.grad = b.grad = None
            tracemalloc.start()
            try:
                T.tsum(op()).backward()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        new = peak(lambda: T.upconv2d(x, k, b, 2, 1))
        old = peak(lambda: T.conv2d(T.upsample_zero(x, 2), k, b, 1, 1))
        nbytes = x.data.nbytes
        assert new <= old / 2, f"traced peak {new / nbytes:.1f}x against {old / nbytes:.1f}x the input"

    def test_scratch_memory_of_a_widening_deconv_is_a_few_outputs(self):
        """Forward and backward of a 4->32 channel deconv (k3, u2, p1), 4x4 -> 8x8, B=64.

        The backward's column matrix is [KH*KW*Cout, H*W*B], KH*KW/upsample**2
        = 2.25x the output; with the output, the gradient's rows (1x) and the
        loss's ones the measured peak is 5.4x the output's bytes.
        """
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((64, 4, 4, 4)), requires_grad=True)
        k = Tensor(rng.standard_normal((32, 4, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(32), requires_grad=True)
        tracemalloc.start()
        try:
            out = T.upconv2d(x, k, b, 2, 1)
            T.tsum(out).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = out.data.nbytes
        assert peak <= 10 * nbytes, f"traced peak {peak / nbytes:.2f}x the output"


@pytest.mark.parametrize("kernel", [(3, 2, 0, 3), (3, 2, 3, 0)])
@pytest.mark.parametrize("op", ["conv2d", "upconv2d"])
def test_empty_kernel_rejected(op, kernel):
    # without the check, conv2d returns a bias-only output of the wrong size
    x, k, b = t(np.ones((1, 2, 4, 4))), t(np.ones(kernel)), t(np.zeros(3))
    with pytest.raises(ConfigError, match=f"{op}: empty kernel"):
        T.conv2d(x, k, b, 1, 1) if op == "conv2d" else T.upconv2d(x, k, b, 2, 1)


def pulled(out: Tensor, g: np.ndarray) -> Tensor:
    """A scalar whose backward hands `out` exactly `g`, in g's own memory layout."""
    return T._make(np.asarray(0.0), (out,), lambda _: [(out, g)])


# (base op, input shape, kernel shape): a dense output, a conv2d output (an NCHW
# view of its batch-last accumulator) on its taps and on its dense path (a map
# no larger than the kernel window), and an upconv2d output (a strided crop)
BASE_OPS = {
    "dense": (T.linear, (3, 4), (5, 4)),
    "conv2d": (lambda x, k, b, **head: T.conv2d(x, k, b, 1, 1, **head), (3, 2, 4, 5), (5, 2, 3, 3)),
    "conv2d_small_map": (lambda x, k, b, **head: T.conv2d(x, k, b, 1, 1, **head), (3, 2, 2, 2), (5, 2, 3, 3)),
    "upconv2d": (lambda x, k, b, **head: T.upconv2d(x, k, b, 2, 1, **head), (3, 2, 3, 4), (5, 2, 3, 3)),
}


class TestScaleAct:
    """The head of linear, conv2d and upconv2d: its scale and activation, in the op's one node."""

    @staticmethod
    def fused_and_composed(base, act, scaled, folded=False):
        """[output, gradients of x, k, b, nu, c] of the fused op, then of the composed ops.

        The composed reference is activation(act, scale_channels(y, affine_outer(omega,
        nu, c))) on the op's plain result y, or activation(act, y) without a scale.
        Folded, every sample has one omega, which the fused op is handed as a 0-d array
        inside no_tape(), where it folds it into its weights; its gradients are then None.
        """
        op, xshape, kshape = BASE_OPS[base]
        rng = np.random.default_rng(len(base) * 10 + len(act))
        arrays = [rng.standard_normal(xshape), rng.standard_normal(kshape), rng.standard_normal(5),
                  rng.normal(0.0, 0.3, 5), rng.uniform(0.5, 1.5, 5)]
        omega = rng.uniform(-1.0, 1.0, 3)
        handed = np.asarray(omega[0]) if folded else omega
        if folded:
            omega = np.full(3, omega[0])
        g = None
        results = []
        for fused in (True, False):
            x, k, b, nu, c = (Tensor(a.copy(), requires_grad=True) for a in arrays)
            if fused:
                with T.no_tape() if folded else contextlib.nullcontext():
                    out = op(x, k, b, act=act, scale=(handed, nu, c) if scaled else None)
            else:
                y = op(x, k, b)
                out = T.activation(act, T.scale_channels(y, T.affine_outer(omega, nu, c)) if scaled else y)
            if g is None:  # a non-contiguous incoming gradient: a transposed array's view
                g = np.ascontiguousarray(rng.standard_normal(out.shape[::-1])).T
                assert not g.flags.c_contiguous
            pulled(out, g).backward()
            results.append([out.data] + [p.grad for p in (x, k, b, nu, c)])
        return results

    def check(self, base, act, scaled):
        (got, *got_grads), (want, *want_grads) = self.fused_and_composed(base, act, scaled)
        np.testing.assert_array_equal(got, want)
        for got_g, want_g in zip(got_grads, want_grads):
            if scaled:
                np.testing.assert_allclose(got_g, want_g, rtol=1e-12, atol=1e-12)
            else:
                assert got_g is None and want_g is None or np.array_equal(got_g, want_g)

    @pytest.mark.parametrize("act", T.CONV_ACTIVATIONS)
    @pytest.mark.parametrize("base", sorted(BASE_OPS))
    def test_matches_the_composed_ops(self, base, act):
        self.check(base, act, scaled=True)

    @pytest.mark.parametrize("act", T.CONV_ACTIVATIONS)
    @pytest.mark.parametrize("base", sorted(BASE_OPS))
    def test_without_a_scale_matches_the_activation_bit_for_bit(self, base, act):
        self.check(base, act, scaled=False)

    @pytest.mark.parametrize("scaled", [True, False], ids=["scaled", "unscaled"])
    def test_dense_softmax_matches_the_composed_ops(self, scaled):
        self.check("dense", "softmax", scaled)

    @pytest.mark.parametrize(
        "base,act", [(base, act) for base in sorted(BASE_OPS) for act in T.CONV_ACTIVATIONS] + [("dense", "softmax")]
    )
    def test_a_0d_omega_folded_into_the_weights_matches_the_composed_ops_up_to_rounding(self, base, act):
        (got, *got_grads), (want, *_) = self.fused_and_composed(base, act, scaled=True, folded=True)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert got_grads == [None] * 5  # a folded op records no node

    @pytest.mark.parametrize("act", ["tanh", "linear"])
    @pytest.mark.parametrize("base", sorted(BASE_OPS))
    def test_a_0d_omega_on_the_tape_is_the_repeated_omega_bit_for_bit(self, base, act):
        # on the tape nothing folds: a 0-d omega runs the per-sample head with omega repeated to [B]
        op, xshape, kshape = BASE_OPS[base]
        rng = np.random.default_rng(4)
        arrays = [rng.standard_normal(xshape), rng.standard_normal(kshape), rng.standard_normal(5),
                  rng.normal(0.0, 0.3, 5), rng.uniform(0.5, 1.5, 5)]
        g = None
        results = []
        for omega in (np.asarray(0.3), np.full(3, 0.3)):
            x, k, b, nu, c = (Tensor(a.copy(), requires_grad=True) for a in arrays)
            out = op(x, k, b, act=act, scale=(omega, nu, c))
            if g is None:
                g = rng.standard_normal(out.shape)
            pulled(out, g).backward()
            results.append([out.data] + [p.grad for p in (x, k, b, nu, c)])
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("base", sorted(BASE_OPS))
    def test_output_and_input_gradient_are_views_of_a_batch_last_array(self, base):
        # conv outputs and their gradients are NCHW views of [C, H, W, B] memory;
        # dense rows stay [B, C]
        op, xshape, kshape = BASE_OPS[base]
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal(xshape), requires_grad=True)
        out = op(x, t(rng.standard_normal(kshape)), t(rng.standard_normal(5)),
                 act="tanh", scale=(rng.uniform(-1, 1, 3), t(np.ones(5)), t(np.ones(5))))
        (dx,) = [grad for parent, grad in out._backward_fn(np.ones(out.shape)) if parent is x]
        for a in (dx, out.data):
            if base == "dense":
                assert a.flags.c_contiguous
            else:
                assert np.moveaxis(a, 0, -1).flags.c_contiguous

    def test_relu_propagates_nan(self):
        # x @ w.T + b is w's column: [nan, -1, 0, 2]
        w, b = t([[np.nan], [-1.0], [0.0], [2.0]]), t(np.zeros(4), grad=True)
        out = T.linear(t([[1.0]]), w, b, act="relu", scale=(np.array([0.5]), t(np.zeros(4)), t(np.ones(4))))
        np.testing.assert_array_equal(out.data, [[np.nan, 0, 0, 2]])
        pulled(out, np.full((1, 4), 3.0)).backward()
        np.testing.assert_array_equal(b.grad, [0, 0, 0, 3])  # g * (y > 0), as relu's

    def test_bad_shapes_and_softmax_rejected(self):
        x, k, b = t(np.ones((2, 3, 4, 4))), t(np.ones((3, 3, 1, 1))), t(np.zeros(3))
        ones = t(np.ones(3))
        with pytest.raises(ConfigError, match="conv2d: scale"):
            T.conv2d(x, k, b, act="tanh", scale=(np.zeros(3), ones, ones))  # one omega per sample
        with pytest.raises(ConfigError, match="conv2d: scale"):
            T.conv2d(x, k, b, act="tanh", scale=(np.zeros(2), t(np.ones(4)), t(np.ones(4))))
        for recording in (contextlib.nullcontext(), T.no_tape()):  # a 0-d omega per sample, then folded
            with recording, pytest.raises(ConfigError, match="conv2d: scale"):
                T.conv2d(x, k, b, act="tanh", scale=(np.asarray(0.5), t(np.ones(4)), t(np.ones(4))))
        for head in ({"scale": (np.zeros(2), ones, ones)}, {}):
            with pytest.raises(ConfigError, match="conv2d: activation 'softmax'"):
                T.conv2d(x, k, b, act="softmax", **head)
            with pytest.raises(ConfigError, match="upconv2d: activation 'softmax'"):
                T.upconv2d(x, k, b, 2, 0, act="softmax", **head)


# every memory layout an op can be handed: C-contiguous NCHW, an NCHW view of
# channels-last or of batch-last memory, and the reversed-axes (Fortran) view
LAYOUTS = {
    "nchw": np.ascontiguousarray,
    "channels_last": lambda a: np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 1, -1)), -1, 1),
    "batch_last": lambda a: np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0),
    "reversed": np.asfortranarray,
}
OMEGA = np.array([-0.7, 0.2, 0.9])
# (op, shapes of its arguments): the first argument is the input whose layout varies
LAYOUT_OPS = {
    "linear": (T.linear, [(3, 4), (5, 4), (5,)]),
    "conv2d": (lambda x, k, b: T.conv2d(x, k, b, 2, 1), [(3, 2, 5, 4), (5, 2, 3, 2), (5,)]),
    # a map no larger than the kernel window: conv2d's dense path
    "conv2d_small_map": (lambda x, k, b: T.conv2d(x, k, b, 1, 1), [(3, 2, 2, 2), (5, 2, 3, 2), (5,)]),
    "upconv2d": (lambda x, k, b: T.upconv2d(x, k, b, 2, 1), [(3, 2, 3, 4), (5, 2, 3, 2), (5,)]),
    # scale_act_*: an op with its head, a scale and an activation
    "scale_act_dense": (
        lambda x, w, b, nu, c: T.linear(x, w, b, act="tanh", scale=(OMEGA, nu, c)),
        [(3, 4), (5, 4), (5,), (5,), (5,)],
    ),
    "scale_act_conv": (
        lambda x, k, b, nu, c: T.conv2d(x, k, b, 2, 1, act="sigmoid", scale=(OMEGA, nu, c)),
        [(3, 2, 5, 4), (5, 2, 3, 2), (5,), (5,), (5,)],
    ),
}


@pytest.mark.parametrize("g_layout", sorted(LAYOUTS))
@pytest.mark.parametrize("x_layout", sorted(LAYOUTS))
@pytest.mark.parametrize("op", sorted(LAYOUT_OPS))
def test_results_do_not_depend_on_memory_layout(op, x_layout, g_layout):
    """Values and gradients are those of C-contiguous NCHW input and gradient."""
    fn, shapes = LAYOUT_OPS[op]
    rng = np.random.default_rng(12)
    arrays = [rng.standard_normal(shape) for shape in shapes]
    results = []
    for xl, gl in (("nchw", "nchw"), (x_layout, g_layout)):
        args = [Tensor(LAYOUTS[xl](arrays[0]), requires_grad=True)]
        args += [Tensor(a.copy(), requires_grad=True) for a in arrays[1:]]
        out = fn(*args)
        g = np.random.default_rng(13).standard_normal(out.shape)
        pulled(out, LAYOUTS[gl](g)).backward()
        results.append([out.data] + [a.grad for a in args])
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestReshape:
    def test_views_the_data_and_hands_back_the_gradient_in_the_input_shape(self):
        x = t(np.arange(6.0), grad=True)
        y = T.reshape(x, (2, 3))
        np.testing.assert_array_equal(y.data, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        g = np.arange(6.0).reshape(2, 3) * 10.0
        T.tsum(T.mul(y, t(g))).backward()
        np.testing.assert_array_equal(x.grad, g.reshape(6))

    def test_an_empty_shape_is_one_element(self):
        assert T.reshape(t([5.0]), ()).shape == ()
        assert T.reshape(t(5.0), (1, 1)).shape == (1, 1)
        assert T.reshape(t(np.ones((0, 3))), (3, 0)).shape == (3, 0)

    @pytest.mark.parametrize("shape", [(-2, -2), (-4, -1), (-1, 4), (-1,), (3,), (2, 3)])
    def test_a_negative_or_wrong_size_is_rejected(self, shape):
        # (-2, -2) and (-4, -1) have the right product; numpy would refuse them with a ValueError
        with pytest.raises(ConfigError, match=r"reshape: cannot view \(4,\) as"):
            T.reshape(t(np.ones(4)), shape)


class TestNoTape:
    def test_nothing_made_inside_records_a_graph(self, monkeypatch):
        rng = np.random.default_rng(0)
        x, k, b, c = (Tensor(rng.standard_normal(shape), requires_grad=True)
                      for shape in ((2, 2, 4, 4), (3, 2, 3, 3), (3,), (3,)))
        made = []
        real_init = Tensor.__init__

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        with T.no_tape():
            y = T.conv2d(x, k, b, 1, 1, act="relu", scale=(np.zeros(2), b, c))
            T.tmean(T.mul(y, T.tanh(y)))
        monkeypatch.undo()
        assert len(made) == 4
        assert all(m._backward_fn is None and m._parents == () and not m._track for m in made)
        assert T.tanh(x)._backward_fn is not None  # recording again after the block

    def test_flag_is_restored_after_an_exception(self):
        x = t([1.0, 2.0], grad=True)
        with pytest.raises(ZeroDivisionError):
            with T.no_tape():
                with T.no_tape():
                    pass
                assert T.tanh(x)._backward_fn is None
                1 / 0
        assert T.tanh(x)._backward_fn is not None


class TestBackward:
    def test_square(self):
        x = t([3.0], grad=True)
        T.tsum(T.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_sum_linear_layer(self):
        w = t(np.ones((3, 2)), grad=True)
        f = t([[2.0, 5.0]])
        T.tsum(T.matmul(f, Tensor(w.data.T, requires_grad=False))).backward()
        # grad_W of sum(W f) is outer(ones, f); checked via the direct form
        w2 = t(np.ones((3, 2)), grad=True)
        T.tsum(T.linear(f, w2, t(np.zeros(3)))).backward()
        np.testing.assert_allclose(w2.grad, np.outer(np.ones(3), [2.0, 5.0]))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ConfigError, match="scalar"):
            t([1.0, 2.0], grad=True).backward()

    def test_unused_parameter_has_no_grad(self):
        used = t([1.0], grad=True)
        unused = t([1.0], grad=True)
        T.tsum(T.mul(used, used)).backward()
        assert unused.grad is None

    def test_backward_is_linear(self):
        rng = np.random.default_rng(5)
        xd = rng.standard_normal(4)
        alpha, beta = 2.5, -1.25

        def grad_of(scale1, scale2):
            x = Tensor(xd.copy(), requires_grad=True)
            l1 = T.tsum(T.mul(x, x))
            l2 = T.tsum(T.tanh(x))
            T.add(T.scale(l1, scale1), T.scale(l2, scale2)).backward()
            return x.grad

        combined = grad_of(alpha, beta)
        separate = alpha * grad_of(1.0, 0.0) + beta * grad_of(0.0, 1.0)
        np.testing.assert_allclose(combined, separate, atol=1e-12)

    def test_a_leaf_read_by_two_ops_gets_both_contributions(self):
        q = t([3.0, 0.5])
        expected = q.data + (1.0 - np.tanh([1.0, -2.0]) ** 2)
        owned = np.zeros(2)
        for start in (None, owned):
            p = t([1.0, -2.0], grad=True)
            p.grad = start
            T.tsum(T.add(T.mul(p, q), T.tanh(p))).backward()
            np.testing.assert_allclose(p.grad, expected, rtol=1e-15)
        # an array the leaf's grad already holds takes both in place, as an optimizer's view does
        assert p.grad is owned

    def test_gradients_accumulate_across_calls(self):
        x = t([3.0], grad=True)
        for _ in range(2):
            T.tsum(T.mul(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [12.0])

    def test_a_first_contribution_is_copied(self):
        # add returns the same array for both parents; each leaf must own its gradient
        a, b = t([1.0], grad=True), t([2.0], grad=True)
        T.tsum(T.add(a, b)).backward()
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, [1.0])

    def test_a_scalar_leaf_is_its_own_loss(self):
        s = t(2.0, grad=True)
        s.backward()
        s.backward()
        assert s.grad.shape == () and float(s.grad) == 2.0
        plain = t(2.0)
        plain.backward()
        assert plain.grad is None

    def test_an_interior_node_read_by_two_ops_collects_both_before_its_backward(self):
        # y = tanh(x) feeds mul and add: d loss / dy = q + 1 must be complete before tanh's backward runs
        x = t([0.0, 0.0, 1.0], grad=True)
        q = t([2.0, -0.5, 3.0])
        y = T.tanh(x)
        T.tsum(T.add(T.mul(y, q), y)).backward()
        z = np.tanh(1.0)
        np.testing.assert_array_equal(x.grad, [3.0, 0.5, 4.0 * (1.0 - z * z)])

    def test_forward_bit_identical_across_runs(self):
        rng = np.random.default_rng(11)
        xd = rng.standard_normal((3, 3))

        def run():
            x = Tensor(xd)
            return T.softmax(T.tanh(T.matmul(x, x))).data

        assert np.array_equal(run(), run())


class TestFiniteDiffCheck:
    def test_quadratic_is_nearly_exact(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        err = finite_diff_check(lambda: T.tsum(T.mul(x, x)), [x])
        assert err < 1e-9

    def test_dense_tanh(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 4)))
        err = finite_diff_check(lambda: T.tsum(T.tanh(T.linear(x, w, b))), [w, b])
        assert err < 1e-6

    def test_conv_relu_away_from_kinks(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.uniform(0.5, 1.5, (1, 1, 4, 4)))
        k = Tensor(rng.uniform(0.3, 1.0, (2, 1, 3, 3)), requires_grad=True)
        b = Tensor(np.full(2, 0.5), requires_grad=True)
        err = finite_diff_check(lambda: T.tsum(T.relu(T.conv2d(x, k, b, 1, 1))), [k, b])
        assert err < 1e-6

    @staticmethod
    def tiny_first_factor(rng):
        """p ~ U(-1, 1) and q whose first element is 1e-7, so d/dp[0] of tanh(p * q) is about 1e-7."""
        p = Tensor(rng.uniform(-1.0, 1.0, 8), requires_grad=True)
        q = Tensor(np.concatenate([[1e-7], rng.uniform(-1.0, 1.0, 7)]), requires_grad=True)
        return p, q

    def test_a_tiny_correct_gradient_element_is_no_error(self):
        # the differences' rounding noise on a 1e-7 element read 1.3e-4 under a plain relative error
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(20):
            p, q = self.tiny_first_factor(rng)
            worst = max(worst, finite_diff_check(lambda: T.tsum(T.tanh(T.mul(p, q))), [p, q]))
        assert worst < 1e-5

    def test_a_relative_1e4_error_on_one_element_is_caught(self):
        def mul_off(a, b):
            """mul whose gradient for a[3] is off by a relative 1e-4."""

            def backward(g):
                ga = g * b.data
                ga[3] *= 1.0 + 1e-4
                return [(a, ga), (b, g * a.data)]

            return T._make(a.data * b.data, (a, b), backward)

        rng = np.random.default_rng(0)
        for _ in range(20):
            p, q = self.tiny_first_factor(rng)
            q.data[3] = 0.8  # d/dp[3] = 0.8 * (1 - tanh(0.8 * p[3])**2) is in [0.45, 0.8]
            assert finite_diff_check(lambda: T.tsum(T.tanh(mul_off(p, q))), [p, q]) > 1e-5


@pytest.mark.parametrize("seed", range(20))
def test_randomized_op_gradients(seed):
    """Randomized shapes per op; the full >=100-case sweep lives in acceptance."""
    rng = np.random.default_rng(seed)
    m, n, k = rng.integers(1, 4, size=3)
    a = Tensor(rng.standard_normal((m, k)), requires_grad=True)
    b = Tensor(rng.standard_normal((k, n)), requires_grad=True)
    assert finite_diff_check(lambda: T.tsum(T.tanh(T.matmul(a, b))), [a, b]) < 1e-5
    v = Tensor(rng.standard_normal(m), requires_grad=True)
    assert finite_diff_check(lambda: T.tsum(T.sigmoid(T.scale_rowwise(a, v))), [a, v]) < 1e-5
