"""Fuzzed inputs keep the CLI's exit-code contract: a documented code, no traceback.

An exception that escapes `main` fails the test with its traceback, so each
case checks both the returned code and that nothing escaped.  The last test
is an end-to-end oracle over random architectures drawn from the layer grammar.
"""

import contextlib
import io
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperajscc import tensor as T
from hyperajscc.checkpoint import load_model, save_checkpoint
from hyperajscc.cli import EXIT_CONFIG, EXIT_CORRUPT, EXIT_NUMERIC, EXIT_OK, main
from hyperajscc.config import parse_run_config
from hyperajscc.data import RECORD_BYTES
from hyperajscc.errors import ConfigError
from hyperajscc.models import _omega_t, _propagate, build_model, count_params, forward_pipeline
from hyperajscc.tensor import ACTIVATIONS, Tensor, finite_diff_check
from hyperajscc.training import cross_entropy_loss, mse_loss

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


# ---------------------------------------------------------------------------
# an end-to-end gradient and round-trip oracle over random architectures

HIDDEN_ACTS = tuple(a for a in ACTIVATIONS if a != "softmax")
CHANNEL_ACTS = ("linear", "tanh", "sigmoid")  # of the layer before the power normalization
RELU_MARGIN = 1e-3  # a relu input this close to 0 may cross the kink under a finite-difference step
FD_MAX_PARAMS = 300  # keeps the finite differences inside the test's time budget


@st.composite
def spatial_layer(draw, min_out=1, acts=HIDDEN_ACTS):
    """A conv, deconv or resblock item, with tokens from each kind's own grammar."""
    kind = draw(st.sampled_from(["conv", "deconv", "resblock"]))
    tokens = [kind, f"o{draw(st.integers(min_out, 3))}", f"k{draw(st.integers(1, 4))}"]
    if kind == "conv":
        tokens.append(f"s{draw(st.integers(1, 2))}")
    if kind != "resblock":
        tokens.append(f"p{draw(st.integers(0, 2))}")
    if kind == "deconv":
        tokens.append("u2")
    tokens.append(draw(st.sampled_from(acts)))
    return " ".join(tokens + ["hyper"] * draw(st.booleans()))


def dense_layer(draw, out, acts):
    return " ".join([f"dense o{out}", draw(st.sampled_from(acts))] + ["hyper"] * draw(st.booleans()))


@st.composite
def model_sections(draw):
    """A [model] section drawn from the layer grammar; parse_run_config may still refuse it.

    Three draws would make a gradient exactly zero, where the 1e-8 floor of
    finite_diff_check turns rounding noise into an error, so none is made:
    - a softmax anywhere but the final dense decoder layer: it is
      shift-invariant, so the bias before it has no gradient;
    - a relu on the layer before the power normalization: it can leave one
      nonzero symbol in a row, which normalizes to the same row whatever the
      layer's parameters are (or none, a numeric abort);
    - a one-channel spatial layer before the power normalization: with a
      linear activation it is scale-invariant, so its nu and c have no gradient.
    """
    task = draw(st.sampled_from(["reconstruction", "classification"]))
    c, h, w = draw(st.integers(1, 2)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    n_spatial = draw(st.integers(0, 2))
    if draw(st.booleans()):  # reach the channel through a dense layer
        encoder = [draw(spatial_layer()) for _ in range(n_spatial)]
        encoder += ["flatten", dense_layer(draw, 2 * d, CHANNEL_ACTS)]
    else:
        encoder = [draw(spatial_layer()) for _ in range(n_spatial - 1)]
        encoder += [draw(spatial_layer(2, CHANNEL_ACTS)) for _ in range(min(n_spatial, 1))] + ["flatten"]
    decoder = []
    if draw(st.booleans()):
        shapes = [(a, b, 2 * d // (a * b)) for a in range(1, 9) for b in range(1, 9) if (2 * d) % (a * b) == 0]
        sc, sh, sw = draw(st.sampled_from(shapes))
        decoder += [f"reshape {sc}x{sh}x{sw}", *draw(st.lists(spatial_layer(), min_size=1, max_size=2)), "flatten"]
    if task == "classification":
        k = draw(st.integers(2, 3))
        decoder.append(dense_layer(draw, k, ("softmax",)))
        extra = f"num_classes = {k}\n"
    else:
        n = c * h * w
        decoder.append(dense_layer(draw, n, ACTIVATIONS if n > 1 else HIDDEN_ACTS))
        extra = ""
    return (
        f"[model]\ntask = {task}\ninput_shape = {c}x{h}x{w}\nbandwidth = {d}\n{extra}"
        f"encoder = {' | '.join(encoder)}\ndecoder = {' | '.join(decoder)}\n"
    )


def excite(model, rng):
    """Move nu, c and the biases off their init values, so no gradient is zero by construction."""
    for name, t in model.named_parameters():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("nu", "b0"):
            t.data[...] = rng.uniform(-0.3, 0.3, t.shape)
        elif leaf == "c":
            t.data[...] = rng.uniform(0.5, 1.5, t.shape)


def check_layer_shapes(model, f, omegas, half, specs, shape):
    """Runs one half layer by layer; every output shape must be the one _propagate infers."""
    omega_t = _omega_t(model.config, omegas)
    for i, (layer, spec) in enumerate(zip(getattr(model, half), specs)):
        shape = _propagate(shape, [spec], half)
        f = layer.forward(f, omega_t)
        assert f.shape == (f.shape[0],) + shape, f"{half}[{i}] {spec}"


@FUZZ
@given(text=model_sections(), seed=st.integers(0, 2**32 - 1))
def test_random_architecture_oracle(workdir, text, seed):
    """parse_run_config accepts a drawn section or raises ConfigError; an accepted model passes four checks.

    Its layers build the shapes _propagate infers, count_params adds up its
    parameters, save -> load -> save is byte-identical, and at B = 2 with
    nu, c and the biases excited the task loss's gradient matches central
    differences (P1's 1e-5) through encode -> power norm -> AWGN -> decode.
    The finite differences are skipped for a model over FD_MAX_PARAMS and
    for one with a relu input within RELU_MARGIN of the kink.  About 1 in
    300 random draws has a gradient element below ~1e-6, at the rounding
    noise of the 1e-5 step; finite_diff_check measures it against 1e-3 of
    its parameter's largest gradient, so it reads no error.
    """
    try:
        cfg = parse_run_config(text)
    except ConfigError:
        return
    model = build_model(cfg.model, seed=seed)
    rng = np.random.default_rng([seed, 1])  # a stream apart from the init's, whose draws would align
    excite(model, rng)
    mc = cfg.model
    x = rng.uniform(-0.9, 0.9, (2,) + mc.input_shape)
    labels = rng.integers(0, max(mc.num_classes, 1), size=2)
    omegas = rng.uniform(0.0, 20.0, size=2)

    # every built layer's output shape is the one the config check inferred
    check_layer_shapes(model, Tensor(x), omegas, "encoder", mc.encoder, mc.input_shape)
    z = Tensor(rng.standard_normal((2, 2 * mc.bandwidth)))
    check_layer_shapes(model, z, omegas, "decoder", mc.decoder, (2 * mc.bandwidth,))

    # count_params adds up the parameter sizes, per layer and in total
    named = model.named_parameters()
    n_params = sum(t.size for _, t in named)
    report = count_params(model)
    assert report["total_base"] + report["total_introduced"] == n_params
    assert report["total_introduced"] == sum(t.size for n, t in named if n.endswith((".nu", ".c")))
    for layer, _, base, intro in report["per_layer"]:
        assert base + intro == sum(t.size for n, t in named if n.startswith(layer + "."))

    # save -> load -> save is byte-identical
    path = str(workdir / "oracle.haj")
    save_checkpoint(path, model, text)
    with open(path, "rb") as fh:
        saved = fh.read()
    save_checkpoint(path, load_model(path)[0], text)
    with open(path, "rb") as fh:
        assert fh.read() == saved

    # the task loss through encode -> power norm -> AWGN -> decode, with frozen noise
    noise_seed = int(rng.integers(2**31))

    def loss():
        xt = Tensor(x)
        out = forward_pipeline(model, xt, omegas, np.random.default_rng(noise_seed))
        return mse_loss(xt, out) if mc.task == "reconstruction" else cross_entropy_loss(out, labels)

    relu_inputs = []
    real_activation = T.activation

    def recording_activation(kind, t):
        if kind == "relu":  # a resblock's relu after its add
            relu_inputs.append(np.abs(t.data).min())
        return real_activation(kind, t)

    def recording(op):
        real_op = getattr(T, op)

        def call(*args, act="linear", scale=None):
            if act == "relu":  # a layer's relu input is its op's (scaled) output without the activation
                relu_inputs.append(np.abs(real_op(*args, scale=scale).data).min())
            return real_op(*args, act=act, scale=scale)

        return mock.patch.object(T, op, call)

    with (
        mock.patch.object(T, "activation", recording_activation),
        recording("linear"),
        recording("conv2d"),
        recording("upconv2d"),
    ):
        assert np.isfinite(float(loss().data))
    if n_params > FD_MAX_PARAMS or min(relu_inputs, default=np.inf) < RELU_MARGIN:
        return
    assert finite_diff_check(loss, model.parameters()) <= 1e-5
