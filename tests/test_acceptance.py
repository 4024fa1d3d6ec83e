"""Acceptance suite: one criterion per test, one printed pass/fail line each.

The heavyweight end-to-end runs (the reconstruction envelope shared by the
adaptive-vs-fixed and graceful-degradation criteria, and the classification
margins) are scripts/seed_audit.py's `recon_row` and `class_row`, called
from module-scoped fixtures so each model is trained exactly once.
Everything is seeded: the measured numbers reproduce bit-for-bit on every
run of this file.
"""

import itertools
import os
import time

import numpy as np
import pytest

from hyperajscc import tensor as T
from hyperajscc.channel import awgn_transmit, power_normalize
from hyperajscc.checkpoint import load_model, save_checkpoint
from hyperajscc.cli import EXIT_OK, main
from hyperajscc.gradcheck import _checks, _layer_checks, run_suite
from hyperajscc.metrics import psnr_from_mse
from hyperajscc.models import LayerSpec, ModelConfig, build_model, count_params, encode
from hyperajscc.tensor import Tensor

from seed_audit import class_row, margins, recon_row, shipped_model_config, worst_dip
from test_config import GOOD


def report(capsys, name, passed, detail):
    with capsys.disabled():
        print(f"\n{name}: {'pass' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared end-to-end experiments (scripts/seed_audit.py), each run once


@pytest.fixture(scope="module")
def recon_experiment():
    """Adaptive model + four fixed-SNR baselines on 8x8 reconstruction, d=8, training seed 0."""
    t0 = time.perf_counter()
    gaps, means = recon_row(0)
    return {"gaps": gaps, "means": means, "wall_s": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def class_experiment():
    """Adaptive vs fixed-1dB and fixed-19dB classifiers, d=4, training seeds 0, 1, 2."""
    t0 = time.perf_counter()
    rows = [class_row(seed) for seed in (0, 1, 2)]
    return {"rows": rows, "wall_s": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# criteria


def test_p1_gradient_oracle(capsys):
    t0 = time.perf_counter()
    n_cases = (
        sum(1 for _ in _checks(np.random.default_rng(0), 8))
        + sum(1 for _ in _layer_checks(np.random.default_rng(0), 8))
        + 1  # end-to-end objective with frozen noise
    )
    results = run_suite(size="small", seed=0)
    wall = time.perf_counter() - t0
    worst = max(results, key=lambda r: r.max_rel_err)
    ok = all(r.passed for r in results) and n_cases >= 100 and wall < 120
    report(
        capsys, "P1 gradient oracle", ok,
        f"{n_cases} cases over {len(results)} checks, worst {worst.op} "
        f"rel err {worst.max_rel_err:.2e} < 1e-5, {wall:.1f}s < 120s",
    )


def test_p1_checks_conv2d_on_both_of_its_paths(monkeypatch):
    """P1 runs conv2d on a map no larger than its kernel window (its windows) and on a larger one (its taps).

    On each path there is an op check, and a scaled conv layer head for
    every conv activation.  The window path has an op check in each of its
    forms: one GEMM where every window is the whole map, and a batched GEMM
    over per-pixel windows.
    """
    conv2d, current, seen = T.conv2d, [""], {"taps": set(), "single": set(), "batched": set()}

    def spy(x, k, b, stride=1, padding=0, *args, **kwargs):
        (_, Cin, H, W), (_, _, KH, KW) = x.shape, k.shape
        if H * W > KH * KW:
            form = "taps"
        else:
            Ho, Wo = T.conv_output_size("spy", H, W, KH, KW, stride, padding)
            form = "single" if T._window_plan(Cin, H, W, KH, KW, Ho, Wo, stride, padding)[2] is None else "batched"
        seen[form].add(current[0])
        return conv2d(x, k, b, stride, padding, *args, **kwargs)

    monkeypatch.setattr(T, "conv2d", spy)
    rng = np.random.default_rng(0)
    for name, f, _ in itertools.chain(_checks(rng, 1), _layer_checks(rng, 1)):
        current[0] = name  # the checks' own draws, between two checks, run under ""
        f()
        current[0] = ""
    for form, names in seen.items():
        assert any(name.startswith("conv2d") for name in names), (form, sorted(names))
    for path, names in (("taps", seen["taps"]), ("windows", seen["single"] | seen["batched"])):
        heads = {name.rsplit("_", 1)[1] for name in names if name.startswith("conv") and "_scaled_" in name}
        assert heads == set(T.CONV_ACTIVATIONS), (path, sorted(names))


def test_p2_identity_recovery(capsys):
    hyper = build_model(shipped_model_config("default_recon"), 0)
    plain = build_model(shipped_model_config("default_recon", hyper=False), 0)
    x = Tensor(np.random.default_rng(0).uniform(-0.9, 0.9, (4, 3, 8, 8)))
    bit_identical = all(
        np.array_equal(encode(hyper, x, om).values.data, encode(plain, x, om).values.data)
        for om in (0.0, 5.0, 10.0, 15.0, 20.0)
    )
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        xi = Tensor(rng.standard_normal((1, 2, 4, 4)))
        k = Tensor(rng.standard_normal((3, 2, 3, 3)))
        b = Tensor(rng.standard_normal(3))
        s = Tensor(rng.uniform(0.5, 2.0, 3))
        via_kernels = T.conv2d(xi, Tensor(k.data * s.data[:, None, None, None]), Tensor(s.data * b.data), 1, 1)
        via_channels = T.conv2d(xi, k, b, 1, 1).data * s.data[None, :, None, None]
        worst = max(worst, np.abs(via_kernels.data - via_channels).max())
    ok = bit_identical and worst < 1e-12
    report(
        capsys, "P2 identity recovery", ok,
        f"identity-init output bit-identical over 5 conditions: {bit_identical}; "
        f"kernel-vs-channel scaling max |diff| {worst:.2e} < 1e-12",
    )


def test_p3_channel_calibration(capsys):
    rng = np.random.default_rng(1)
    n_symbols = 100_000
    sym = power_normalize(Tensor(np.random.default_rng(9).standard_normal((n_symbols // 4, 8))))
    power_err = np.abs((sym.values.data**2).sum(axis=1) / sym.d - 1.0).max()
    worst_db = 0.0
    for omega in (0.0, 5.0, 10.0, 15.0, 20.0):
        out = awgn_transmit(sym, omega, rng)
        noise = out.data - sym.values.data
        p_noise = (noise**2).sum() / (noise.size / 2)
        worst_db = max(worst_db, abs(10 * np.log10(1.0 / p_noise) - omega))
    ok = worst_db < 0.1 and power_err < 1e-9
    report(
        capsys, "P3 channel calibration", ok,
        f"max SNR error {worst_db:.3f} dB < 0.1 over 1e5 symbols; "
        f"max power error {power_err:.1e} < 1e-9",
    )


def test_p4_parameter_accounting(capsys):
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        widths = [int(w) for w in rng.integers(2, 40, size=int(rng.integers(1, 4)))]
        d = int(rng.integers(1, 9))
        hyper_flags = [bool(rng.integers(0, 2)) for _ in widths] + [bool(rng.integers(0, 2))]
        cfg = ModelConfig(
            task="reconstruction",
            input_shape=(1, 4, 4),
            bandwidth=d,
            encoder=[LayerSpec("flatten")]
            + [LayerSpec("dense", out=w, act="relu", hyper=h) for w, h in zip(widths, hyper_flags[:-1])]
            + [LayerSpec("dense", out=2 * d, act="linear", hyper=hyper_flags[-1])],
            decoder=[LayerSpec("dense", out=16, act="tanh", hyper=False)],
        )
        model = build_model(cfg, seed)
        # hand-count oracle: 2 per output channel of each hyper-enabled layer
        expected = 2 * sum(w for w, h in zip(widths + [2 * d], hyper_flags) if h)
        ok = ok and count_params(model)["total_introduced"] == expected
    plain = count_params(build_model(shipped_model_config("default_recon", hyper=False), 0))
    default = count_params(build_model(shipped_model_config("default_recon"), 0))
    ratio = default["total_introduced"] / default["total_base"]
    ok = ok and plain["total_introduced"] == 0 and ratio < 0.02
    report(
        capsys, "P4 parameter accounting", ok,
        f"20 random architectures match hand count; plain mode introduces 0; "
        f"default model {default['total_introduced']}/{default['total_base']} = {ratio:.2%} < 2%",
    )


def test_p5_psnr_formula(capsys):
    errs = [
        abs(psnr_from_mse(0.01) - 20.0),
        abs(psnr_from_mse(1.0) - 0.0),
        abs(psnr_from_mse(1e-4) - 40.0),
    ]
    ok = max(errs) < 1e-9
    report(capsys, "P5 PSNR formula", ok, f"closed-form cases max error {max(errs):.1e} < 1e-9")


def test_p6_adaptive_vs_fixed(capsys, recon_experiment):
    gaps = recon_experiment["gaps"]
    worst = max(abs(g) for _, g in gaps)
    wall = recon_experiment["wall_s"]
    ok = worst <= 1.0 and wall < 900
    detail = ", ".join(f"{s:g}dB:{g:+.3f}" for s, g in gaps)
    report(
        capsys, "P6 adaptive-vs-fixed envelope", ok,
        f"PSNR gaps [{detail}] dB, max |gap| {worst:.3f} <= 1.0; {wall:.0f}s < 900s",
    )


def test_p7_graceful_degradation(capsys, recon_experiment):
    means = recon_experiment["means"]
    dip = worst_dip(means)
    ok = dip <= 0.2
    report(
        capsys, "P7 graceful degradation", ok,
        f"adaptive PSNR {means[0]:.2f}->{means[-1]:.2f} dB over 0-20 dB, "
        f"worst adjacent dip {max(dip, 0):.3f} <= 0.2",
    )


def test_p8_task_oriented_margins(capsys, class_experiment):
    margin_19, margin_1 = np.mean([margins(r) for r in class_experiment["rows"]], axis=0)
    wall = class_experiment["wall_s"]
    ok = margin_19 >= 0 and margin_1 >= 0 and wall < 600
    report(
        capsys, "P8 task-oriented margins", ok,
        f"3-seed mean accuracy margins: vs fixed-1dB @19dB {margin_19:+.4f}, "
        f"vs fixed-19dB @1dB {margin_1:+.4f}, both >= 0; {wall:.0f}s < 600s",
    )


def test_p9_determinism_round_trip(capsys, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(GOOD)
    blobs, csvs = [], []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["train", str(cfg_path), "--out", out]) == EXIT_OK
        ckpt = os.path.join(out, "checkpoint.haj")
        csv = os.path.join(out, "sweep.csv")
        assert main(["sweep", ckpt, "--seeds", "0,1", "--csv", csv]) == EXIT_OK
        blobs.append(open(ckpt, "rb").read())
        csvs.append(open(csv, "rb").read())
    runs_identical = blobs[0] == blobs[1] and csvs[0] == csvs[1]

    model, run_cfg = load_model(str(tmp_path / "a" / "checkpoint.haj"))
    resaved = str(tmp_path / "resaved.haj")
    save_checkpoint(resaved, model, run_cfg.text)
    round_trip = open(resaved, "rb").read() == blobs[0]
    ok = runs_identical and round_trip
    report(
        capsys, "P9 determinism & round-trip", ok,
        f"two runs byte-identical (checkpoint+CSV): {runs_identical}; "
        f"save/load/save byte-identical: {round_trip}",
    )
