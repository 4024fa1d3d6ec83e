import numpy as np
import pytest

from hyperajscc import tensor as T
from hyperajscc.channel import awgn_transmit
from hyperajscc.data import synthetic_dataset
from hyperajscc.errors import ConfigError, NumericAbortError
from hyperajscc.metrics import snr_sweep
from hyperajscc.models import build_model, decode, encode, forward_pipeline
from hyperajscc.tensor import Tensor, finite_diff_check
from hyperajscc.training import (
    Adam,
    TrainConfig,
    cross_entropy_loss,
    mse_loss,
    train,
    train_step,
)

from seed_audit import shipped_model_config
from test_models import toy_dense_config


class TestMseLoss:
    def test_identical_inputs(self):
        x = Tensor([[1.0, 2.0]])
        assert float(mse_loss(x, Tensor(x.data.copy())).data) == 0.0

    def test_unit_error(self):
        assert float(mse_loss(Tensor([0.0, 0.0]), Tensor([1.0, 1.0])).data) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            mse_loss(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_gradient(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal(6))
        xh = Tensor(rng.standard_normal(6), requires_grad=True)
        mse_loss(x, xh).backward()
        np.testing.assert_allclose(xh.grad, 2 * (xh.data - x.data) / 6)
        assert finite_diff_check(lambda: mse_loss(x, xh), [xh]) < 1e-8


class TestCrossEntropyLoss:
    def test_one_hot_correct(self):
        probs = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert float(cross_entropy_loss(probs, [0, 1]).data) < 1e-10

    def test_uniform_is_ln_k(self):
        probs = Tensor(np.full((4, 10), 0.1))
        assert float(cross_entropy_loss(probs, [0, 3, 5, 9]).data) == pytest.approx(np.log(10))

    def test_arithmetic(self):
        probs = Tensor([[0.75, 0.25]])
        assert float(cross_entropy_loss(probs, [0]).data) == pytest.approx(-np.log(0.75))

    def test_label_out_of_range(self):
        with pytest.raises(ConfigError, match="label"):
            cross_entropy_loss(Tensor([[0.5, 0.5]]), [2])

    def test_gradient_through_softmax(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        labels = [0, 2, 3]
        err = finite_diff_check(lambda: cross_entropy_loss(T.softmax(logits), labels), [logits])
        assert err < 1e-6


def reference_adam_step(params, grads, m, v, t, lr):
    """The step before Adam owned the gradient: concatenate the per-leaf
    copies (zeros for None), then the per-tensor recurrence on the vectors.
    Updates `m` and `v` in place and returns the new parameter values."""
    b1, b2, eps = Adam.beta1, Adam.beta2, Adam.eps
    g = np.concatenate([np.zeros(p.size) if gp is None else gp for p, gp in zip(params, grads)], axis=None)
    m[:] = b1 * m + (1 - b1) * g
    v[:] = b2 * v + (1 - b2) * g * g
    flat = np.concatenate([p.data for p in params], axis=None)
    flat -= lr * (m / (1 - b1**t)) / np.sqrt(v / (1 - b2**t) + eps)
    return flat


def bits(params):
    return b"".join(np.ascontiguousarray(p.data).tobytes() for p in params)


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam([p])
        opt.zero_grad()
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_closed_form(self):
        # g=1, lr=1e-3, betas (0.9, 0.999), eps 1e-8:
        # m_hat = v_hat = 1, delta = -lr / sqrt(1 + eps) = -0.000999999995
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p], lr=1e-3)
        p.grad = np.array([1.0])
        opt.step()
        assert float(p.data[0]) == pytest.approx(-0.000999999995, abs=1e-15)

    def test_two_identical_steps_match_closed_form(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p], lr=1e-3)
        for _ in range(2):
            p.grad = np.array([1.0])
            opt.step()
        b1, b2, lr, eps = 0.9, 0.999, 1e-3, 1e-8
        # replay the recurrence by hand
        m = v = 0.0
        x = 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * 1.0
            v = b2 * v + (1 - b2) * 1.0
            x -= lr * (m / (1 - b1**t)) / np.sqrt(v / (1 - b2**t) + eps)
        assert float(p.data[0]) == pytest.approx(x, abs=1e-15)

    def test_flat_step_is_bit_identical_to_the_per_tensor_recurrence(self):
        rng = np.random.default_rng(4)
        shapes = [(3, 2, 3, 3), (5, 4), (7,), (2,)]  # the last one never gets a gradient
        params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
        ref = [p.data.copy() for p in params]
        ref_m = [np.zeros_like(d) for d in ref]
        ref_v = [np.zeros_like(d) for d in ref]
        opt = Adam(params, lr=3e-3)
        b1, b2, eps, lr = Adam.beta1, Adam.beta2, Adam.eps, 3e-3
        for t in range(1, 26):
            opt.zero_grad()
            grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) for s in shapes[:-1]] + [None]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            # the per-tensor loop this optimizer replaced, kept as the reference
            for i, g in enumerate(grads):
                g = g if g is not None else np.zeros_like(ref[i])
                ref_m[i] = b1 * ref_m[i] + (1 - b1) * g
                ref_v[i] = b2 * ref_v[i] + (1 - b2) * g * g
                m_hat = ref_m[i] / (1 - b1**t)
                v_hat = ref_v[i] / (1 - b2**t)
                ref[i] -= lr * m_hat / np.sqrt(v_hat + eps)
            assert np.array_equal(opt.m, np.concatenate(ref_m, axis=None))
            assert np.array_equal(opt.v, np.concatenate(ref_v, axis=None))
            for p, r in zip(params, ref):
                assert np.array_equal(p.data, r)

    def test_parameters_become_views_of_one_vector(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.array([7.0]), requires_grad=True)
        opt = Adam([a, b])
        np.testing.assert_array_equal(opt.flat, [0, 1, 2, 3, 4, 5, 7])
        assert a.shape == (2, 3) and np.shares_memory(a.data, opt.flat)
        assert np.shares_memory(b.data, opt.flat)

    def test_rebound_parameter_is_an_error(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam([a, b])
        b.data = np.ones(2)  # no longer a view of the optimizer's vector
        b.grad = np.ones(2)
        with pytest.raises(ConfigError, match="rebound"):
            opt.step()

    def test_in_place_edit_is_kept(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam([p])
        p.data[1] = 5.0
        opt.zero_grad()
        opt.step()
        np.testing.assert_array_equal(p.data, [0.0, 5.0])

    def test_duplicate_parameter_is_rejected(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ConfigError, match="twice"):
            Adam([p, Tensor(np.zeros(1)), p])

    def test_no_parameters_step_is_a_no_op(self):
        opt = Adam([])
        opt.zero_grad()
        opt.step()
        opt.step()
        assert opt.flat.size == 0

    def test_backward_writes_into_the_owned_gradient(self):
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        b = Tensor(np.array([0.5]), requires_grad=True)
        opt = Adam([a, b])
        opt.grad[:] = 7.0  # zero_grad clears whatever the vector held
        opt.zero_grad()
        assert np.shares_memory(a.grad, opt.grad) and np.shares_memory(b.grad, opt.grad)
        T.tsum(T.mul(a, a)).backward()
        np.testing.assert_array_equal(opt.grad, [2.0, -4.0, 0.0])

    def test_negative_zero_gradient_gives_bit_equal_parameters(self):
        # h feeds relu straight, and its negative entries are dead units that the
        # loss pulls up, so the tape hands them -0.0 (relu' = 0 times a negative
        # gradient; numpy's sums start from +0.0, so a bias read through linear
        # gets +0.0).  The optimizer's zeroed view reads them as +0.0, and the
        # parameters must come out bit-equal to the old path's.
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(-1.0, 1.0, (4, 3)))
        target = Tensor(rng.uniform(5.0, 6.0, (4, 2)))
        init = [rng.uniform(-1.0, 1.0, (2, 3)), rng.uniform(-0.1, 0.1, 2), np.array([[-9.0, 1.0]] * 4)]

        def params():
            return [Tensor(a.copy(), requires_grad=True) for a in init]

        def loss(w, b, h):
            return mse_loss(target, T.add(T.relu(h), T.linear(x, w, b)))

        owned, ref = params(), params()
        opt = Adam(owned, lr=1e-2)
        m, v = np.zeros(16), np.zeros(16)
        for t in range(1, 21):
            opt.zero_grad()
            loss(*owned).backward()
            for p in ref:
                p.grad = None
            loss(*ref).backward()
            dead = ref[2].grad[:, 0]
            assert np.all(dead == 0.0) and np.all(np.signbit(dead))
            assert not np.any(np.signbit(owned[2].grad[:, 0]))
            opt.step()
            flat = reference_adam_step(ref, [p.grad for p in ref], m, v, t, 1e-2)
            for p, r in zip(ref, np.split(flat, [6, 8])):
                p.data = r.reshape(p.shape)
            assert bits(owned) == bits(ref)

    def test_rebound_and_none_gradients_are_honoured(self):
        a, b, c = (Tensor(np.array([1.0, -1.0]), requires_grad=True) for _ in range(3))
        opt = Adam([a, b, c], lr=0.1)
        opt.zero_grad()
        T.tsum(T.mul(T.mul(a, b), c)).backward()  # fills all three views
        ga = a.grad.copy()
        b.grad = np.array([0.5, -3.0])  # the caller's own array
        c.grad = None  # reads as zero, whatever the view still holds
        opt.step()
        twin = [Tensor(np.array([1.0, -1.0]), requires_grad=True) for _ in range(3)]
        flat = reference_adam_step(twin, [ga, b.grad, None], np.zeros(6), np.zeros(6), 1, 0.1)
        np.testing.assert_array_equal(opt.grad, np.concatenate([ga, [0.5, -3.0], [0.0, 0.0]]))
        assert opt.flat.tobytes() == flat.tobytes()
        np.testing.assert_array_equal(c.data, [1.0, -1.0])

    def test_finite_diff_check_leaves_the_next_steps_correct(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(-1.0, 1.0, (5, 3)))
        target = Tensor(rng.uniform(-0.5, 0.5, (5, 2)))
        w0, b0 = rng.uniform(-1.0, 1.0, (2, 3)), rng.uniform(-0.1, 0.1, 2)

        def model():
            params = [Tensor(w0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True)]
            return params, Adam(params, lr=1e-2)

        def loss(w, b):
            return mse_loss(target, T.tanh(T.linear(x, w, b)))

        (checked, opt), (twin, twin_opt) = model(), model()
        assert finite_diff_check(lambda: loss(*checked), checked) < 1e-6
        # the check left fresh gradient arrays, not the optimizer's views: a step reads them
        opt.step()
        twin_opt.zero_grad()
        loss(*twin).backward()
        twin_opt.step()
        assert bits(checked) == bits(twin)
        for o, params in ((opt, checked), (twin_opt, twin)):
            o.zero_grad()
            loss(*params).backward()
            o.step()
        assert bits(checked) == bits(twin)

    def test_converges_on_convex_quadratic(self):
        target = np.array([3.0, -2.0, 0.5])
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([p], lr=0.05)
        for _ in range(5000):
            opt.zero_grad()
            diff = T.sub(p, Tensor(target))
            T.tsum(T.mul(diff, diff)).backward()
            opt.step()
            if np.abs(p.data - target).max() < 1e-6:
                break
        assert np.abs(p.data - target).max() < 1e-6


class TestTrainStep:
    def setup_method(self):
        self.model = build_model(toy_dense_config(), 0)
        self.x = np.random.default_rng(0).uniform(-0.9, 0.9, (8, 1, 8, 8))

    def test_zero_lr_leaves_parameters(self):
        opt = Adam(self.model.parameters(), lr=1e-300)
        before = [p.data.copy() for p in self.model.parameters()]
        loss = train_step(self.model, self.x, None, np.full(8, 10.0), "mse", opt, np.random.default_rng(1))
        assert np.isfinite(loss)
        for p, b in zip(self.model.parameters(), before):
            np.testing.assert_allclose(p.data, b, atol=1e-12)

    def test_memorization_loss_decreases(self):
        opt = Adam(self.model.parameters(), lr=3e-3)
        rng = np.random.default_rng(2)
        omegas = np.full(8, 40.0)  # noiseless: pure optimization check
        losses = [train_step(self.model, self.x, None, omegas, "mse", opt, rng) for _ in range(50)]
        decreases = sum(b < a for a, b in zip(losses, losses[1:]))
        assert decreases >= 0.9 * (len(losses) - 1)
        assert losses[-1] < 0.5 * losses[0]

    def test_condition_count_mismatch(self):
        opt = Adam(self.model.parameters())
        with pytest.raises(ConfigError):
            train_step(self.model, self.x, None, np.full(3, 10.0), "mse", opt, np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["toy_dense", "default_recon"])
    def test_a_scalar_snr_on_the_tape_is_the_repeated_snr_bit_for_bit(self, name):
        # on the tape nothing folds: one SNR for the batch runs the per-sample path with the SNR repeated
        cfg = toy_dense_config() if name == "toy_dense" else shipped_model_config("default_recon")
        x = np.random.default_rng(3).uniform(-0.9, 0.9, (3,) + tuple(cfg.input_shape))
        results = []
        for snr in (15.0, np.full(3, 15.0)):  # 15 dB maps to omega_t = 0.5, so nu has a gradient
            model = build_model(cfg, 0)
            rng = np.random.default_rng(5)
            for n, p in model.named_parameters():  # every scale and bias off its initial value
                if n.endswith((".nu", ".c", ".b0")):
                    p.data = p.data + rng.uniform(-0.3, 0.3, p.shape)
            opt = Adam(model.parameters(), lr=1e-3)
            opt.zero_grad()
            out = forward_pipeline(model, Tensor(x), snr, np.random.default_rng(4))
            mse_loss(Tensor(x), out).backward()
            scale_grads = [p.grad for n, p in model.named_parameters() if n.endswith((".nu", ".c"))]
            assert scale_grads and all(np.any(g != 0) for g in scale_grads)
            results.append((out.data, opt.grad.copy()))
        (out, grad), (out_repeated, grad_repeated) = results
        np.testing.assert_array_equal(out, out_repeated)
        np.testing.assert_array_equal(grad, grad_repeated)

    def test_single_sample_linear_model_hand_mse(self):
        from hyperajscc.models import LayerSpec, ModelConfig

        cfg = ModelConfig(
            task="reconstruction",
            input_shape=(1, 1, 2),
            bandwidth=1,
            encoder=[LayerSpec("flatten"), LayerSpec("dense", out=2, act="linear")],
            decoder=[LayerSpec("dense", out=2, act="linear")],
        )
        model = build_model(cfg, 0)
        x = np.array([[[[0.3, -0.4]]]])
        out = forward_pipeline(model, Tensor(x), 40.0, np.random.default_rng(0))
        # hand computation: encoder affine, exact power normalization, decoder affine
        enc, dec = model.encoder[1].base, model.decoder[0].base
        z = enc.w0.data @ x.reshape(2) + enc.b0.data
        z = z / np.linalg.norm(z)
        xh = dec.w0.data @ z + dec.b0.data
        expected = ((x.reshape(2) - xh) ** 2).mean()
        got = float(mse_loss(Tensor(x), out).data)
        assert got == pytest.approx(expected, rel=1e-12)


def drawn_snrs(prior, monkeypatch):
    """Every per-sample SNR `train` draws from `prior` over 100 epochs of 64 samples.

    train_step is replaced by a recorder, so no model is actually trained.
    """
    from hyperajscc import training

    draws = []
    monkeypatch.setattr(training, "train_step", lambda *args: draws.append(args[3]) or 0.0)
    ds = synthetic_dataset("gaussian-blobs-images", 64, (1, 8, 8), seed=0)
    train(build_model(toy_dense_config(), 1), ds, TrainConfig(epochs=100, batch_size=64, prior=prior))
    return np.concatenate(draws)


class TestTrain:
    def test_determinism_bit_identical_parameters(self):
        ds = synthetic_dataset("gaussian-blobs-images", 32, (1, 8, 8), seed=0)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=9, val_every=0)
        runs = []
        for _ in range(2):
            model = build_model(toy_dense_config(), 9)
            train(model, ds, cfg)
            runs.append([p.data.copy() for p in model.parameters()])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_training_improves_validation_psnr(self):
        from hyperajscc.metrics import snr_sweep

        ds = synthetic_dataset("gaussian-blobs-images", 64, (1, 8, 8), seed=0)
        val = synthetic_dataset("gaussian-blobs-images", 32, (1, 8, 8), seed=1)
        model = build_model(toy_dense_config(), 0)
        before = snr_sweep(model, val, [10.0]).mean_at(10.0)
        cfg = TrainConfig(epochs=60, batch_size=16, lr=2e-3, seed=0, val_every=0)
        train(model, ds, cfg)
        after = snr_sweep(model, val, [10.0]).mean_at(10.0)
        assert after > before + 5.0

    def test_validation_log_is_the_sweep_metric(self):
        from hyperajscc.metrics import snr_sweep

        ds = synthetic_dataset("gaussian-blobs-images", 32, (1, 8, 8), seed=0)
        val = synthetic_dataset("gaussian-blobs-images", 16, (1, 8, 8), seed=1)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=3, val_every=1, val_grid=(2.0, 12.0))
        model = build_model(toy_dense_config(), 3)
        records = train(model, ds, cfg, val)
        report = snr_sweep(model, val, cfg.val_grid, seeds=(cfg.seed,))
        assert report.metric == "psnr_db"
        assert list(records[-1]) == ["epoch", "loss", "grad_norm", "val_2dB", "val_12dB", "wall_s"]
        assert records[-1]["epoch"] == 2
        assert [records[-1]["val_2dB"], records[-1]["val_12dB"]] == [report.mean_at(g) for g in cfg.val_grid]

    def test_validation_leaves_the_training_losses_alone(self):
        # validation records no tape and draws its noise from its own streams
        ds = synthetic_dataset("gaussian-blobs-images", 32, (1, 8, 8), seed=0)
        val = synthetic_dataset("gaussian-blobs-images", 16, (1, 8, 8), seed=1)
        losses = []
        for val_every in (0, 1):
            cfg = TrainConfig(epochs=3, batch_size=8, seed=4, val_every=val_every, val_grid=(2.0, 12.0))
            records = train(build_model(toy_dense_config(), 4), ds, cfg, val)
            losses.append([r["loss"] for r in records])
        assert losses[0] == losses[1]

    def test_validation_keys_appear_on_validation_epochs_only(self):
        ds = synthetic_dataset("gaussian-blobs-images", 16, (1, 8, 8), seed=0)
        val = synthetic_dataset("gaussian-blobs-images", 8, (1, 8, 8), seed=1)
        cfg = TrainConfig(epochs=3, batch_size=8, val_every=2, val_grid=(5.0,))
        records = train(build_model(toy_dense_config(), 0), ds, cfg, val)
        assert [list(r) for r in records] == [
            ["epoch", "loss", "grad_norm", "wall_s"],
            ["epoch", "loss", "grad_norm", "val_5dB", "wall_s"],
            ["epoch", "loss", "grad_norm", "wall_s"],
        ]

    def test_close_grid_points_get_distinct_keys(self):
        ds = synthetic_dataset("gaussian-blobs-images", 8, (1, 8, 8), seed=0)
        cfg = TrainConfig(epochs=1, batch_size=8, val_every=1, val_grid=(1.0000001, 1.0000002))
        (record,) = train(build_model(toy_dense_config(), 0), ds, cfg, ds)
        assert "val_1.0000001dB" in record and "val_1.0000002dB" in record

    @pytest.mark.parametrize(
        "cfg,n_val,message",
        [
            (TrainConfig(epochs=1, batch_size=8, val_every=1), None, "needs a validation dataset"),
            (TrainConfig(epochs=5, batch_size=8, val_every=3), 0, "validation dataset with samples"),
            (TrainConfig(epochs=1, batch_size=8, val_every=1, val_grid=()), 8, "empty SNR grid"),
            (TrainConfig(epochs=1, batch_size=8, val_every=1, val_grid=(5.0, 5.0)), 8, "strictly increasing"),
            (TrainConfig(epochs=1, batch_size=8, val_every=1, val_grid=(float("nan"),)), 8, "must be finite"),
            (TrainConfig(epochs=1, batch_size=8, val_every=1, val_grid=(-5000.0, 0.0)), 8, "below -100 dB"),
        ],
        ids=[
            "no-val-dataset", "empty-val-dataset", "empty-grid", "repeated-grid-point", "nan-grid-point", "below-floor",
        ],
    )
    def test_bad_validation_setup_rejected_before_the_first_step(self, cfg, n_val, message, monkeypatch):
        from hyperajscc import training
        from hyperajscc.data import Dataset

        ds = synthetic_dataset("gaussian-blobs-images", 8, (1, 8, 8), seed=0)
        val = None if n_val is None else Dataset(ds.samples[:n_val], None, ds.name, "val")
        steps = []
        monkeypatch.setattr(training, "train_step", lambda *args: steps.append(args) or 0.0)
        with pytest.raises(ConfigError, match=message):
            train(build_model(toy_dense_config(), 0), ds, cfg, val)
        assert steps == []

    def test_grad_norm_is_the_epoch_mean_of_the_flat_gradient_norm(self, monkeypatch):
        from hyperajscc import training

        norms = []
        real_step = training.train_step

        def recording_step(*args):
            loss = real_step(*args)
            optimizer = args[5]
            norms.append(float(np.sqrt(sum(np.sum(p.grad * p.grad) for p in optimizer.params))))
            return loss

        monkeypatch.setattr(training, "train_step", recording_step)
        ds = synthetic_dataset("gaussian-blobs-images", 24, (1, 8, 8), seed=0)
        records = train(build_model(toy_dense_config(), 2), ds, TrainConfig(epochs=2, batch_size=8, val_every=0))
        assert len(norms) == 6 and min(norms) > 0.0
        for r, epoch_norms in zip(records, (norms[:3], norms[3:])):
            assert r["grad_norm"] == pytest.approx(np.mean(epoch_norms), rel=1e-12)

    @pytest.mark.parametrize("task,loss_kind", [("reconstruction", "mse"), ("classification", "cross_entropy")])
    def test_loss_follows_the_task(self, task, loss_kind, monkeypatch):
        from hyperajscc import training

        if task == "reconstruction":
            model = build_model(toy_dense_config(), 0)
            ds = synthetic_dataset("gaussian-blobs-images", 16, (1, 8, 8), seed=0)
        else:
            model = build_model(shipped_model_config("default_class"), 0)
            ds = synthetic_dataset("pattern-classes", 16, (3, 8, 8), num_classes=2, seed=0)
        kinds = []
        real_step = training.train_step

        def recording_step(*args):
            kinds.append(args[4])
            return real_step(*args)

        monkeypatch.setattr(training, "train_step", recording_step)
        train(model, ds, TrainConfig(epochs=1, batch_size=8, val_every=0))
        assert kinds == [loss_kind, loss_kind]

    def test_fixed_prior_reduction(self):
        # zero-width prior + hyper off behaves as a fixed-SNR run
        ds = synthetic_dataset("gaussian-blobs-images", 16, (1, 8, 8), seed=0)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=1, val_every=0, prior=(13.0, 13.0))
        model = build_model(toy_dense_config(hyper=False), 1)
        assert [r["epoch"] for r in train(model, ds, cfg)] == [1, 2]

    def test_uniform_prior_draws_in_range(self, monkeypatch):
        draws = drawn_snrs((4.0, 9.0), monkeypatch)
        assert draws.min() >= 4.0 and draws.max() <= 9.0
        assert abs(draws.mean() - 6.5) < 0.1
        assert len(np.unique(draws)) == draws.size

    def test_invalid_prior_rejected(self):
        ds = synthetic_dataset("gaussian-blobs-images", 16, (1, 8, 8), seed=0)
        # below the -100 dB floor the noise variance overflows, and the first step would be a NumericAbortError
        for prior in [
            (5.0, 1.0), (np.nan, 20.0), (0.0, np.inf), (-np.inf, 0.0), (-5000.0, 0.0), (-100.5, -100.5), (0, 1, 2), ("0", "1"),
        ]:
            with pytest.raises(ConfigError, match="SNR prior"):
                train(build_model(toy_dense_config(), 0), ds, TrainConfig(epochs=1, batch_size=8, prior=prior))

    def test_nan_aborts_with_location(self):
        ds = synthetic_dataset("gaussian-blobs-images", 16, (1, 8, 8), seed=0)
        model = build_model(toy_dense_config(), 0)
        model.decoder[1].base.b0.data[0] = np.nan  # tanh output layer, so it propagates
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0, val_every=0)
        with pytest.raises(NumericAbortError, match="epoch 1"):
            train(model, ds, cfg)

    def test_nan_in_a_relu_layer_aborts(self):
        # relu passes a NaN on, so the loss is NaN at once, before any update spreads it
        ds = synthetic_dataset("gaussian-blobs-images", 16, (1, 8, 8), seed=0)
        model = build_model(toy_dense_config(), 0)
        model.decoder[0].base.b0.data[0] = np.nan  # dense o32 relu hyper
        cfg = TrainConfig(epochs=3, batch_size=8, seed=0, val_every=0)
        with pytest.raises(NumericAbortError, match="epoch 1, step 1"):
            train(model, ds, cfg)


class TestObjectiveStatistics:
    def test_monte_carlo_estimate_stabilizes(self):
        # standard error of the batch-loss estimator shrinks ~ 1/sqrt(L)
        model = build_model(toy_dense_config(), 0)
        ds = synthetic_dataset("gaussian-blobs-images", 16, (1, 8, 8), seed=0)
        rng = np.random.default_rng(0)

        def estimate(n_draws):
            vals = []
            for _ in range(n_draws):
                omegas = rng.uniform(0.0, 20.0, size=16)
                out = forward_pipeline(model, Tensor(ds.samples), omegas, rng)
                vals.append(float(mse_loss(Tensor(ds.samples), out).data))
            return np.asarray(vals)

        small = estimate(16)
        large = estimate(256)
        se_small = small.std(ddof=1) / np.sqrt(small.size)
        se_large = large.std(ddof=1) / np.sqrt(large.size)
        assert se_large < se_small  # shrinks with draws
        assert abs(small.mean() - large.mean()) < 4 * np.hypot(se_small, se_large)


def train_one_epoch(model, ds, **fields):
    return train(model, ds, TrainConfig(**{"epochs": 1, "batch_size": 8, **fields}), ds)


def unlabeled_images():
    return synthetic_dataset("gaussian-blobs-images", 8, (3, 8, 8), seed=0)


def labeled_patterns():
    return synthetic_dataset("pattern-classes", 8, (3, 8, 8), num_classes=2, seed=0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda m, ds: build_model(m.config, -1), id="build-seed-negative"),
        pytest.param(lambda m, ds: build_model(m.config, 1.5), id="build-seed-float"),
        pytest.param(lambda m, ds: train_one_epoch(m, ds, seed=-1), id="train-seed-negative"),
        pytest.param(lambda m, ds: train_one_epoch(m, ds, epochs=2.5), id="epochs-float"),
        pytest.param(lambda m, ds: train_one_epoch(m, ds, batch_size=1.5), id="batch-size-float"),
        pytest.param(lambda m, ds: train_one_epoch(m, ds, val_every=1.5), id="val-every-float"),
        pytest.param(lambda m, ds: snr_sweep(m, ds, [1.0], seeds=(-1,)), id="sweep-seed-negative"),
        pytest.param(lambda m, ds: snr_sweep(m, ds, [1.0], seeds=("a",)), id="sweep-seed-string"),
        pytest.param(lambda m, ds: snr_sweep(m, ds, ["x"]), id="sweep-snr-string"),
        pytest.param(lambda m, ds: synthetic_dataset("gaussian-blobs-images", 4, (1, 0, 8)), id="data-shape-zero"),
        pytest.param(lambda m, ds: synthetic_dataset("gaussian-blobs-images", 4, (8, 8)), id="data-shape-2d"),
        pytest.param(lambda m, ds: synthetic_dataset("gaussian-blobs-images", 4, (1, 8, 8), seed=-1), id="data-seed-negative"),
        pytest.param(lambda m, ds: synthetic_dataset("pattern-classes", 4, (1, 8, 8), num_classes=0), id="classes-zero"),
        pytest.param(lambda m, ds: synthetic_dataset("pattern-classes", 4, (1, 8, 8), num_classes=2.5), id="classes-float"),
        pytest.param(lambda m, ds: synthetic_dataset("gaussian-blobs-images", 2.5, (1, 8, 8)), id="n-items-float"),
        pytest.param(lambda m, ds: synthetic_dataset("gaussian-blobs-images", "3", (1, 8, 8)), id="n-items-string"),
        pytest.param(lambda m, ds: TrainConfig(lr="x").validate(), id="lr-string"),
        pytest.param(lambda m, ds: TrainConfig(lr=None).validate(), id="lr-none"),
        pytest.param(lambda m, ds: encode(m, Tensor(ds.samples), float("nan")), id="encode-snr-nan"),
        pytest.param(lambda m, ds: encode(m, Tensor(ds.samples), None), id="encode-snr-none"),
        pytest.param(lambda m, ds: encode(m, Tensor(ds.samples), "abc"), id="encode-snr-string"),
        pytest.param(lambda m, ds: decode(m, Tensor(np.zeros((2, 8))), float("nan")), id="decode-snr-nan"),
        pytest.param(lambda m, ds: awgn_transmit(encode(m, Tensor(ds.samples[:1]), 5.0), np.full((1, 1), 5.0),
                                                 np.random.default_rng(0)), id="awgn-snr-2d"),
        pytest.param(lambda m, ds: awgn_transmit(encode(m, Tensor(ds.samples[:3]), 5.0), np.full(2, 5.0),
                                                 np.random.default_rng(0)), id="awgn-snr-count"),
        pytest.param(lambda m, ds: train_step(build_model(toy_dense_config(hyper=False), 0), ds.samples[:2], None,
                                              np.full((2, 1), 5.0), "mse", Adam([]), np.random.default_rng(0)),
                     id="train-step-snr-2d"),
        pytest.param(lambda m, ds: train_step(m, ds.samples[:1], None, 5.0, "mse", Adam([]), np.random.default_rng(0)),
                     id="train-step-snr-scalar"),
        pytest.param(lambda m, ds: cross_entropy_loss(Tensor(np.full((2, 3), 1 / 3)), None), id="ce-labels-none"),
        pytest.param(lambda m, ds: cross_entropy_loss(Tensor(np.full((2, 3), 1 / 3)), [0.5, 1.5]), id="ce-labels-float"),
        pytest.param(lambda m, ds: cross_entropy_loss(Tensor(np.full((2, 3), 1 / 3)), ["0", "1"]), id="ce-labels-string"),
        pytest.param(lambda m, ds: train_step(build_model(shipped_model_config("default_class"), 0),
                                              labeled_patterns().samples[:2], [0, 1], np.full(2, 5.0), "xent",
                                              Adam([]), np.random.default_rng(0)), id="train-step-loss-kind"),
        pytest.param(lambda m, ds: snr_sweep(build_model(shipped_model_config("default_class"), 0), unlabeled_images(),
                                             [1.0]), id="sweep-classifier-unlabeled"),
        pytest.param(lambda m, ds: train_one_epoch(build_model(shipped_model_config("default_class"), 0),
                                                   unlabeled_images()), id="train-classifier-unlabeled"),
        pytest.param(lambda m, ds: train(build_model(shipped_model_config("default_class"), 0), labeled_patterns(),
                                         TrainConfig(epochs=1, batch_size=8, val_every=1), unlabeled_images()),
                     id="train-classifier-unlabeled-validation"),
    ],
)
def test_a_bad_library_argument_is_a_config_error(call):
    # the library keeps the CLI's contract: a call it cannot run as given is a ConfigError, not numpy's error
    ds = synthetic_dataset("gaussian-blobs-images", 8, (1, 8, 8), seed=0)
    with pytest.raises(ConfigError):
        call(build_model(toy_dense_config(), 0), ds)
