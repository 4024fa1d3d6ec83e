import contextlib
import dataclasses

import numpy as np
import pytest

from hyperajscc import tensor as T
from hyperajscc.data import synthetic_dataset
from hyperajscc.errors import ConfigError
from hyperajscc.metrics import (
    EVAL_CHUNK,
    PSNR_CAP_DB,
    SweepReport,
    compare_adaptive_vs_fixed,
    psnr_from_mse,
    snr_sweep,
    sweep_chart_svg,
)
from hyperajscc.models import build_model, forward_pipeline
from hyperajscc.tensor import Tensor

from test_models import shipped_model_config, toy_dense_config


class TestPsnr:
    def test_identical_images_capped(self):
        # identical images have zero MSE
        assert psnr_from_mse(0.0) == PSNR_CAP_DB

    def test_closed_form_from_mse(self):
        # PSNR = -10 log10(mse) with MAX=1
        assert psnr_from_mse(0.01) == pytest.approx(20.0, abs=1e-9)
        assert psnr_from_mse(1e-4) == pytest.approx(40.0, abs=1e-9)
        assert psnr_from_mse(1.0) == pytest.approx(0.0, abs=1e-9)

    def test_cap_applies_to_tiny_error(self):
        assert psnr_from_mse(1e-30) == PSNR_CAP_DB

    def test_scale_consistency(self):
        # halving the [0,1]-domain error quarters the MSE and adds exactly 20*log10(2) dB
        assert psnr_from_mse(0.01) - psnr_from_mse(0.04) == pytest.approx(20 * np.log10(2), abs=1e-9)


class TestSweepReport:
    def make_report(self):
        return SweepReport(
            metric="psnr_db",
            rows=[(0.0, 18.0, 0.3, 2), (10.0, 24.0, 0.2, 2)],
        )

    def test_mean_at(self):
        assert self.make_report().mean_at(10.0) == 24.0

    def test_missing_grid_point(self):
        with pytest.raises(ConfigError, match="5.0"):
            self.make_report().mean_at(5.0)

    def test_csv_columns(self):
        text = self.make_report().to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "snr_db,metric,mean,std,n"
        assert lines[1].startswith("0,psnr_db,18.0,0.3,")

    def test_csv_labels_every_grid_point_exactly(self):
        report = SweepReport(metric="psnr_db", rows=[(s, 20.0, 0.0, 2) for s in (-4.0, 0.5, 2.0)])
        assert [line.split(",")[0] for line in report.to_csv().splitlines()[1:]] == ["-4", "0.5", "2"]


class TestSnrSweep:
    def setup_method(self):
        self.model = build_model(toy_dense_config(), 0)
        self.ds = synthetic_dataset("gaussian-blobs-images", 16, (1, 8, 8), seed=3)

    def test_grid_must_increase(self):
        with pytest.raises(ConfigError):
            snr_sweep(self.model, self.ds, [10.0, 5.0])

    @pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf])
    def test_non_finite_snr_refused(self, snr):
        # without the check: a row of NaNs and RuntimeWarnings
        with pytest.raises(ConfigError, match="must be finite"):
            snr_sweep(self.model, self.ds, [0.0, snr])

    def test_snr_below_the_floor_refused(self):
        # without the check: sigma^2 overflows to inf and the row is NaN
        with pytest.raises(ConfigError, match="below -100 dB"):
            snr_sweep(self.model, self.ds, [-5000.0])

    def test_no_seeds_refused(self):
        # without the check: rows of nan and "Mean of empty slice" warnings
        with pytest.raises(ConfigError, match="no noise seeds"):
            snr_sweep(self.model, self.ds, [0.0, 10.0], seeds=())

    def test_empty_dataset_refused(self):
        # without the check: a bare ZeroDivisionError from the metric
        empty = dataclasses.replace(self.ds, samples=self.ds.samples[:0])
        with pytest.raises(ConfigError, match="dataset is empty"):
            snr_sweep(self.model, empty, [0.0, 10.0])

    def test_close_grid_points_get_distinct_labels(self):
        csv = snr_sweep(self.model, self.ds, [1.0000001, 1.0000002]).to_csv()
        assert [line.split(",")[0] for line in csv.splitlines()[1:]] == ["1.0000001", "1.0000002"]

    def test_byte_identical_repeats(self):
        a = snr_sweep(self.model, self.ds, [0.0, 10.0, 20.0], seeds=(0, 1)).to_csv()
        b = snr_sweep(self.model, self.ds, [0.0, 10.0, 20.0], seeds=(0, 1)).to_csv()
        assert a.encode() == b.encode()

    def test_capped_point_has_zero_std(self):
        rep = snr_sweep(self.model, self.ds, [40.0], seeds=(0, 1, 2))
        (snr, mean, std, n) = rep.rows[0]
        assert std == 0.0 and n == 16

    def test_row_count_matches_grid(self):
        rep = snr_sweep(self.model, self.ds, [0.0, 5.0, 10.0])
        assert [r[0] for r in rep.rows] == [0.0, 5.0, 10.0]

    @pytest.mark.parametrize("name", ["toy_dense", "default_recon"])
    def test_no_tape_leaves_the_psnrs_bit_identical(self, name, monkeypatch):
        if name == "toy_dense":
            model, ds = self.model, self.ds
        else:
            model = build_model(shipped_model_config(name), 0)
            ds = synthetic_dataset("gaussian-blobs-images", 80, (3, 8, 8), seed=3)  # two chunks
        rng = np.random.default_rng(1)
        for pname, p in model.named_parameters():
            if pname.endswith(".nu"):
                p.data[...] = rng.normal(0.0, 0.3, p.shape)
        untaped = snr_sweep(model, ds, [0.0, 10.0], seeds=(0, 1)).rows
        monkeypatch.setattr(T, "no_tape", contextlib.nullcontext)
        taped = snr_sweep(model, ds, [0.0, 10.0], seeds=(0, 1)).rows
        assert untaped == taped

    def test_sweep_records_no_graph(self, monkeypatch):
        made = []
        real_init = Tensor.__init__

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        snr_sweep(self.model, self.ds, [0.0, 10.0])
        monkeypatch.undo()
        assert made and all(t._backward_fn is None and not t._track for t in made)


def sweep_by_hand(model, ds, grid, seeds, chunk_total, finish):
    """snr_sweep's rows rebuilt from its noise streams and EVAL_CHUNK chunks."""
    n = ds.samples.shape[0]
    rows = []
    for gi, snr in enumerate(grid):
        vals = []
        for seed in seeds:
            rng = np.random.default_rng(np.random.SeedSequence((seed, gi)))
            total = 0
            for start in range(0, n, EVAL_CHUNK):
                xb = ds.samples[start : start + EVAL_CHUNK]
                total += chunk_total(xb, forward_pipeline(model, Tensor(xb), snr, rng).data, start)
            vals.append(finish(total))
        rows.append((snr, float(np.mean(vals)), float(np.std(vals)), n))
    return rows


class TestSweepDefinesTheMetric:
    """The sweep row is the metric: nothing else in the library defines PSNR or accuracy."""

    grid = [0.0, 10.0, 20.0]
    seeds = (0, 3)

    def test_psnr_row_is_summed_squared_error_over_pixels(self):
        model = build_model(toy_dense_config(), 0)
        ds = synthetic_dataset("gaussian-blobs-images", EVAL_CHUNK + 16, (1, 8, 8), seed=3)

        def squared_error(xb, out, start):
            d = xb - out  # (xb + 1) / 2 - (out + 1) / 2, times 2
            return float(np.add.reduce(d * d, axis=None) / 4.0)

        expected = sweep_by_hand(
            model, ds, self.grid, self.seeds, squared_error, lambda total: psnr_from_mse(total / ds.samples.size)
        )
        report = snr_sweep(model, ds, self.grid, self.seeds)
        assert report.metric == "psnr_db"
        assert report.rows == expected

    def test_accuracy_row_is_argmax_hits_over_samples(self):
        model = build_model(shipped_model_config("default_class"), 0)
        ds = synthetic_dataset("pattern-classes", EVAL_CHUNK + 16, (3, 8, 8), num_classes=2, seed=3)
        labels = np.asarray(ds.labels)

        def hits(xb, out, start):
            return int((out.argmax(axis=1) == labels[start : start + len(xb)]).sum())

        expected = sweep_by_hand(
            model, ds, self.grid, self.seeds, hits, lambda total: total / ds.samples.shape[0]
        )
        report = snr_sweep(model, ds, self.grid, self.seeds)
        assert report.metric == "top1_accuracy"
        assert report.rows == expected


class TestCompare:
    def test_gap_arithmetic(self):
        adaptive = SweepReport("psnr_db", [(1.0, 20.0, 0.1, 2), (19.0, 26.0, 0.1, 2)])
        fixed = {
            1.0: SweepReport("psnr_db", [(1.0, 20.5, 0.1, 2)]),
            19.0: SweepReport("psnr_db", [(19.0, 25.5, 0.1, 2)]),
        }
        gaps = dict(compare_adaptive_vs_fixed(adaptive, fixed))
        assert gaps[1.0] == pytest.approx(0.5)
        assert gaps[19.0] == pytest.approx(-0.5)

    def test_grid_mismatch_names_the_point(self):
        adaptive = SweepReport("psnr_db", [(1.0, 20.0, 0.1, 2)])
        fixed = {7.0: SweepReport("psnr_db", [(7.0, 22.0, 0.1, 2)])}
        with pytest.raises(ConfigError, match="7.0"):
            compare_adaptive_vs_fixed(adaptive, fixed)


class TestChart:
    def test_svg_contains_polyline_and_is_deterministic(self):
        rep = SweepReport("psnr_db", [(0.0, 18.0, 0.3, 2), (20.0, 26.0, 0.2, 2)])
        svg = sweep_chart_svg({"run": rep}, "PSNR (dB)")
        assert svg.startswith("<svg") and "polyline" in svg
        assert svg == sweep_chart_svg({"run": rep}, "PSNR (dB)")
