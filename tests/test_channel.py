import numpy as np
import pytest

from hyperajscc.channel import awgn_transmit, power_normalize, snr_to_sigma2
from hyperajscc.errors import NumericAbortError
from hyperajscc.tensor import Tensor, finite_diff_check
from hyperajscc import tensor as T

from test_training import drawn_snrs


class TestPowerNormalize:
    def test_three_four_five(self):
        sym = power_normalize(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(sym.values.data, [[0.6, 0.8]])
        assert abs(0.6**2 + 0.8**2 - 1.0) < 1e-12

    def test_already_unit_power(self):
        sym = power_normalize(Tensor([[1.0, 0.0, 1.0, 0.0]]))
        np.testing.assert_allclose(sym.values.data, [[1, 0, 1, 0]])

    def test_random_rows_have_unit_power(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((1000, 8)) * rng.uniform(0.1, 50, (1000, 1))
        sym = power_normalize(Tensor(z))
        power = (sym.values.data**2).sum(axis=1) / sym.d
        np.testing.assert_allclose(power, 1.0, atol=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((5, 6))
        a = power_normalize(Tensor(z)).values.data
        b = power_normalize(Tensor(123.456 * z)).values.data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(NumericAbortError):
            power_normalize(Tensor(np.zeros((2, 4))))

    def test_norms_are_numpys_own_bit_for_bit(self):
        rng = np.random.default_rng(3)
        mags = 10.0 ** np.arange(-150, 151, 25)
        z = rng.standard_normal((len(mags), 8)) * mags[:, None]
        expected = z * (np.sqrt(4) / np.linalg.norm(z, axis=1))[:, None]
        assert power_normalize(Tensor(z)).values.data.tobytes() == expected.tobytes()

    def test_a_nan_row_passes_through_and_a_zero_row_among_others_is_rejected(self):
        z = np.ones((3, 4))
        z[1, 2] = np.nan
        out = power_normalize(Tensor(z)).values.data
        assert np.isnan(out[1]).all() and np.isfinite(out[[0, 2]]).all()
        z[1] = 0.0
        with pytest.raises(NumericAbortError, match="all-zero symbol row"):
            power_normalize(Tensor(z))

    def test_differentiable(self):
        rng = np.random.default_rng(2)
        z = Tensor(rng.uniform(0.5, 1.5, (2, 6)), requires_grad=True)
        err = finite_diff_check(lambda: T.tsum(T.tanh(power_normalize(z).values)), [z])
        assert err < 1e-6


class TestSnrToSigma2:
    @pytest.mark.parametrize("db,expected", [(0, 1.0), (10, 0.1), (20, 0.01)])
    def test_closed_form(self, db, expected):
        assert abs(snr_to_sigma2(db) - expected) < 1e-15

    def test_cap_is_noiseless(self):
        assert snr_to_sigma2(40.0) == 0.0
        assert snr_to_sigma2(100.0) == 0.0


class TestAwgnTransmit:
    def test_noiseless_at_cap(self):
        sym = power_normalize(Tensor(np.ones((3, 4))))
        out = awgn_transmit(sym, 40.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, sym.values.data)

    def test_empirical_snr_calibration(self):
        rng = np.random.default_rng(1)
        n = 100_000
        z = power_normalize(Tensor(np.random.default_rng(9).standard_normal((n // 4, 8))))
        for omega in (0.0, 5.0, 10.0, 15.0, 20.0):
            out = awgn_transmit(z, omega, rng)
            noise = out.data - z.values.data
            p_noise = (noise**2).sum() / (noise.size / 2)  # per complex symbol
            measured = 10 * np.log10(1.0 / p_noise)
            assert abs(measured - omega) < 0.1

    def test_same_seed_same_output(self):
        sym = power_normalize(Tensor(np.arange(1.0, 9.0).reshape(2, 4)))
        a = awgn_transmit(sym, 5.0, np.random.default_rng(42)).data
        b = awgn_transmit(sym, 5.0, np.random.default_rng(42)).data
        assert np.array_equal(a, b)

    def test_per_sample_conditions(self):
        sym = power_normalize(Tensor(np.ones((2, 4))))
        out = awgn_transmit(sym, np.array([40.0, 0.0]), np.random.default_rng(0))
        assert np.array_equal(out.data[0], sym.values.data[0])
        assert not np.array_equal(out.data[1], sym.values.data[1])

    def test_straight_through_gradient(self):
        from hyperajscc.channel import ChannelSymbols

        z = Tensor(np.ones((1, 4)), requires_grad=True)
        out = awgn_transmit(ChannelSymbols(z, 2), 3.0, np.random.default_rng(0))
        T.tsum(out).backward()
        np.testing.assert_array_equal(z.grad, np.ones((1, 4)))


class TestSnrPrior:
    """The SNR prior is the (lo_db, hi_db) range `train` draws channel conditions from."""

    def test_fixed(self, monkeypatch):
        # a zero-width range is a fixed SNR: every draw equals the point
        draws = drawn_snrs((7.0, 7.0), monkeypatch)
        assert draws.dtype == np.float64
        assert np.array_equal(draws, np.full(draws.size, 7.0))
