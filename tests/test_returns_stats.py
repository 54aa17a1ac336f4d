import math
from datetime import date

import numpy as np
import pytest

from conftest import make_panel, panel_from_returns
from oracles import brute_force_covariance
from portlab.errors import InsufficientObservations, ZeroVarianceAsset, ZeroVolatility
from portlab.returns_stats import (
    TRADING_DAYS_PER_YEAR,
    CovarianceMatrix,
    ReturnsMatrix,
    annualize_volatility,
    correlation,
    daily_returns,
    sample_covariance,
    sharpe_ratio,
)


def returns_matrix(values, tickers=None):
    values = np.asarray(values, dtype=float)
    if tickers is None:
        tickers = tuple(f"T{i}" for i in range(values.shape[1]))
    dates = tuple(date.fromordinal(date(2020, 1, 1).toordinal() + t) for t in range(values.shape[0]))
    return ReturnsMatrix(tickers=tuple(tickers), dates=dates, values=values)


class TestDailyReturns:
    def test_direct_formula(self):
        panel = make_panel([[100.0, 100.0], [110.0, 100.0], [99.0, 100.0]])
        returns = daily_returns(panel)
        assert returns.values[:, 0] == pytest.approx([0.10, -0.10])

    def test_constant_closes(self):
        panel = make_panel([[50.0, 1.0], [50.0, 1.0], [50.0, 1.0]])
        assert daily_returns(panel).values[:, 0].tolist() == [0.0, 0.0]

    def test_small_move(self):
        panel = make_panel([[100.0, 1.0], [100.5, 1.0]])
        assert daily_returns(panel).values[0, 0] == pytest.approx(0.005)

    def test_dates_stamped_with_later_day(self):
        panel = make_panel([[1.0, 2.0], [1.1, 2.2], [1.2, 2.4]])
        returns = daily_returns(panel)
        assert np.array_equal(returns.dates, panel.dates[1:])
        assert returns.n_obs == len(panel.dates) - 1

    def test_overflowing_return_names_ticker_and_day(self):
        # the quotient overflows to inf; numpy's overflow warning must not escape
        panel = make_panel([[1.0, 1e-300], [1.0, 1e300]])
        with pytest.raises(ValueError, match="^returns contain non-finite values: T1 on 2020-01-02$"):
            daily_returns(panel)

    def test_cumulative_reconstruction(self, rng):
        closes = rng.uniform(10, 500, size=(1, 6)) * np.cumprod(
            1 + rng.normal(0, 0.02, size=(40, 6)), axis=0
        )
        closes = np.vstack([rng.uniform(10, 500, size=6), closes[:-1]])
        panel = make_panel(closes)
        returns = daily_returns(panel)
        rebuilt = panel.closes[0] * np.prod(1.0 + returns.values, axis=0)
        assert rebuilt == pytest.approx(panel.closes[-1], rel=1e-9)


class TestSampleCovariance:
    def test_hand_derived_two_assets(self):
        returns = returns_matrix([[0.01, 0.02], [-0.01, -0.02]])
        cov = sample_covariance(returns)
        assert cov.values[0, 0] == pytest.approx(0.0002, abs=1e-15)
        assert cov.values[1, 1] == pytest.approx(0.0008, abs=1e-15)
        assert cov.values[0, 1] == pytest.approx(0.0004, abs=1e-15)

    def test_constant_asset_zero_variance(self):
        returns = returns_matrix([[0.01, 0.0], [0.02, 0.0], [0.03, 0.0]])
        assert sample_covariance(returns).values[1, 1] == 0.0

    def test_duplicated_column_rank_deficient_accepted(self, rng):
        base = rng.normal(0, 0.01, size=(30, 3))
        doubled = np.hstack([base, base[:, :1]])
        cov = sample_covariance(returns_matrix(doubled))
        assert np.linalg.matrix_rank(cov.values) == 3

    def test_insufficient_observations(self):
        with pytest.raises(InsufficientObservations):
            sample_covariance(returns_matrix([[0.01, 0.02]]))

    def test_matches_brute_force(self, rng):
        for _ in range(5):
            data = rng.normal(0, 0.05, size=(5, 4))
            cov = sample_covariance(returns_matrix(data))
            assert np.abs(cov.values - brute_force_covariance(data)).max() < 1e-12


class TestCorrelation:
    def test_proportional_series_perfectly_correlated(self):
        returns = returns_matrix([[0.01, 0.02], [-0.01, -0.02]])
        rho = correlation(sample_covariance(returns))
        assert rho.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_covariance_gives_identity(self):
        cov = CovarianceMatrix(tickers=("A", "B"), values=np.diag([0.1, 0.4]))
        assert np.array_equal(correlation(cov).values, np.eye(2))

    def test_clamps_roundoff_above_one(self):
        v = 1e-4
        off = v * (1.0 + 2e-10)
        cov = CovarianceMatrix(tickers=("A", "B"), values=np.array([[v, off], [off, v]]))
        rho = correlation(cov)
        assert rho.values[0, 1] == 1.0

    def test_symmetric_for_a_covariance_asymmetric_within_tolerance(self):
        # CovarianceMatrix admits asymmetry up to 1e-12; divided by 1e-6 variances it would be 1e-7
        cov = CovarianceMatrix(tickers=("A", "B"), values=np.array([[1e-6, 5e-7 + 1e-13], [5e-7, 1e-6]]))
        rho = correlation(cov).values
        assert np.array_equal(rho, rho.T)
        assert rho[0, 1] == pytest.approx(0.5, abs=1e-7)

    def test_zero_variance_asset_named(self):
        cov = CovarianceMatrix(tickers=("GOOD", "DEAD"), values=np.diag([1e-4, 0.0]))
        with pytest.raises(ZeroVarianceAsset) as caught:
            correlation(cov)
        assert caught.value.tickers == ["DEAD"]

    def test_unit_diagonal_and_bounds(self, rng):
        data = rng.normal(0, 0.02, size=(50, 6))
        rho = correlation(sample_covariance(returns_matrix(data)))
        assert np.array_equal(np.diag(rho.values), np.ones(6))
        assert np.abs(rho.values).max() <= 1.0

    def test_scaling_one_asset_leaves_correlation_unchanged(self, rng):
        data = rng.normal(0, 0.02, size=(60, 5))
        scaled = data.copy()
        scaled[:, 2] *= 7.5
        rho = correlation(sample_covariance(returns_matrix(data)))
        rho_scaled = correlation(sample_covariance(returns_matrix(scaled)))
        assert np.abs(rho.values - rho_scaled.values).max() < 1e-10

    def test_scaling_scales_volatility_linearly(self, rng):
        data = rng.normal(0, 0.02, size=(60, 3))
        scaled = data.copy()
        scaled[:, 0] *= 3.0
        cov = sample_covariance(returns_matrix(data))
        cov_scaled = sample_covariance(returns_matrix(scaled))
        assert math.sqrt(cov_scaled.values[0, 0]) == pytest.approx(
            3.0 * math.sqrt(cov.values[0, 0]), rel=1e-12
        )


class TestAnnualization:
    def test_known_values(self):
        assert annualize_volatility(0.01) == pytest.approx(0.1581139, abs=1e-6)
        assert annualize_volatility(0.0) == 0.0
        assert annualize_volatility(0.02) == pytest.approx(0.3162278, abs=1e-6)

    def test_uses_250_day_year(self):
        assert annualize_volatility(1.0) == pytest.approx(math.sqrt(250))
        assert TRADING_DAYS_PER_YEAR == 250

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            annualize_volatility(-0.1)


class TestSharpeRatio:
    def test_hand_derived(self):
        # two-point series with sample mean 0.0004 and sample std exactly 0.01
        half_spread = 0.01 / math.sqrt(2)
        series = np.array([0.0004 + half_spread, 0.0004 - half_spread])
        metrics = sharpe_ratio(series, risk_free=0.0)
        assert metrics.annual_return == pytest.approx(0.1, rel=1e-9)
        assert metrics.annual_volatility == pytest.approx(0.1581139, abs=1e-6)
        assert metrics.sharpe_ratio == pytest.approx(0.632456, abs=1e-5)

    def test_zero_mean_gives_zero_sharpe(self):
        metrics = sharpe_ratio(np.array([0.01, -0.01, 0.02, -0.02]))
        assert metrics.sharpe_ratio == 0.0

    def test_constant_series(self):
        with pytest.raises(ZeroVolatility):
            sharpe_ratio(np.array([0.004, 0.004, 0.004]))

    def test_single_observation(self):
        with pytest.raises(InsufficientObservations):
            sharpe_ratio(np.array([0.01]))

    def test_risk_free_shifts_numerator(self, rng):
        series = rng.normal(0.001, 0.01, size=100)
        base = sharpe_ratio(series, risk_free=0.0)
        shifted = sharpe_ratio(series, risk_free=0.05)
        assert shifted.sharpe_ratio == pytest.approx(
            base.sharpe_ratio - 0.05 / base.annual_volatility, rel=1e-12
        )

    def test_annual_vol_consistent_with_daily(self, rng):
        metrics = sharpe_ratio(rng.normal(0, 0.02, size=50))
        assert metrics.annual_volatility == pytest.approx(
            metrics.daily_volatility * math.sqrt(250), abs=1e-12
        )


class TestCovarianceInvariants:
    def test_rejects_asymmetry(self):
        bad = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ValueError):
            CovarianceMatrix(tickers=("A", "B"), values=bad)

    def test_rejects_negative_definite(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ValueError):
            CovarianceMatrix(tickers=("A", "B"), values=bad)

    def test_returns_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            returns_matrix([[0.01, np.nan], [0.0, 0.0]])


def test_panel_from_returns_round_trips(rng):
    target = rng.normal(0, 0.01, size=(25, 4))
    panel = panel_from_returns(target)
    assert daily_returns(panel).values == pytest.approx(target, abs=1e-12)
