"""Daily returns, covariance/correlation, and annualized risk metrics.

Conventions used everywhere downstream: simple percentage returns between
successive closes, sample (n-1) covariance, a 250-trading-day year, and a
configurable annual risk-free rate defaulting to 0.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Any

import numpy as np

from .errors import InsufficientObservations, ZeroVarianceAsset, ZeroVolatility
from .market_data import PricePanel, _ascending, _frozen

TRADING_DAYS_PER_YEAR = 250
VARIANCE_FLOOR = 1e-16  # in return^2 units; below it an asset is rejected


def _square_matrix(instance: Any, kind: str) -> np.ndarray:
    """Freeze ``instance.values`` and check the rules every matrix type shares:
    at least one ticker, one row and column per ticker, finite entries,
    symmetric within 1e-12."""
    values = _frozen(instance, "values")
    n = len(instance.tickers)
    if n == 0:
        raise ValueError(f"{kind} needs at least one ticker")
    if values.shape != (n, n):
        raise ValueError(f"{kind} shape {values.shape} does not match {n} tickers")
    if not np.isfinite(values).all():
        raise ValueError(f"{kind} contains non-finite values")
    if np.abs(values - values.T).max() > 1e-12:
        raise ValueError(f"{kind} not symmetric within 1e-12")
    return values


@dataclass(frozen=True, eq=False)
class ReturnsMatrix:
    """T x N simple daily returns of distinct assets or portfolios, each row on the later day. Equality is identity."""

    tickers: tuple[str, ...]
    dates: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        dates = _frozen(self, "dates", "datetime64[D]")
        values = _frozen(self, "values")
        if values.shape != (len(self.dates), len(self.tickers)):
            raise ValueError(f"returns shape {values.shape} does not match dates x tickers")
        if len(set(self.tickers)) != len(self.tickers):
            raise ValueError("duplicate tickers in returns")
        if not _ascending(dates):
            raise ValueError("returns dates not strictly increasing")
        if not np.isfinite(values).all():
            day, asset = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(f"returns contain non-finite values: {self.tickers[asset]} on {self.dates[day]}")

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """N x N sample covariance of daily returns. Singularity is allowed. Equality is identity."""

    tickers: tuple[str, ...]
    values: np.ndarray = field(repr=False)
    known_psd: InitVar[bool] = False  # True skips the PSD check: sample_covariance's X'X/(n-1) is PSD

    def __post_init__(self, known_psd: bool) -> None:
        values = _square_matrix(self, "covariance")
        if not known_psd and np.linalg.eigvalsh(values).min() < -1e-10:
            raise ValueError("covariance not positive semi-definite (eigenvalue below -1e-10)")

    @property
    def variances(self) -> np.ndarray:
        return np.diag(self.values)


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """N x N correlation with exact unit diagonal and entries in [-1, 1]. Equality is identity."""

    tickers: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = _square_matrix(self, "correlation")
        if np.abs(np.diag(values) - 1.0).max() > 1e-12:
            raise ValueError("correlation diagonal must be 1")
        if np.abs(values).max() > 1.0:
            raise ValueError("correlation entries must lie in [-1, 1]")


@dataclass(frozen=True)
class RiskMetrics:
    """Annualized risk/return summary of one daily return series."""

    daily_volatility: float
    annual_volatility: float
    annual_return: float
    sharpe_ratio: float


def daily_returns(panel: PricePanel) -> ReturnsMatrix:
    """Percentage change between successive closes: r[t] = c[t+1]/c[t] - 1."""
    closes = panel.closes
    with np.errstate(over="ignore"):  # ReturnsMatrix names the ticker and day that overflowed
        values = closes[1:] / closes[:-1] - 1.0
    return ReturnsMatrix(tickers=panel.tickers, dates=panel.dates[1:], values=values)


def sample_covariance(returns: ReturnsMatrix) -> CovarianceMatrix:
    """Unbiased (n-1) sample covariance of the return columns."""
    if returns.n_obs < 2:
        raise InsufficientObservations(f"{returns.n_obs} return row(s), need >= 2 for covariance")
    centered = returns.values - returns.values.mean(axis=0)
    cov = centered.T @ centered / (returns.n_obs - 1)  # exactly symmetric: numpy mirrors one triangle of A.T @ A
    return CovarianceMatrix(tickers=returns.tickers, values=cov, known_psd=True)


def correlation(cov: CovarianceMatrix) -> CorrelationMatrix:
    """Normalize a covariance to correlations, clamped into [-1, 1]."""
    variances = cov.variances
    dead = [t for t, v in zip(cov.tickers, variances) if v <= VARIANCE_FLOOR]
    if dead:
        raise ZeroVarianceAsset(dead)
    scale = np.sqrt(variances)
    rho = cov.values / np.outer(scale, scale)
    rho = np.clip((rho + rho.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(rho, 1.0)
    return CorrelationMatrix(tickers=cov.tickers, values=rho)


def annualize_volatility(daily_vol: float) -> float:
    """Scale a per-day standard deviation to per-year via sqrt(250)."""
    if daily_vol < 0:
        raise ValueError(f"volatility must be >= 0, got {daily_vol}")
    return daily_vol * math.sqrt(TRADING_DAYS_PER_YEAR)


def sharpe_ratio(daily_portfolio_returns: np.ndarray, risk_free: float = 0.0) -> RiskMetrics:
    """Annualized return, volatility, and Sharpe ratio of a daily series.

    annual return = mean * 250, annual volatility = sample std * sqrt(250),
    Sharpe = (annual return - risk_free) / annual volatility. A non-finite volatility or Sharpe is a ValueError.
    """
    series = np.asarray(daily_portfolio_returns, dtype=float).ravel()
    if series.size < 2:
        raise InsufficientObservations(f"{series.size} observation(s), need >= 2 for Sharpe")
    with np.errstate(over="ignore"):  # a variance past float range is named below
        daily_vol = float(series.std(ddof=1))
    if not math.isfinite(daily_vol):
        raise ValueError(f"daily volatility not finite: {daily_vol!r}")
    if daily_vol <= 0.0:
        raise ZeroVolatility("constant return series has zero volatility")
    annual_vol = annualize_volatility(daily_vol)
    annual_ret = float(series.mean()) * TRADING_DAYS_PER_YEAR
    if not math.isfinite(sharpe := (annual_ret - risk_free) / annual_vol):
        raise ValueError(f"Sharpe ratio not finite: annual return {annual_ret!r}, risk-free rate {risk_free!r}")
    return RiskMetrics(
        daily_volatility=daily_vol,
        annual_volatility=annual_vol,
        annual_return=annual_ret,
        sharpe_ratio=sharpe,
    )
