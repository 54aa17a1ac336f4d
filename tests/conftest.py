"""Shared fixtures plus a pass/fail summary for the acceptance suite."""

from __future__ import annotations

from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from portlab.market_data import PricePanel

# Every property draws the same examples on every run, so tier-1 gives one verdict for one tree.
# Only derandomize moves: each test keeps its own max_examples and deadline.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

ACCEPTANCE_MODULE = "test_acceptance"

CRITERIA = {
    "test_diagonal_covariance_oracle": "diagonal-covariance oracle (HRP == closed-form IVP, <1s)",
    "test_singularity_robustness": "singular covariance still yields valid HRP weights, no inversion",
    "test_block_seriation": "two-block panel seriates each block contiguously, 100/100 seeds",
    "test_linkage_oracle": "ward linkage matches brute-force Lance-Williams recomputation",
    "test_pca_oracle": "PCA matches independent eigen solver; orthonormal; ratios sum to 1",
    "test_metric_arithmetic": "sqrt(250) annualization and Sharpe formulas match hand values",
    "test_report_schema_fixture": "published-table report round-trips; summary counts 4/7 and 5/7",
    "test_end_to_end_determinism_and_scale": "7-sector run <10s, byte-identical; 500-asset HRP <5s",
    "test_no_look_ahead": "perturbing test prices changes no portfolio weight",
}

_acceptance_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if ACCEPTANCE_MODULE not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance_results[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _acceptance_results[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, description in CRITERIA.items():
        outcome = _acceptance_results.get(name)
        if outcome is None:
            continue
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {description}")


def output_tree(root) -> dict[str, bytes]:
    """Every file under ``root``: its relative path mapped to its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in Path(root).rglob("*") if p.is_file()}


def make_panel(closes, tickers=None, start=date(2020, 1, 1)) -> PricePanel:
    """Panel over consecutive weekdays, from a date or datetime64 day, for a T x N close matrix."""
    closes = np.asarray(closes, dtype=float)
    if tickers is None:
        tickers = tuple(f"T{i}" for i in range(closes.shape[1]))
    days = []
    day = np.datetime64(start, "D").item()
    while len(days) < closes.shape[0]:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    return PricePanel(tickers=tuple(tickers), dates=tuple(days), closes=closes)


def panel_from_returns(returns, tickers=None, start_price=100.0, start=date(2020, 1, 1)) -> PricePanel:
    """Panel whose daily_returns reproduce the given return matrix."""
    returns = np.asarray(returns, dtype=float)
    closes = np.empty((returns.shape[0] + 1, returns.shape[1]))
    closes[0] = start_price
    closes[1:] = start_price * np.cumprod(1.0 + returns, axis=0)
    return make_panel(closes, tickers=tickers, start=start)


# published per-sector results: (train vol, train sharpe, test vol, test sharpe)
PUBLISHED_TABLES = {
    "auto": {
        "EIGEN": (0.240137, 0.500069, 0.225286, 1.479449),
        "HRP": (0.226378, 0.620970, 0.207317, 1.204434),
    },
    "consumer_durables": {
        "EIGEN": (0.205992, 1.253044, 0.172882, 2.731261),
        "HRP": (0.184684, 1.205891, 0.151220, 3.019343),
    },
    "financial_services": {
        "EIGEN": (0.262314, 0.973574, 0.236104, 1.908093),
        "HRP": (0.242130, 1.024041, 0.225178, 1.637399),
    },
    "healthcare": {
        "EIGEN": (0.223730, 0.799622, 0.184003, 0.672148),
        "HRP": (0.193036, 1.054018, 0.169768, 1.410061),
    },
    "information_technology": {
        "EIGEN": (0.214254, 1.44903, 0.234554, 2.839298),
        "HRP": (0.206345, 1.43674, 0.227796, 2.910402),
    },
    "oil_and_gas": {
        "EIGEN": (0.236194, 0.590050, 0.203017, 1.723656),
        "HRP": (0.213704, 0.832144, 0.193843, 1.848685),
    },
    "nifty50": {
        "EIGEN": (0.184898, 0.934880, 0.153761, 2.480044),
        "HRP": (0.187925, 0.887088, 0.163927, 2.799373),
    },
}


def published_report(sector):
    """BacktestReport populated with one published result table."""
    from portlab.backtest import BacktestReport, PeriodPerformance

    methods = {}
    for method, (train_vol, train_sharpe, test_vol, test_sharpe) in PUBLISHED_TABLES[
        sector
    ].items():
        methods[method] = {
            "train": PeriodPerformance(annual_volatility=train_vol, sharpe_ratio=train_sharpe),
            "test": PeriodPerformance(annual_volatility=test_vol, sharpe_ratio=test_sharpe),
        }
    return BacktestReport(sector=sector, methods=methods, metadata={"risk_free_rate": 0.0})


def two_block_returns(seed, n_per_block=5, n_obs=500, rho=0.9, scale=0.01):
    """Column-shuffled returns with two equicorrelated blocks.

    Returns (values, block_of_position): position j's asset belongs to
    block_of_position[j], so a seriation is block-contiguous when the first
    half of the ordered positions maps to one block value only.
    """
    rng = np.random.default_rng(seed)
    n = 2 * n_per_block
    target = np.zeros((n, n))
    for b in range(2):
        block = slice(b * n_per_block, (b + 1) * n_per_block)
        target[block, block] = rho
    np.fill_diagonal(target, 1.0)
    chol = np.linalg.cholesky(target)
    values = scale * (rng.normal(size=(n_obs, n)) @ chol.T)
    positions = rng.permutation(n)
    return values[:, positions], positions // n_per_block


@pytest.fixture
def rng():
    return np.random.default_rng(20160101)
