"""Apply fixed weights to train/test panels and report volatility and Sharpe.

Weights are fitted on the train period only and held fixed (daily-rebalanced
arithmetic returns, no transaction costs). Each report mirrors one result
table: per method, annualized volatility and Sharpe ratio for both periods.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, get_args

import numpy as np

from .config import _finite
from .errors import TickerMismatch
from .market_data import PeriodLabel, PricePanel, _csv_text
from .portfolio import PortfolioWeights
from .returns_stats import (
    TRADING_DAYS_PER_YEAR,
    ReturnsMatrix,
    daily_returns,
    sharpe_ratio,
)

PERIODS: tuple[PeriodLabel, ...] = get_args(PeriodLabel)


@dataclass(frozen=True)
class PeriodPerformance:
    """One table cell pair: annualized volatility and Sharpe ratio."""

    annual_volatility: float
    sharpe_ratio: float


@dataclass(frozen=True)
class BacktestReport:
    """Per-sector evaluation: {method -> {period -> cells}} plus metadata.

    ``series`` holds the daily return paths behind the cells, per period one ReturnsMatrix
    column per method; deserialized reports carry None, as the JSON stores only the cells.
    """

    sector: str
    methods: dict[str, dict[str, PeriodPerformance]]
    metadata: dict[str, Any] = field(default_factory=dict)
    series: dict[str, ReturnsMatrix] | None = None

    def cell(self, method: str, period: str) -> PeriodPerformance:
        return self.methods[method][period]


@dataclass(frozen=True)
class ComparisonSummary:
    """Per-sector winners by Sharpe ratio, with aggregate counts per period."""

    winners: dict[str, dict[str, str]]  # sector -> period -> method or "TIE"
    counts: dict[str, dict[str, int]]  # period -> method/"TIE" -> sectors won


def portfolio_daily_returns(weights: PortfolioWeights, returns: ReturnsMatrix) -> np.ndarray:
    """Fixed-weight daily portfolio return: r_p(t) = sum_i w_i * r_i(t)."""
    column_of = {t: i for i, t in enumerate(returns.tickers)}
    missing = [t for t in weights.tickers if t not in column_of]
    if missing:
        raise TickerMismatch(f"weights reference tickers not in returns: {missing}")
    aligned = np.zeros(len(returns.tickers))  # the weights in the returns' column order
    aligned[[column_of[t] for t in weights.tickers]] = weights.weights
    return returns.values @ aligned


def evaluate(
    weights_by_method: Mapping[str, PortfolioWeights],
    train: PricePanel,
    test: PricePanel,
    risk_free: float = 0.0,
    sector: str = "",
    extra_metadata: Mapping[str, Any] | None = None,
) -> BacktestReport:
    """Backtest every method's weights on both periods and fill the report.

    The metadata holds the return conventions and each period's first and last
    day, plus ``extra_metadata``. Weights carry no metadata of their own, so
    weights read back from CSV give the same report as freshly built ones.
    """
    if not weights_by_method:
        raise ValueError("weights_by_method is empty: evaluate needs at least one method's weights")
    panels = {"train": train, "test": test}
    period_returns = {label: daily_returns(panel) for label, panel in panels.items()}

    methods: dict[str, dict[str, PeriodPerformance]] = {}
    columns: dict[str, list[np.ndarray]] = {label: [] for label in PERIODS}
    for method in sorted(weights_by_method):
        weights = weights_by_method[method]
        methods[method] = {}
        for label in PERIODS:
            daily = portfolio_daily_returns(weights, period_returns[label])
            metrics = sharpe_ratio(daily, risk_free)
            methods[method][label] = PeriodPerformance(metrics.annual_volatility, metrics.sharpe_ratio)
            columns[label].append(daily)
    series = {
        label: ReturnsMatrix(tuple(methods), period_returns[label].dates, np.column_stack(columns[label]))
        for label in PERIODS
    }

    metadata: dict[str, Any] = {
        "risk_free_rate": risk_free,
        "trading_days_per_year": TRADING_DAYS_PER_YEAR,
        "covariance": "sample(ddof=1)",
        "periods": {
            label: {"start": str(panel.dates[0]), "end": str(panel.dates[-1])}
            for label, panel in panels.items()
        },
    }
    metadata.update(dict(extra_metadata or {}))
    return BacktestReport(sector=sector, methods=methods, metadata=metadata, series=series)


def summarize(reports: list[BacktestReport]) -> ComparisonSummary:
    """A period's winner is the one method with the highest Sharpe ratio, "TIE" when several share it."""
    if not reports:
        raise ValueError("summarize needs at least one report")
    winners: dict[str, dict[str, str]] = {}
    for report in reports:
        winners[report.sector] = {}
        for period in PERIODS:
            sharpe = {method: report.cell(method, period).sharpe_ratio for method in report.methods}
            leaders = [method for method, value in sharpe.items() if value == max(sharpe.values())]
            winners[report.sector][period] = leaders[0] if len(leaders) == 1 else "TIE"
    counts = {period: dict(Counter(won[period] for won in winners.values())) for period in PERIODS}
    return ComparisonSummary(winners=winners, counts=counts)


def report_to_json(report: BacktestReport) -> str:
    """Serialize the table cells and metadata; full float precision.

    The JSON round-trips every double bit-exactly (shortest-repr encoding);
    the daily series are exported separately as CSV and are not embedded.
    """
    methods = {m: {period: asdict(cell) for period, cell in cells.items()} for m, cells in report.methods.items()}
    payload = {"sector": report.sector, "methods": methods, "metadata": report.metadata}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cell(cell: Any) -> PeriodPerformance:
    """One period's cells read back; each must be a finite JSON number (an int or a float, not a bool)."""
    if not isinstance(cell, dict):
        raise ValueError(f"report period {cell!r} is not an object")
    values = cell.get("annual_volatility"), cell.get("sharpe_ratio")
    if not all(map(_finite, values)):
        raise ValueError(f"report cells {values!r} are not all finite numbers")
    return PeriodPerformance(*values)


def report_from_json(text: str) -> BacktestReport:
    """The report ``report_to_json`` wrote. Raises ValueError for any text that is not one: an object
    with a string sector, an object metadata if any, and at least one method, each with the cells of
    both periods, every cell a finite number."""
    try:
        payload = json.loads(text)
    except RecursionError:  # nested deeper than the parser's stack
        raise ValueError("report JSON is nested too deep") from None
    shape = {"sector": str, "methods": dict, "metadata": dict}  # a missing sector reads as {}, not a str
    if not isinstance(payload, dict) or not all(isinstance(payload.get(k, {}), t) for k, t in shape.items()):
        raise ValueError("a report is an object with a string sector, a methods object and a metadata object")
    raw = payload.get("methods", {})
    if not raw or any(not isinstance(cells, dict) or set(cells) != set(PERIODS) for cells in raw.values()):
        raise ValueError("a report needs at least one method, each with train and test cells")
    methods = {method: {period: _cell(cell) for period, cell in cells.items()} for method, cells in raw.items()}
    return BacktestReport(sector=payload["sector"], methods=methods, metadata=payload.get("metadata", {}))


def report_to_csv(report: BacktestReport) -> str:
    """Flat ``sector,method,period,annual_volatility,sharpe_ratio`` rows."""
    rows = [
        (report.sector, method, period, float(cell.annual_volatility), float(cell.sharpe_ratio))
        for method, cells in sorted(report.methods.items())
        for period, cell in sorted(cells.items())
    ]
    return _csv_text(("sector", "method", "period", "annual_volatility", "sharpe_ratio"), rows)


def summary_to_json(summary: ComparisonSummary) -> str:
    return json.dumps(asdict(summary), indent=2, sort_keys=True) + "\n"


def summary_to_csv(summary: ComparisonSummary) -> str:
    rows = [(sector, winner["train"], winner["test"]) for sector, winner in summary.winners.items()]
    return _csv_text(("sector", "winner_train", "winner_test"), rows)


def format_report_table(report: BacktestReport) -> str:
    """Human-readable table at the published six-decimal precision."""
    lines = [
        f"{report.sector}",
        f"{'Portfolio':<10}{'Train Volatility':>18}{'Train Sharpe':>14}"
        f"{'Test Volatility':>17}{'Test Sharpe':>13}",
    ]
    for method, cells in sorted(report.methods.items()):
        train, test = cells["train"], cells["test"]
        lines.append(
            f"{method:<10}{train.annual_volatility:>18.6f}{train.sharpe_ratio:>14.6f}"
            f"{test.annual_volatility:>17.6f}{test.sharpe_ratio:>13.6f}"
        )
    return "\n".join(lines)
