"""Portfolio weight vectors with provenance metadata and CSV round-tripping."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from datetime import date
from typing import IO, Any, Literal

import numpy as np

from .market_data import _frozen

Method = Literal["HRP", "EIGEN"]

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class PortfolioWeights:
    """Ticker -> weight allocation produced by one construction method.

    Weights always sum to 1. HRP weights are additionally long-only by
    construction, so every entry must lie in (0, 1]; eigen weights may be
    negative (shorts).
    """

    tickers: tuple[str, ...]
    weights: np.ndarray = field(repr=False)
    method: Method
    built_on: date
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        weights = _frozen(self, "weights")
        if weights.shape != (len(self.tickers),):
            raise ValueError(f"{len(self.tickers)} tickers but weight shape {weights.shape}")
        if len(set(self.tickers)) != len(self.tickers):
            raise ValueError("duplicate tickers in weights")
        if not np.isfinite(weights).all():
            raise ValueError("weights contain non-finite values")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
        if self.method == "HRP" and ((weights <= 0.0).any() or (weights > 1.0).any()):
            raise ValueError("HRP weights must lie in (0, 1]")

    def as_dict(self) -> dict[str, float]:
        return {ticker: float(w) for ticker, w in zip(self.tickers, self.weights)}

    def to_csv(self) -> str:
        """``ticker,weight`` rows; weights keep full round-trip precision."""
        lines = ["ticker,weight"]
        lines.extend(f"{ticker},{float(w)!r}" for ticker, w in zip(self.tickers, self.weights))
        return "\n".join(lines) + "\n"


def weights_from_csv(
    source: IO[str] | str,
    method: Method,
    built_on: date,
    metadata: dict[str, Any] | None = None,
) -> PortfolioWeights:
    """Rebuild PortfolioWeights from a ``ticker,weight`` CSV."""
    text = source if isinstance(source, str) else source.read()
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as bad:  # e.g. a field over the csv module's 131,072-character limit
        raise ValueError(f"weights CSV row {reader.line_num}: {bad}") from None
    header = rows[0] if rows else None
    if header is None or [cell.strip() for cell in header[:2]] != ["ticker", "weight"]:
        raise ValueError(f"weights CSV must start with 'ticker,weight', got {header}")
    tickers: list[str] = []
    values: list[float] = []
    for row_number, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise ValueError(f"weights CSV row {row_number}: expected 'ticker,weight', got {row}")
        try:
            values.append(float(row[1]))
        except ValueError:
            raise ValueError(f"weights CSV row {row_number}: weight {row[1]!r} is not a number") from None
        tickers.append(row[0].strip())
    return PortfolioWeights(
        tickers=tuple(tickers),
        weights=np.array(values, dtype=float),
        method=method,
        built_on=built_on,
        metadata=dict(metadata or {}),
    )
