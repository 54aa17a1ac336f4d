"""Exception hierarchy shared across the package."""

from __future__ import annotations


class PortlabError(Exception):
    """Base class for all package-specific errors."""


class MalformedCsv(PortlabError):
    """CSV input has a bad header, inconsistent row arity, or an unparseable date."""


class NonPositivePrice(PortlabError):
    """A close price parsed to a value <= 0."""


class DuplicateDate(PortlabError):
    """The same calendar date appears more than once in one series."""


class EmptyIntersection(PortlabError):
    """Panel alignment left no common dates across the input series."""


class InsufficientHistory(PortlabError):
    """Fewer than two dated rows remain after alignment or slicing."""


class InsufficientObservations(PortlabError):
    """A statistic needs more observations than were supplied."""


class ZeroVarianceAsset(PortlabError):
    """An asset's return variance is at or below the numerical floor, or an HRP
    cluster's inverse-variance portfolio is riskless beside the other half."""

    def __init__(self, tickers: list[str], message: str | None = None) -> None:
        self.tickers = list(tickers)
        super().__init__(message or f"zero-variance asset(s): {', '.join(self.tickers)}")


class ZeroVolatility(PortlabError):
    """A return series is constant, so volatility-based metrics are undefined."""


class MalformedTree(PortlabError):
    """A linkage tree references ids that do not resolve to leaves or merges."""


class DegenerateLoadingSum(PortlabError):
    """An eigenvector's loadings sum to ~0 and cannot be normalized to weights."""


class NoViableCandidate(PortlabError):
    """Every candidate component portfolio was degenerate."""


class TickerMismatch(PortlabError):
    """Portfolio weights reference tickers absent from the return panel."""


class ConfigError(PortlabError):
    """Experiment configuration failed validation; carries every problem found."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
