"""Eigen portfolios: PCA over training statistics, one candidate per component.

Principal components are extracted from the correlation matrix by default
(covariance PCA sits behind a flag), each retained component's loadings are
normalized by their sum into a candidate weight vector, and the candidate
with the highest in-sample Sharpe ratio wins.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateLoadingSum, NoViableCandidate, ZeroVarianceAsset, ZeroVolatility
from .market_data import _frozen
from .portfolio import PortfolioWeights
from .returns_stats import (
    TRADING_DAYS_PER_YEAR,
    CorrelationMatrix,
    CovarianceMatrix,
    ReturnsMatrix,
    sharpe_ratio,
)

logger = logging.getLogger(__name__)

LOADING_SUM_FLOOR = 1e-8
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class PCAModel:
    """Eigendecomposition of the return covariance or correlation matrix.

    Column k of ``loadings`` is the unit-norm eigenvector for ``eigenvalues[k]``;
    eigenvalues are sorted nonincreasing and tiny negatives are clamped to 0.
    Each eigenvector's sign is fixed so its largest-magnitude entry is positive.
    """

    tickers: tuple[str, ...]
    eigenvalues: np.ndarray = field(repr=False)
    loadings: np.ndarray = field(repr=False)
    explained_ratio: np.ndarray = field(repr=False)
    standardized: bool

    def __post_init__(self) -> None:
        arrays = [_frozen(self, name) for name in ("eigenvalues", "loadings", "explained_ratio")]
        if not all(np.isfinite(values).all() for values in arrays):
            raise ValueError("eigenvalues, loadings and explained ratios must be finite")
        n = len(self.tickers)
        if self.eigenvalues.shape != (n,) or self.explained_ratio.shape != (n,):
            raise ValueError("eigenvalues/explained_ratio must have one entry per ticker")
        if self.loadings.shape != (n, n):
            raise ValueError(f"loadings shape {self.loadings.shape} != ({n}, {n})")
        if (np.diff(self.eigenvalues) > 1e-12).any():
            raise ValueError("eigenvalues must be sorted nonincreasing")
        if (self.eigenvalues < 0).any():
            raise ValueError("eigenvalues must be >= 0 after clamping")
        gram = self.loadings.T @ self.loadings
        if np.abs(gram - np.eye(n)).max() > 1e-9:
            raise ValueError("loading columns must be orthonormal")
        if abs(float(self.explained_ratio.sum()) - 1.0) > 1e-9:
            raise ValueError("explained ratios must sum to 1")

    @property
    def n_components(self) -> int:
        return len(self.tickers)


class EigenCandidate(NamedTuple):
    """One component's sum-normalized loadings and its in-sample Sharpe."""

    component_index: int  # 1-based rank of the component
    weights: np.ndarray
    in_sample_sharpe: float


def fit_pca(matrix: CorrelationMatrix | CovarianceMatrix) -> PCAModel:
    """Eigendecompose the sample correlation or covariance matrix it is handed.

    A correlation matrix gives a standardized, scale-free model, so a single
    high-variance asset cannot dominate the loadings.
    """
    eigenvalues, vectors = np.linalg.eigh(matrix.values)
    descending = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[descending]
    vectors = vectors[:, descending]
    if eigenvalues.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"eigenvalue {eigenvalues.min()} below numerical floor")
    eigenvalues = np.maximum(eigenvalues, 0.0)

    # orient deterministically: largest-|entry| coordinate made positive
    for k in range(vectors.shape[1]):
        pivot = np.argmax(np.abs(vectors[:, k]))
        if vectors[pivot, k] < 0:
            vectors[:, k] = -vectors[:, k]

    total = float(eigenvalues.sum())
    if total <= 0.0:
        raise ZeroVarianceAsset(list(matrix.tickers), "all assets have zero variance")
    return PCAModel(
        tickers=matrix.tickers,
        eigenvalues=eigenvalues,
        loadings=vectors,
        explained_ratio=eigenvalues / total,
        standardized=isinstance(matrix, CorrelationMatrix),
    )


def min_components_for_variance(model: PCAModel, threshold: float) -> int:
    """Smallest k whose leading components explain at least the threshold."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    cumulative = np.cumsum(model.explained_ratio)
    for k, reached in enumerate(cumulative, start=1):
        if reached >= threshold - 1e-12:
            return k
    return model.n_components


def candidate_portfolio(model: PCAModel, component_index: int) -> np.ndarray:
    """Component loadings normalized by their sum; shorts are permitted."""
    if not 1 <= component_index <= model.n_components:
        raise ValueError(f"component index {component_index} outside 1..{model.n_components}")
    column = model.loadings[:, component_index - 1]
    total = float(column.sum())
    if abs(total) < LOADING_SUM_FLOOR:
        raise DegenerateLoadingSum(
            f"component {component_index}: loading sum {total!r} too close to 0"
        )
    return column / total


def select_best_eigen(
    returns: ReturnsMatrix,
    model: PCAModel,
    k_max: int,
    risk_free: float = 0.0,
) -> tuple[PortfolioWeights, list[EigenCandidate]]:
    """Pick the max-Sharpe candidate among components 1..k_max.

    Each candidate's Sharpe is measured by applying its weights to the
    training returns. Degenerate candidates (loadings summing to ~0, or a
    constant portfolio series) are skipped with a logged reason; ties break
    toward the lower component index. Returns the winner plus all viable
    candidates ranked best-first.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    k_max = min(k_max, model.n_components)
    if model.tickers != returns.tickers:
        raise ValueError("model tickers do not match returns tickers")

    candidates: list[EigenCandidate] = []
    for k in range(1, k_max + 1):
        try:
            weights = candidate_portfolio(model, k)
            series = returns.values @ weights
            metrics = sharpe_ratio(series, risk_free)
        except (DegenerateLoadingSum, ZeroVolatility) as reason:
            logger.info("skipping eigen candidate %d: %s", k, reason)
            continue
        candidates.append(EigenCandidate(k, weights, metrics.sharpe_ratio))

    if not candidates:
        raise NoViableCandidate(f"no viable eigen candidate among components 1..{k_max}")
    ranked = sorted(candidates, key=lambda c: (-c.in_sample_sharpe, c.component_index))
    best = ranked[0]
    weights = PortfolioWeights(
        tickers=returns.tickers,
        weights=best.weights,
        method="EIGEN",
        built_on=returns.dates[-1],
        metadata={
            "component_index": best.component_index,
            "candidate_sharpe": best.in_sample_sharpe,
            "standardize": model.standardized,
            "risk_free_rate": risk_free,
            "trading_days_per_year": TRADING_DAYS_PER_YEAR,
        },
    )
    return weights, ranked
