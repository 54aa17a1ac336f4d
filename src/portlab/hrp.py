"""Hierarchical risk parity: tree clustering, quasi-diagonalization, bisection.

The allocation runs in three phases. Agglomerative clustering over a
correlation-derived distance matrix builds a merge tree (Ward criterion by
default, updated with the Lance-Williams recurrence). The tree's leaf order
then seriates the assets so correlated names sit next to each other. Finally
capital is split top-down: each contiguous slice is halved at its midpoint
and the two halves receive mass in inverse proportion to their
inverse-variance-portfolio variances.

Nothing in the pipeline inverts the covariance matrix, so singular or
rank-deficient covariances are handled without special casing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from datetime import date
from typing import Any, Literal, NamedTuple, Sequence

import numpy as np

from .errors import MalformedTree, ZeroVarianceAsset
from .portfolio import PortfolioWeights
from .returns_stats import VARIANCE_FLOOR, CorrelationMatrix, CovarianceMatrix, _square_matrix

LinkageMethod = Literal["ward", "single", "complete", "average"]

UNDATED = date(1970, 1, 1)  # built_on placeholder for matrix-level calls


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative pairwise distances with a zero diagonal."""

    tickers: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = _square_matrix(self, "distance")
        if (values < 0).any():
            raise ValueError("distances must be >= 0")
        if np.abs(np.diag(values)).max() != 0.0:
            raise ValueError("distance diagonal must be exactly 0")


class Merge(NamedTuple):
    """One agglomeration step: children ids, merge height, merged leaf count."""

    left_id: int
    right_id: int
    height: float
    size: int


@dataclass(frozen=True)
class LinkageTree:
    """N-1 merges over leaf ids 0..N-1; merge k creates cluster id N+k."""

    n_leaves: int
    rows: tuple[Merge, ...]

    def __post_init__(self) -> None:
        n = self.n_leaves
        if len(self.rows) != n - 1:
            raise MalformedTree(f"{len(self.rows)} rows for {n} leaves, expected {n - 1}")
        sizes = {leaf: 1 for leaf in range(n)}
        consumed: set[int] = set()
        previous_height = 0.0
        for k, row in enumerate(self.rows):
            for child in (row.left_id, row.right_id):
                if child not in sizes:
                    raise MalformedTree(f"row {k}: dangling child id {child}")
                if child in consumed:
                    raise MalformedTree(f"row {k}: child id {child} consumed twice")
                consumed.add(child)
            if row.left_id >= row.right_id:
                raise MalformedTree(f"row {k}: children not ordered left < right")
            if not np.isfinite(row.height):
                raise MalformedTree(f"row {k}: height {row.height} is not finite")
            if row.height < previous_height - 1e-9 * max(1.0, abs(previous_height)):
                raise MalformedTree(f"row {k}: height {row.height} below previous {previous_height}")
            if row.size != sizes[row.left_id] + sizes[row.right_id]:
                raise MalformedTree(f"row {k}: size {row.size} != sum of children sizes")
            sizes[n + k] = row.size
            previous_height = max(previous_height, row.height)
        if self.rows and self.rows[-1].size != n:
            raise MalformedTree(f"root size {self.rows[-1].size} != {n} leaves")

    @property
    def root_id(self) -> int:
        return self.n_leaves + len(self.rows) - 1


@dataclass(frozen=True)
class SeriationOrder:
    """Dendrogram leaf order: a permutation of 0..N-1."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError(f"not a permutation of 0..{len(self.order) - 1}: {self.order}")

    def tickers(self, labels: Sequence[str]) -> tuple[str, ...]:
        return tuple(labels[index] for index in self.order)


def correlation_distance(corr: CorrelationMatrix) -> DistanceMatrix:
    """Leaf-level distances between assets: d = sqrt((1 - rho) / 2), in [0, 1]."""
    values = np.sqrt(np.clip((1.0 - corr.values) / 2.0, 0.0, 1.0))
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(tickers=corr.tickers, values=values)


def ward_linkage(dist: DistanceMatrix, method: LinkageMethod = "ward") -> LinkageTree:
    """Agglomerative clustering via the Lance-Williams recurrence.

    At every step the pair of active clusters at minimum distance merges;
    exact ties break on the smallest (left_id, right_id) pair. For the Ward
    criterion the distance from the merged cluster ij to any k is

        d(ij,k) = sqrt(((ni+nk) d_ik^2 + (nj+nk) d_jk^2 - nk d_ij^2) / (ni+nj+nk))

    which keeps merge heights nondecreasing. ``single``, ``complete`` and
    ``average`` are available behind the same interface.

    The working matrix keeps the active clusters in ascending id order: a
    merge drops both children's rows and columns and appends the new
    cluster, whose id n + step is the largest yet. Exactly symmetric (taken
    from the input's upper triangle) with an infinite diagonal, the matrix
    has its first row-major minimum above the diagonal, at the tied pair
    with the smallest (left_id, right_id).
    """
    n = len(dist.tickers)
    if n < 2:
        raise ValueError("linkage needs at least 2 assets")
    if method not in ("ward", "single", "complete", "average"):
        raise ValueError(f"unknown linkage method {method!r}")

    d = np.triu(dist.values, 1)
    d += d.T
    np.fill_diagonal(d, np.inf)
    ids = np.arange(n)
    sizes = np.ones(n, dtype=np.int64)
    rows: list[Merge] = []

    for step in range(n - 1):
        i, j = divmod(int(d.argmin()), len(ids))
        height = d[i, j]
        merged_size = int(sizes[i] + sizes[j])
        rows.append(Merge(int(ids[i]), int(ids[j]), float(height), merged_size))

        k = np.delete(np.arange(len(ids)), (i, j))
        d_ik, d_jk = d[i, k], d[j, k]
        if method == "ward":
            ni, nj, nk = sizes[i], sizes[j], sizes[k]
            numerator = (ni + nk) * d_ik**2 + (nj + nk) * d_jk**2 - nk * height**2
            updated = np.sqrt(np.maximum(numerator, 0.0) / (ni + nj + nk))
        elif method == "single":
            updated = np.minimum(d_ik, d_jk)
        elif method == "complete":
            updated = np.maximum(d_ik, d_jk)
        else:
            updated = (sizes[i] * d_ik + sizes[j] * d_jk) / (sizes[i] + sizes[j])
        d[i, k] = updated
        d[k, i] = updated

        keep = np.append(k, i)
        d = d[np.ix_(keep, keep)]
        ids = np.append(ids[k], n + step)
        sizes = np.append(sizes[k], merged_size)

    return LinkageTree(n_leaves=n, rows=tuple(rows))


def quasi_diagonalize(tree: LinkageTree) -> SeriationOrder:
    """Leaf order of the dendrogram: a depth-first walk from the root, left first.

    This puts similar assets next to each other, concentrating large
    covariance entries near the diagonal of the reordered matrix.
    """
    order: list[int] = []
    stack = [tree.root_id]
    while stack:
        node = stack.pop()
        if node < tree.n_leaves:
            order.append(node)
        else:
            row = tree.rows[node - tree.n_leaves]
            stack.extend((row.right_id, row.left_id))
    return SeriationOrder(order=tuple(order))


def inverse_variance_weights(cov: CovarianceMatrix, subset: Sequence[int]) -> np.ndarray:
    """Weights proportional to 1/variance over the given asset indices."""
    indices = list(subset)
    variances = cov.values[indices, indices]
    dead = [cov.tickers[i] for i, v in zip(indices, variances) if v <= VARIANCE_FLOOR]
    if dead:
        raise ZeroVarianceAsset(dead)
    inverse = 1.0 / variances
    return inverse / inverse.sum()


def cluster_variance(cov: CovarianceMatrix, subset: Sequence[int]) -> float:
    """Variance of the inverse-variance allocation over a cluster: w' V w."""
    indices = list(subset)
    w = inverse_variance_weights(cov, indices)
    block = cov.values[np.ix_(indices, indices)]
    return float(w @ block @ w)


def recursive_bisection(
    cov: CovarianceMatrix,
    order: SeriationOrder,
    built_on: date = UNDATED,
    extra_metadata: dict[str, Any] | None = None,
) -> PortfolioWeights:
    """Top-down inverse-variance capital split along the seriation order.

    Starting from the full seriated list with unit mass, every slice of
    length >= 2 is cut at its midpoint; the left half's weights scale by
    alpha = 1 - V_left / (V_left + V_right) and the right half's by
    1 - alpha. When both half variances underflow the numerical floor the
    split falls back to alpha = 0.5 and the event is counted in metadata.
    """
    if len(order.order) != len(cov.tickers):  # SeriationOrder is already a permutation
        raise ValueError("seriation order does not cover the covariance tickers")

    weights = np.ones(len(cov.tickers))
    queue: deque[list[int]] = deque([list(order.order)])
    degenerate_splits = 0
    while queue:
        items = queue.popleft()
        if len(items) < 2:
            continue
        mid = len(items) // 2
        left_items, right_items = items[:mid], items[mid:]
        v_left = max(cluster_variance(cov, left_items), 0.0)
        v_right = max(cluster_variance(cov, right_items), 0.0)
        total = v_left + v_right
        if total <= VARIANCE_FLOOR:
            alpha = 0.5
            degenerate_splits += 1
        else:
            alpha = 1.0 - v_left / total
        weights[left_items] *= alpha
        weights[right_items] *= 1.0 - alpha
        queue.append(left_items)
        queue.append(right_items)

    total_weight = float(weights.sum())
    if abs(total_weight - 1.0) > 1e-9:
        raise ValueError(f"bisection weights sum to {total_weight!r}")
    metadata: dict[str, Any] = {"degenerate_splits": degenerate_splits}
    metadata.update(extra_metadata or {})
    return PortfolioWeights(
        tickers=cov.tickers,
        weights=weights,
        method="HRP",
        built_on=built_on,
        metadata=metadata,
    )


class HrpResult(NamedTuple):
    weights: PortfolioWeights
    tree: LinkageTree
    order: SeriationOrder


def build_hrp_portfolio(
    cov: CovarianceMatrix,
    corr: CorrelationMatrix,
    built_on: date = UNDATED,
    linkage_method: LinkageMethod = "ward",
) -> HrpResult:
    """Run the full pipeline on training statistics, keeping the intermediates.

    The correlation feeds the distance matrix, the linkage tree seriates the
    assets, and recursive bisection allocates the weights over the
    covariance. The tree and seriation come back alongside the weights for
    export.
    """
    tree = ward_linkage(correlation_distance(corr), method=linkage_method)
    order = quasi_diagonalize(tree)
    weights = recursive_bisection(
        cov,
        order,
        built_on=built_on,
        extra_metadata={"distance": "sqrt_half", "linkage": linkage_method},
    )
    return HrpResult(weights=weights, tree=tree, order=order)


def dendrogram_dict(tree: LinkageTree, tickers: Sequence[str]) -> dict[str, Any]:
    """Nested {id, height, children} tree with ticker labels on the leaves."""
    if len(tickers) != tree.n_leaves:
        raise ValueError(f"{len(tickers)} labels for {tree.n_leaves} leaves")
    nodes: list[dict[str, Any]] = [
        {"id": index, "ticker": ticker, "height": 0.0} for index, ticker in enumerate(tickers)
    ]
    for k, row in enumerate(tree.rows):
        nodes.append(
            {
                "id": tree.n_leaves + k,
                "height": row.height,
                "children": [nodes[row.left_id], nodes[row.right_id]],
            }
        )
    return nodes[-1]
