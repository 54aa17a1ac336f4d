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

import json
import logging
from dataclasses import dataclass, field
from typing import Literal, NamedTuple, Sequence, get_args

import numpy as np

from .errors import MalformedTree, ZeroVarianceAsset
from .market_data import _frozen
from .portfolio import PortfolioWeights
from .returns_stats import VARIANCE_FLOOR, CorrelationMatrix, CovarianceMatrix, _square_matrix

logger = logging.getLogger(__name__)

LinkageMethod = Literal["ward", "single", "complete", "average"]


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric nonnegative pairwise distances with a zero diagonal. Equality is identity: compare the arrays."""

    tickers: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = _square_matrix(self, "distance")
        if (values < 0).any():
            raise ValueError("distances must be >= 0")
        if np.abs(np.diag(values)).max() != 0.0:
            raise ValueError("distance diagonal must be exactly 0")


@dataclass(frozen=True, eq=False)
class LinkageTree:
    """scipy's (N-1) x 4 linkage matrix over leaves 0..N-1: row k merges ``left_id <
    right_id`` at ``height`` into cluster N+k of ``size`` leaves. The rows consume each
    id below 2N-2 once, so the size rule alone makes the root hold all N leaves. Equality is identity."""

    n_leaves: int
    rows: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n, rows = self.n_leaves, _frozen(self, "rows")
        if rows.shape != (n - 1, 4):
            raise MalformedTree(f"rows shape {rows.shape} for {n} leaves, expected ({n - 1}, 4)")
        children, height, size = rows[:, :2], rows[:, 2], rows[:, 3]
        with np.errstate(all="ignore"):  # nan and inf in a faulty row would warn; the rules flag that row
            dangling = ~((children >= 0) & (children < n + np.arange(n - 1)[:, None]) & (children % 1 == 0))
            ids = np.where(dangling, 0, children).astype(np.intp)  # its row reports dangling first
            _, first, inverse = np.unique(ids.ravel(), return_index=True, return_inverse=True)
            previous = np.maximum.accumulate(np.r_[0.0, height])[:-1]
            rules = {
                "dangling child id": dangling.any(axis=1),
                "child id consumed twice": (first[inverse] != np.arange(ids.size)).reshape(-1, 2).any(axis=1),
                "children not ordered left < right": ~(children[:, 0] < children[:, 1]),
                "height is not finite": ~np.isfinite(height),
                "height below previous maximum": height < previous - 1e-9 * np.maximum(1.0, previous),
                "size != sum of children sizes": size != np.r_[np.ones(n), size][ids].sum(axis=1),
            }
        faults = np.argwhere(np.array(list(rules.values())).T)  # (row, rule) pairs, first row first
        if len(faults):
            k, rule = faults[0]
            raise MalformedTree(f"row {k} {rows[k].tolist()}: {list(rules)[rule]}")


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
    values = np.sqrt((1.0 - corr.values) / 2.0)  # CorrelationMatrix holds |rho| <= 1
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

    The search is the nearest-neighbour-list generic algorithm of Müllner
    (2011, arXiv:1109.2378, section 3.1). The full matrix, exactly symmetric
    (taken from the input's upper triangle), is never compacted: a merged
    cluster takes the lower of its children's slots, the other slot's row and
    column become infinite, and ``ids`` maps each slot to its cluster id.
    Every active slot keeps ``mind``/``nn``, its distance to and slot of the
    nearest active cluster with a larger id, the smallest such id on an exact
    tie. A merge takes the smallest ``mind`` and, among the slots holding it,
    the one with the smallest id, which with its ``nn`` is the tied pair with
    the smallest (left_id, right_id). The merged cluster has the largest id,
    so afterwards only two kinds of slot change: those whose ``nn`` was a
    child rescan their row, and any other whose distance to the merged
    cluster is strictly below its ``mind`` points there (on equality the
    older, smaller id stays). Every merge thus sees the operands the
    full-matrix scan would, and the rows are bit-identical to it. The cost is
    typically O(n^2); when most slots pointed at a child it is still O(n^3).
    """
    n = len(dist.tickers)
    if n < 2:
        raise ValueError("linkage needs at least 2 assets")
    if method not in get_args(LinkageMethod):
        raise ValueError(f"unknown linkage method {method!r}")

    d = np.triu(dist.values, 1)
    d += d.T
    np.fill_diagonal(d, np.inf)
    ids = np.arange(n)
    sizes = np.ones(n)  # floats: exact below 2**53
    above = np.where(np.tri(n, dtype=bool), np.inf, d)
    nn = above.argmin(axis=1)
    mind = above[ids, nn]
    del above  # a second n x n array held through the loop raises peak memory
    id_bound = 2 * n - 1  # above every cluster id
    rows = np.empty((n - 1, 4))

    for step in range(n - 1):
        i = int(np.where(mind == mind.min(), ids, id_bound).argmin())
        j = int(nn[i])
        height, ni, nj = d[i, j], sizes[i], sizes[j]
        rows[step] = ids[i], ids[j], height, ni + nj

        # every slot at once: retired slots hold inf and come out inf
        d_ik, d_jk = d[i], d[j]
        if method == "ward":  # numerator >= 0: i, j is the closest pair; a scalar's ** calls pow, not always exact
            numerator = (ni + sizes) * d_ik**2 + (nj + sizes) * d_jk**2 - sizes * (height * height)
            updated = np.sqrt(numerator / (ni + nj + sizes))
        elif method == "single":
            updated = np.minimum(d_ik, d_jk)
        elif method == "complete":
            updated = np.maximum(d_ik, d_jk)
        else:
            updated = (ni * d_ik + nj * d_jk) / (ni + nj)
        updated[[i, j]] = np.inf
        slot, retired = min(i, j), max(i, j)
        d[retired] = d[:, retired] = np.inf
        d[slot] = d[:, slot] = updated
        ids[slot], ids[retired] = n + step, -1
        sizes[slot] = ni + nj
        mind[[i, j]], nn[[i, j]] = np.inf, -1  # no active id is above the merged one

        # taken before repointing, which points slots at `slot`, itself i or j
        stale = np.flatnonzero((nn == i) | (nn == j))
        closer = updated < mind
        mind[closer], nn[closer] = updated[closer], slot
        rescan = np.where(ids > ids[stale, None], d[stale], np.inf)
        mind[stale] = rescan.min(axis=1)
        nn[stale] = np.where(rescan == mind[stale, None], ids, id_bound).argmin(axis=1)

    return LinkageTree(n_leaves=n, rows=rows)


def quasi_diagonalize(tree: LinkageTree) -> SeriationOrder:
    """Leaf order of the dendrogram, left first, built in row order: each merge
    concatenates its children's orders, and the root's is the seriation.

    This puts similar assets next to each other, concentrating large
    covariance entries near the diagonal of the reordered matrix.
    """
    orders = [(leaf,) for leaf in range(tree.n_leaves)]
    for left, right in tree.rows[:, :2].astype(int).tolist():
        orders.append(orders[left] + orders[right])
        orders[left] = orders[right] = ()  # merged: keeps live orders O(n)
    return SeriationOrder(order=orders[-1])


def recursive_bisection(cov: CovarianceMatrix, order: SeriationOrder) -> PortfolioWeights:
    """Top-down inverse-variance capital split along the seriation order.

    Starting from the full seriated list with unit mass, every slice of
    length >= 2 is cut at its midpoint; the left half's weights scale by
    alpha = 1 - V_left / (V_left + V_right) and the right half's by
    1 - alpha. A half's V is w'Cw, clamped at 0, for its covariance block C
    and its inverse-variance weights w. When both half variances underflow
    the numerical floor the split falls back to alpha = 0.5 and logs a
    warning naming the split's span of seriation positions.

    The covariance is permuted once into seriation order, so every slice is
    a contiguous span of that block; the weights are scattered back to the
    covariance's ticker order at the end. A direct call with a dead asset
    raises ZeroVarianceAsset for the dead tickers of the first split's left
    half, or failing that of its right half, in seriation order. So does a
    split whose alpha comes out exactly 0 or 1, naming the riskless half.
    """
    if len(order.order) != len(cov.tickers):  # SeriationOrder is already a permutation
        raise ValueError("seriation order does not cover the covariance tickers")

    positions = list(order.order)
    seriated = cov.values[np.ix_(positions, positions)]
    labels = order.tickers(cov.tickers)
    variances = seriated.diagonal()
    dead = [k for k, v in enumerate(variances.tolist()) if v <= VARIANCE_FLOOR]
    if dead and len(positions) > 1:  # the first split's halves hold every asset: its left half's dead, or else all
        raise ZeroVarianceAsset([labels[k] for k in dead if k < len(positions) // 2] or [labels[k] for k in dead])
    inverse = 1.0 / np.maximum(variances, VARIANCE_FLOOR)  # floored: only a lone dead asset's, which no split reads
    weights = np.ones(len(positions))
    spans = [(0, len(positions))]
    while spans:
        start, stop = spans.pop()
        if stop - start < 2:
            continue
        mid = start + (stop - start) // 2
        halves = []
        for a, b in ((start, mid), (mid, stop)):
            w = inverse[a:b] / inverse[a:b].sum()
            halves.append(max(float(w @ seriated[a:b, a:b] @ w), 0.0))
        v_left, v_right = halves
        total = v_left + v_right
        if total <= VARIANCE_FLOOR:
            alpha = 0.5
            logger.warning("both halves of seriation positions %d..%d are riskless; split evenly", start, stop - 1)
        else:
            alpha = 1.0 - v_left / total
            if alpha in (0.0, 1.0):  # one half's variance is 0 or negligible beside the other's
                riskless = list(labels[mid:stop] if alpha == 0.0 else labels[start:mid])
                raise ZeroVarianceAsset(
                    riskless, f"riskless cluster {', '.join(riskless)}: the other half would get no weight"
                )
        weights[start:mid] *= alpha
        weights[mid:stop] *= 1.0 - alpha
        spans += ((mid, stop), (start, mid))
    scattered = np.empty_like(weights)
    scattered[positions] = weights
    return PortfolioWeights(tickers=cov.tickers, weights=scattered, method="HRP")


class HrpResult(NamedTuple):
    weights: PortfolioWeights
    tree: LinkageTree
    order: SeriationOrder


def build_hrp_portfolio(
    cov: CovarianceMatrix,
    corr: CorrelationMatrix,
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
    return HrpResult(weights=recursive_bisection(cov, order), tree=tree, order=order)


def dendrogram_json(tree: LinkageTree, tickers: Sequence[str]) -> str:
    """Nested {id, height, children} tree with ticker labels on the leaves, as JSON.

    The text is ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` of the
    nested dicts plus a newline, built in row order: each merge wraps its
    children's texts, so a tree n - 1 deep needs no recursion.
    """
    n = tree.n_leaves
    if len(tickers) != n:
        raise ValueError(f"{len(tickers)} labels for {n} leaves")
    children, heights = tree.rows[:, :2].astype(int).tolist(), tree.rows[:, 2].tolist()  # Python floats repr bare
    texts = [f'{{"height":0.0,"id":{leaf},"ticker":{json.dumps(ticker)}}}' for leaf, ticker in enumerate(tickers)]
    for node, ((left, right), height) in enumerate(zip(children, heights), start=n):
        texts.append(f'{{"children":[{texts[left]},{texts[right]}],"height":{height!r},"id":{node}}}')
        texts[left] = texts[right] = ""  # merged: keeps live text O(n) bytes
    return texts[-1] + "\n"
