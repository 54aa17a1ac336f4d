"""Independent numpy/scipy references for one run's artifacts, per sector.

Nothing here imports portlab: the inputs are re-read from the generated CSVs,
aligned and sliced again, and every checked number is recomputed from them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

from checks import read_weights

TRADING_DAYS = 250
RTOL = 1e-8
EIGEN_TOL = 1e-7


def _read_per_ticker(data_dir: Path, tickers: list[str]) -> tuple[list[str], np.ndarray]:
    columns = []
    for ticker in tickers:
        lines = (data_dir / f"{ticker}.csv").read_text(encoding="utf-8").splitlines()[1:]
        columns.append(dict(line.split(",")[:2] for line in lines if line))
    dates = sorted(set.intersection(*(set(c) for c in columns)))
    closes = np.array([[float(c[d]) for c in columns] for d in dates])
    return dates, closes


def _read_wide_forward_filled(path: Path, tickers: list[str]) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cols = [header.index(t) for t in tickers]
    rows = [line.split(",") for line in lines[1:] if line]
    dates = [row[0] for row in rows]
    raw = np.array([[float(row[c]) if row[c] else np.nan for c in cols] for row in rows])
    quoted = ~np.isnan(raw)
    keep = quoted.any(axis=1)
    dates, raw, quoted = [d for d, k in zip(dates, keep) if k], raw[keep], quoted[keep]
    start = int(quoted.argmax(axis=0).max())  # first date every ticker has a prior quote
    filled = raw.copy()
    for t in range(1, len(filled)):
        gap = np.isnan(filled[t])
        filled[t, gap] = filled[t - 1, gap]
    return dates[start:], filled[start:]


def _window_returns(dates: list[str], closes: np.ndarray, start: str, end: str) -> np.ndarray:
    rows = [i for i, d in enumerate(dates) if start <= d <= end]
    prices = closes[rows]
    return prices[1:] / prices[:-1] - 1.0


def _cells(series: np.ndarray) -> tuple[float, float]:
    vol = float(np.std(series, ddof=1)) * math.sqrt(TRADING_DAYS)
    return vol, float(np.mean(series)) * TRADING_DAYS / vol


def _close(a, b, rtol: float = RTOL) -> bool:
    return bool(np.allclose(a, b, rtol=rtol, atol=1e-12))


def _heights(node: dict) -> list[float]:
    if "children" not in node:
        return []
    return [node["height"]] + [h for child in node["children"] for h in _heights(child)]


def _hrp_weights(cov: np.ndarray, order: list[int]) -> np.ndarray:
    """Top-down bisection at midpoints with inverse-variance cluster variances."""

    def cluster_var(items: list[int]) -> float:
        ivp = 1.0 / np.diag(cov)[items]
        ivp /= ivp.sum()
        return float(ivp @ cov[np.ix_(items, items)] @ ivp)

    weights = np.zeros(len(order))

    def split(items: list[int], mass: float) -> None:
        if len(items) == 1:
            weights[items[0]] = mass
            return
        left, right = items[: len(items) // 2], items[len(items) // 2 :]
        v_left, v_right = cluster_var(left), cluster_var(right)
        alpha = 0.5 if v_left + v_right <= 1e-16 else 1.0 - v_left / (v_left + v_right)
        split(left, mass * alpha)
        split(right, mass * (1.0 - alpha))

    split(order, 1.0)
    return weights


def _eigen_pick(train: np.ndarray) -> tuple[int, np.ndarray]:
    """Max in-sample Sharpe among sum-normalized leading correlation eigenvectors."""
    values, vectors = np.linalg.eigh(np.corrcoef(train, rowvar=False))
    order = np.argsort(-values, kind="stable")
    values, vectors = np.maximum(values[order], 0.0), vectors[:, order]
    explained = np.cumsum(values / values.sum())
    k_max = int(np.argmax(explained >= 0.8 - 1e-12)) + 1
    best = None
    for k in range(1, k_max + 1):
        total = vectors[:, k - 1].sum()
        if abs(total) < 1e-8:
            continue
        weights = vectors[:, k - 1] / total
        sharpe = _cells(train @ weights)[1]
        if best is None or sharpe > best[0]:
            best = (sharpe, k, weights)
    return best[1], best[2]


def check_run(root: Path, fixture_sectors: list[dict], layout: str, windows: dict,
              weights_dir: str, report_dir: str) -> list[str]:
    """Problems found in one run's artifacts, empty when every reference agrees."""
    problems = []
    winners = {}
    for sector in fixture_sectors:
        name, tickers = sector["name"], sector["tickers"]
        if layout == "wide":
            dates, closes = _read_wide_forward_filled(root / sector["data"], tickers)
        else:
            dates, closes = _read_per_ticker(root / sector["data"], tickers)
        train = _window_returns(dates, closes, *windows["train"])
        test = _window_returns(dates, closes, *windows["test"])
        build = root / weights_dir / name
        report = root / report_dir / name
        where = f"{name}:"

        dist = np.sqrt(np.clip((1.0 - np.corrcoef(train, rowvar=False)) / 2.0, 0.0, 1.0))
        dist = (dist + dist.T) / 2.0
        np.fill_diagonal(dist, 0.0)
        expected = np.sort(linkage(squareform(dist, checks=False), method="ward")[:, 2])
        tree = json.loads((build / "dendrogram.json").read_text(encoding="utf-8"))
        got = np.sort(_heights(tree))
        if got.shape != expected.shape or not _close(got, expected):
            problems.append(f"{where} merge heights differ from scipy ward linkage")

        seriated = [line.split(",")[1] for line in (build / "seriation.csv").read_text("utf-8").splitlines()[1:]]
        hrp = read_weights(build / "weights_hrp.csv")
        if sorted(seriated) != sorted(tickers) or list(hrp) != tickers:
            problems.append(f"{where} seriation or HRP weights do not cover the sector's tickers")
        else:
            cov = np.cov(train, rowvar=False)
            ref = _hrp_weights(cov, [tickers.index(t) for t in seriated])
            if not _close([hrp[t] for t in tickers], ref):
                problems.append(f"{where} HRP weights differ from the bisection reference")

        component, ref_eigen = _eigen_pick(train)
        eigen = read_weights(build / "weights_eigen.csv")
        candidates = (build / "eigen_candidates.csv").read_text("utf-8").splitlines()
        picked = int(candidates[1].split(",")[0]) if len(candidates) > 1 else None
        scale = max(1.0, float(np.abs(ref_eigen).max()))
        got_eigen = np.array([eigen.get(t, np.nan) for t in tickers])
        if picked != component or not np.abs(got_eigen - ref_eigen).max() <= EIGEN_TOL * scale:
            problems.append(f"{where} eigen pick {picked} differs from eigh reference {component}")

        cells = json.loads((report / "report.json").read_text(encoding="utf-8"))["methods"]
        sharpe = {}
        for method, weights in (("HRP", hrp), ("EIGEN", eigen)):
            w = np.array([weights.get(t, np.nan) for t in tickers])
            for period, returns in (("train", train), ("test", test)):
                vol, ratio = _cells(returns @ w)
                cell = cells[method][period]
                if not _close([cell["annual_volatility"], cell["sharpe_ratio"]], [vol, ratio]):
                    problems.append(f"{where} report cell {method}/{period} differs from numpy")
                sharpe[method, period] = cell["sharpe_ratio"]
        winners[name] = {
            p: "TIE" if sharpe["HRP", p] == sharpe["EIGEN", p]
            else max(("HRP", "EIGEN"), key=lambda m: sharpe[m, p])
            for p in ("train", "test")
        }
    summary = json.loads((root / report_dir / "summary.json").read_text(encoding="utf-8"))
    if summary["winners"] != winners:
        problems.append("summary.json winners do not follow the report cells")
    return problems
