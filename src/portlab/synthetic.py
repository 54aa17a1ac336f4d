"""Deterministic synthetic market data for demos and end-to-end tests.

Prices follow a multiplicative random walk with a two-block factor structure
per sector, so the clustering stages have real signal to find. Everything is
seeded: the same seed always produces byte-identical CSV files.

Run ``python -m portlab.synthetic --out DIR`` to materialize a multi-sector
fixture plus a ready-to-run ``config.json``.
"""

from __future__ import annotations

import argparse
import json
import string
from datetime import date, timedelta
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .market_data import PricePanel

DEFAULT_START = date(2016, 1, 1)
DEFAULT_END = date(2021, 11, 1)
DEFAULT_TRAIN_END = date(2020, 12, 31)
DEFAULT_TEST_START = date(2021, 1, 1)
BLOCK_SIZE = 5  # assets per factor block
DAILY_VOL = 0.015
DRIFT = 0.0004


def weekday_range(start: date, end: date) -> tuple[date, ...]:
    """All Monday-Friday dates in [start, end]."""
    days = np.arange(start, end + timedelta(days=1), dtype="datetime64[D]")
    return tuple(days[np.is_busday(days)].tolist())


class SyntheticPanel(NamedTuple):
    """Generated panel fields; ``dates`` stays the caller's tuple, ``PricePanel(*it)`` validates them."""

    tickers: tuple[str, ...]
    dates: tuple[date, ...]
    closes: np.ndarray


def synthetic_panel(tickers: list[str], dates: tuple[date, ...], seed: int) -> SyntheticPanel:
    """Correlated geometric random-walk closes for the given tickers.

    Assets are grouped into blocks of ``BLOCK_SIZE``; names in one block load
    on a shared factor, so within-block correlation is high and across-block
    correlation is near zero.
    """
    rng = np.random.default_rng(seed)
    n_assets = len(tickers)
    n_days = len(dates)
    n_blocks = max(1, -(-n_assets // BLOCK_SIZE))

    factors = rng.normal(0.0, 1.0, size=(n_days - 1, n_blocks))
    noise = rng.normal(0.0, 1.0, size=(n_days - 1, n_assets))
    loading = 0.85
    block_of = np.arange(n_assets) // BLOCK_SIZE
    mix = loading * factors[:, block_of] + np.sqrt(1.0 - loading**2) * noise
    returns = DRIFT + DAILY_VOL * mix

    start_prices = rng.uniform(50.0, 5000.0, size=n_assets)
    closes = np.empty((n_days, n_assets))
    closes[0] = start_prices
    np.cumprod(1.0 + returns, axis=0, out=returns)
    closes[1:] = start_prices * returns
    return SyntheticPanel(tuple(tickers), dates, closes)


def sector_tickers(sector_index: int, count: int) -> list[str]:
    letters = string.ascii_uppercase
    return [f"S{sector_index + 1}{letters[i % 26]}{i // 26 or ''}" for i in range(count)]


def write_fixture(
    root: str | Path,
    n_sectors: int = 7,
    tickers_per_sector: int = 10,
    seed: int = 7,
) -> Path:
    """Write per-ticker CSV trees for every sector plus a config.json.

    Returns the path of the written config file; its paths are absolute.
    """
    root = Path(root).absolute()
    dates = weekday_range(DEFAULT_START, DEFAULT_END)
    sectors = []
    for s in range(n_sectors):
        name = f"sector{s + 1}"
        tickers = sector_tickers(s, tickers_per_sector)
        panel = PricePanel(*synthetic_panel(tickers, dates, seed=seed + s))
        sector_dir = root / "data" / name
        sector_dir.mkdir(parents=True, exist_ok=True)
        for series in panel:
            (sector_dir / f"{series.ticker}.csv").write_text(series.to_csv(), encoding="utf-8")
        sectors.append({"name": name, "data": str(sector_dir), "tickers": tickers})

    config = {
        "sectors": sectors,
        "train": {"start": DEFAULT_START.isoformat(), "end": DEFAULT_TRAIN_END.isoformat()},
        "test": {"start": DEFAULT_TEST_START.isoformat(), "end": DEFAULT_END.isoformat()},
        "risk_free_rate": 0.0,
        "alignment": "intersection",
        "hrp": {"distance": "sqrt_half", "linkage": "ward"},
        "eigen": {"standardize": True, "variance_threshold": 0.8},
        "output_dir": str(root / "out"),
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="generate a synthetic multi-sector price fixture")
    parser.add_argument("--out", required=True, help="directory to write data/ and config.json into")
    parser.add_argument("--sectors", type=int, default=7)
    parser.add_argument("--tickers", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.sectors < 1 or args.tickers < 2 or args.seed < 0:  # a panel needs 2 tickers, a config 1 sector
        parser.error("--sectors must be at least 1, --tickers at least 2 and --seed at least 0")
    try:
        config_path = write_fixture(
            args.out, n_sectors=args.sectors, tickers_per_sector=args.tickers, seed=args.seed
        )
    except OSError as bad:  # e.g. --out, or a directory it needs, is a regular file
        parser.error(f"cannot write the fixture under --out: {bad}")
    print(config_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
