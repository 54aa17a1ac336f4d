"""Workload definitions and their seeded input fixtures.

Prices come from ``portlab.synthetic.synthetic_panel``; the files are written
here, so the program under test only ever sees the generated CSVs and config.
Per-ticker files are byte-identical to what ``portlab.synthetic.write_fixture``
writes for the same sectors and seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from portlab.synthetic import sector_tickers, synthetic_panel, weekday_range

PAPER_START = date(2016, 1, 1)
TRAIN_END = date(2020, 12, 31)
TEST_START = date(2021, 1, 1)
TEST_END = date(2021, 11, 1)

BUILD_FILES = (
    "weights_hrp.csv",
    "weights_eigen.csv",
    "dendrogram.json",
    "seriation.csv",
    "eigen_candidates.csv",
)
REPORT_FILES = (
    "report.json",
    "returns_hrp_train.csv",
    "returns_hrp_test.csv",
    "returns_eigen_train.csv",
    "returns_eigen_test.csv",
)


@dataclass(frozen=True)
class Workload:
    name: str
    n_sectors: int
    tickers_per_sector: int
    start: date
    layout: str  # "per_ticker" or "wide"
    alignment: str
    missing_share: float = 0.0
    command: str = "run"  # "run", or "backtest" over weights a set-up build wrote
    # wrapped functions a run of this workload must call at least once
    expected_calls: tuple[str, ...] = ()


COMMON_CALLS = (
    "load_config",
    "align_panel",
    "slice_period",
    "daily_returns",
    "evaluate",
    "summarize",
)
BUILD_CALLS = (
    "sample_covariance",
    "correlation",
    "correlation_distance",
    "ward_linkage",
    "quasi_diagonalize",
    "recursive_bisection",
    "fit_pca",
    "select_best_eigen",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper",
            n_sectors=7,
            tickers_per_sector=10,
            start=PAPER_START,
            layout="per_ticker",
            alignment="intersection",
            expected_calls=COMMON_CALLS + BUILD_CALLS + ("parse_price_csv",),
        ),
        Workload(
            name="universe",
            n_sectors=1,
            tickers_per_sector=500,
            start=date(2018, 1, 1),
            layout="wide",
            alignment="forward_fill",
            missing_share=0.01,
            expected_calls=COMMON_CALLS + BUILD_CALLS + ("parse_wide_csv",),
        ),
        Workload(
            name="paper-backtest",
            n_sectors=7,
            tickers_per_sector=10,
            start=PAPER_START,
            layout="per_ticker",
            alignment="intersection",
            command="backtest",
            expected_calls=COMMON_CALLS + ("parse_price_csv", "weights_from_csv"),
        ),
    )
}


@dataclass
class Fixture:
    """Generated inputs for one run, plus the facts the checks compare against."""

    config: Path
    argv: list[str]
    prepare_argv: list[str] | None
    expected_files: list[str]
    sectors: list[dict]
    n_assets: int
    files: int = 0
    rows: int = 0
    cells_missing: int = 0
    input_bytes: int = 0
    weights_dir: str | None = None  # set-up build output; None: the run's own output


def _price_text(dates: list[str], closes: list[float]) -> str:
    # same bytes as PriceSeries.to_csv: ISO date, repr of the close
    return "Date,Close\n" + "".join(f"{d},{c!r}\n" for d, c in zip(dates, closes))


def _write_per_ticker(root: Path, index: int, tickers: list[str], panel, fixture: Fixture) -> str:
    sector_dir = root / "data" / f"sector{index + 1}"
    sector_dir.mkdir(parents=True, exist_ok=True)
    dates = [d.isoformat() for d in panel.dates]
    for col, ticker in enumerate(tickers):
        text = _price_text(dates, panel.closes[:, col].tolist())
        (sector_dir / f"{ticker}.csv").write_text(text, encoding="utf-8")
        fixture.input_bytes += len(text)
        fixture.files += 1
        fixture.rows += len(dates)
    return str(sector_dir.relative_to(root))


def _write_wide(
    root: Path, index: int, tickers: list[str], panel, share: float, seed: int, fixture: Fixture
) -> str:
    rng = np.random.default_rng([seed, 1])
    cells = [[repr(v) for v in row] for row in panel.closes.tolist()]
    blanks = np.argwhere(rng.random(panel.closes.shape) < share)
    for row, col in blanks.tolist():
        cells[row][col] = ""
    path = root / "data" / f"sector{index + 1}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["Date," + ",".join(tickers)]
    lines.extend(f"{d.isoformat()},{','.join(r)}" for d, r in zip(panel.dates, cells))
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    fixture.input_bytes += len(text)
    fixture.files += 1
    fixture.rows += len(panel.dates)
    fixture.cells_missing += len(blanks)
    return str(path.relative_to(root))


def make_fixture(workload: Workload, seed: int, root: Path) -> Fixture:
    """Write the workload's inputs and config under ``root`` (the run's cwd)."""
    fixture = Fixture(
        config=root / "config.json",
        argv=[],
        prepare_argv=None,
        expected_files=[],
        sectors=[],
        n_assets=workload.n_sectors * workload.tickers_per_sector,
    )
    dates = weekday_range(workload.start, TEST_END)
    sectors = []
    for s in range(workload.n_sectors):
        tickers = sector_tickers(s, workload.tickers_per_sector)
        panel = synthetic_panel(tickers, dates, seed=seed + s)
        entry = {"name": f"sector{s + 1}", "tickers": tickers}
        if workload.layout == "wide":
            entry["data"] = _write_wide(
                root, s, tickers, panel, workload.missing_share, seed, fixture
            )
            entry["format"] = "wide"
        else:
            entry["data"] = _write_per_ticker(root, s, tickers, panel, fixture)
        sectors.append(entry)
    fixture.sectors = sectors

    config = {
        "sectors": sectors,
        "train": {"start": workload.start.isoformat(), "end": TRAIN_END.isoformat()},
        "test": {"start": TEST_START.isoformat(), "end": TEST_END.isoformat()},
        "risk_free_rate": 0.0,
        "alignment": workload.alignment,
        "hrp": {"distance": "sqrt_half", "linkage": "ward"},
        "eigen": {"standardize": True, "variance_threshold": 0.8},
        "output_dir": "out",
    }
    fixture.config.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    names = [entry["name"] for entry in sectors]
    if workload.command == "backtest":
        fixture.weights_dir = "weights"
        fixture.prepare_argv = ["build", "--config", "config.json", "--out", "weights"]
        fixture.argv = ["backtest", "--config", "config.json", "--weights", "weights", "--jobs", "1"]
        per_sector = REPORT_FILES
    else:
        fixture.argv = ["run", "--config", "config.json", "--jobs", "1"]
        per_sector = BUILD_FILES + REPORT_FILES
    fixture.expected_files = sorted(
        [f"{name}/{file}" for name in names for file in per_sector] + ["summary.json"]
    )
    return fixture
