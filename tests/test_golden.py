"""The artifacts' bytes, pinned: every file of four output trees against ``golden.json``.

A change that moves one bit of any artifact fails here and names each file
that differs. The trees are the default ``portlab.synthetic`` fixture under
``run``, ``run --format csv`` and ``build`` then ``backtest``, and a small wide
file with blank cells under ``forward_fill`` with covariance PCA and average
linkage. Each tree is byte-identical at ``OPENBLAS_NUM_THREADS`` 1 and 2; the
record's header names the numpy and BLAS builds it was made with, so a
mismatch on another build reads as such.

After an artifact change made on purpose, rewrite the record with
``PYTHONPATH=src python tests/test_golden.py`` and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from datetime import date
from pathlib import Path

import numpy as np

from portlab import cli
from portlab.synthetic import synthetic_panel, weekday_range, write_fixture

GOLDEN = Path(__file__).with_name("golden.json")
WIDE_TICKERS = [f"W{i}" for i in range(1, 9)]


def _write_wide_fixture() -> str:
    """An 8-ticker wide CSV over 2020-01-01..2021-06-30 with blank cells, leading
    ones included, and its config; returns the config path."""
    days = weekday_range(date(2020, 1, 1), date(2021, 6, 30))
    closes = synthetic_panel(WIDE_TICKERS, days, seed=11).closes
    blank = (np.arange(len(days))[:, None] + np.arange(len(WIDE_TICKERS))) % 11 == 0
    blank[:4, 0] = True
    lines = [",".join(["Date", *WIDE_TICKERS])]
    for day, row, gaps in zip(days, closes.tolist(), blank.tolist()):
        lines.append(",".join([day.isoformat(), *("" if gap else repr(c) for c, gap in zip(row, gaps))]))
    Path("wide.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = {
        "sectors": [{"name": "wide", "data": "wide.csv", "format": "wide"}],
        "train": {"start": "2020-01-01", "end": "2020-12-31"},
        "test": {"start": "2021-01-01", "end": "2021-06-30"},
        "alignment": "forward_fill",
        "hrp": {"linkage": "average"},
        "eigen": {"standardize": False},
    }
    Path("wide.json").write_text(json.dumps(config), encoding="utf-8")
    return "wide.json"


def golden_trees() -> dict[str, dict[str, str]]:
    """Build every pinned tree under the current directory: tree -> file -> sha256."""
    default, wide = str(write_fixture(".")), _write_wide_fixture()
    commands = {
        "run": [["run", "--config", default]],
        "run-csv": [["run", "--config", default, "--format", "csv"]],
        "build-backtest": [
            ["build", "--config", default], ["backtest", "--config", default, "--weights", "out/build-backtest"]
        ],
        "wide-forward-fill": [["run", "--config", wide]],
    }
    trees = {}
    for name, argvs in commands.items():
        out = Path("out") / name
        for argv in argvs:
            if cli.main([*argv, "--out", str(out)]) != cli.EXIT_OK:
                raise RuntimeError(f"portlab {' '.join(argv)} failed")
        trees[name] = {
            path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
    return trees


def builds() -> dict[str, str]:
    """The numpy version and the BLAS library numpy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def test_artifacts_match_golden_record(tmp_path, monkeypatch):
    record = json.loads(GOLDEN.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    trees = golden_trees()
    assert len(trees["run"]) == 71  # 7 sectors x 10 files, and summary.json
    differing = [
        f"{name}/{path}"
        for name in sorted(record["trees"].keys() | trees.keys())
        for path in sorted(record["trees"].get(name, {}).keys() | trees.get(name, {}).keys())
        if record["trees"].get(name, {}).get(path) != trees.get(name, {}).get(path)
    ]
    assert not differing, (
        f"{len(differing)} file(s) differ from tests/golden.json (recorded with {record['builds']}, "
        f"running with {builds()}): {', '.join(differing)}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        here = os.getcwd()
        os.chdir(root)
        try:
            trees = golden_trees()
        finally:
            os.chdir(here)
    record = {"builds": builds(), "trees": trees}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
