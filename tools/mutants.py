"""A mutation survey of ``src/portlab``: which one-line changes does tier-1 miss?

Each mutant replaces one piece of text, ``old``, that occurs exactly once in
its module with ``new``. The survey copies ``src``, ``tests``,
``pyproject.toml`` and ``README.md`` to a temporary directory once, then per
mutant writes the mutated module, runs tier-1 there with ``-x``, leaving out
``tests/test_mutants.py``, which reads the mutated source and so would kill
every mutant, and restores the module. It prints each mutant as killed, with
the first failing test, or survived. The checkout is never written.

    python tools/mutants.py          # every mutant, one tier-1 run each
    python tools/mutants.py 3 17     # mutants 3 and 17 only

A survivor is resolved one of three ways: a test built on an input that
reaches the line kills it; the line is deleted, because no input its public
function accepts reaches it (the mutant was equivalent); or a comment here
records why an equivalent mutant's line stays. ``tests/test_mutants.py`` checks
in tier-1 that every ``old`` still occurs exactly once, so a change that moves
a listed line updates this list with it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")
TIMEOUT_S = 900  # a mutant that loops forever is killed by this


class Mutant(NamedTuple):
    file: str  # under src/portlab
    old: str
    new: str


MUTANTS = [
    # returns_stats
    Mutant("returns_stats.py", "rho = np.clip((rho + rho.T) / 2.0, -1.0, 1.0)", "rho = (rho + rho.T) / 2.0"),
    Mutant("returns_stats.py", "rho = np.clip((rho + rho.T) / 2.0, -1.0, 1.0)", "rho = np.clip(rho, -1.0, 1.0)"),
    Mutant("returns_stats.py", "    np.fill_diagonal(rho, 1.0)\n", ""),
    Mutant("returns_stats.py", "centered / (returns.n_obs - 1)", "centered / returns.n_obs"),
    Mutant("returns_stats.py", "if daily_vol <= 0.0:", "if daily_vol < 0.0:"),
    Mutant("returns_stats.py", "return daily_vol * math.sqrt(TRADING_DAYS_PER_YEAR)",
           "return math.sqrt(daily_vol * daily_vol * TRADING_DAYS_PER_YEAR)"),
    Mutant("returns_stats.py", "if not known_psd and np.linalg", "if False and np.linalg"),
    Mutant("returns_stats.py", "        if len(set(self.tickers)) != len(self.tickers):\n            raise",
           "        if False:\n            raise"),
    # hrp
    Mutant("hrp.py", "    values = (values + values.T) / 2.0\n", ""),
    Mutant("hrp.py", "    np.fill_diagonal(values, 0.0)\n", ""),
    Mutant("hrp.py", "d = np.triu(dist.values, 1)\n    d += d.T", "d = np.array(dist.values)"),
    Mutant("hrp.py", "int(np.where(mind == mind.min(), ids, id_bound).argmin())", "int(mind.argmin())"),
    Mutant("hrp.py", "closer = updated < mind", "closer = updated <= mind"),
    Mutant("hrp.py", "orders.append(orders[left] + orders[right])", "orders.append(orders[right] + orders[left])"),
    Mutant("hrp.py", "halves.append(max(float(w @ seriated[a:b, a:b] @ w), 0.0))",
           "halves.append(float(w @ seriated[a:b, a:b] @ w))"),
    Mutant("hrp.py", "if alpha in (0.0, 1.0):", "if alpha in (0.0,):"),
    Mutant("hrp.py", "alpha = 1.0 - v_left / total", "alpha = v_left / total"),
    # eigen
    Mutant("eigen.py", "LOADING_SUM_FLOOR = 1e-8", "LOADING_SUM_FLOOR = 1e-6"),
    Mutant("eigen.py", "    eigenvalues = np.maximum(eigenvalues, 0.0)\n", ""),
    Mutant("eigen.py", "key=lambda c: (-c.in_sample_sharpe, c.component_index)",
           "key=lambda c: (-c.in_sample_sharpe, -c.component_index)"),
    Mutant("eigen.py", "if eigenvalues.min() < EIGENVALUE_FLOOR:", "if False:"),
    Mutant("eigen.py", "    vectors = vectors * np.where(pivots < 0, -1.0, 1.0)\n", ""),
    Mutant("eigen.py", ">= threshold - 1e-12", ">= threshold"),
    Mutant("eigen.py", "except (DegenerateLoadingSum, ZeroVolatility) as reason:",
           "except DegenerateLoadingSum as reason:"),
    # market_data
    Mutant("market_data.py", "if missing := int(np.isnan(closes).sum()):", "if missing := 0:"),
    Mutant("market_data.py",
           "    if values.base is given and values.dtype == given.dtype:  # a view, as numpy gives for datetime64\n"
           "        values = given\n",
           ""),
    Mutant("market_data.py", "if '\"' in text or \"\\r\" in text:", "if '\"' in text:"),
    Mutant("market_data.py", "    closes[np.isinf(closes)] = np.nan  # before the sign check", "    pass  #"),
    Mutant("market_data.py", "start = quoted.argmax(axis=0).max()", "start = quoted.argmax(axis=0).min()"),
    Mutant("market_data.py", 'np.datetime64(period.end, "D"), "right")', 'np.datetime64(period.end, "D"))'),
    Mutant("market_data.py", "map(_iso_day,", "map(date.fromisoformat,"),
    # backtest
    Mutant("backtest.py", 'leaders[0] if len(leaders) == 1 else "TIE"', "leaders[0]"),
    Mutant("backtest.py", "metrics = sharpe_ratio(daily, risk_free)", "metrics = sharpe_ratio(daily)"),
    Mutant("backtest.py", "    if not isinstance(cell, dict):\n", "    if False:\n"),
    Mutant("backtest.py", "except RecursionError:  # nested", "except ZeroDivisionError:  # nested"),
    # portfolio
    Mutant("portfolio.py", "WEIGHT_SUM_TOL = 1e-9", "WEIGHT_SUM_TOL = 1e-6"),
    Mutant("portfolio.py", "(weights <= 0.0).any()", "(weights < 0.0).any()"),
    Mutant("portfolio.py", "if len(set(self.tickers)) != len(self.tickers):", "if False:"),
    Mutant("portfolio.py", 'text.removeprefix("\\ufeff")', "text"),
    # cli
    Mutant("cli.py", 'for key in ("applied_defaults", "warnings", "output_dir"):',
           'for key in ("applied_defaults", "warnings"):'),
    Mutant("cli.py", 'if weights_dir is None else set())', "if True else set())"),
    Mutant("cli.py", "if report.sector != sector.name or report", "if report"),
    Mutant("cli.py", '    fmt = "csv" if fmt == "csv" else "json"', "    pass"),
    Mutant("cli.py", "if train_returns.n_obs < len(train_returns.tickers) + 1:",
           "if train_returns.n_obs < len(train_returns.tickers):"),
    # config
    Mutant("config.py", "and train.overlaps(test):", "and False:"),
    Mutant("config.py", "elif len(set(tickers)) != len(tickers):", "elif False:"),
    Mutant("config.py", 'if name.startswith(".") or name', "if name"),
    Mutant("config.py", "_finite = _number(-sys.float_info.max, sys.float_info.max)",
           "_finite = _number(-math.inf, math.inf)"),
    # synthetic
    Mutant("synthetic.py", "n_blocks = max(1, -(-n_assets // BLOCK_SIZE))",
           "n_blocks = max(1, n_assets // BLOCK_SIZE)"),
    Mutant("synthetic.py", "or args.seed < 0:", ":"),
    Mutant("synthetic.py", "return tuple(days[np.is_busday(days)].tolist())", "return tuple(days.tolist())"),
    # the calendar caches, listed last so that every earlier mutant keeps its number: a date column
    # keyed on its first cell, ISO text keyed on its length, a writable cached array; then a filtered
    # run's report of other input bytes accepted
    Mutant("market_data.py", '_parse_days(",".join(cells[date_col::n_fields]))',
           '_parse_days(type("FirstCellKey", (str,), {"__hash__": lambda k: hash(k[:10]), '
           '"__eq__": lambda k, other: k[:10] == other[:10]})(",".join(cells[date_col::n_fields])))'),
    Mutant("market_data.py", "_iso_texts(dates.tobytes())",
           '_iso_texts(type("LengthKey", (bytes,), {"__hash__": lambda k: len(k), '
           '"__eq__": lambda k, other: len(k) == len(other)})(dates.tobytes()))'),
    Mutant("market_data.py", "    days.flags.writeable = False\n    return days\n", "    return days\n"),
    Mutant("cli.py", 'report if report.metadata.get("input_sha256") == digest.hexdigest() else None', "report"),
    # the input digest: a file's bytes left out, so an edit that keeps each length goes unseen
    Mutant("cli.py", "        digest.update(raw)\n", ""),
    # the CSV writer's per-row choice, and a failed sector's cleanup, which unlinks each name on its own
    Mutant("market_data.py", '(quote_all if any(isinstance(cell, str) and "\\r" in cell for cell in row) else minimal)',
           "minimal"),
    Mutant("cli.py",
           "        for name in owned:  # each name on its own: sector_dir may not be a directory, or a name one\n"
           "            with contextlib.suppress(OSError):\n"
           "                (sector_dir / name).unlink(missing_ok=True)\n",
           "        with contextlib.suppress(OSError):\n"
           "            for name in owned:\n"
           "                (sector_dir / name).unlink(missing_ok=True)\n"),
    # bisection's one dead-asset check naming the right half first, and the Ward update squaring its
    # merge height with pow, which is not always correctly rounded
    Mutant("hrp.py", "[labels[k] for k in dead if k < len(positions) // 2]",
           "[labels[k] for k in dead if k >= len(positions) // 2]"),
    Mutant("hrp.py", "sizes * (height * height)", "sizes * height**2"),
]


def _apply(mutant: Mutant, source: str) -> str:
    if source.count(mutant.old) != 1:
        raise ValueError(f"{mutant.file}: {mutant.old!r} occurs {source.count(mutant.old)} times, not once")
    return source.replace(mutant.old, mutant.new)


def _line(mutant: Mutant, source: str) -> int:
    return source[: source.index(mutant.old)].count("\n") + 1


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    return output.strip().splitlines()[-1] if output.strip() else "(no output)"


def survey(numbers: list[int]) -> int:
    """Run each numbered mutant (1-based; all when empty); returns the number that survived."""
    chosen = [(n, MUTANTS[n - 1]) for n in numbers] if numbers else list(enumerate(MUTANTS, 1))
    survived = 0
    with tempfile.TemporaryDirectory(prefix="portlab-mutants-") as tmp:
        base = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, base / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / name, base / name)
        env = dict(os.environ, PYTHONPATH=str(base / "src"), PYTHONDONTWRITEBYTECODE="1")
        for number, mutant in chosen:
            path = base / "src" / "portlab" / mutant.file
            original = path.read_text(encoding="utf-8")
            path.write_text(_apply(mutant, original), encoding="utf-8")
            shutil.rmtree(base / ".hypothesis", ignore_errors=True)  # no examples carried between mutants
            started = time.perf_counter()
            try:
                run = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                     "--ignore=tests/test_mutants.py"],
                    cwd=base, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
                )
                verdict = "survived" if run.returncode == 0 else "killed"
                detail = "" if run.returncode == 0 else _first_failure(run.stdout + run.stderr)
            except subprocess.TimeoutExpired:
                verdict, detail = "killed", f"(timeout after {TIMEOUT_S} s)"
            finally:
                path.write_text(original, encoding="utf-8")
            survived += verdict == "survived"
            where = f"{mutant.file}:{_line(mutant, original)}"
            print(f"{number:3d} {verdict:8s} {where:20s} {time.perf_counter() - started:5.0f}s  {detail}", flush=True)
    print(f"{len(chosen) - survived} killed, {survived} survived of {len(chosen)}")
    return survived


if __name__ == "__main__":
    sys.exit(1 if survey([int(arg) for arg in sys.argv[1:]]) else 0)
