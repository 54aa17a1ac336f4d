"""Close-price ingestion: per-ticker CSV parsing, panel alignment, period slicing.

Input files carry at least ``Date`` and ``Close`` columns (extra columns are
ignored). A wide variant holds one ``Date`` column plus one column per ticker.
Rows whose close is empty or non-numeric are treated as missing quotes and
dropped; the chosen alignment policy then decides how cross-ticker gaps are
reconciled.
"""

from __future__ import annotations

import bisect
import csv
import io
import logging
import math
from dataclasses import dataclass, field
from datetime import date
from functools import partial, reduce
from pathlib import Path
from typing import IO, Callable, Iterable, Literal, Sequence

import numpy as np

from .errors import (
    DuplicateDate,
    EmptyIntersection,
    InsufficientHistory,
    MalformedCsv,
    NonPositivePrice,
)

logger = logging.getLogger(__name__)

AlignmentPolicy = Literal["intersection", "forward_fill"]
PeriodLabel = Literal["train", "test"]


def _frozen(instance: object, name: str, dtype: type | str = float) -> np.ndarray:
    """Cast the frozen dataclass field ``name`` to a read-only ``dtype`` array,
    store it back on ``instance`` and return it."""
    values = np.asarray(getattr(instance, name), dtype=dtype)
    values.flags.writeable = False
    object.__setattr__(instance, name, values)
    return values


def _as_days(days: Sequence[date]) -> np.ndarray:
    """``datetime64[D]`` array of ``days``, built from ordinals (far cheaper than from dates)."""
    ordinals = np.fromiter(map(date.toordinal, days), dtype=np.int64, count=len(days))
    return (ordinals - date(1970, 1, 1).toordinal()).astype("datetime64[D]")


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Dated close prices for one ticker, strictly ascending, all positive.

    ``dates`` is a read-only ``datetime64[D]`` array and ``closes`` a read-only
    float array of the same length. Equality is identity: compare the arrays.
    """

    ticker: str
    dates: np.ndarray = field(repr=False)
    closes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        dates = _frozen(self, "dates", "datetime64[D]")
        closes = _frozen(self, "closes")
        if dates.ndim != 1 or dates.shape != closes.shape or np.isnat(dates).any():
            raise ValueError(f"{self.ticker}: {dates.shape} dates (NaT not allowed) for {closes.shape} closes")
        unordered = np.flatnonzero(dates[1:] <= dates[:-1]) + 1
        if unordered.size:
            row = unordered[0]
            day = dates[row].item().isoformat()
            if dates[row] == dates[row - 1]:
                raise DuplicateDate(f"{self.ticker}: duplicate date {day}")
            raise ValueError(f"{self.ticker}: dates not ascending at {day}")
        invalid = np.flatnonzero(~(np.isfinite(closes) & (closes > 0.0)))
        if invalid.size:
            close, day = closes[invalid[0]].item(), dates[invalid[0]].item()
            raise NonPositivePrice(f"{self.ticker}: close {close!r} on {day.isoformat()}")

    @property
    def observations(self) -> tuple[tuple[date, float], ...]:
        """``(date, close)`` pairs in date order."""
        return tuple(zip(self.dates.tolist(), self.closes.tolist()))

    def to_csv(self) -> str:
        """Serialize back to ``Date,Close`` text; floats keep full precision."""
        lines = ["Date,Close"]
        lines.extend(f"{day.isoformat()},{close!r}" for day, close in self.observations)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PricePanel:
    """Date-aligned close prices: T dates x N tickers, no missing cells."""

    tickers: tuple[str, ...]
    dates: tuple[date, ...]
    closes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        closes = _frozen(self, "closes")
        if len(self.tickers) < 2:
            raise ValueError("panel needs at least 2 tickers")
        if len(self.dates) < 2:
            raise InsufficientHistory(f"panel has {len(self.dates)} date(s), need >= 2")
        if closes.shape != (len(self.dates), len(self.tickers)):
            raise ValueError(f"close matrix shape {closes.shape} does not match dates x tickers")
        if len(set(self.tickers)) != len(self.tickers):
            raise ValueError("duplicate tickers in panel")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("panel dates not strictly increasing")
        if not np.isfinite(closes).all() or (closes <= 0.0).any():
            raise NonPositivePrice("panel contains non-finite or non-positive closes")

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    def series(self, ticker: str) -> PriceSeries:
        col = self.tickers.index(ticker)
        return PriceSeries(ticker=ticker, dates=_as_days(self.dates), closes=self.closes[:, col])


@dataclass(frozen=True)
class PeriodSpec:
    """Inclusive calendar window tagged as the train or test leg."""

    label: PeriodLabel
    start: date
    end: date

    def __post_init__(self) -> None:
        if self.label not in ("train", "test"):
            raise ValueError(f"period label must be 'train' or 'test', got {self.label!r}")
        if self.start > self.end:
            raise ValueError(f"{self.label}: start {self.start} after end {self.end}")

    def overlaps(self, other: "PeriodSpec") -> bool:
        return self.start <= other.end and other.start <= self.end


def _parse_close(raw: str) -> float:
    """The close value, or NaN for an empty or non-numeric cell."""
    try:
        return float(raw)
    except ValueError:
        return math.nan


def _read_table(
    source: IO[bytes] | IO[str] | bytes | str,
    label: str,
    pick_columns: Callable[[list[str]], tuple[int, list[str], list[int]]],
) -> list[PriceSeries]:
    """The row reader behind both parsers: one series per close column.

    ``pick_columns`` maps the stripped header to the date column, the series
    names and their close columns. A date may appear on one row only. An
    empty, non-numeric or non-finite close is a missing quote. A csv reader
    fault, such as a field over the csv module's 131,072-character limit,
    becomes a MalformedCsv naming the line.
    """
    raw = source if isinstance(source, (bytes, str)) else source.read()
    text = raw.decode("utf-8-sig") if isinstance(raw, bytes) else raw.removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(text))
    days: list[date] = []
    row_numbers: list[int] = []
    cells: list[float] = []
    try:
        header = [name.strip() for name in next(reader)]
        date_col, names, close_cols = pick_columns(header)
        for row_number, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) != len(header):
                raise MalformedCsv(f"{label}: row {row_number} has {len(row)} fields, header has {len(header)}")
            try:
                days.append(date.fromisoformat(row[date_col].strip()))
            except ValueError:
                raise MalformedCsv(f"row {row_number}: bad date {row[date_col]!r} (want YYYY-MM-DD)") from None
            row_numbers.append(row_number)
            cells.extend([_parse_close(row[col]) for col in close_cols])
    except StopIteration:
        raise MalformedCsv(f"{label}: empty file") from None
    except csv.Error as bad:
        raise MalformedCsv(f"{label}: line {reader.line_num}: {bad}") from None

    closes = np.array(cells, dtype=float).reshape(len(days), len(close_cols))
    closes[np.isinf(closes)] = np.nan  # before the sign check: -inf is a missing quote too
    nonpositive = np.argwhere(closes <= 0.0)
    if nonpositive.size:
        row, col = nonpositive[0]
        close, day = closes[row, col].item(), days[row].isoformat()
        raise NonPositivePrice(f"{names[col]}: close {close} on {day} (row {row_numbers[row]})")
    dates = _as_days(days)
    order = np.argsort(dates, kind="stable")
    dates, closes = dates[order], closes[order]
    repeated = np.flatnonzero(dates[1:] == dates[:-1])
    if repeated.size:
        raise DuplicateDate(f"{label}: duplicate date {dates[repeated[0]].item().isoformat()}")
    quoted = ~np.isnan(closes)
    if not quoted.all():
        logger.info("%s: dropped %d missing close(s)", label, quoted.size - quoted.sum())
    return [
        PriceSeries(ticker=name, dates=dates[quoted[:, col]], closes=closes[quoted[:, col], col])
        for col, name in enumerate(names)
    ]


def parse_price_csv(source: IO[bytes] | IO[str] | bytes | str, ticker: str) -> PriceSeries:
    """Parse one ticker's ``Date,Close`` CSV into a sorted PriceSeries.

    Rows with an empty or non-numeric close are dropped as missing quotes.
    Raises MalformedCsv for header/arity problems, NonPositivePrice for a
    close <= 0, and DuplicateDate for a repeated date.
    """

    def pick_columns(header: list[str]) -> tuple[int, list[str], list[int]]:
        try:
            return header.index("Date"), [ticker], [header.index("Close")]
        except ValueError:
            raise MalformedCsv(f"{ticker}: header must contain Date and Close, got {header}") from None

    return _read_table(source, ticker, pick_columns)[0]


def parse_wide_csv(
    source: IO[bytes] | IO[str] | bytes | str,
    tickers: Iterable[str] | None = None,
) -> list[PriceSeries]:
    """Parse a wide CSV (``Date`` plus one close column per ticker).

    Empty cells are missing quotes for that ticker only. When ``tickers`` is
    given, only those columns are kept, in the given order.
    """

    def pick_columns(header: list[str]) -> tuple[int, list[str], list[int]]:
        if not header or header[0] != "Date":
            raise MalformedCsv(f"wide CSV: first column must be Date, got {header[:1]}")
        all_tickers = header[1:]
        if not all_tickers or any(not name for name in all_tickers):
            raise MalformedCsv("wide CSV: every ticker column needs a name")
        if len(set(all_tickers)) != len(all_tickers):
            raise MalformedCsv("wide CSV: duplicate ticker columns")
        wanted = list(tickers) if tickers is not None else all_tickers
        missing = [name for name in wanted if name not in all_tickers]
        if missing:
            raise MalformedCsv(f"wide CSV: tickers not present: {missing}")
        return 0, wanted, [all_tickers.index(name) + 1 for name in wanted]

    return _read_table(source, "wide CSV", pick_columns)


def load_price_csv(path: str | Path, ticker: str | None = None) -> PriceSeries:
    """Read ``<TICKER>.csv`` from disk; the ticker defaults to the file stem."""
    path = Path(path)
    with path.open("rb") as handle:
        return parse_price_csv(handle, ticker or path.stem)


def align_panel(series: list[PriceSeries], policy: AlignmentPolicy = "intersection") -> PricePanel:
    """Join per-ticker series into one panel under the given missing-data policy.

    ``intersection`` keeps only dates quoted by every ticker. ``forward_fill``
    takes the union of dates, carries the last prior close into gaps, and
    drops leading dates where any ticker has no prior value yet.
    """
    if len(series) < 2:
        raise ValueError("align_panel needs at least 2 series")
    if policy not in ("intersection", "forward_fill"):
        raise ValueError(f"unknown alignment policy {policy!r}")

    tickers = tuple(s.ticker for s in series)
    if policy == "intersection":
        # series dates are strictly ascending, hence unique
        kept = reduce(partial(np.intersect1d, assume_unique=True), (s.dates for s in series))
        if not kept.size:
            raise EmptyIntersection(f"no common dates across {', '.join(tickers)}")
    else:
        unquoted = [s.ticker for s in series if not s.dates.size]
        if unquoted:
            raise EmptyIntersection(f"no quotes for {', '.join(unquoted)}")
        # a date survives once every ticker has at least one quote on or before it
        union = np.unique(np.concatenate([s.dates for s in series]))
        kept = union[union >= max(s.dates[0] for s in series)]

    if kept.size < 2:
        raise InsufficientHistory(f"{kept.size} aligned date(s) across {', '.join(tickers)}, need >= 2")
    # each ticker's last quote on or before each kept date: under intersection, that day's own
    closes = np.column_stack([s.closes[np.searchsorted(s.dates, kept, "right") - 1] for s in series])
    return PricePanel(tickers=tickers, dates=tuple(kept.tolist()), closes=closes)


def slice_period(panel: PricePanel, period: PeriodSpec) -> PricePanel:
    """Restrict a panel to dates inside the period's inclusive window."""
    start = bisect.bisect_left(panel.dates, period.start)
    stop = bisect.bisect_right(panel.dates, period.end)
    if stop - start < 2:
        raise InsufficientHistory(
            f"{period.label} window {period.start.isoformat()}..{period.end.isoformat()} "
            f"covers {stop - start} panel date(s), need >= 2"
        )
    return PricePanel(
        tickers=panel.tickers, dates=panel.dates[start:stop], closes=panel.closes[start:stop]
    )
