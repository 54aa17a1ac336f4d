"""Close-price ingestion: per-ticker CSV parsing, panel alignment, period slicing.

Input files carry at least ``Date`` and ``Close`` columns (extra columns are
ignored). A wide variant holds one ``Date`` column plus one column per ticker.
Rows whose close is empty or non-numeric are treated as missing quotes and
dropped; the chosen alignment policy then decides how cross-ticker gaps are
reconciled.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass, field
from datetime import date
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
    store it back on ``instance`` and return it.

    The value type takes ownership of the array it is given: an array that
    already has ``dtype`` is frozen in place, not copied, so the caller's own
    array turns read-only, even when the constructor then rejects it.
    """
    given = getattr(instance, name)
    values = np.asarray(given, dtype=dtype)
    if values.base is given and values.dtype == given.dtype:  # a view, as numpy gives for datetime64
        values = given
    values.flags.writeable = False
    object.__setattr__(instance, name, values)
    return values


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """``header`` and ``rows`` as CSV text, one line feed after each row. A field
    holding a comma, a double quote or a line feed is quoted, and so is every
    field of a row holding a carriage return, which csv.writer would leave bare
    and csv.reader then rejects; floats keep their shortest repr."""
    rows = [header, *rows]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    if "\r" in buffer.getvalue():
        buffer.seek(0)
        buffer.truncate()
        quote_all = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in rows:
            (quote_all if any("\r" in str(cell) for cell in row) else writer).writerow(row)
    return buffer.getvalue()


def _dated_csv_text(header: tuple[str, str], days: np.ndarray, values: np.ndarray) -> str:
    """The text ``_csv_text(header, zip(days, values.tolist()))`` writes for
    ``datetime64[D]`` days and finite floats, joined directly: an ISO date and
    a finite float's repr never need quoting."""
    rows = map(",".join, zip(np.datetime_as_string(days).tolist(), map(repr, values.tolist())))
    return "\n".join([",".join(header), *rows, ""])


def _as_days(days: Sequence[date]) -> np.ndarray:
    """``datetime64[D]`` array of ``days``, built from ordinals (far cheaper than from dates)."""
    ordinals = np.fromiter(map(date.toordinal, days), dtype=np.int64, count=len(days))
    return (ordinals - date(1970, 1, 1).toordinal()).astype("datetime64[D]")


def _ascending(days: np.ndarray) -> bool:
    """Whether ``datetime64[D]`` ``days`` are 1-D, free of NaT and strictly ascending."""
    return days.ndim == 1 and not np.isnat(days).any() and bool((days[1:] > days[:-1]).all())


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
        return _dated_csv_text(("Date", "Close"), self.dates, self.closes)


@dataclass(frozen=True)
class PricePanel:
    """Date-aligned close prices: T ``datetime64[D]`` dates x N tickers, no missing cells."""

    tickers: tuple[str, ...]
    dates: np.ndarray = field(repr=False)
    closes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        dates = _frozen(self, "dates", "datetime64[D]")
        closes = _frozen(self, "closes")
        if len(self.tickers) < 2:
            raise ValueError("panel needs at least 2 tickers")
        if len(self.dates) < 2:
            raise InsufficientHistory(f"panel has {len(self.dates)} date(s), need >= 2")
        if closes.shape != (len(self.dates), len(self.tickers)):
            raise ValueError(f"close matrix shape {closes.shape} does not match dates x tickers")
        if len(set(self.tickers)) != len(self.tickers):
            raise ValueError("duplicate tickers in panel")
        if not _ascending(dates):
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
        return PriceSeries(ticker=ticker, dates=self.dates, closes=self.closes[:, col])


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
            raise ValueError(f"start {self.start} is after end {self.end}")

    def overlaps(self, other: "PeriodSpec") -> bool:
        return self.start <= other.end and other.start <= self.end


def _parse_close(raw: str) -> float:
    """The close value, or NaN for an empty or non-numeric cell."""
    try:
        return float(raw)
    except ValueError:
        return math.nan


ColumnPicker = Callable[[list[str]], tuple[int, list[str], list[int]]]
Table = tuple[list[str], np.ndarray, Sequence[int], np.ndarray]  # names, dates, line numbers, closes


def _read_clean(text: str, pick_columns: ColumnPicker) -> Table | None:
    """The block split of ``_read_table``, or None when the row loop must read
    ``text``. Dates and closes go through the functions the row loop calls, so
    values are bit-identical."""
    if '"' in text or "\r" in text:
        return None
    header_line, *lines = text.split("\n")  # not splitlines(): csv.reader ends rows at "\n" only
    if lines and not lines[-1]:
        lines.pop()
    header = header_line.split(",")
    n_fields, limit = len(header), csv.field_size_limit()
    if not header_line or max(map(len, header)) > limit:
        return None
    date_col, names, close_cols = pick_columns([name.strip() for name in header])
    dates = np.empty(len(lines), dtype="datetime64[D]")
    closes = np.empty((len(lines), len(close_cols)))
    step = max(1, (1 << 16) // n_fields)  # rows per block: bounds the strings alive at one time
    for start in range(0, len(lines), step):
        rows = lines[start : start + step]
        block = slice(start, start + len(rows))
        joined = "\n".join(rows)
        # per row n_fields - 1 commas, then its line feed (a total can balance), and no field wider
        # than the csv module's limit in bytes, so none in characters; "surrogatepass" encodes a
        # lone surrogate, a missing quote to the row loop
        raw = np.frombuffer(joined.encode("utf-8", "surrogatepass"), np.uint8)
        ends = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
        widths = np.diff(ends, prepend=-1, append=raw.size) - 1  # in bytes, one per field
        if (
            ends.size != len(rows) * n_fields - 1
            or (raw[ends[n_fields - 1 :: n_fields]] != ord("\n")).any()
            or widths.max() > limit
        ):
            return None
        # the separators are ASCII, so field k in bytes is field k of the split; a blank cell reads
        # as "nan", the NaN _parse_close gives it
        cells = joined.replace("\n", ",").split(",")
        for k in np.flatnonzero(widths == 0).tolist():
            cells[k] = "nan"
        try:
            dates[block] = _as_days(list(map(date.fromisoformat, cells[date_col::n_fields])))
        except ValueError:
            return None
        for j, col in enumerate(close_cols):
            column = cells[col::n_fields]
            try:
                closes[block, j] = np.fromiter(map(float, column), float, len(column))
            except ValueError:  # a missing quote other than a blank
                closes[block, j] = np.fromiter(map(_parse_close, column), float, len(column))
    return names, dates, range(2, len(lines) + 2), closes


def _read_rows(text: str, label: str, pick_columns: ColumnPicker) -> Table:
    """The row loop of ``_read_table``: reads any text, naming the row or line of its first fault."""
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
    return names, _as_days(days), row_numbers, np.array(cells, dtype=float).reshape(len(days), len(close_cols))


def _read_table(
    source: IO[bytes] | IO[str] | bytes | str, label: str, pick_columns: ColumnPicker
) -> list[PriceSeries]:
    """The reader behind both parsers: one series per close column.

    ``pick_columns`` maps the stripped header to the date column, the series
    names and their close columns. A date may appear on one row only. An
    empty, non-numeric or non-finite close is a missing quote. A clean table,
    as ``PriceSeries.to_csv`` and unquoted wide files with blank cells are,
    is split in blocks of rows by ``_read_clean``. Any ``"`` or ``\\r``, an
    empty header line, a row of another arity, a blank row, a date
    ``date.fromisoformat`` rejects unstripped or a field over the csv module's
    limit in UTF-8 bytes sends the text to the row loop of ``_read_rows``,
    which names the row of an arity or date fault and the line of a csv
    reader fault.
    """
    raw = source if isinstance(source, (bytes, str)) else source.read()
    text = raw.decode("utf-8-sig") if isinstance(raw, bytes) else raw.removeprefix("\ufeff")
    table = _read_clean(text, pick_columns)
    names, dates, row_numbers, closes = table if table is not None else _read_rows(text, label, pick_columns)

    closes[np.isinf(closes)] = np.nan  # before the sign check: -inf is a missing quote too
    nonpositive = np.argwhere(closes <= 0.0)
    if nonpositive.size:
        row, col = nonpositive[0]
        close, day = closes[row, col].item(), dates[row].item().isoformat()
        raise NonPositivePrice(f"{names[col]}: close {close} on {day} (row {row_numbers[row]})")
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
        column = {name: index for index, name in enumerate(all_tickers, 1)}
        if len(column) != len(all_tickers):
            raise MalformedCsv("wide CSV: duplicate ticker columns")
        wanted = list(tickers) if tickers is not None else all_tickers
        missing = [name for name in wanted if name not in column]
        if missing:
            raise MalformedCsv(f"wide CSV: tickers not present: {missing}")
        return 0, wanted, [column[name] for name in wanted]

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
    unquoted = [s.ticker for s in series if not s.dates.size]
    if unquoted and policy == "forward_fill":
        raise EmptyIntersection(f"no quotes for {', '.join(unquoted)}")
    kept = np.empty(0, dtype="datetime64[D]")
    if not unquoted:
        # how many series quote each day from the earliest first date on (series dates are unique)
        days = [s.dates.view(np.int64) for s in series]
        origin = min(d[0] for d in days)
        counts = np.zeros(max(d[-1] for d in days) - origin + 1, dtype=np.min_scalar_type(len(series)))
        for d in days:
            counts[d - origin] += 1
        if policy == "intersection":
            offsets = np.flatnonzero(counts == len(series))
        else:  # a date survives once every ticker has at least one quote on or before it
            start = max(d[0] for d in days) - origin
            offsets = np.flatnonzero(counts[start:]) + start
        kept = (offsets + origin).astype("datetime64[D]")
    if not kept.size:  # forward fill always keeps the latest first date
        raise EmptyIntersection(f"no common dates across {', '.join(tickers)}")

    if kept.size < 2:
        raise InsufficientHistory(f"{kept.size} aligned date(s) across {', '.join(tickers)}, need >= 2")
    # each ticker's last quote on or before each kept date: under intersection, that day's own
    closes = np.column_stack([s.closes[np.searchsorted(s.dates, kept, "right") - 1] for s in series])
    return PricePanel(tickers=tickers, dates=kept, closes=closes)


def slice_period(panel: PricePanel, period: PeriodSpec) -> PricePanel:
    """Restrict a panel to dates inside the period's inclusive window; bounds are dates or days."""
    start = np.searchsorted(panel.dates, np.datetime64(period.start, "D"))
    stop = np.searchsorted(panel.dates, np.datetime64(period.end, "D"), "right")
    if stop - start < 2:
        raise InsufficientHistory(
            f"{period.label} window {period.start}..{period.end} "
            f"covers {stop - start} panel date(s), need >= 2"
        )
    return PricePanel(
        tickers=panel.tickers, dates=panel.dates[start:stop], closes=panel.closes[start:stop]
    )
