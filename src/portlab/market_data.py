"""Close-price ingestion: per-ticker CSV parsing, panel alignment, period slicing.

Input files carry at least ``Date`` and ``Close`` columns (extra columns are
ignored). A wide variant holds one ``Date`` column plus one column per ticker.
Rows whose close is empty or non-numeric are treated as missing quotes and
dropped; the chosen alignment policy then decides how cross-ticker gaps are
reconciled.
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import math
import operator
from dataclasses import dataclass, field
from datetime import date
from typing import Callable, Iterable, Literal, Sequence, get_args

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

    The value type takes ownership of the array it is given: a C-ordered array
    that already has ``dtype`` is frozen in place, not copied, so the caller's
    own array turns read-only, even when the constructor then rejects it. Any
    other array is copied to C order, so numpy's sums run in one order whatever
    the caller's layout.
    """
    given = getattr(instance, name)
    values = np.asarray(given, dtype=dtype, order="C")
    if values.base is given and values.dtype == given.dtype:  # a view, as numpy gives for datetime64
        values = given
    values.flags.writeable = False
    object.__setattr__(instance, name, values)
    return values


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """``header`` and ``rows`` as CSV text, one line feed after each row. A field
    holding a comma, a double quote or a line feed is quoted, and so is every
    field of a row whose text cell holds a carriage return, which csv.writer
    would leave bare and csv.reader then rejects; floats keep their shortest repr."""
    buffer = io.StringIO()
    minimal = csv.writer(buffer, lineterminator="\n")
    quote_all = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in [header, *rows]:  # cells are text, ints and floats: only text can hold a carriage return
        (quote_all if any(isinstance(cell, str) and "\r" in cell for cell in row) else minimal).writerow(row)
    return buffer.getvalue()


def _dated_csv_text(header: tuple[str, str], dates: np.ndarray, values: np.ndarray) -> str:
    """The text ``_csv_text(header, zip(dates.tolist(), values.tolist()))`` writes for
    ``datetime64[D]`` ``dates`` and finite floats, joined directly: an ISO date
    and a finite float's repr never need quoting."""
    rows = map(",".join, zip(_iso_texts(dates.tobytes()), map(repr, values.tolist())))
    return "\n".join([",".join(header), *rows, ""])


def _as_days(days: Sequence[date]) -> np.ndarray:
    """``datetime64[D]`` array of ``days``, built from ordinals (far cheaper than from dates)."""
    ordinals = np.fromiter(map(date.toordinal, days), dtype=np.int64, count=len(days))
    return (ordinals - date(1970, 1, 1).toordinal()).astype("datetime64[D]")


@functools.lru_cache(maxsize=1)  # a sector's files share one calendar: it is parsed once
def _parse_days(column: str) -> np.ndarray:
    """Read-only ``datetime64[D]`` array of the ``_iso_day`` days of the comma-joined ``column``."""
    days = _as_days(list(map(_iso_day, column.split(","))))
    days.flags.writeable = False
    return days


@functools.lru_cache(maxsize=2)  # a sector's train and test days, shared by the next sector
def _iso_texts(days: bytes) -> tuple[str, ...]:
    """ISO text of each day of the ``datetime64[D]`` array whose bytes are ``days``."""
    return tuple(np.frombuffer(days, "datetime64[D]").astype(str).tolist())


def _iso_day(text: str) -> date:
    """The ``YYYY-MM-DD`` day ``text`` names. Only that form is read, as Python
    3.10 reads it: 3.11 and later ``date.fromisoformat`` also take ``20210104``
    and ``2021-W01-1``."""
    digits = text[:4] + text[5:7] + text[8:]
    if len(text) != 10 or text[4] + text[7] != "--" or not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


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
            if dates[row] == dates[row - 1]:
                raise DuplicateDate(f"{self.ticker}: duplicate date {dates[row]}")
            raise ValueError(f"{self.ticker}: dates not ascending at {dates[row]}")
        invalid = np.flatnonzero(~(np.isfinite(closes) & (closes > 0.0)))
        if invalid.size:
            raise NonPositivePrice(f"{self.ticker}: close {closes[invalid[0]].item()!r} on {dates[invalid[0]]}")

    @property
    def observations(self) -> tuple[tuple[date, float], ...]:
        """``(date, close)`` pairs in date order."""
        return tuple(zip(self.dates.tolist(), self.closes.tolist()))

    def to_csv(self) -> str:
        """Serialize back to ``Date,Close`` text; floats keep full precision."""
        return _dated_csv_text(("Date", "Close"), self.dates, self.closes)


@dataclass(frozen=True, eq=False)
class PriceTable(Sequence[PriceSeries]):
    """Closes of N tickers on T strictly ascending ``datetime64[D]`` days, NaN where a ticker has no
    quote; quoted closes are finite and positive. It is also a read-only sequence of its N columns,
    each built on demand as the ``PriceSeries`` of its quoted days. Equality is identity."""

    tickers: tuple[str, ...]
    dates: np.ndarray = field(repr=False)
    closes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        dates = _frozen(self, "dates", "datetime64[D]")
        closes = _frozen(self, "closes")
        if not _ascending(dates) or closes.shape != (len(dates), len(self.tickers)):
            raise ValueError(f"{closes.shape} closes for {dates.shape} ascending days x {len(self.tickers)} tickers")
        if np.isinf(closes).any() or (closes <= 0.0).any():
            raise NonPositivePrice("table contains infinite or non-positive closes")

    def __len__(self) -> int:
        return len(self.tickers)

    def __getitem__(self, col: int) -> PriceSeries:
        col = operator.index(col)  # an int, not a slice or a float
        quoted = ~np.isnan(self.closes[:, col])
        return PriceSeries(ticker=self.tickers[col], dates=self.dates[quoted], closes=self.closes[quoted, col])


@dataclass(frozen=True, eq=False)
class PricePanel(PriceTable):
    """A ``PriceTable`` with every cell quoted, for at least 2 distinct tickers on at least 2 days:
    the date-aligned closes, each column a ticker's full series. Equality is identity."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.tickers) < 2 or len(set(self.tickers)) != len(self.tickers):
            raise ValueError("panel needs at least 2 tickers, none repeated")
        if len(self.dates) < 2:
            raise InsufficientHistory(f"panel has {len(self.dates)} date(s), need >= 2")
        missing = np.isnan(self.closes)
        if missing.any():
            row, col = np.argwhere(missing)[0]
            raise NonPositivePrice(f"{self.tickers[col]}: no close on {self.dates[row]}")


@dataclass(frozen=True)
class PeriodSpec:
    """Inclusive calendar window tagged as the train or test leg."""

    label: PeriodLabel
    start: date
    end: date

    def __post_init__(self) -> None:
        if self.label not in get_args(PeriodLabel):
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
            dates[block] = _parse_days(",".join(cells[date_col::n_fields]))  # no cell holds a comma
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
                days.append(_iso_day(row[date_col].strip()))
            except ValueError:
                raise MalformedCsv(f"row {row_number}: bad date {row[date_col]!r} (want YYYY-MM-DD)") from None
            row_numbers.append(row_number)
            cells.extend([_parse_close(row[col]) for col in close_cols])
    except StopIteration:
        raise MalformedCsv(f"{label}: empty file") from None
    except csv.Error as bad:
        raise MalformedCsv(f"{label}: line {reader.line_num}: {bad}") from None
    return names, _as_days(days), row_numbers, np.array(cells, dtype=float).reshape(len(days), len(close_cols))


def _read_table(source: bytes | str, label: str, pick_columns: ColumnPicker) -> PriceTable:
    """The reader behind both parsers: one table column per close column.

    ``pick_columns`` maps the stripped header to the date column, the series
    names and their close columns. A date is ``YYYY-MM-DD`` (``_iso_day``),
    with spaces around it stripped, and may appear on one row only. An
    empty, non-numeric or non-finite close is a missing quote. A clean table,
    as ``PriceSeries.to_csv`` and unquoted wide files with blank cells are,
    is split in blocks of rows by ``_read_clean``. Any ``"`` or ``\\r``, an
    empty header line, a row of another arity, a blank row, a date field not
    in that form as it stands or a field over the csv module's limit in UTF-8
    bytes sends the text to the row loop of ``_read_rows``,
    which names the row of an arity or date fault and the line of a csv
    reader fault.
    """
    text = source.decode("utf-8-sig") if isinstance(source, bytes) else source.removeprefix("\ufeff")
    table = _read_clean(text, pick_columns)
    names, dates, row_numbers, closes = table if table is not None else _read_rows(text, label, pick_columns)

    closes[np.isinf(closes)] = np.nan  # before the sign check: -inf is a missing quote too
    nonpositive = np.argwhere(closes <= 0.0)
    if nonpositive.size:
        row, col = nonpositive[0]
        close = closes[row, col].item()
        raise NonPositivePrice(f"{names[col]}: close {close} on {dates[row]} (row {row_numbers[row]})")
    order = np.argsort(dates, kind="stable")
    dates, closes = dates[order], closes[order]
    repeated = np.flatnonzero(dates[1:] == dates[:-1])
    if repeated.size:
        raise DuplicateDate(f"{label}: duplicate date {dates[repeated[0]]}")
    if missing := int(np.isnan(closes).sum()):
        logger.info("%s: dropped %d missing close(s)", label, missing)
    return PriceTable(tickers=tuple(names), dates=dates, closes=closes)


def parse_price_csv(source: bytes | str, ticker: str) -> PriceSeries:
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
    source: bytes | str,
    tickers: Iterable[str] | None = None,
) -> PriceTable:
    """Parse a wide CSV (``Date`` plus one close column per ticker) into one table.

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


def align_panel(series: PriceTable | Sequence[PriceSeries], policy: AlignmentPolicy = "intersection") -> PricePanel:
    """Join a table, or per-ticker series, into one panel under the given missing-data policy.

    ``intersection`` keeps only dates quoted by every ticker. ``forward_fill``
    takes the union of dates, carries the last prior close into gaps, and
    drops leading dates where any ticker has no prior value yet.
    """
    if len(series) < 2:
        raise ValueError("align_panel needs at least 2 series")
    if policy not in get_args(AlignmentPolicy):
        raise ValueError(f"unknown alignment policy {policy!r}")

    if not isinstance(series, PriceTable):  # scattered into one table over the union of their days
        offsets = np.concatenate([s.dates for s in series]).view(np.int64)
        origin = offsets.min() if offsets.size else 0
        present = np.bincount(offsets - origin, minlength=1) > 0  # quoted by any series, by day count from origin
        cells = (np.cumsum(present)[offsets - origin] - 1) * len(series)  # row-major: row * N + column
        cells += np.repeat(np.arange(len(series)), [s.dates.size for s in series])
        closes = np.full(present.sum() * len(series), np.nan)
        closes[cells] = np.concatenate([s.closes for s in series])
        days = (np.flatnonzero(present) + origin).astype("datetime64[D]")
        series = PriceTable(tuple(s.ticker for s in series), dates=days, closes=closes.reshape(-1, len(series)))
    tickers, quoted = series.tickers, ~np.isnan(series.closes)
    if policy == "intersection":
        kept = np.flatnonzero(quoted.all(axis=1))
        closes = series.closes[kept]
    else:  # rows from the latest first quote on that any ticker quotes; each carries its last quote
        unquoted = [ticker for ticker, any_quote in zip(tickers, quoted.any(axis=0).tolist()) if not any_quote]
        if unquoted:
            raise EmptyIntersection(f"no quotes for {', '.join(unquoted)}")
        start = quoted.argmax(axis=0).max()
        kept = np.flatnonzero(quoted[start:].any(axis=1)) + start
        last = np.maximum.accumulate(np.where(quoted, np.arange(len(quoted))[:, None], 0), axis=0)
        closes = np.take_along_axis(series.closes, last[kept], axis=0)
    if not kept.size:  # forward fill always keeps the latest first date
        raise EmptyIntersection(f"no common dates across {', '.join(tickers)}")
    if kept.size < 2:
        raise InsufficientHistory(f"{kept.size} aligned date(s) across {', '.join(tickers)}, need >= 2")
    return PricePanel(tickers=tickers, dates=series.dates[kept], closes=closes)


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
