from datetime import date
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_panel
from portlab import market_data
from portlab.errors import (
    DuplicateDate,
    EmptyIntersection,
    InsufficientHistory,
    MalformedCsv,
    NonPositivePrice,
    PortlabError,
)
from portlab.market_data import (
    PeriodSpec,
    PricePanel,
    PriceSeries,
    _csv_text,
    _dated_csv_text,
    align_panel,
    parse_price_csv,
    parse_wide_csv,
    slice_period,
)
from portlab.returns_stats import ReturnsMatrix
from portlab.synthetic import synthetic_panel, weekday_range


def series(ticker, *observations):
    return PriceSeries(
        ticker=ticker,
        dates=[date.fromisoformat(d) for d, _ in observations],
        closes=[float(c) for _, c in observations],
    )


class TestParsePriceCsv:
    def test_two_rows(self):
        parsed = parse_price_csv("Date,Close\n2021-01-01,100\n2021-01-04,110\n", "A")
        assert parsed.dates.tolist() == [date(2021, 1, 1), date(2021, 1, 4)]
        assert parsed.closes.tolist() == [100.0, 110.0]

    def test_unsorted_rows_sorted_ascending(self):
        parsed = parse_price_csv("Date,Close\n2021-01-04,110\n2021-01-01,100\n", "A")
        assert parsed.dates.tolist() == [date(2021, 1, 1), date(2021, 1, 4)]
        assert parsed.closes.tolist() == [100.0, 110.0]

    def test_negative_close_rejected(self):
        with pytest.raises(NonPositivePrice):
            parse_price_csv("Date,Close\n2021-01-01,-5\n", "A")

    def test_zero_close_rejected(self):
        with pytest.raises(NonPositivePrice):
            parse_price_csv("Date,Close\n2021-01-01,0\n", "A")

    def test_missing_header_columns(self):
        with pytest.raises(MalformedCsv):
            parse_price_csv("Date,Open\n2021-01-01,5\n", "A")

    def test_row_arity_mismatch(self):
        with pytest.raises(MalformedCsv):
            parse_price_csv("Date,Close\n2021-01-01,5,9\n", "A")

    def test_bad_date(self):
        with pytest.raises(MalformedCsv):
            parse_price_csv("Date,Close\n01/04/2021,5\n", "A")

    def test_duplicate_date(self):
        with pytest.raises(DuplicateDate):
            parse_price_csv("Date,Close\n2021-01-01,5\n2021-01-01,6\n", "A")

    def test_missing_close_rows_dropped(self):
        parsed = parse_price_csv(
            "Date,Close\n2021-01-01,100\n2021-01-02,\n2021-01-03,null\n2021-01-04,102\n", "A"
        )
        assert parsed.dates.tolist() == [date(2021, 1, 1), date(2021, 1, 4)]

    @pytest.mark.parametrize("token", ["inf", "-inf", "1e999"])
    def test_non_finite_close_is_missing_quote(self, token):
        parsed = parse_price_csv(f"Date,Close\n2021-01-01,100\n2021-01-02,{token}\n2021-01-04,102\n", "A")
        assert parsed.dates.tolist() == [date(2021, 1, 1), date(2021, 1, 4)]
        assert parsed.closes.tolist() == [100.0, 102.0]

    def test_blank_first_line_is_a_bad_header(self):
        with pytest.raises(MalformedCsv) as caught:
            parse_price_csv("\nDate,Close\n2021-01-01,5\n", "A")
        assert str(caught.value) == "A: header must contain Date and Close, got []"

    def test_extra_columns_ignored(self):
        parsed = parse_price_csv(
            "Date,Open,Close,Volume\n2021-01-01,99,100,5000\n2021-01-04,100,110,6000\n", "A"
        )
        assert parsed.closes.tolist() == [100.0, 110.0]

    def test_accepts_bytes_and_bom(self):
        parsed = parse_price_csv(b"\xef\xbb\xbfDate,Close\n2021-01-01,100\n2021-01-04,101\n", "A")
        assert parsed.closes.tolist() == [100.0, 101.0]

    def test_accepts_crlf_line_endings(self):
        parsed = parse_price_csv(b"Date,Close\r\n2021-01-01,100\r\n2021-01-04,110\r\n", "A")
        assert parsed.closes.tolist() == [100.0, 110.0]

    def test_round_trip(self, rng):
        days = sorted(rng.choice(np.arange(1, 3000), size=40, replace=False).tolist())
        observations = tuple(
            (date.fromordinal(date(2015, 1, 1).toordinal() + int(d)), float(rng.uniform(1, 900)))
            for d in days
        )
        original = PriceSeries(
            ticker="RT", dates=[d for d, _ in observations], closes=[c for _, c in observations]
        )
        parsed = parse_price_csv(original.to_csv(), "RT")
        assert parsed.ticker == original.ticker
        assert np.array_equal(parsed.dates, original.dates)
        assert np.array_equal(parsed.closes, original.closes)
        assert parsed.observations == observations


class TestParseWideCsv:
    TEXT = "Date,A,B\n2021-01-01,100,50\n2021-01-04,110,\n2021-01-05,99,52\n"

    def test_per_ticker_series(self):
        a, b = parse_wide_csv(self.TEXT)
        assert a.closes.tolist() == [100.0, 110.0, 99.0]
        assert b.dates.tolist() == [date(2021, 1, 1), date(2021, 1, 5)]  # gap dropped for B only

    @pytest.mark.parametrize("token", ["inf", "-inf", "1e999"])
    def test_non_finite_close_is_missing_quote(self, token):
        a, b = parse_wide_csv(f"Date,A,B\n2021-01-01,100,50\n2021-01-04,{token},51\n")
        assert a.dates.tolist() == [date(2021, 1, 1)]
        assert b.closes.tolist() == [50.0, 51.0]

    def test_ticker_selection(self):
        (b,) = parse_wide_csv(self.TEXT, tickers=["B"])
        assert b.ticker == "B"

    def test_unknown_ticker(self):
        with pytest.raises(MalformedCsv):
            parse_wide_csv(self.TEXT, tickers=["C"])

    def test_duplicate_column(self):
        with pytest.raises(MalformedCsv):
            parse_wide_csv("Date,A,A\n2021-01-01,1,2\n")


def per_ticker(text):
    return lambda: parse_price_csv(text, "A")


def wide(text, tickers=None):
    return lambda: parse_wide_csv(text, tickers)


@pytest.mark.parametrize(
    "parse, error, message",
    [
        pytest.param(per_ticker(""), MalformedCsv, "A: empty file", id="empty"),
        pytest.param(wide(""), MalformedCsv, "wide CSV: empty file", id="wide-empty"),
        pytest.param(
            per_ticker("Date,Open\n2021-01-01,5\n"),
            MalformedCsv,
            "A: header must contain Date and Close, got ['Date', 'Open']",
            id="no-close-column",
        ),
        pytest.param(
            per_ticker("Date,Close\n2021-01-01,5\n2021-01-04,5,9\n"),
            MalformedCsv,
            "A: row 3 has 3 fields, header has 2",
            id="arity",
        ),
        pytest.param(
            wide("Date,A,B\n2021-01-01,1,2\n2021-01-04,3\n"),
            MalformedCsv,
            "wide CSV: row 3 has 2 fields, header has 3",
            id="wide-arity",
        ),
        pytest.param(
            per_ticker("Date,Close\n2021-01-01,5\n01/04/2021,5\n"),
            MalformedCsv,
            "row 3: bad date '01/04/2021' (want YYYY-MM-DD)",
            id="bad-date",
        ),
        pytest.param(
            per_ticker("Date,Close\n\n2021-01-01,5\n2021-01-04,-5\n"),
            NonPositivePrice,
            "A: close -5.0 on 2021-01-04 (row 4)",
            id="nonpositive-after-blank-row",
        ),
        pytest.param(
            wide("Date,A,B\n2021-01-01,1,2\n2021-01-04,3,0\n"),
            NonPositivePrice,
            "B: close 0.0 on 2021-01-04 (row 3)",
            id="wide-nonpositive",
        ),
        pytest.param(
            per_ticker("Date,Close\n2021-01-04,5\n2021-01-01,6\n2021-01-04,7\n"),
            DuplicateDate,
            "A: duplicate date 2021-01-04",
            id="duplicate-date",
        ),
        pytest.param(
            wide("Date,A,B\n2021-01-01,1,2\n2021-01-04,3,4\n2021-01-01,5,6\n"),
            DuplicateDate,
            "wide CSV: duplicate date 2021-01-01",
            id="wide-duplicate-date",
        ),
        pytest.param(
            wide("A,Date\n5,2021-01-01\n"),
            MalformedCsv,
            "wide CSV: first column must be Date, got ['A']",
            id="wide-date-not-first",
        ),
        pytest.param(
            wide("Date,A,\n2021-01-01,5,6\n"),
            MalformedCsv,
            "wide CSV: every ticker column needs a name",
            id="wide-unnamed-column",
        ),
        pytest.param(
            wide("Date,A,A\n2021-01-01,1,2\n"),
            MalformedCsv,
            "wide CSV: duplicate ticker columns",
            id="wide-duplicate-column",
        ),
        pytest.param(
            per_ticker('Date,Close\n2021-01-01,5\n2021-01-04,"' + "9" * 200_000 + '"\n'),
            MalformedCsv,
            "A: line 3: field larger than field limit (131072)",
            id="field-over-csv-limit",
        ),
        pytest.param(
            wide('Date,A\n2021-01-01,"' + "9" * 200_000 + '"\n'),
            MalformedCsv,
            "wide CSV: line 2: field larger than field limit (131072)",
            id="wide-field-over-csv-limit",
        ),
        pytest.param(
            per_ticker("Date,Close\n2021-01-01,5,2021-01-04\n\n"),
            MalformedCsv,
            "A: row 2 has 3 fields, header has 2",
            id="arity-balanced-in-total",
        ),
        pytest.param(
            wide("Date,A,B\n2021-01-01,1\n2021-01-04,2,3,4\n"),
            MalformedCsv,
            "wide CSV: row 2 has 2 fields, header has 3",
            id="wide-arity-balanced-in-total",
        ),
        pytest.param(
            per_ticker("Date,Close\n2021-01-01,5\n2021-01-04," + "9" * 200_000 + "\n"),
            MalformedCsv,
            "A: line 3: field larger than field limit (131072)",
            id="unquoted-field-over-csv-limit",
        ),
        pytest.param(
            wide("Date,A\n2021-01-01," + "9" * 200_000 + "\n"),
            MalformedCsv,
            "wide CSV: line 2: field larger than field limit (131072)",
            id="wide-unquoted-field-over-csv-limit",
        ),
        pytest.param(
            wide("Date," + "A" * 200_000 + "\n2021-01-01,5\n"),
            MalformedCsv,
            "wide CSV: line 1: field larger than field limit (131072)",
            id="wide-header-over-csv-limit",
        ),
        pytest.param(
            wide(TestParseWideCsv.TEXT, ["C"]),
            MalformedCsv,
            "wide CSV: tickers not present: ['C']",
            id="wide-unknown-ticker",
        ),
    ],
)
def test_ingest_error_messages(parse, error, message):
    with pytest.raises(error) as caught:
        parse()
    assert str(caught.value) == message


class TestAlignPanel:
    def test_intersection_keeps_common_dates(self):
        a = series("A", ("2021-01-01", 100), ("2021-01-04", 101), ("2021-01-05", 102))
        b = series("B", ("2021-01-04", 50), ("2021-01-05", 51))
        panel = align_panel([a, b], "intersection")
        assert panel.dates.tolist() == [date(2021, 1, 4), date(2021, 1, 5)]
        assert panel.closes.tolist() == [[101.0, 50.0], [102.0, 51.0]]

    def test_forward_fill_uses_last_prior_close(self):
        a = series("A", ("2021-01-01", 100), ("2021-01-05", 102))
        b = series("B", ("2021-01-01", 50), ("2021-01-04", 51), ("2021-01-05", 52))
        panel = align_panel([a, b], "forward_fill")
        assert panel.dates.tolist() == [date(2021, 1, 1), date(2021, 1, 4), date(2021, 1, 5)]
        assert panel.closes[:, 0].tolist() == [100.0, 100.0, 102.0]

    def test_forward_fill_drops_leading_gap(self):
        a = series("A", ("2021-01-04", 101), ("2021-01-05", 102))
        b = series("B", ("2021-01-01", 50), ("2021-01-04", 51), ("2021-01-05", 52))
        panel = align_panel([a, b], "forward_fill")
        assert panel.dates[0] == date(2021, 1, 4)

    def test_disjoint_dates(self):
        a = series("A", ("2021-01-01", 100), ("2021-01-02", 100))
        b = series("B", ("2021-01-04", 50), ("2021-01-05", 50))
        with pytest.raises(EmptyIntersection):
            align_panel([a, b], "intersection")

    def test_single_common_date(self):
        a = series("A", ("2021-01-01", 100), ("2021-01-04", 101))
        b = series("B", ("2021-01-04", 50), ("2021-01-05", 51))
        with pytest.raises(InsufficientHistory):
            align_panel([a, b], "intersection")

    def test_needs_two_series(self):
        a = series("A", ("2021-01-01", 100), ("2021-01-04", 101))
        with pytest.raises(ValueError):
            align_panel([a])

    def test_intersection_equals_set_intersection(self, rng):
        base = date(2019, 1, 1).toordinal()
        all_days = [date.fromordinal(base + i) for i in range(60)]
        date_sets = []
        members = []
        for t in range(4):
            chosen = sorted(rng.choice(60, size=40, replace=False).tolist())
            days = [all_days[i] for i in chosen]
            date_sets.append(set(days))
            members.append(
                PriceSeries(
                    ticker=f"T{t}",
                    dates=days,
                    closes=[float(rng.uniform(10, 99)) for _ in days],
                )
            )
        panel = align_panel(members, "intersection")
        assert set(panel.dates.tolist()) == set.intersection(*date_sets)
        assert panel.dates.tolist() == sorted(panel.dates.tolist())


class TestSlicePeriod:
    def panel(self):
        a = series("A", *((f"2021-01-{d:02d}", 100 + d) for d in range(1, 11)))
        b = series("B", *((f"2021-01-{d:02d}", 50 + d) for d in range(1, 11)))
        return align_panel([a, b], "intersection")

    def test_window_subset(self):
        sliced = slice_period(self.panel(), PeriodSpec("train", date(2021, 1, 3), date(2021, 1, 6)))
        assert sliced.dates.tolist() == [date(2021, 1, d) for d in (3, 4, 5, 6)]
        assert sliced.tickers == ("A", "B")

    def test_full_window_is_identity(self):
        panel = self.panel()
        sliced = slice_period(panel, PeriodSpec("train", date(2020, 1, 1), date(2022, 1, 1)))
        assert np.array_equal(sliced.dates, panel.dates)
        assert np.array_equal(sliced.closes, panel.closes)

    def test_single_date_window(self):
        with pytest.raises(InsufficientHistory):
            slice_period(self.panel(), PeriodSpec("test", date(2021, 1, 4), date(2021, 1, 4)))

    def test_idempotent(self):
        window = PeriodSpec("train", date(2021, 1, 2), date(2021, 1, 8))
        once = slice_period(self.panel(), window)
        twice = slice_period(once, window)
        assert np.array_equal(once.dates, twice.dates)
        assert np.array_equal(once.closes, twice.closes)

    def test_five_year_train_window(self, rng):
        from portlab.synthetic import synthetic_panel, weekday_range

        days = weekday_range(date(2016, 1, 1), date(2021, 11, 1))
        panel = PricePanel(*synthetic_panel(["A", "B"], days, seed=1))
        train = slice_period(panel, PeriodSpec("train", date(2016, 1, 1), date(2020, 12, 31)))
        test = slice_period(panel, PeriodSpec("test", date(2021, 1, 1), date(2021, 11, 1)))
        assert train.dates[-1] <= date(2020, 12, 31)
        assert test.dates[0] >= date(2021, 1, 1)
        assert len(train.dates) + len(test.dates) == len(panel.dates)


class TestInvariants:
    def test_series_rejects_duplicate_dates(self):
        with pytest.raises(DuplicateDate):
            series("A", ("2021-01-01", 1), ("2021-01-01", 2))

    def test_series_rejects_nonpositive(self):
        with pytest.raises(NonPositivePrice):
            series("A", ("2021-01-01", 0.0))

    @pytest.mark.parametrize(
        "dates, closes, message",
        [
            (["2021-01-04", "2021-01-01"], [1.0, 2.0], "A: dates not ascending at 2021-01-01"),
            (["2021-01-01", "NaT"], [1.0, 2.0], "A: (2,) dates (NaT not allowed) for (2,) closes"),
            (["2021-01-01"], [1.0, 2.0], "A: (1,) dates (NaT not allowed) for (2,) closes"),
        ],
    )
    def test_series_rejects_unordered_or_misshapen(self, dates, closes, message):
        with pytest.raises(ValueError) as caught:
            PriceSeries(ticker="A", dates=dates, closes=closes)
        assert str(caught.value) == message

    def test_series_arrays_immutable(self):
        prices = series("A", ("2021-01-01", 1.0), ("2021-01-04", 2.0))
        with pytest.raises(ValueError):
            prices.closes[0] = 9.0
        with pytest.raises(ValueError):
            prices.dates[0] = prices.dates[1]

    def test_panel_rejects_single_ticker(self):
        with pytest.raises(ValueError):
            make_panel([[1.0], [2.0]], tickers=("A",))

    def test_panel_rejects_one_row(self):
        with pytest.raises(InsufficientHistory):
            PricePanel(
                tickers=("A", "B"), dates=(date(2021, 1, 1),), closes=np.array([[1.0, 2.0]])
            )

    def test_panel_closes_immutable(self):
        panel = make_panel([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            panel.closes[0, 0] = 9.0

    def test_period_label_and_order(self):
        with pytest.raises(ValueError):
            PeriodSpec("validation", date(2021, 1, 1), date(2021, 2, 1))
        with pytest.raises(ValueError):
            PeriodSpec("train", date(2021, 2, 1), date(2021, 1, 1))

    def test_period_overlap(self):
        train = PeriodSpec("train", date(2016, 1, 1), date(2020, 12, 31))
        test = PeriodSpec("test", date(2021, 1, 1), date(2021, 11, 1))
        assert not train.overlaps(test)
        assert train.overlaps(PeriodSpec("test", date(2020, 12, 31), date(2021, 1, 5)))


BASE_DAY = date(2021, 1, 1).toordinal()
closes_st = st.floats(min_value=0.01, max_value=1e6, allow_nan=False, allow_infinity=False)
# a series: distinct day offsets, each with a positive close
quotes_st = st.dictionaries(st.integers(0, 40), closes_st, max_size=25)
# offsets anywhere in 0001-01-01..9999-12-31, the ends included, a few near the base day
FIRST_DAY, LAST_DAY = date.min.toordinal() - BASE_DAY, date.max.toordinal() - BASE_DAY
far_days_st = st.one_of(
    st.sampled_from([FIRST_DAY, LAST_DAY]), st.integers(FIRST_DAY, LAST_DAY), st.integers(0, 40)
)
far_quotes_st = st.dictionaries(far_days_st, closes_st, max_size=6)
# a table column: one close or missing-quote token per row
cells_st = st.one_of(closes_st.map(repr), st.sampled_from(["", "nan", "null", "N/A", "x", "inf"]))


def series_of(ticker, quotes):
    offsets = sorted(quotes)
    return PriceSeries(
        ticker=ticker,
        dates=[date.fromordinal(BASE_DAY + d) for d in offsets],
        closes=[quotes[d] for d in offsets],
    )


def reference_alignment(members, policy):
    """Dates and closes by brute force over each series' observations."""
    quoted = [dict(s.observations) for s in members]
    if policy == "intersection":
        kept = sorted(set.intersection(*(set(q) for q in quoted)))
    else:
        start = max(min(q) for q in quoted)
        kept = sorted({day for q in quoted for day in q if day >= start})
    closes = [[q[max(day for day in q if day <= row)] for q in quoted] for row in kept]
    return kept, closes


class TestIngestProperties:
    @settings(deadline=None)
    @given(
        quotes=st.one_of(
            st.lists(quotes_st.filter(bool), min_size=2, max_size=4),
            st.lists(far_quotes_st.filter(bool), min_size=2, max_size=4),
        ),
        policy=st.sampled_from(["intersection", "forward_fill"]),
    )
    @example(
        quotes=[{FIRST_DAY: 1.0, LAST_DAY: 2.0}, {FIRST_DAY: 3.0, 0: 4.0, LAST_DAY: 5.0}], policy="intersection"
    )
    @example(quotes=[{FIRST_DAY: 1.0, 0: 2.0}, {LAST_DAY - 1: 3.0, LAST_DAY: 4.0}], policy="forward_fill")
    @example(quotes=[{FIRST_DAY: 1.0}, {1: 2.0, 2: 3.0}, {LAST_DAY: 4.0}], policy="forward_fill")
    def test_align_matches_per_date_reference(self, quotes, policy):
        members = [series_of(f"T{i}", q) for i, q in enumerate(quotes)]
        kept, closes = reference_alignment(members, policy)
        if len(kept) < 2:
            with pytest.raises(EmptyIntersection if not kept else InsufficientHistory):
                align_panel(members, policy)
            return
        panel = align_panel(members, policy)
        assert panel.dates.tolist() == kept
        assert panel.closes.tolist() == closes

    @pytest.mark.parametrize(
        "policy, message",
        [
            ("intersection", "no common dates across A, B, C"),
            ("forward_fill", "no quotes for B"),
        ],
    )
    def test_unquoted_series_message(self, policy, message):
        members = [series_of("A", {0: 1.0, 1: 2.0}), series_of("B", {}), series_of("C", {0: 3.0, 1: 4.0})]
        with pytest.raises(EmptyIntersection) as caught:
            align_panel(members, policy)
        assert str(caught.value) == message

    @settings(deadline=None)
    @given(
        offsets=st.lists(st.integers(0, 400), min_size=1, max_size=15, unique=True),
        n_tickers=st.integers(1, 4),
        data=st.data(),
    )
    def test_wide_csv_equals_per_ticker_csvs(self, offsets, n_tickers, data):
        days = [date.fromordinal(BASE_DAY + d).isoformat() for d in offsets]
        table = [data.draw(st.lists(cells_st, min_size=n_tickers, max_size=n_tickers)) for _ in days]
        tickers = [f"T{i}" for i in range(n_tickers)]
        text = "\n".join(
            [",".join(["Date", *tickers])] + [",".join([d, *row]) for d, row in zip(days, table)]
        )
        for col, parsed in enumerate(parse_wide_csv(text)):
            single = "\n".join(["Date,Close"] + [f"{d},{row[col]}" for d, row in zip(days, table)])
            alone = parse_price_csv(single, tickers[col])
            assert parsed.ticker == alone.ticker
            assert np.array_equal(parsed.dates, alone.dates)
            assert np.array_equal(parsed.closes, alone.closes)

    @settings(deadline=None)
    @given(
        quotes=st.lists(quotes_st.filter(bool), min_size=1, max_size=3),
        blank_at=st.integers(0, 3),
        policy=st.sampled_from(["intersection", "forward_fill"]),
    )
    def test_ticker_without_quotes_fails_cleanly(self, quotes, blank_at, policy):
        # an all-blank wide column: a PortlabError fails the sector, an IndexError would escape
        offsets = sorted(set().union(*quotes))
        columns = [[repr(q[d]) if d in q else "" for d in offsets] for q in quotes]
        columns.insert(min(blank_at, len(columns)), [""] * len(offsets))
        header = ",".join(["Date", *(f"T{i}" for i in range(len(columns)))])
        rows = [
            ",".join([date.fromordinal(BASE_DAY + d).isoformat(), *cells])
            for d, cells in zip(offsets, zip(*columns))
        ]
        members = parse_wide_csv("\n".join([header, *rows]))
        assert sum(not s.dates.size for s in members) == 1
        with pytest.raises(PortlabError):
            align_panel(members, policy)


DAY_ST = st.integers(0, 40).map(lambda d: date.fromordinal(BASE_DAY + d).isoformat())
BAD_DATES = ["20200102", "2020-01-02T05", " 2020-01-02", "2020-01-02 ", "2020-W01-1", "", "x"]
ODD_CLOSES = ["1_000", "5#x", "inf", "nan", "", "0", "-1", " 7 ", "8\x00", "9\x85", "\u20281", "1\r2", '"3"']
# the last row is one row to csv.reader, two to str.splitlines
ODD_ROWS = ["", " ", ",", ",,", "\x85", '"2021-01-05",5', '2021-01-06,"4"', "2021-01-07,1\x852021-01-08,2"]


@st.composite
def table_texts(draw, headers):
    """A CSV text of mostly canonical rows with a few of the hazards the block
    split must decline or read exactly as the row loop does."""
    header = draw(st.sampled_from(headers))
    fields = header.split(",")
    closes = st.one_of(closes_st.map(repr), cells_st, st.sampled_from(ODD_CLOSES))

    def cell(field):
        if field != "Date":
            return draw(closes)
        return draw(st.sampled_from(BAD_DATES) if draw(st.integers(0, 19)) == 0 else DAY_ST)

    def row():
        cells = [cell(field) for field in fields]
        hazard = draw(st.sampled_from([None] * 10 + ["odd", "arity"]))
        if hazard == "odd":  # blank, whitespace-only, comma-only or quoted
            return draw(st.sampled_from(ODD_ROWS))
        if hazard == "arity":  # one field too many or too few; two such rows can balance in total
            return ",".join(cells + ["5"] if draw(st.booleans()) else cells[:-1])
        return ",".join(cells)

    rows = [row() for _ in range(draw(st.integers(0, 8)))]
    newline = draw(st.sampled_from(["\n"] * 10 + ["\r\n", "\r"]))
    text = newline.join([header, *rows]) + (newline if draw(st.booleans()) else "")
    return ("\ufeff" if draw(st.booleans()) else "") + text


def outcome(parse):
    """The parsed series as (ticker, date bits, close bits), or the error's type and text."""
    try:
        result = parse()
    except Exception as error:  # the two readers must fail alike, whatever the error
        return type(error), str(error)
    members = result if isinstance(result, list) else [result]
    return [(s.ticker, s.dates.tobytes(), s.closes.tobytes()) for s in members]


class TestBlockSplit:
    @settings(deadline=None, max_examples=1000)
    @given(text=table_texts(["Date,Close", "Close,Date", "Date,Open,Close"]))
    def test_price_csv_matches_row_loop(self, text):
        parse = partial(parse_price_csv, text, "A")
        with mock.patch.object(market_data, "_read_clean", return_value=None):
            expected = outcome(parse)
        assert outcome(parse) == expected

    @settings(deadline=None, max_examples=1000)
    @given(
        text=table_texts(["Date,T0", "Date,T0,T1,T2"]),
        tickers=st.sampled_from([None, ["T0"], ["T2", "T0"]]),
    )
    def test_wide_csv_matches_row_loop(self, text, tickers):
        parse = partial(parse_wide_csv, text, tickers)
        with mock.patch.object(market_data, "_read_clean", return_value=None):
            expected = outcome(parse)
        assert outcome(parse) == expected

    def test_files_portlab_writes_take_the_block_split(self, monkeypatch):
        def row_loop(*args):
            raise AssertionError("the row loop read a clean file")

        monkeypatch.setattr(market_data, "_read_rows", row_loop)
        tickers = ["A", "B", "C"]
        days = weekday_range(date(2020, 1, 1), date(2020, 6, 30))
        panel = PricePanel(*synthetic_panel(tickers, days, seed=5))
        for ticker in tickers:
            original = panel.series(ticker)
            parsed = parse_price_csv(original.to_csv(), ticker)
            assert np.array_equal(parsed.dates, original.dates)
            assert np.array_equal(parsed.closes, original.closes)

        # the wide layout of the benchmark's universe: repr closes, blank cells, a final line feed;
        # 600 tickers put the rows in two blocks, with blanks in both and in the very last cell
        wide = PricePanel(*synthetic_panel([f"W{i}" for i in range(600)], days, seed=6))
        assert len(wide.dates) > (1 << 16) // (len(wide.tickers) + 1)
        last = len(panel.dates) - 1
        for members, blanks in [
            (panel, [(0, 1), (3, 0), (3, 1), (3, 2), (7, 2), (last, 2)]),
            (wide, [(0, 5), (40, 0), (108, 599), (109, 0), (110, 300), (last, 598), (last, 599)]),
        ]:
            cells = [[repr(v) for v in row] for row in members.closes.tolist()]
            for row, col in blanks:
                cells[row][col] = ""
            lines = ["Date," + ",".join(members.tickers)]
            lines.extend(f"{d},{','.join(r)}" for d, r in zip(members.dates, cells))
            for col, parsed in enumerate(parse_wide_csv("\n".join(lines) + "\n")):
                kept = [row for row in range(len(cells)) if (row, col) not in blanks]
                assert np.array_equal(parsed.dates, members.dates[kept])
                assert parsed.closes.tolist() == members.closes[kept, col].tolist()


BLOCK_ROWS = (1 << 16) // 2  # rows in one block of a Date,Close text


def past_one_block(*late_rows, last_close=None):
    """A Date,Close text of one block of canonical rows, then ``late_rows``;
    ``last_close`` replaces the close of the block's last row."""
    days = [date.fromordinal(BASE_DAY - BLOCK_ROWS + i).isoformat() for i in range(BLOCK_ROWS)]
    rows = [f"{d},{i % 97 + 1}.25" for i, d in enumerate(days)]
    if last_close is not None:
        rows[-1] = f"{days[-1]},{last_close}"
    return "\n".join(["Date,Close", *rows, *late_rows, ""])


class TestBlockSplitHazards:
    """Texts the differential properties never draw, each read by both readers."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            # a comma too many and one too few balance in the second block's total, and the cells
            # still alternate date and close
            pytest.param(
                past_one_block("2021-01-01,1.5,2021-01-04", "7"),
                (MalformedCsv, f"A: row {BLOCK_ROWS + 2} has 3 fields, header has 2"),
                id="balanced-arity",
            ),
            pytest.param(
                past_one_block("2021-01-01," + "9" * (131_072 + 1)),
                (MalformedCsv, f"A: line {BLOCK_ROWS + 2}: field larger than field limit (131072)"),
                id="field-over-limit",
            ),
            # a str source may hold a lone surrogate, which str.encode() rejects
            pytest.param("Date,Close\n2021-01-01,1\ud800\n2021-01-04,2\n", [2.0], id="lone-surrogate"),
            # float() reads full-width digits; 50,000 of them are under the limit in characters only
            pytest.param("Date,Close\n2021-01-01,１２３.５\n2021-01-04,2\n", [123.5, 2.0], id="full-width-digits"),
            pytest.param("Date,Close\n2021-01-01," + "１" * 50_000 + "\n2021-01-04,2\n", [2.0], id="wide-in-bytes"),
        ],
    )
    def test_price_csv_matches_row_loop(self, text, expected):
        parse = partial(parse_price_csv, text, "A")
        with mock.patch.object(market_data, "_read_clean", return_value=None):
            loop = outcome(parse)
        assert outcome(parse) == loop
        if isinstance(expected, tuple):  # the error's type and text
            assert loop == expected
        else:  # the closes kept
            [(_, _, closes)] = loop
            assert np.frombuffer(closes).tolist() == expected

    # blank cells, found by their width in bytes: each text is read by both readers, and one the
    # block split must read alone (closes kept per series) is read with the row loop switched off
    @pytest.mark.parametrize(
        "parse, text, expected",
        [
            pytest.param(
                parse_wide_csv,
                "Date,A,B\n2021-01-01,1,2\n,3,4\n",
                (MalformedCsv, "row 3: bad date '' (want YYYY-MM-DD)"),
                id="blank-date",
            ),
            pytest.param(
                parse_wide_csv,
                "Date,A,B,C,D\n2021-01-01,1,,,\n2021-01-04,,,,5\n2021-01-05,6,,7,\n",
                [[1.0, 6.0], [], [7.0], [5.0]],
                id="run-of-blanks",
            ),
            pytest.param(
                partial(parse_price_csv, ticker="A"),
                past_one_block("2021-01-01,", "2021-01-04,2.5", last_close=""),
                [[*(i % 97 + 1.25 for i in range(BLOCK_ROWS - 1)), 2.5]],
                id="blank-ends-block-and-opens-next",
            ),
            pytest.param(
                parse_wide_csv,
                "Date,A,B,C\n2021-01-01,１２３.５,,٣\n2021-01-04,,２,\n2021-01-05,1,,3\n",
                [[123.5, 1.0], [2.0], [3.0, 3.0]],
                id="blank-beside-multi-byte",
            ),
            pytest.param(
                parse_wide_csv,
                "Date,A,B\n2021-01-01, ,1\n2021-01-04,2,\t\n2021-01-05,,3\n",
                [[2.0], [1.0, 3.0]],
                id="whitespace-only-cell",
            ),
        ],
    )
    def test_blank_cells_match_row_loop(self, parse, text, expected):
        with mock.patch.object(market_data, "_read_clean", return_value=None):
            loop = outcome(partial(parse, text))
        if isinstance(expected, tuple):
            assert loop == expected
            assert outcome(partial(parse, text)) == loop
            return
        assert [np.frombuffer(closes).tolist() for _, _, closes in loop] == expected
        with mock.patch.object(market_data, "_read_rows", side_effect=AssertionError("row loop")):
            assert outcome(partial(parse, text)) == loop


FINITE_ST = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
)


class TestDatedCsv:
    @settings(deadline=None)
    @given(days=st.lists(st.dates(), unique=True).map(sorted), data=st.data())  # 0001-01-01..9999-12-31
    def test_series_writers_equal_csv_writer(self, days, data):
        values = data.draw(st.lists(FINITE_ST, min_size=len(days), max_size=len(days)))
        # a returns_*.csv is one column of a period's ReturnsMatrix, a strided view
        matrix = ReturnsMatrix(("A", "B"), tuple(days), np.column_stack([np.zeros(len(days)), values]))
        returns = _dated_csv_text(("date", "return"), matrix.dates, matrix.values[:, 1])
        assert returns == _csv_text(("date", "return"), zip(days, values))
        closes = [abs(v) or 5e-324 for v in values]
        prices = PriceSeries("A", dates=days, closes=closes)
        assert prices.to_csv() == _csv_text(("Date", "Close"), zip(days, closes))

    def test_empty_series_is_the_header_line(self):
        assert _dated_csv_text(("date", "return"), np.empty(0, "datetime64[D]"), np.empty(0)) == "date,return\n"
        assert PriceSeries("A", dates=[], closes=[]).to_csv() == "Date,Close\n"
