import json
import math
import re
from datetime import date

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PUBLISHED_TABLES, cell_reprs, make_panel, panel_from_returns, published_report
from portlab.backtest import (
    PeriodPerformance,
    evaluate,
    format_report_table,
    portfolio_daily_returns,
    report_from_json,
    report_to_csv,
    report_to_json,
    summarize,
    summary_to_csv,
    summary_to_json,
)
from portlab.errors import TickerMismatch
from portlab.market_data import PeriodSpec, slice_period
from portlab.portfolio import PortfolioWeights
from portlab.returns_stats import ReturnsMatrix, daily_returns, sample_covariance, sharpe_ratio


def weights_of(values, tickers, method="HRP"):
    return PortfolioWeights(
        tickers=tuple(tickers),
        weights=np.asarray(values, dtype=float),
        method=method,
    )


class TestPortfolioDailyReturns:
    def test_equal_weights_cancel(self):
        returns = daily_returns(panel_from_returns([[0.02, -0.02]], tickers=("A", "B")))
        series = portfolio_daily_returns(weights_of([0.5, 0.5], ("A", "B")), returns)
        assert series == pytest.approx([0.0], abs=1e-15)

    def test_full_weight_tracks_single_asset(self, rng):
        target = rng.normal(0, 0.01, size=(30, 2))
        returns = daily_returns(panel_from_returns(target, tickers=("A", "B")))
        series = portfolio_daily_returns(
            weights_of([1.0, 0.0], ("A", "B"), method="EIGEN"), returns
        )
        assert series == pytest.approx(returns.values[:, 0], abs=1e-15)

    def test_equal_asset_returns_pass_through(self):
        returns = daily_returns(panel_from_returns([[0.01, 0.01]], tickers=("A", "B")))
        series = portfolio_daily_returns(weights_of([0.8, 0.2], ("A", "B")), returns)
        assert series == pytest.approx([0.01])

    def test_weight_tickers_aligned_by_name(self, rng):
        target = rng.normal(0, 0.01, size=(20, 3))
        returns = daily_returns(panel_from_returns(target, tickers=("A", "B", "C")))
        flipped = portfolio_daily_returns(
            weights_of([0.2, 0.3, 0.5], ("C", "B", "A"), method="EIGEN"), returns
        )
        direct = portfolio_daily_returns(
            weights_of([0.5, 0.3, 0.2], ("A", "B", "C"), method="EIGEN"), returns
        )
        assert flipped == pytest.approx(direct, abs=1e-15)

    @pytest.fixture
    def wide(self, rng):
        """40 assets and sum-normalized weights with shorts, gross leverage about 30."""
        tickers = tuple(f"T{i:02d}" for i in range(40))
        returns = daily_returns(panel_from_returns(rng.normal(0.0005, 0.02, (250, 40)), tickers=tickers))
        raw = rng.normal(0.0, 1.0, 40)
        return returns, weights_of(raw / raw.sum(), tickers, method="EIGEN")

    def test_weight_order_changes_no_bit(self, wide):
        returns, weights = wide
        reversed_order = weights_of(weights.weights[::-1], weights.tickers[::-1], method="EIGEN")
        assert np.array_equal(
            portfolio_daily_returns(reversed_order, returns), portfolio_daily_returns(weights, returns)
        )

    def test_aligned_weights_score_as_the_plain_product(self, wide):
        # the eigen candidates are scored with this product; the report must agree bit for bit
        returns, weights = wide
        assert np.array_equal(portfolio_daily_returns(weights, returns), returns.values @ weights.weights)

    def test_ticker_mismatch(self, rng):
        returns = daily_returns(panel_from_returns(rng.normal(0, 0.01, (10, 2)), tickers=("A", "B")))
        with pytest.raises(TickerMismatch, match=r"^weights reference tickers not in returns: \['Z', 'Y'\]$"):
            portfolio_daily_returns(weights_of([0.2, 0.3, 0.5], ("Z", "A", "Y")), returns)

    def test_linear_in_weights(self, rng):
        target = rng.normal(0, 0.01, size=(25, 4))
        tickers = ("A", "B", "C", "D")
        returns = daily_returns(panel_from_returns(target, tickers=tickers))
        w1 = np.array([0.4, 0.3, 0.2, 0.1])
        w2 = np.array([0.1, 0.2, 0.3, 0.4])
        alpha = 0.37
        blend = weights_of(alpha * w1 + (1 - alpha) * w2, tickers, method="EIGEN")
        series_blend = portfolio_daily_returns(blend, returns)
        series_mix = alpha * portfolio_daily_returns(
            weights_of(w1, tickers, "EIGEN"), returns
        ) + (1 - alpha) * portfolio_daily_returns(weights_of(w2, tickers, "EIGEN"), returns)
        assert np.abs(series_blend - series_mix).max() < 1e-12


def split_panels(rng, n_assets=4, n_train=60, n_test=25):
    total = rng.normal(0.0004, 0.012, size=(n_train + n_test, n_assets))
    panel = panel_from_returns(total, start=date(2020, 1, 1))
    train_end = panel.dates[n_train]
    train = slice_period(panel, PeriodSpec("train", panel.dates[0], train_end))
    test = slice_period(
        panel, PeriodSpec("test", train_end + np.timedelta64(1, "D"), panel.dates[-1])
    )
    return train, test


class TestEvaluate:
    def test_single_asset_weight_reproduces_asset_volatility(self, rng):
        train, test = split_panels(rng)
        weights = weights_of([1.0, 0.0, 0.0, 0.0], train.tickers, method="EIGEN")
        report, _ = evaluate({"EIGEN": weights}, train, test, sector="demo")
        asset_metrics = sharpe_ratio(daily_returns(train).values[:, 0])
        assert report.cell("EIGEN", "train").annual_volatility == pytest.approx(
            asset_metrics.annual_volatility, rel=1e-12
        )

    def test_identical_weights_identical_cells(self, rng):
        train, test = split_panels(rng)
        w = weights_of([0.25] * 4, train.tickers)
        w2 = weights_of([0.25] * 4, train.tickers, method="EIGEN")
        report, _ = evaluate({"HRP": w, "EIGEN": w2}, train, test)
        assert report.cell("HRP", "train") == report.cell("EIGEN", "train")
        assert report.cell("HRP", "test") == report.cell("EIGEN", "test")

    def test_no_methods_rejected_by_name(self, rng):
        train, test = split_panels(rng)
        with pytest.raises(ValueError, match="^weights_by_method is empty"):
            evaluate({}, train, test)

    def test_series_lengths_match_periods(self, rng):
        train, test = split_panels(rng)
        weights = {
            "HRP": weights_of([0.25] * 4, train.tickers),
            "EIGEN": weights_of([0.7, -0.2, 0.3, 0.2], train.tickers, method="EIGEN"),
        }
        report, paths = evaluate(weights, train, test, risk_free=0.01)
        assert set(paths) == {"train", "test"}
        for label, panel in (("train", train), ("test", test)):
            returns = daily_returns(panel)
            series = paths[label]
            assert isinstance(series, ReturnsMatrix)
            assert series.tickers == ("EIGEN", "HRP")
            assert np.array_equal(series.dates, returns.dates)
            assert series.values.shape == (len(panel.dates) - 1, 2)
            for j, method in enumerate(series.tickers):
                column = series.values[:, j]
                assert column.tobytes() == portfolio_daily_returns(weights[method], returns).tobytes()
                metrics = sharpe_ratio(column, 0.01)
                cell = report.cell(method, label)
                assert (cell.annual_volatility, cell.sharpe_ratio) == (metrics.annual_volatility, metrics.sharpe_ratio)

    def test_volatility_consistent_with_quadratic_form(self, rng):
        train, test = split_panels(rng)
        w = np.array([0.4, 0.1, 0.3, 0.2])
        report, _ = evaluate({"HRP": weights_of(w, train.tickers)}, train, test)
        for label, panel in (("train", train), ("test", test)):
            cov = sample_covariance(daily_returns(panel)).values
            matrix_vol = math.sqrt(float(w @ cov @ w)) * math.sqrt(250)
            assert report.cell("HRP", label).annual_volatility == pytest.approx(
                matrix_vol, rel=1e-9
            )

    def test_metadata_records_conventions(self, rng):
        train, test = split_panels(rng)
        report, _ = evaluate(
            {"HRP": weights_of([0.25] * 4, train.tickers)},
            train,
            test,
            risk_free=0.03,
            sector="demo",
            extra_metadata={"config_hash": "abc123"},
        )
        assert report.metadata["risk_free_rate"] == 0.03
        assert report.metadata["trading_days_per_year"] == 250
        assert report.metadata["config_hash"] == "abc123"
        assert report.metadata["periods"]["train"]["start"] == train.dates[0].item().isoformat()


class TestPeriodPerformance:
    def test_finite_cells_kept_as_given(self):
        cell = PeriodPerformance(annual_volatility=0.2, sharpe_ratio=-1)
        assert (cell.annual_volatility, cell.sharpe_ratio) == (0.2, -1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1.0", None])
    @pytest.mark.parametrize("field", ["annual_volatility", "sharpe_ratio"])
    def test_rejects_what_is_no_finite_number(self, field, bad):
        # report_to_json writes any cell it is given, so the cell is checked where it is made
        cells = {"annual_volatility": 0.2, "sharpe_ratio": 0.5, field: bad}
        with pytest.raises(ValueError, match="not all finite numbers"):
            PeriodPerformance(**cells)


class TestSummarize:
    def test_published_tables_winner_counts(self):
        reports = [published_report(sector) for sector in PUBLISHED_TABLES]
        summary = summarize(reports)
        assert summary.counts["train"] == {"HRP": 4, "EIGEN": 3}
        assert summary.counts["test"] == {"HRP": 5, "EIGEN": 2}
        assert summary.winners["auto"] == {"train": "HRP", "test": "EIGEN"}
        assert summary.winners["healthcare"] == {"train": "HRP", "test": "HRP"}
        assert summary.winners["nifty50"] == {"train": "EIGEN", "test": "HRP"}

    def test_single_report_double_winner(self, rng):
        train, test = split_panels(rng)
        strong = weights_of([0.7, 0.1, 0.1, 0.1], train.tickers)
        weak = weights_of([0.1, 0.1, 0.1, 0.7], train.tickers, method="EIGEN")
        report, _ = evaluate({"HRP": strong, "EIGEN": weak}, train, test, sector="solo")
        summary = summarize([report])
        hrp_better_train = (
            report.cell("HRP", "train").sharpe_ratio > report.cell("EIGEN", "train").sharpe_ratio
        )
        expected = "HRP" if hrp_better_train else "EIGEN"
        assert summary.winners["solo"]["train"] == expected

    def test_exact_tie_reported(self, rng):
        train, test = split_panels(rng)
        w = weights_of([0.25] * 4, train.tickers)
        w2 = weights_of([0.25] * 4, train.tickers, method="EIGEN")
        report, _ = evaluate({"HRP": w, "EIGEN": w2}, train, test, sector="tied")
        summary = summarize([report])
        assert summary.winners["tied"] == {"train": "TIE", "test": "TIE"}
        assert summary.counts["train"]["TIE"] == 1

    def test_requires_reports(self):
        with pytest.raises(ValueError):
            summarize([])


def published_json(**changes):
    """The published "auto" report as JSON text, each key given None removed and every other one set."""
    payload = json.loads(report_to_json(published_report("auto")))
    payload.update(changes)
    return json.dumps({key: value for key, value in payload.items() if value is not None})


class TestSerialization:
    def test_published_report_round_trips_bit_exact(self):
        report = published_report("auto")
        rebuilt = report_from_json(report_to_json(report))
        for method in ("EIGEN", "HRP"):
            for period in ("train", "test"):
                assert rebuilt.cell(method, period) == report.cell(method, period)
        assert rebuilt.sector == "auto"
        assert rebuilt.metadata == report.metadata

    def test_full_precision_values_round_trip(self, rng):
        train, test = split_panels(rng)
        weights = {
            "HRP": weights_of([0.25] * 4, train.tickers),
            "EIGEN": weights_of([0.7, -0.2, 0.3, 0.2], train.tickers, method="EIGEN"),
        }
        report, _ = evaluate(weights, train, test, sector="x", extra_metadata={"config_hash": "abc"})
        rebuilt = report_from_json(report_to_json(report))
        # the report evaluate returns and the one read back are one shape, equal field by field
        assert rebuilt == report
        assert cell_reprs(rebuilt) == cell_reprs(report)

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("[]", "a report is an object", id="list"),
            pytest.param("{}", "a report is an object with a string sector", id="empty-object"),
            pytest.param('{"methods": []}', "a report is an object", id="methods-list"),
            pytest.param(published_json(sector=7), "a report is an object with a string sector", id="sector-number"),
            pytest.param(published_json(sector=None), "a report is an object with a string sector", id="no-sector"),
            pytest.param('{"sector": "x", "metadata": []}', "and a metadata object", id="metadata-list"),
            pytest.param('{"sector": "x", "methods": {"HRP": 5}}', "at least one method", id="method-number"),
            pytest.param(
                '{"sector": "x", "methods": {"HRP": {"train": 5, "test": []}}}', "is not an object", id="period-number"
            ),
            pytest.param(
                '{"sector": "x", "methods": {"HRP": {"train": {}, "test": {}}}}', "not all finite", id="no-cells"
            ),
            pytest.param("[" * 100_000, "nested too deep", id="nested-100000-deep"),
        ],
    )
    def test_text_that_is_no_report_raises_value_error(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            report_from_json(text)

    def test_report_csv_schema(self):
        text = report_to_csv(published_report("auto"))
        lines = text.strip().splitlines()
        assert lines[0] == "sector,method,period,annual_volatility,sharpe_ratio"
        assert lines[1].startswith("auto,EIGEN,test,")
        assert len(lines) == 5

    def test_summary_serialization(self):
        summary = summarize([published_report(s) for s in PUBLISHED_TABLES])
        assert '"HRP": 5' in summary_to_json(summary)
        csv_text = summary_to_csv(summary)
        assert csv_text.splitlines()[0] == "sector,winner_train,winner_test"
        assert "auto,HRP,EIGEN" in csv_text

    def test_format_table_six_decimals(self):
        table = format_report_table(published_report("auto"))
        assert "0.240137" in table and "0.620970" in table


class TestWeightsCsv:
    def test_round_trip_bit_exact(self, rng):
        raw = rng.uniform(0.01, 1.0, size=7)
        weights = weights_of(raw / raw.sum(), tuple(f"T{i}" for i in range(7)))
        from portlab.portfolio import weights_from_csv

        rebuilt = weights_from_csv(weights.to_csv(), "HRP")
        assert rebuilt.tickers == weights.tickers
        assert np.array_equal(rebuilt.weights, weights.weights)

    # tickers are free text; the reader strips a ticker's surrounding whitespace
    @given(
        st.lists(
            st.text(st.sampled_from(',"\n\r') | st.characters(), max_size=6)
            .filter(lambda t: t == t.strip()),
            min_size=1,
            max_size=5,
            unique=True,
        ),
        st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5),
    )
    def test_round_trip_quotes_any_ticker(self, tickers, raw):
        from portlab.portfolio import weights_from_csv

        raw = np.array(raw[: len(tickers)])
        weights = weights_of(raw / raw.sum(), tickers, method="EIGEN")
        rebuilt = weights_from_csv(weights.to_csv(), "EIGEN")
        assert rebuilt.tickers == weights.tickers
        assert np.array_equal(rebuilt.weights, weights.weights)

    def test_header_checked(self):
        from portlab.portfolio import weights_from_csv

        with pytest.raises(ValueError):
            weights_from_csv("symbol,value\nA,1.0\n", "HRP")

    def test_duplicate_ticker_rejected(self):
        from portlab.portfolio import weights_from_csv

        with pytest.raises(ValueError, match="duplicate"):
            weights_from_csv("ticker,weight\nA,0.5\nA,0.5\n", "EIGEN")

    @pytest.mark.parametrize(
        "row, message",
        [
            pytest.param("B,abc", "weights CSV row 3: weight 'abc' is not a number", id="non-numeric"),
            pytest.param(
                'B,"' + "9" * 200_000 + '"', "weights CSV row 3: field larger than field limit", id="long-field"
            ),
        ],
    )
    def test_bad_weight_row_named(self, row, message):
        from portlab.portfolio import weights_from_csv

        with pytest.raises(ValueError) as caught:
            weights_from_csv(f"ticker,weight\nA,0.5\n{row}\n", "EIGEN")
        assert str(caught.value).startswith(message)


class TestNoLookAhead:
    def test_perturbing_test_prices_keeps_weights(self, rng):
        from portlab.eigen import fit_pca, min_components_for_variance, select_best_eigen
        from portlab.hrp import build_hrp_portfolio
        from portlab.returns_stats import correlation, sample_covariance

        total = rng.normal(0.0003, 0.01, size=(120, 5))
        panel = panel_from_returns(total)
        split = panel.dates[90]
        train_spec = PeriodSpec("train", panel.dates[0], split)
        train = slice_period(panel, train_spec)

        def build(p):
            r = daily_returns(slice_period(p, train_spec))
            cov = sample_covariance(r)
            corr = correlation(cov)
            hrp = build_hrp_portfolio(cov, corr).weights
            model = fit_pca(corr)
            eig, _ = select_best_eigen(r, model, min_components_for_variance(model, 0.8))
            return hrp, eig

        base_hrp, base_eig = build(panel)
        perturbed = panel.closes.copy()
        test_rows = [i for i, d in enumerate(panel.dates) if d > split]
        perturbed[test_rows, :] *= rng.uniform(0.5, 2.0, size=(len(test_rows), 5))
        shaken = make_panel(perturbed, tickers=panel.tickers, start=panel.dates[0])
        new_hrp, new_eig = build(shaken)

        assert np.array_equal(base_hrp.weights, new_hrp.weights)
        assert np.array_equal(base_eig.weights, new_eig.weights)
        assert train.dates[-1] <= split
