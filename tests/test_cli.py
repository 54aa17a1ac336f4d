import copy
import csv
import hashlib
import json
import logging
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import portlab.cli
from conftest import output_tree, strict_json
from portlab import backtest as bt
from portlab import market_data
from portlab.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL, config_hash, main, run_experiment
from portlab.config import SETTINGS, load_config, validate_config
from portlab.errors import ConfigError
from portlab.market_data import PricePanel
from portlab.synthetic import main as synthetic_main
from portlab.synthetic import synthetic_panel, weekday_range, write_fixture

MINIMAL = {
    "sectors": [{"name": "alpha", "data": "ignored", "tickers": ["A", "B"]}],
    "train": {"start": "2016-01-01", "end": "2020-12-31"},
    "test": {"start": "2021-01-01", "end": "2021-11-01"},
}

PADDED = "sectors[0] (alpha).tickers: must be a list of ticker strings, none empty or with spaces around it"


def with_sector(**sector):
    return lambda raw: dict(raw, sectors=[{"name": "alpha", **sector}])


class TestValidateConfig:
    def test_minimal_config_defaults_applied(self):
        config = validate_config(MINIMAL)
        assert config.risk_free_rate == 0.0
        assert config.alignment == "intersection"
        assert config.as_dict()["hrp"]["distance"] == "sqrt_half"
        assert config.linkage_method == "ward"
        assert config.standardize is True
        assert config.variance_threshold == 0.8
        assert set(config.applied_defaults) == {
            "risk_free_rate",
            "alignment",
            "hrp.distance",
            "hrp.linkage",
            "eigen.standardize",
            "eigen.variance_threshold",
            "output_dir",
        }

    def test_threshold_out_of_range_names_field(self):
        raw = dict(MINIMAL, eigen={"variance_threshold": 1.5})
        with pytest.raises(ConfigError) as caught:
            validate_config(raw)
        assert any("eigen.variance_threshold" in p for p in caught.value.problems)

    def test_unknown_key_is_warning_not_error(self):
        config = validate_config(dict(MINIMAL, plotting={"style": "dark"}))
        assert any("plotting" in w for w in config.warnings)

    def test_overlapping_periods_rejected(self):
        raw = dict(MINIMAL, test={"start": "2020-06-01", "end": "2021-11-01"})
        with pytest.raises(ConfigError) as caught:
            validate_config(raw)
        assert any("overlap" in p for p in caught.value.problems)

    def test_problems_aggregated(self):
        raw = {
            "sectors": [{"name": "a", "data": "d", "tickers": ["X"]}],
            "train": {"start": "2016-01-01", "end": "2015-01-01"},
            "test": {"start": "2021-01-01", "end": "2021-11-01"},
            "alignment": "middle_out",
        }
        with pytest.raises(ConfigError) as caught:
            validate_config(raw)
        assert len(caught.value.problems) >= 3

    def test_sector_needs_two_tickers(self):
        for tickers in (["A"], []):
            raw = dict(MINIMAL, sectors=[{"name": "solo", "data": "d", "tickers": tickers}])
            with pytest.raises(ConfigError) as caught:
                validate_config(raw)
            assert caught.value.problems == ["sectors[0] (solo).tickers: a sector needs at least 2 tickers"]
        # a wide sector's empty list means every column of its file
        wide = dict(MINIMAL, sectors=[{"name": "w", "data": "d", "tickers": [], "format": "wide"}])
        assert validate_config(wide).sectors[0].tickers == ()

    def test_duplicate_sector_names(self):
        raw = dict(
            MINIMAL,
            sectors=[
                {"name": "a", "data": "d1", "tickers": ["A", "B"]},
                {"name": "a", "data": "d2", "tickers": ["C", "D"]},
            ],
        )
        with pytest.raises(ConfigError):
            validate_config(raw)

    # the name is a directory beside the root files, and the writer's temp files begin with '.'
    @pytest.mark.parametrize(
        "name", [".", "..", "../escape", "/tmp/x", "a/b", "a\\b", "a\0b", "summary.json", "errors.json", ".hidden"]
    )
    def test_sector_name_is_one_path_component(self, name):
        raw = dict(MINIMAL, sectors=[{"name": name, "data": "d", "tickers": ["A", "B"]}])
        with pytest.raises(ConfigError) as caught:
            validate_config(raw)
        assert len(caught.value.problems) == 1
        assert caught.value.problems[0].startswith(f"sectors[0] ({name}).name: ")

    @pytest.mark.parametrize(
        "change, problem",
        [
            pytest.param(lambda raw: [raw], "config root must be a JSON object", id="root-not-object"),
            pytest.param(lambda raw: dict(raw, sectors=["alpha"]), "sectors[0]: expected an object", id="sector-list"),
            pytest.param(
                with_sector(tickers=["A", "B"]), "sectors[0] (alpha).data: required string path", id="no-data"
            ),
            pytest.param(
                with_sector(data="d"), "sectors[0] (alpha).tickers: required for per_ticker format", id="no-tickers"
            ),
            pytest.param(
                with_sector(data="d", tickers=["A", "B", "A"]),
                "sectors[0] (alpha).tickers: duplicates present",
                id="duplicate-tickers",
            ),
            # weights_from_csv and a wide file's header strip the names, so " A" could never be matched
            *(
                pytest.param(with_sector(data="d", tickers=[ticker, "B"]), PADDED, id=f"ticker-{label}")
                for label, ticker in (("leading-space", " A"), ("trailing-tab", "A\t"), ("empty", ""))
            ),
            pytest.param(lambda raw: dict(raw, hrp="ward"), "hrp: expected an object", id="hrp-not-object"),
            pytest.param(lambda raw: dict(raw, eigen=[0.8]), "eigen: expected an object", id="eigen-not-object"),
        ],
    )
    def test_rule_problem(self, change, problem):
        with pytest.raises(ConfigError) as caught:
            validate_config(change(copy.deepcopy(MINIMAL)))
        assert caught.value.problems == [problem]

    @pytest.mark.parametrize("distance", ["euclidean_returns", "manhattan"])
    def test_distance_other_than_sqrt_half_rejected(self, distance):
        with pytest.raises(ConfigError) as caught:
            validate_config(dict(MINIMAL, hrp={"distance": distance}))
        assert caught.value.problems == ["hrp.distance: must be 'sqrt_half'"]


# the JSON type each setting takes; a value of any other type must be rejected
SETTING_KINDS = {
    "risk_free_rate": "number",
    "alignment": "choice",
    "hrp.distance": "choice",
    "hrp.linkage": "choice",
    "eigen.standardize": "bool",
    "eigen.variance_threshold": "number",
    "output_dir": "string",
}


def with_setting(raw, key, value):
    raw = copy.deepcopy(raw)
    section, _, short = key.rpartition(".")
    (raw.setdefault(section, {}) if section else raw)[short] = value
    return raw


def wrong_values(kind):
    always = [st.none(), st.lists(st.integers(), max_size=2), st.just(math.nan), st.just(10**400)]
    if kind == "number":
        return st.one_of(*always, st.text(), st.booleans(), st.just(-(10**400)))
    if kind == "bool":
        return st.one_of(*always, st.text(), st.integers(), st.floats())
    return st.one_of(*always, st.booleans(), st.integers(), st.floats())


class TestSettingsTable:
    @pytest.mark.parametrize("key", list(SETTINGS))
    def test_missing_setting_takes_its_default(self, key):
        raw = copy.deepcopy(MINIMAL)
        for other, setting in SETTINGS.items():
            if other != key:
                raw = with_setting(raw, other, setting.default)
        config = validate_config(raw)
        assert config.applied_defaults == (key,)
        section, _, short = key.rpartition(".")
        resolved = config.as_dict()
        assert (resolved[section] if section else resolved)[short] == SETTINGS[key].default

    @pytest.mark.parametrize("key", list(SETTINGS))
    @given(data=st.data())
    def test_wrong_typed_value_is_one_problem(self, key, data):
        value = data.draw(wrong_values(SETTING_KINDS[key]))
        with pytest.raises(ConfigError) as caught:
            validate_config(with_setting(MINIMAL, key, value))
        assert len(caught.value.problems) == 1
        assert caught.value.problems[0].startswith(f"{key}: ")

    def test_config_hash_pinned(self):
        # the data path is left out: a report's input_sha256 covers the input's bytes
        moved = dict(MINIMAL, sectors=[{**MINIMAL["sectors"][0], "data": "elsewhere"}])
        assert config_hash(validate_config(MINIMAL)) == config_hash(validate_config(moved)) == "3dfbc8fa6631d203"

    def test_readme_example_is_complete_and_valid(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        example = section.split("```json\n", 1)[1].split("\n```", 1)[0]
        config = validate_config(json.loads(example))
        assert config.warnings == () and config.applied_defaults == ()
        for key, setting in SETTINGS.items():
            documented = [line for line in section.splitlines() if line.startswith(f"- `{key}`")]
            assert len(documented) == 1 and f"`{json.dumps(setting.default)}`" in documented[0]


def test_readme_library_example_prints_a_report(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("\n## Library use\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    days = weekday_range(date(2016, 1, 1), date(2021, 11, 1))
    auto = tmp_path / "data" / "auto"
    auto.mkdir(parents=True)
    for series in PricePanel(*synthetic_panel(["A1", "A2", "A3", "A4"], days, seed=1)):
        (auto / f"{series.ticker}.csv").write_text(series.to_csv())
    wide = synthetic_panel(["W1", "W2", "W3"], days, seed=2)
    rows = ([day, *closes] for day, closes in zip(wide.dates, wide.closes.tolist()))
    (tmp_path / "data" / "it_wide.csv").write_text(market_data._csv_text(("Date", *wide.tickers), rows))
    monkeypatch.chdir(tmp_path)
    exec(example, {})  # the block imports all it uses
    report = bt.report_from_json(capsys.readouterr().out)
    assert report.sector == "auto" and set(report.methods) == {"EIGEN", "HRP"}


@pytest.fixture
def fixture_config(tmp_path):
    return write_fixture(tmp_path, n_sectors=2, tickers_per_sector=6, seed=11)


def artifact_names(sector_dir):
    return sorted(p.name for p in sector_dir.iterdir())


def assert_csv_rows_fit_header(root):
    """Every CSV under ``root`` parses into data rows as wide as its header."""
    paths = sorted(root.rglob("*.csv"))
    assert paths
    for path in paths:
        with path.open(newline="", encoding="utf-8") as handle:
            header, *rows = csv.reader(handle)
        assert rows and all(len(row) == len(header) for row in rows), path


class TestRunExperiment:
    def test_two_sector_fixture_produces_all_artifacts(self, fixture_config, tmp_path):
        config = load_config(fixture_config)
        status, results = run_experiment(config)
        assert status == EXIT_OK
        assert all(r.failure is None for r in results)
        out = tmp_path / "out"
        assert (out / "summary.json").exists()
        expected = [
            "dendrogram.json",
            "eigen_candidates.csv",
            "report.json",
            "returns_eigen_test.csv",
            "returns_eigen_train.csv",
            "returns_hrp_test.csv",
            "returns_hrp_train.csv",
            "seriation.csv",
            "weights_eigen.csv",
            "weights_hrp.csv",
        ]
        for sector in ("sector1", "sector2"):
            assert artifact_names(out / sector) == expected
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["winners"]) == {"sector1", "sector2"}

    def test_any_format_but_csv_writes_the_json_tree(self, fixture_config, tmp_path):
        config = load_config(fixture_config)
        run_experiment(replace(config, output_dir=str(tmp_path / "json")))
        status, _ = run_experiment(replace(config, output_dir=str(tmp_path / "xml")), fmt="xml")
        assert status == EXIT_OK
        assert output_tree(tmp_path / "xml") == output_tree(tmp_path / "json")

    @pytest.mark.parametrize("train_end, warnings", [("2016-01-06", 1), ("2016-01-07", 0)])
    def test_rank_deficiency_warned_up_to_one_return_per_asset(self, tmp_path, caplog, train_end, warnings):
        # 2016-01-01..06 holds 4 weekdays, so 3 returns: centered, they span at most 2 of the 3 assets' dimensions
        config_path = write_fixture(tmp_path, n_sectors=1, tickers_per_sector=3)
        raw = json.loads(config_path.read_text(encoding="utf-8"))
        raw["train"]["end"] = train_end
        config_path.write_text(json.dumps(raw), encoding="utf-8")
        main(["run", "--config", str(config_path)])
        messages = [r.getMessage() for r in caplog.records if r.name == "portlab.cli"]
        assert messages == ["3 observations for 3 assets; covariance is rank-deficient"] * warnings

    def test_eigen_candidates_score_the_exported_pick(self, tmp_path):
        assert main(["run", "--config", str(write_fixture(tmp_path))]) == EXIT_OK
        for sector_dir in sorted((tmp_path / "out").glob("sector*")):
            with (sector_dir / "eigen_candidates.csv").open(newline="", encoding="utf-8") as handle:
                header, pick, *_ = csv.reader(handle)
            assert header == ["component_index", "in_sample_sharpe", "gross_leverage", "train_annual_volatility"]
            train = json.loads((sector_dir / "report.json").read_text(encoding="utf-8"))["methods"]["EIGEN"]["train"]
            with (sector_dir / "weights_eigen.csv").open(newline="", encoding="utf-8") as handle:
                weights = [float(row[1]) for row in list(csv.reader(handle))[1:]]
            assert float(pick[1]) == train["sharpe_ratio"]
            assert float(pick[2]) == float(np.abs(weights).sum())
            assert float(pick[3]) == train["annual_volatility"]

    def test_rerun_is_byte_identical(self, fixture_config, tmp_path):
        config = load_config(fixture_config)
        run_experiment(config)
        first = output_tree(tmp_path / "out")
        run_experiment(config)
        assert output_tree(tmp_path / "out") == first

    def test_failing_sector_isolated(self, fixture_config, tmp_path):
        (tmp_path / "data" / "sector1" / "S1A.csv").unlink()
        config = load_config(fixture_config)
        status, results = run_experiment(config)
        assert status == EXIT_PARTIAL
        failed = {r.sector: r for r in results}
        assert failed["sector1"].failure is not None
        assert failed["sector1"].failure.stage == "ingest"
        assert failed["sector2"].report is not None
        assert (tmp_path / "out" / "sector2" / "report.json").exists()
        errors = json.loads((tmp_path / "out" / "errors.json").read_text())
        assert errors[0]["sector"] == "sector1"
        assert errors[0]["cause"]

    def test_sector_filter(self, fixture_config, tmp_path):
        config = load_config(fixture_config)
        status, results = run_experiment(config, sector_filter="sector2")
        assert status == EXIT_OK
        assert [r.sector for r in results] == ["sector2"]
        assert not (tmp_path / "out" / "sector1").exists()

    def test_filtered_run_summarizes_the_tree(self, tmp_path):
        config = load_config(write_fixture(tmp_path, n_sectors=3, tickers_per_sector=4, seed=5))
        summary = tmp_path / "out" / "summary.json"
        run_experiment(config)
        full = summary.read_bytes()
        assert run_experiment(config, sector_filter="sector2")[0] == EXIT_OK
        assert summary.read_bytes() == full
        assert sorted(json.loads(full)["winners"]) == ["sector1", "sector2", "sector3"]
        for damaged in ("[]", "{"):  # a report.json that is no report is left out, not a traceback
            (tmp_path / "out" / "sector3" / "report.json").write_text(damaged)
            assert run_experiment(config, sector_filter="sector2")[0] == EXIT_OK
            assert list(json.loads(summary.read_text())["winners"]) == ["sector1", "sector2"]
        # the other sectors' reports hold the old config_hash, so they drop out
        assert run_experiment(replace(config, risk_free_rate=0.05), sector_filter="sector2")[0] == EXIT_OK
        assert list(json.loads(summary.read_text())["winners"]) == ["sector2"]
        assert (tmp_path / "out" / "sector1" / "report.json").exists()

    def test_filtered_run_leaves_out_a_report_of_other_data(self, tmp_path):
        # sector2's files are rewritten at the same paths after a full run, so its report is of other
        # data: a run of sector1 alone leaves it out, and a fresh run finds another train winner
        config = str(write_fixture(tmp_path, n_sectors=2, tickers_per_sector=4))
        data, summary = tmp_path / "data" / "sector2", tmp_path / "out" / "summary.json"
        assert main(["run", "--config", config]) == EXIT_OK
        assert json.loads(summary.read_text())["winners"]["sector2"]["train"] == "HRP"
        tickers = sorted(path.stem for path in data.glob("*.csv"))
        panel = PricePanel(*synthetic_panel(tickers, weekday_range(date(2016, 1, 1), date(2021, 11, 1)), seed=99))
        for series in panel:
            (data / f"{series.ticker}.csv").write_text(series.to_csv())
        assert main(["run", "--config", config, "--sector", "sector1"]) == EXIT_OK
        assert list(json.loads(summary.read_text())["winners"]) == ["sector1"]
        assert main(["run", "--config", config]) == EXIT_OK
        assert json.loads(summary.read_text())["winners"]["sector2"]["train"] == "EIGEN"
        (data / f"{tickers[0]}.csv").unlink()  # a missing input file leaves its sector's report out too
        assert main(["run", "--config", config, "--sector", "sector1"]) == EXIT_OK
        assert list(json.loads(summary.read_text())["winners"]) == ["sector1"]

    def test_filtered_run_keeps_the_reports_of_moved_data(self, tmp_path):
        # the report's input_sha256 covers each file's base name, length and bytes, not where it is
        config = write_fixture(tmp_path, n_sectors=2, tickers_per_sector=4)
        summary = tmp_path / "out" / "summary.json"
        assert main(["run", "--config", str(config)]) == EXIT_OK
        full = summary.read_bytes()
        raw = json.loads(config.read_text())
        digest = hashlib.sha256()
        for ticker in raw["sectors"][1]["tickers"]:
            data = (tmp_path / "data" / "sector2" / f"{ticker}.csv").read_bytes()
            digest.update(f"{ticker}.csv".encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        report = json.loads((tmp_path / "out" / "sector2" / "report.json").read_text())
        assert report["metadata"]["input_sha256"] == digest.hexdigest()
        (tmp_path / "data").rename(tmp_path / "moved")
        for sector in raw["sectors"]:
            sector["data"] = str(tmp_path / "moved" / sector["name"])
        config.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config), "--sector", "sector1"]) == EXIT_OK
        assert summary.read_bytes() == full

    def test_filtered_run_reads_no_input_of_a_report_under_another_config(self, fixture_config, monkeypatch):
        # a report's input digest is checked only once its sector name and config hash match
        config = load_config(fixture_config)
        assert run_experiment(config)[0] == EXIT_OK
        read, original = [], portlab.cli._read_inputs

        def recording(sector):
            read.append(sector.name)
            return original(sector)

        monkeypatch.setattr(portlab.cli, "_read_inputs", recording)
        assert run_experiment(config, sector_filter="sector2")[0] == EXIT_OK
        assert read == ["sector2", "sector1"]
        read.clear()
        assert run_experiment(replace(config, risk_free_rate=0.05), sector_filter="sector2")[0] == EXIT_OK
        assert read == ["sector2"]

    def test_every_input_is_read_before_any_is_parsed(self, fixture_config, tmp_path):
        # a malformed first file and a missing third: the sector fails at ingest naming the missing one
        config = load_config(fixture_config)
        data, tickers = tmp_path / "data" / "sector1", config.sectors[0].tickers
        (data / f"{tickers[0]}.csv").write_text("garbage\n")
        (data / f"{tickers[2]}.csv").unlink()
        status, results = run_experiment(config)
        assert status == EXIT_PARTIAL
        failure = results[0].failure
        assert (results[0].sector, failure.stage, failure.file) == ("sector1", "ingest", str(data))
        assert failure.cause.startswith("[Errno 2]") and failure.cause.endswith(f"{tickers[2]}.csv'")
        assert results[1].report is not None

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda report: report["methods"]["HRP"]["test"].update(sharpe_ratio="x"), id="text-cell"),
            pytest.param(lambda report: report["methods"]["HRP"]["test"].update(sharpe_ratio=None), id="null-cell"),
            pytest.param(lambda report: report["methods"]["HRP"].pop("test"), id="no-test-period"),
            pytest.param(lambda report: report.update(methods={}), id="no-method"),
            pytest.param(lambda report: "[" * 100_000, id="nested-100000-deep"),
            pytest.param(lambda report: report.update(sector="sector1"), id="another-sectors-name"),
        ],
    )
    def test_filtered_run_leaves_out_a_report_of_no_use(self, tmp_path, damage):
        # sector2's report.json keeps the current config_hash but is no report of sector2: the run
        # summarizes sector1 alone, as when the file is missing
        config = str(write_fixture(tmp_path, n_sectors=2, tickers_per_sector=4, seed=5))
        assert main(["run", "--config", config]) == EXIT_OK
        path = tmp_path / "out" / "sector2" / "report.json"
        report = json.loads(path.read_text())
        text = damage(report)
        path.write_text(text if isinstance(text, str) else json.dumps(report))
        assert main(["run", "--config", config, "--sector", "sector1"]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert list(summary["winners"]) == ["sector1"]
        assert [sum(counts.values()) for counts in summary["counts"].values()] == [1, 1]

    def test_unknown_sector_filter(self, fixture_config):
        config = load_config(fixture_config)
        with pytest.raises(ConfigError):
            run_experiment(config, sector_filter="nope")

    def test_csv_format(self, fixture_config, tmp_path):
        config = load_config(fixture_config)
        run_experiment(config, fmt="csv")
        report = (tmp_path / "out" / "sector1" / "report.csv").read_text()
        assert report.startswith("sector,method,period,")
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_statistics_computed_once_per_sector(self, fixture_config, monkeypatch):
        calls = []
        original = portlab.cli.sample_covariance

        def counting(returns):
            calls.append(returns)
            return original(returns)

        monkeypatch.setattr(portlab.cli, "sample_covariance", counting)
        status, _ = run_experiment(load_config(fixture_config))
        assert status == EXIT_OK
        assert len(calls) == 2

    def test_one_eigendecomposition_per_sector(self, fixture_config, monkeypatch):
        # the sample covariance is PSD by construction: no eigvalsh check, and fit_pca's one eigh
        config = load_config(fixture_config)
        train_panel = portlab.cli._load_sector_panels(config.sectors[0], config)[0]
        calls = {"eigh": 0, "eigvalsh": 0}
        for name, original in [(name, getattr(np.linalg, name)) for name in calls]:

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(np.linalg, name, counting)
        portlab.cli._build_sector(train_panel, config)
        assert calls == {"eigh": 1, "eigvalsh": 0}

    def test_alignment_policies_with_quote_gaps(self, fixture_config, tmp_path):
        # punch holes into one ticker's history; forward_fill keeps the union
        # of dates while intersection drops the gapped ones
        gappy = tmp_path / "data" / "sector1" / "S1B.csv"
        lines = gappy.read_text().splitlines()
        del lines[100:160]
        gappy.write_text("\n".join(lines) + "\n")
        raw = json.loads(fixture_config.read_text())

        counts = {}
        for policy in ("intersection", "forward_fill"):
            raw["alignment"] = policy
            raw["output_dir"] = str(tmp_path / f"out_{policy}")
            edited = tmp_path / f"config_{policy}.json"
            edited.write_text(json.dumps(raw))
            status, _ = run_experiment(load_config(edited), sector_filter="sector1")
            assert status == EXIT_OK
            series = (tmp_path / f"out_{policy}" / "sector1" / "returns_hrp_train.csv").read_text()
            counts[policy] = len(series.splitlines())
        assert counts["forward_fill"] == counts["intersection"] + 60


class TestMainEntry:
    def test_run_exit_zero(self, fixture_config, capsys):
        assert main(["run", "--config", str(fixture_config)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "sector1" in printed and "Sharpe" in printed

    def test_verbose_flag_sets_the_level_of_its_own_call(self, fixture_config, tmp_path, caplog):
        # in one process, as the benchmark calls main: the first call installs the log handler, and
        # every call sets its own level on the root logger
        prices = tmp_path / "data" / "sector1" / "S1A.csv"
        lines = prices.read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + ","  # a blank close
        prices.write_text("\n".join(lines) + "\n")
        root, dropped = logging.getLogger(), []
        level = root.level
        try:
            for flags in ([], ["-v"], []):
                caplog.clear()
                assert main([*flags, "run", "--config", str(fixture_config)]) == EXIT_OK
                dropped.append([r.getMessage() for r in caplog.records if r.name == "portlab.market_data"])
        finally:
            root.setLevel(level)
        assert dropped == [[], ["S1A: dropped 1 missing close(s)"], []]

    def test_each_calendar_converted_once_per_run(self, tmp_path):
        # the default fixture's 70 files share one calendar and its 7 sectors one train and one test
        # window: the first file and the first returns file of each window convert them, the rest
        # (one lookup per returns file) hit the caches
        config = write_fixture(tmp_path)
        market_data._parse_days.cache_clear()
        market_data._iso_texts.cache_clear()
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert market_data._parse_days.cache_info()[:2] == (69, 1)  # hits, misses
        assert market_data._iso_texts.cache_info()[:2] == (26, 2)

    def test_sectors_on_calendars_of_one_length_keep_their_own_days(self, fixture_config, tmp_path):
        # sector2 trades on Sunday 2016-01-03 instead of Monday 2016-01-04: each window holds as many
        # days as sector1's, so only the days themselves tell the two calendars apart
        for prices in (tmp_path / "data" / "sector2").glob("*.csv"):
            prices.write_text(prices.read_text().replace("2016-01-04,", "2016-01-03,"))
        assert main(["run", "--config", str(fixture_config), "--out", str(tmp_path / "out")]) == EXIT_OK
        first_days = {
            sector: (tmp_path / "out" / sector / "returns_hrp_train.csv").read_text().splitlines()[1][:10]
            for sector in ("sector1", "sector2")
        }
        assert first_days == {"sector1": "2016-01-04", "sector2": "2016-01-03"}

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(MINIMAL, eigen={"variance_threshold": 2.0})))
        assert main(["validate", "--config", str(bad)]) == EXIT_CONFIG
        assert "variance_threshold" in capsys.readouterr().err

    def test_missing_config_file_exit_two(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG

    def test_validate_prints_resolved_config(self, fixture_config, capsys):
        assert main(["validate", "--config", str(fixture_config)]) == EXIT_OK
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["eigen"]["variance_threshold"] == 0.8
        assert resolved["sectors"][0]["name"] == "sector1"

    def test_run_prints_config_warnings(self, fixture_config, capsys):
        raw = json.loads(fixture_config.read_text())
        raw["hrp"]["plot"] = True
        fixture_config.write_text(json.dumps(raw))
        assert main(["run", "--config", str(fixture_config)]) == EXIT_OK
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning: ")]
        assert warnings == ["warning: hrp: unknown key 'plot' ignored"]

    def test_partial_failure_exit_one(self, fixture_config, tmp_path, capsys):
        (tmp_path / "data" / "sector2" / "S2A.csv").unlink()
        assert main(["run", "--config", str(fixture_config)]) == EXIT_PARTIAL
        stderr = capsys.readouterr().err
        assert json.loads(stderr)[0]["sector"] == "sector2"

    def test_csv_reader_fault_isolated(self, fixture_config, tmp_path, capsys):
        # a quoted field over the csv module's 131,072-character limit
        with open(tmp_path / "data" / "sector2" / "S2C.csv", "a") as handle:
            handle.write('2021-11-02,"' + "9" * 200_000 + '"\n')
        assert main(["run", "--config", str(fixture_config)]) == EXIT_PARTIAL
        out = tmp_path / "out"
        errors = json.loads((out / "errors.json").read_text())
        assert [(e["sector"], e["stage"]) for e in errors] == [("sector2", "ingest")]
        assert "S2C: line" in errors[0]["cause"] and "field limit" in errors[0]["cause"]
        assert (out / "sector1" / "report.json").exists()
        assert (out / "summary.json").exists()

    @pytest.mark.parametrize("command, stage", [("run", "build"), ("backtest", "backtest")])
    def test_overflowing_sharpe_fails_the_sector(self, tmp_path, command, stage):
        # a finite risk_free_rate of 1e308 sends every Sharpe ratio past float range; backtest reads
        # weights built at rate 0
        config = write_fixture(tmp_path, n_sectors=1, tickers_per_sector=3)
        out = tmp_path / "out"
        common = ["--config", str(config), "--out", str(out)]
        if command == "backtest":
            assert main(["build", *common]) == EXIT_OK
            common += ["--weights", str(out)]
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["risk_free_rate"] = 1e308
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main([command, *common]) == EXIT_PARTIAL
        errors = strict_json((out / "errors.json").read_text(encoding="utf-8"))
        assert [(e["sector"], e["stage"]) for e in errors] == [("sector1", stage)]
        assert "risk-free rate 1e+308" in errors[0]["cause"]
        assert not (out / "sector1" / "report.json").exists()
        for path in out.rglob("*.json"):
            strict_json(path.read_text(encoding="utf-8"))
        assert (out / "sector1" / "weights_hrp.csv").exists() == (command == "backtest")

    def test_overflowing_volatility_fails_the_sector(self, tmp_path):
        # closes of 1e-100 then 1e+100 make a finite return of 1e200 on the last test day, whose square
        # is past float range: the test volatility would be inf and the Sharpe ratio 0.0
        config = write_fixture(tmp_path, n_sectors=1, tickers_per_sector=3)
        prices = tmp_path / "data" / "sector1" / "S1A.csv"
        lines = prices.read_text(encoding="utf-8").splitlines()
        lines[-2:] = [f"{lines[-2].split(',')[0]},1e-100", f"{lines[-1].split(',')[0]},1e+100"]
        prices.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_PARTIAL
        errors = strict_json((out / "errors.json").read_text(encoding="utf-8"))
        assert [(e["sector"], e["stage"]) for e in errors] == [("sector1", "backtest")]
        assert "daily volatility not finite" in errors[0]["cause"]
        assert not (out / "sector1" / "report.json").exists()
        for path in out.rglob("*.json"):
            strict_json(path.read_text(encoding="utf-8"))

    def test_build_then_backtest(self, fixture_config, tmp_path, capsys):
        assert main(["build", "--config", str(fixture_config)]) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "sector1" / "weights_hrp.csv").exists()
        assert not (out / "sector1" / "report.json").exists()
        assert (
            main(
                [
                    "backtest",
                    "--config",
                    str(fixture_config),
                    "--weights",
                    str(out),
                ]
            )
            == EXIT_OK
        )
        assert (out / "sector1" / "report.json").exists()
        assert (out / "summary.json").exists()

    def test_run_equals_build_then_backtest(self, fixture_config, tmp_path):
        common = ["--config", str(fixture_config), "--out"]
        run, staged = tmp_path / "run", tmp_path / "staged"
        assert main(["run", *common, str(run)]) == EXIT_OK
        assert main(["build", *common, str(staged)]) == EXIT_OK
        assert main(["backtest", *common, str(staged), "--weights", str(staged)]) == EXIT_OK
        assert output_tree(staged) == output_tree(run)
        assert_csv_rows_fit_header(run)
        assert_csv_rows_fit_header(staged)

    @pytest.mark.parametrize("command", ["run", "backtest"])
    def test_report_metadata_keys(self, fixture_config, tmp_path, command):
        common = ["--config", str(fixture_config), "--out", str(tmp_path / "out")]
        if command == "backtest":
            assert main(["build", *common]) == EXIT_OK
            common += ["--weights", str(tmp_path / "out")]
        assert main([command, *common]) == EXIT_OK
        reports = sorted((tmp_path / "out").glob("*/report.json"))
        assert len(reports) == 2
        for path in reports:
            assert set(json.loads(path.read_text(encoding="utf-8"))["metadata"]) == {
                "alignment", "config_hash", "covariance", "input_sha256", "periods", "risk_free_rate",
                "trading_days_per_year",
            }

    def test_comma_in_names_is_quoted(self, tmp_path):
        tickers = ["A,1", "B", "C", "D"]
        panel = PricePanel(*synthetic_panel(tickers, weekday_range(date(2019, 1, 1), date(2021, 11, 1)), seed=3))
        for series in panel:
            (tmp_path / f"{series.ticker}.csv").write_text(series.to_csv())
        raw = copy.deepcopy(MINIMAL)
        raw["sectors"] = [{"name": "auto,parts", "data": str(tmp_path), "tickers": tickers}]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        common = ["--config", str(config), "--out"]
        run, staged = tmp_path / "run", tmp_path / "staged"
        assert main(["run", *common, str(run), "--format", "csv"]) == EXIT_OK
        assert {"report.csv", "weights_hrp.csv", "eigen_candidates.csv"} <= set(
            artifact_names(run / "auto,parts")
        )
        assert_csv_rows_fit_header(run)
        assert main(["build", *common, str(staged)]) == EXIT_OK
        assert main(["backtest", *common, str(staged), "--weights", str(staged)]) == EXIT_OK

    def test_carriage_return_in_ticker_round_trips(self, tmp_path):
        tickers = ["A\r1", "B", "C"]
        panel = PricePanel(*synthetic_panel(tickers, weekday_range(date(2019, 1, 1), date(2021, 11, 1)), seed=3))
        for series in panel:
            (tmp_path / f"{series.ticker}.csv").write_text(series.to_csv())
        raw = copy.deepcopy(MINIMAL)
        raw["sectors"] = [{"name": "auto", "data": str(tmp_path), "tickers": tickers}]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        common = ["--config", str(config), "--out"]
        run, staged = tmp_path / "run", tmp_path / "staged"
        assert main(["run", *common, str(run)]) == EXIT_OK
        assert (run / "auto" / "weights_hrp.csv").read_bytes().split(b"\n")[1].startswith(b'"A\r1","')
        assert main(["build", *common, str(staged)]) == EXIT_OK
        assert main(["backtest", *common, str(staged), "--weights", str(staged)]) == EXIT_OK
        assert (staged / "summary.json").read_bytes() == (run / "summary.json").read_bytes()

    def test_backtest_missing_weights_isolated(self, fixture_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["build", "--config", str(fixture_config)]) == EXIT_OK
        (out / "sector1" / "weights_eigen.csv").unlink()
        argv = ["backtest", "--config", str(fixture_config), "--weights", str(out)]
        assert main(argv) == EXIT_PARTIAL
        errors = json.loads((out / "errors.json").read_text())
        assert [(e["sector"], e["stage"]) for e in errors] == [("sector1", "load_weights")]
        assert errors[0]["file"] == str(out / "sector1")
        assert json.loads(capsys.readouterr().err) == errors
        assert (out / "sector2" / "report.json").exists()
        assert not (out / "sector1" / "report.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["winners"]) == {"sector2"}

    def test_backtest_reads_weights_with_a_bom(self, fixture_config, tmp_path):
        # price CSVs may start with a UTF-8 byte order mark, and so may weights CSVs
        out = tmp_path / "out"
        assert main(["build", "--config", str(fixture_config)]) == EXIT_OK
        backtest = ["backtest", "--config", str(fixture_config), "--weights", str(out)]
        assert main(backtest) == EXIT_OK
        plain = (out / "sector1" / "report.json").read_bytes()
        weights = out / "sector1" / "weights_hrp.csv"
        weights.write_bytes(b"\xef\xbb\xbf" + weights.read_bytes())
        assert main(backtest) == EXIT_OK
        assert (out / "sector1" / "report.json").read_bytes() == plain

    def test_backtest_short_weights_row_isolated(self, fixture_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["build", "--config", str(fixture_config)]) == EXIT_OK
        weights = out / "sector1" / "weights_hrp.csv"
        lines = weights.read_text().splitlines()
        lines[1] = lines[1].split(",")[0]
        weights.write_text("\n".join(lines) + "\n")
        argv = ["backtest", "--config", str(fixture_config), "--weights", str(out)]
        assert main(argv) == EXIT_PARTIAL
        errors = json.loads((out / "errors.json").read_text())
        assert [(e["sector"], e["stage"]) for e in errors] == [("sector1", "load_weights")]
        assert "row 2" in errors[0]["cause"] and "ticker,weight" in errors[0]["cause"]
        assert (out / "sector2" / "report.json").exists()
        assert (out / "summary.json").exists()

    def test_benchmark_argv_shapes(self, fixture_config, monkeypatch, capsys):
        # the command lines benchmark/workloads.py runs, relative to the fixture root
        monkeypatch.chdir(fixture_config.parent)
        assert main(["build", "--config", "config.json", "--out", "weights"]) == EXIT_OK
        assert main(["run", "--config", "config.json", "--jobs", "1"]) == EXIT_OK
        backtest = ["backtest", "--config", "config.json", "--weights", "weights", "--jobs", "1"]
        assert main(backtest) == EXIT_OK
        assert "--jobs" not in capsys.readouterr().err

    def test_jobs_flag_is_ignored(self, fixture_config, tmp_path, capsys):
        common = ["run", "--config", str(fixture_config), "--out"]
        assert main([*common, str(tmp_path / "plain")]) == EXIT_OK
        assert "--jobs" not in capsys.readouterr().err
        assert main([*common, str(tmp_path / "jobs"), "--jobs", "4"]) == EXIT_OK
        warnings = [line for line in capsys.readouterr().err.splitlines() if "--jobs" in line]
        assert warnings == ["warning: --jobs is deprecated and ignored; sectors run one at a time"]
        assert output_tree(tmp_path / "jobs") == output_tree(tmp_path / "plain")

    def test_config_hash_independent_of_out(self, fixture_config, tmp_path):
        hashes = set()
        for name in ("first", "second"):
            argv = ["run", "--config", str(fixture_config), "--out", str(tmp_path / name)]
            assert main(argv) == EXIT_OK
            report = json.loads((tmp_path / name / "sector1" / "report.json").read_text())
            hashes.add(report["metadata"]["config_hash"])
        assert len(hashes) == 1

    def test_out_flag_overrides_directory(self, fixture_config, tmp_path):
        elsewhere = tmp_path / "elsewhere"
        assert main(["run", "--config", str(fixture_config), "--out", str(elsewhere)]) == EXIT_OK
        assert (elsewhere / "summary.json").exists()

    def test_fixture_written_to_a_relative_out_runs_from_inside_it(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert synthetic_main(["--out", "syn", "--sectors", "1", "--tickers", "4"]) == 0
        monkeypatch.chdir(tmp_path / "syn")
        assert main(["run", "--config", "config.json"]) == EXIT_OK
        assert (tmp_path / "syn" / "out" / "summary.json").is_file()

    @pytest.mark.parametrize(
        "counts",
        [["--tickers", "1"], ["--tickers", "-2"], ["--sectors", "0"], ["--sectors", "-1"], ["--seed", "-1"]],
        ids=["one-ticker", "negative-tickers", "no-sector", "negative-sectors", "negative-seed"],
    )
    def test_synthetic_rejects_counts_that_make_no_fixture(self, tmp_path, capsys, counts):
        with pytest.raises(SystemExit) as exit_info:
            synthetic_main(["--out", str(tmp_path / "syn"), *counts])
        assert exit_info.value.code == 2 and "usage:" in capsys.readouterr().err
        assert not (tmp_path / "syn").exists()

    @pytest.mark.parametrize("out", ["file", "file/syn"], ids=["a-file", "under-a-file"])
    def test_synthetic_out_that_cannot_be_a_directory_is_a_usage_error(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("kept\n")
        with pytest.raises(SystemExit) as exit_info:
            synthetic_main(["--out", str(tmp_path / out), "--sectors", "1", "--tickers", "2"])
        assert exit_info.value.code == 2
        assert "error: cannot write the fixture under --out: [Errno 20] Not a directory" in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_env_overrides(self, fixture_config, tmp_path):
        # the rate comes from the config file, the output directory from --out
        raw = json.loads(fixture_config.read_text())
        raw["risk_free_rate"] = 0.05
        fixture_config.write_text(json.dumps(raw))
        elsewhere = tmp_path / "elsewhere"
        assert main(["run", "--config", str(fixture_config), "--out", str(elsewhere)]) == EXIT_OK
        report = json.loads((elsewhere / "sector1" / "report.json").read_text())
        assert report["metadata"]["risk_free_rate"] == 0.05

    def test_environment_sets_nothing(self, fixture_config, tmp_path, monkeypatch):
        plain = tmp_path / "plain"
        assert main(["run", "--config", str(fixture_config), "--out", str(plain)]) == EXIT_OK
        monkeypatch.setenv("PORTLAB_RISK_FREE", "nan")
        monkeypatch.setenv("PORTLAB_OUT", str(tmp_path / "env_out"))
        assert main(["run", "--config", str(fixture_config)]) == EXIT_OK
        assert output_tree(tmp_path / "out") == output_tree(plain)
        assert not (tmp_path / "env_out").exists()

    # json accepts the non-standard NaN and Infinity tokens, and integers beyond float range
    @pytest.mark.parametrize("token", ["Infinity", "NaN", pytest.param("1" + "0" * 400, id="1e400")])
    def test_non_finite_config_risk_free_exit_two(self, fixture_config, capsys, token):
        text = fixture_config.read_text().replace('"risk_free_rate": 0.0', f'"risk_free_rate": {token}')
        fixture_config.write_text(text)
        assert main(["validate", "--config", str(fixture_config)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "risk_free_rate: must be a finite number" in captured.err
        assert captured.out == ""

    def test_threshold_beyond_float_range_exit_two(self, fixture_config, capsys):
        huge = "1" + "0" * 400
        text = fixture_config.read_text().replace('"variance_threshold": 0.8', f'"variance_threshold": {huge}')
        assert huge in text
        fixture_config.write_text(text)
        assert main(["validate", "--config", str(fixture_config)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "eigen.variance_threshold: must be a number in (0, 1]" in captured.err
        assert captured.out == ""

    # a NUL reaches mkdir or open as an embedded null byte; the config rules must stop it first,
    # in the config file or on the command line (a "--" key names the option given the value)
    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("name", "../escape", "sectors[0] (../escape).name: "),
            ("name", "a\0b", "sectors[0] (a\0b).name: "),
            ("output_dir", "o\0ut", "output_dir: must be a non-empty string without NUL"),
            ("--out", "o\0ut", "--out: must be a non-empty string without NUL"),
            ("--config", "c\0onfig.json", "cannot read config "),
        ],
        ids=["parent", "nul-name", "nul-output-dir", "nul-out", "nul-config"],
    )
    def test_sector_name_escaping_output_dir_exit_two(self, fixture_config, tmp_path, capsys, key, value, problem):
        raw = json.loads(fixture_config.read_text())
        options = {"--config": str(fixture_config), "--out": str(tmp_path / "nested" / "out")}
        if key.startswith("--"):
            options[key] = str(tmp_path / "nested" / value)
        else:
            (raw["sectors"][0] if key == "name" else raw)[key] = value
        fixture_config.write_text(json.dumps(raw))
        for command in ("build", "validate"):
            assert main([command, "--config", options["--config"], "--out", options["--out"]]) == EXIT_CONFIG
            problems = json.loads(capsys.readouterr().err)["config_errors"]
            assert len(problems) == 1 and problems[0].startswith(problem)
        assert not (tmp_path / "nested").exists()

    # reading or decoding these raises an error that is not a JSONDecodeError
    @pytest.mark.parametrize(
        "content",
        [b"1" * 5000, b'{"output_dir": "\xff"}', b"[" * 100_000],
        ids=["long-integer", "not-utf8", "deep-nesting"],
    )
    def test_undecodable_config_exit_two(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert "is not valid JSON" in capsys.readouterr().err


class TestOutputTree:
    """A command's artifacts in the output directory all come from its own run."""

    @pytest.fixture
    def run(self, fixture_config):
        def invoke(command, *flags):
            return main([command, "--config", str(fixture_config), *flags])

        return invoke

    def test_clean_rerun_removes_stale_errors(self, run, tmp_path):
        ticker = tmp_path / "data" / "sector1" / "S1A.csv"
        good = ticker.read_bytes()
        ticker.write_text("garbage\n")
        assert run("run") == EXIT_PARTIAL
        assert (tmp_path / "out" / "errors.json").exists()
        ticker.write_bytes(good)
        assert run("run") == EXIT_OK
        assert not (tmp_path / "out" / "errors.json").exists()

    def test_rerun_with_every_sector_failing_keeps_no_report(self, run, tmp_path):
        assert run("run") == EXIT_OK
        for sector in ("sector1", "sector2"):
            next((tmp_path / "data" / sector).iterdir()).unlink()
        assert run("run") == EXIT_PARTIAL
        assert list(output_tree(tmp_path / "out")) == ["errors.json"]

    def test_rerun_failing_at_backtest_keeps_no_file_of_that_sector(self, run, fixture_config, tmp_path):
        assert run("run") == EXIT_OK
        first = output_tree(tmp_path / "out")
        test_start = json.loads(fixture_config.read_text())["test"]["start"]
        for path in (tmp_path / "data" / "sector1").iterdir():
            header, *rows = path.read_text().splitlines()
            rows = [row if row < test_start else row[:10] + ",100.0" for row in rows]
            path.write_text("\n".join([header, *rows]) + "\n")
        assert run("run") == EXIT_PARTIAL
        errors = json.loads((tmp_path / "out" / "errors.json").read_text())
        assert [(e["sector"], e["stage"]) for e in errors] == [("sector1", "backtest")]
        assert "constant" in errors[0]["cause"]
        second = output_tree(tmp_path / "out")
        assert not [name for name in second if name.startswith("sector1/")]
        sector2 = {name: data for name, data in first.items() if name.startswith("sector2/")}
        assert sector2.items() <= second.items()

    def test_format_switch_replaces_reports(self, run, tmp_path):
        assert run("run") == EXIT_OK
        assert run("run", "--format", "csv") == EXIT_OK
        names = set(output_tree(tmp_path / "out"))
        assert {"summary.csv", "sector1/report.csv"} <= names
        assert not {"summary.json", "sector1/report.json", "sector2/report.json"} & names

    def test_backtest_failure_keeps_the_build_files_it_reads(self, run, tmp_path):
        out = tmp_path / "out"
        assert run("run") == EXIT_OK
        weights = out / "sector1" / "weights_eigen.csv"
        weights.write_text(weights.read_text().splitlines()[0] + "\nS1A\n")
        assert run("backtest", "--weights", str(out), "--out", str(out)) == EXIT_PARTIAL
        assert artifact_names(out / "sector1") == [
            "dendrogram.json",
            "eigen_candidates.csv",
            "seriation.csv",
            "weights_eigen.csv",
            "weights_hrp.csv",
        ]
        assert (out / "sector2" / "report.json").exists()

    def test_backtest_skips_blank_weight_rows(self, run, tmp_path):
        out = tmp_path / "out"
        assert run("run") == EXIT_OK
        report = (out / "sector1" / "report.json").read_bytes()
        weights = out / "sector1" / "weights_hrp.csv"
        header, first, *rest = weights.read_text().splitlines(keepends=True)
        weights.write_text("".join([header, first, "\n", " , \n", *rest]))
        assert run("backtest", "--weights", str(out), "--out", str(out)) == EXIT_OK
        assert (out / "sector1" / "report.json").read_bytes() == report

    def test_failed_sector_leaves_one_state_under_every_hash_seed(self, tmp_path):
        # a sector owns a set of names, whose order follows PYTHONHASHSEED: the cleanup after a failed
        # write must reach every name whatever the order, so each seed runs in a process of its own
        config = str(write_fixture(tmp_path, n_sectors=1, tickers_per_sector=4))
        assert main(["run", "--config", config]) == EXIT_OK
        env = dict(os.environ, PYTHONPATH=str(Path(portlab.cli.__file__).parents[1]))
        for seed in ("1", "2", "3", "4", "5"):
            out = tmp_path / f"out{seed}"
            shutil.copytree(tmp_path / "out", out)
            (out / "sector1" / "report.json").unlink()
            (out / "sector1" / "report.json").mkdir()
            command = [sys.executable, "-m", "portlab.cli", "run", "--config", config, "--out", str(out)]
            done = subprocess.run(
                command, env=dict(env, PYTHONHASHSEED=seed), capture_output=True, text=True, timeout=120
            )
            assert done.returncode == EXIT_PARTIAL, done.stderr
            assert [e["stage"] for e in json.loads((out / "errors.json").read_text())] == ["write"]
            assert artifact_names(out / "sector1") == ["report.json"]  # no other file, and no .report.json.tmp

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_artifact_modes_follow_umask(self, run, tmp_path, umask):
        previous = os.umask(umask)
        try:
            assert run("run") == EXIT_OK
        finally:
            os.umask(previous)
        paths = [path for path in (tmp_path / "out").rglob("*") if path.is_file()]
        assert len(paths) == 21
        assert {path.stat().st_mode & 0o777 for path in paths} == {0o666 & ~umask}

    @pytest.mark.parametrize("inputs", ["good", "bad"])
    def test_unwritable_sector_reported_at_write(self, run, tmp_path, inputs):
        out = tmp_path / "out"
        out.mkdir()
        (out / "sector1").write_text("not a directory\n")
        if inputs == "bad":
            (tmp_path / "data" / "sector1" / "S1A.csv").unlink()
        assert run("run") == EXIT_PARTIAL
        errors = json.loads((out / "errors.json").read_text())
        if inputs == "good":
            expected = ("sector1", "write", str(out / "sector1"))
        else:
            expected = ("sector1", "ingest", str(tmp_path / "data" / "sector1"))
        assert [(e["sector"], e["stage"], e["file"]) for e in errors] == [expected]
        assert (out / "sector2" / "report.json").exists() and (out / "summary.json").exists()

    def test_out_naming_a_file_reports_every_write(self, run, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        assert run("run", "--out", str(out)) == EXIT_PARTIAL
        errors = json.loads(capsys.readouterr().err)
        assert [(e["sector"], e["stage"], e["file"]) for e in errors] == [
            ("sector1", "write", str(out / "sector1")),
            ("sector2", "write", str(out / "sector2")),
            ("", "write", str(out)),
        ]
        assert out.read_text() == "not a directory\n"


class TestWideFormatConfig:
    def test_wide_csv_sector(self, tmp_path):
        dates = weekday_range(date(2018, 1, 1), date(2021, 11, 1))
        panel = synthetic_panel(["W1", "W2", "W3", "W4"], dates, seed=5)
        lines = ["Date," + ",".join(panel.tickers)]
        for row, day in enumerate(panel.dates):
            cells = ",".join(repr(float(c)) for c in panel.closes[row])
            lines.append(f"{day.isoformat()},{cells}")
        wide_path = tmp_path / "wide.csv"
        wide_path.write_text("\n".join(lines) + "\n")
        config = validate_config(
            {
                "sectors": [{"name": "wide", "data": str(wide_path), "format": "wide"}],
                "train": {"start": "2018-01-01", "end": "2020-12-31"},
                "test": {"start": "2021-01-01", "end": "2021-11-01"},
                "output_dir": str(tmp_path / "wide_out"),
            }
        )
        status, results = run_experiment(config)
        assert status == EXIT_OK
        report = json.loads((tmp_path / "wide_out" / "wide" / "report.json").read_text())
        assert set(report["methods"]) == {"EIGEN", "HRP"}
