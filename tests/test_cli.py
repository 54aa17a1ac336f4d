import copy
import csv
import json
import math
import os
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import portlab.cli
from conftest import output_tree
from portlab.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL, config_hash, main, run_experiment
from portlab.config import SETTINGS, load_config, load_sector_constituents, validate_config
from portlab.errors import ConfigError
from portlab.market_data import PricePanel
from portlab.synthetic import main as synthetic_main
from portlab.synthetic import synthetic_panel, weekday_range, write_fixture

MINIMAL = {
    "sectors": [{"name": "alpha", "data": "ignored", "tickers": ["A", "B"]}],
    "train": {"start": "2016-01-01", "end": "2020-12-31"},
    "test": {"start": "2021-01-01", "end": "2021-11-01"},
}


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

    @pytest.mark.parametrize("name", [".", "..", "../escape", "/tmp/x", "a/b", "a\\b"])
    def test_sector_name_is_one_path_component(self, name):
        raw = dict(MINIMAL, sectors=[{"name": name, "data": "d", "tickers": ["A", "B"]}])
        with pytest.raises(ConfigError) as caught:
            validate_config(raw)
        assert len(caught.value.problems) == 1
        assert caught.value.problems[0].startswith(f"sectors[0] ({name}).name: ")

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
        assert config_hash(validate_config(MINIMAL)) == "8c1cb06d2f141dc1"

    def test_readme_example_is_complete_and_valid(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        example = section.split("```json\n", 1)[1].split("\n```", 1)[0]
        config = validate_config(json.loads(example))
        assert config.warnings == () and config.applied_defaults == ()
        for key, setting in SETTINGS.items():
            documented = [line for line in section.splitlines() if line.startswith(f"- `{key}`")]
            assert len(documented) == 1 and f"`{json.dumps(setting.default)}`" in documented[0]


class TestSectorConstituents:
    def test_bundled_fixture_shape(self):
        bundle = load_sector_constituents()
        sectors = bundle["sectors"]
        assert len(sectors) == 7
        assert len(sectors["auto"]) == 10
        maruti = sectors["auto"][0]
        assert maruti["name"] == "Maruti Suzuki"
        assert maruti["index_weight"] == 19.98
        assert sectors["information_technology"][0]["symbol"] == "INFY"


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

    def test_eigen_candidates_score_the_exported_pick(self, tmp_path):
        assert main(["run", "--config", str(write_fixture(tmp_path))]) == EXIT_OK
        for sector_dir in sorted((tmp_path / "out").glob("sector*")):
            with (sector_dir / "eigen_candidates.csv").open(newline="", encoding="utf-8") as handle:
                header, pick, *_ = csv.reader(handle)
            assert header == ["component_index", "in_sample_sharpe", "gross_leverage", "train_annual_volatility"]
            report = json.loads((sector_dir / "report.json").read_text(encoding="utf-8"))
            chosen, train = report["metadata"]["eigen"], report["methods"]["EIGEN"]["train"]
            with (sector_dir / "weights_eigen.csv").open(newline="", encoding="utf-8") as handle:
                weights = [float(row[1]) for row in list(csv.reader(handle))[1:]]
            assert int(pick[0]) == chosen["component_index"]
            assert float(pick[1]) == chosen["candidate_sharpe"] == train["sharpe_ratio"]
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
        assert (staged / "summary.json").read_bytes() == (run / "summary.json").read_bytes()
        for sector in ("sector1", "sector2"):
            direct = json.loads((run / sector / "report.json").read_text())
            via_weights = json.loads((staged / sector / "report.json").read_text())
            assert via_weights["methods"] == direct["methods"]
            # weights_*.csv holds no build metadata, so only `run` reports these blocks
            del direct["metadata"]["hrp"], direct["metadata"]["eigen"]
            assert via_weights == direct
            returns = sorted(path.name for path in (run / sector).glob("returns_*.csv"))
            assert len(returns) == 4
            for name in returns:
                assert (staged / sector / name).read_bytes() == (run / sector / name).read_bytes()
        assert_csv_rows_fit_header(run)
        assert_csv_rows_fit_header(staged)

    def test_comma_in_names_is_quoted(self, tmp_path):
        tickers = ["A,1", "B", "C", "D"]
        panel = PricePanel(*synthetic_panel(tickers, weekday_range(date(2019, 1, 1), date(2021, 11, 1)), seed=3))
        for ticker in tickers:
            (tmp_path / f"{ticker}.csv").write_text(panel.series(ticker).to_csv())
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
        for ticker in tickers:
            (tmp_path / f"{ticker}.csv").write_text(panel.series(ticker).to_csv())
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

    def test_env_overrides(self, fixture_config, tmp_path, monkeypatch):
        monkeypatch.setenv("PORTLAB_RISK_FREE", "0.05")
        elsewhere = tmp_path / "env_out"
        monkeypatch.setenv("PORTLAB_OUT", str(elsewhere))
        assert main(["run", "--config", str(fixture_config)]) == EXIT_OK
        report = json.loads((elsewhere / "sector1" / "report.json").read_text())
        assert report["metadata"]["risk_free_rate"] == 0.05

    def test_bad_env_risk_free_exit_two(self, fixture_config, monkeypatch):
        monkeypatch.setenv("PORTLAB_RISK_FREE", "not-a-number")
        assert main(["run", "--config", str(fixture_config)]) == EXIT_CONFIG

    def test_non_finite_env_risk_free_exit_two(self, fixture_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PORTLAB_RISK_FREE", "nan")
        assert main(["run", "--config", str(fixture_config)]) == EXIT_CONFIG
        assert "PORTLAB_RISK_FREE" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_sector_name_escaping_output_dir_exit_two(self, fixture_config, tmp_path, capsys):
        raw = json.loads(fixture_config.read_text())
        raw["sectors"][0]["name"] = "../escape"
        fixture_config.write_text(json.dumps(raw))
        out = tmp_path / "nested" / "out"
        assert main(["build", "--config", str(fixture_config), "--out", str(out)]) == EXIT_CONFIG
        assert "sectors[0] (../escape).name" in capsys.readouterr().err
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
