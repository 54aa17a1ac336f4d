"""Command-line front end: ingest -> build portfolios -> backtest -> reports.

Subcommands:
  run       full pipeline for every configured sector
  build     construct and export weights only
  backtest  evaluate previously exported weights
  validate  check a config file and print the resolved form

A failing sector never aborts the others; failures are reported as a JSON
error list on stderr and turn the exit status to 1. Config problems exit 2
before any computation. Each artifact write is atomic (temp file + rename)
and byte-deterministic for identical inputs. ``run`` and ``build`` replace
every artifact of the sectors they process, ``backtest`` all but the build
files it reads, and all three the summary and error list; a failed sector
keeps none of the files its command replaces.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import backtest as bt
from .config import SETTINGS, ExperimentConfig, SectorConfig, load_config
from .eigen import EigenCandidate, fit_pca, min_components_for_variance, select_best_eigen
from .errors import ConfigError, PortlabError
from .hrp import build_hrp_portfolio, dendrogram_json
from .market_data import (
    PricePanel, _csv_text, _dated_csv_text, align_panel, load_price_csv, parse_wide_csv, slice_period
)
from .portfolio import PortfolioWeights, weights_from_csv
from .returns_stats import correlation, daily_returns, sample_covariance

logger = logging.getLogger(__name__)

ENV_RISK_FREE = "PORTLAB_RISK_FREE"
ENV_OUTPUT_DIR = "PORTLAB_OUT"

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2


@dataclass
class SectorFailure:
    sector: str
    stage: str
    file: str
    cause: str

    def as_dict(self) -> dict[str, str]:
        return {"sector": self.sector, "stage": self.stage, "file": self.file, "cause": self.cause}


@dataclass
class SectorResult:
    sector: str
    report: bt.BacktestReport | None = None
    failure: SectorFailure | None = None


# Every artifact name, by kind: "build" and "report" files go in <out>/<sector>,
# "root" files in <out>. A command owns names and rewrites them as one set, so
# the tree never mixes two runs. `run` and `build` own every name; `backtest`
# all but the build files, which it may be reading from its own --out.
ARTIFACTS = {
    "build": {"weights_hrp.csv", "weights_eigen.csv", "dendrogram.json", "seriation.csv", "eigen_candidates.csv"},
    "report": {"report.json", "report.csv", *(f"returns_{m}_{p}.csv" for m in ("eigen", "hrp") for p in bt.PERIODS)},
    "root": {"summary.json", "summary.csv", "errors.json"},
}


def _write_files(directory: Path, owned: set[str], files: dict[str, str]) -> None:
    """Write each ``{name: text}`` file atomically and remove every other owned name."""
    if files:
        directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        temp = directory / f".{name}.tmp"
        try:
            temp.write_text(text, encoding="utf-8")
            os.replace(temp, directory / name)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
    for name in owned - files.keys():
        (directory / name).unlink(missing_ok=True)


def config_hash(config: ExperimentConfig) -> str:
    """Hash of what the experiment computes; where its output goes is left out."""
    resolved = config.as_dict()
    for key in ("applied_defaults", "warnings", "output_dir"):
        resolved.pop(key)
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _load_sector_panels(
    sector: SectorConfig, config: ExperimentConfig
) -> tuple[PricePanel, PricePanel]:
    if sector.input_format == "wide":
        with open(sector.data, "rb") as handle:
            series = parse_wide_csv(handle, sector.tickers or None)
    else:
        series = []
        for ticker in sector.tickers:
            series.append(load_price_csv(Path(sector.data) / f"{ticker}.csv", ticker))
    panel = align_panel(series, config.alignment)
    return slice_period(panel, config.train), slice_period(panel, config.test)


def _build_sector(
    train_panel: PricePanel, config: ExperimentConfig
) -> tuple[dict[str, PortfolioWeights], dict[str, str]]:
    """Both portfolios from one training-window covariance and correlation, and their build files."""
    train_returns = daily_returns(train_panel)
    cov = sample_covariance(train_returns)
    corr = correlation(cov)
    if train_returns.n_obs < len(train_returns.tickers) + 1:
        logger.warning(
            "%d observations for %d assets; covariance is rank-deficient",
            train_returns.n_obs,
            len(train_returns.tickers),
        )
    hrp = build_hrp_portfolio(cov, corr, linkage_method=config.linkage_method)
    model = fit_pca(corr if config.standardize else cov)
    k_max = min_components_for_variance(model, config.variance_threshold)
    eigen_weights, candidates = select_best_eigen(
        train_returns, model, k_max, config.risk_free_rate
    )
    tickers = hrp.weights.tickers
    files = {
        "weights_hrp.csv": hrp.weights.to_csv(),
        "weights_eigen.csv": eigen_weights.to_csv(),
        "dendrogram.json": dendrogram_json(hrp.tree, tickers),
        "seriation.csv": _csv_text(("position", "ticker"), enumerate(hrp.order.tickers(tickers))),
        "eigen_candidates.csv": _csv_text(EigenCandidate._fields, candidates),
    }
    return {"HRP": hrp.weights, "EIGEN": eigen_weights}, files


def _load_weights(sector_dir: Path) -> dict[str, PortfolioWeights]:
    weights = {}
    for method, name in (("HRP", "weights_hrp.csv"), ("EIGEN", "weights_eigen.csv")):
        # newline="": a carriage return inside a quoted ticker stays one
        with (sector_dir / name).open(encoding="utf-8", newline="") as handle:
            weights[method] = weights_from_csv(handle.read(), method)
    return weights


def _run_one_sector(
    sector: SectorConfig,
    config: ExperimentConfig,
    out_dir: Path,
    fmt: str,
    evaluate: bool,
    weights_dir: Path | None,
) -> SectorResult:
    """ingest -> build weights (or load them from weights_dir) -> backtest -> write.

    Every file is computed before the first is written; a failed sector keeps none it owns.
    """
    sector_dir = out_dir / sector.name
    owned = ARTIFACTS["report"] | (ARTIFACTS["build"] if weights_dir is None else set())
    files: dict[str, str] = {}  # build files, then report files
    report = None
    stage, source = "ingest", sector.data
    try:
        train_panel, test_panel = _load_sector_panels(sector, config)
        if weights_dir is None:
            stage = "build"
            weights, files = _build_sector(train_panel, config)
        else:
            stage, source = "load_weights", str(weights_dir / sector.name)
            weights = _load_weights(weights_dir / sector.name)
        if evaluate:
            stage, source = "backtest", sector.data
            report = bt.evaluate(
                weights,
                train_panel,
                test_panel,
                risk_free=config.risk_free_rate,
                sector=sector.name,
                extra_metadata={"config_hash": config_hash(config), "alignment": config.alignment},
            )
            files[f"report.{fmt}"] = bt.report_to_csv(report) if fmt == "csv" else bt.report_to_json(report)
            for period, series in (report.series or {}).items():
                for method, daily in zip(series.tickers, series.values.T):
                    text = _dated_csv_text(("date", "return"), series.dates, daily)
                    files[f"returns_{method.lower()}_{period}.csv"] = text
        stage, source = "write", str(sector_dir)
        _write_files(sector_dir, owned, files)
        return SectorResult(sector=sector.name, report=report)
    except (PortlabError, OSError, ValueError) as cause:
        with contextlib.suppress(OSError):  # the failure may be that sector_dir is not a directory
            _write_files(sector_dir, owned, {})
        return SectorResult(
            sector=sector.name,
            failure=SectorFailure(sector=sector.name, stage=stage, file=source, cause=str(cause)),
        )


def run_experiment(
    config: ExperimentConfig,
    sector_filter: str | None = None,
    fmt: str = "json",
    evaluate: bool = True,
    weights_dir: Path | None = None,
) -> tuple[int, list[SectorResult]]:
    """Process every sector (optionally filtered), write artifacts, summarize.

    Each sector builds its weights, or reads the ones exported under
    ``weights_dir/<sector>/`` when given. Sectors run one at a time, in
    config order; a failing sector is recorded and the others still run.
    Returns the exit status and per-sector results, plus one for sector ""
    when the root files cannot be written.
    """
    sectors = list(config.sectors)
    if sector_filter is not None:
        sectors = [s for s in sectors if s.name == sector_filter]
        if not sectors:
            raise ConfigError([f"--sector {sector_filter!r} matches no configured sector"])
    out_dir = Path(config.output_dir)
    fmt = "csv" if fmt == "csv" else "json"  # names the report files; any value but csv writes JSON
    results = [
        _run_one_sector(sector, config, out_dir, fmt, evaluate, weights_dir) for sector in sectors
    ]

    files = {}
    reports = [r.report for r in results if r.report is not None]
    if reports:
        summary = bt.summarize(reports)
        files[f"summary.{fmt}"] = bt.summary_to_csv(summary) if fmt == "csv" else bt.summary_to_json(summary)
    failures = [r.failure.as_dict() for r in results if r.failure is not None]
    if failures:
        files["errors.json"] = json.dumps(failures, indent=2, sort_keys=True) + "\n"
    try:
        _write_files(out_dir, ARTIFACTS["root"], files)
    except OSError as cause:  # e.g. the output directory is a regular file
        results.append(SectorResult("", failure=SectorFailure("", "write", str(out_dir), str(cause))))
    return (EXIT_PARTIAL if any(r.failure for r in results) else EXIT_OK), results


def _resolved_config(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config)
    text = os.environ.get(ENV_RISK_FREE)
    risk_free: object = text
    if text is not None:
        try:
            risk_free = float(text)
        except ValueError:
            pass  # the text itself fails the rule below
        setting = SETTINGS["risk_free_rate"]
        if not setting.accepts(risk_free):
            raise ConfigError([f"{ENV_RISK_FREE}: {setting.text}, got {text!r}"])
    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    output_dir = getattr(args, "out", None) or os.environ.get(ENV_OUTPUT_DIR)
    overrides = {"risk_free_rate": risk_free, "output_dir": output_dir}
    return replace(config, **{name: value for name, value in overrides.items() if value is not None})


def _emit_failures(results: list[SectorResult]) -> None:
    failures = [r.failure.as_dict() for r in results if r.failure is not None]
    if failures:
        print(json.dumps(failures, indent=2, sort_keys=True), file=sys.stderr)


def _cmd_run(
    args: argparse.Namespace, evaluate: bool = True, weights_dir: Path | None = None
) -> int:
    config = _resolved_config(args)
    if args.jobs != 1:
        print("warning: --jobs is deprecated and ignored; sectors run one at a time", file=sys.stderr)
    status, results = run_experiment(
        config,
        sector_filter=args.sector,
        fmt=args.format,
        evaluate=evaluate,
        weights_dir=weights_dir,
    )
    for result in results:
        if result.report is not None:
            print(bt.format_report_table(result.report))
        elif result.failure is None:
            print(f"{result.sector}: weights written")
    _emit_failures(results)
    return status


def _cmd_build(args: argparse.Namespace) -> int:
    return _cmd_run(args, evaluate=False)


def _cmd_backtest(args: argparse.Namespace) -> int:
    return _cmd_run(args, weights_dir=Path(args.weights))


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _resolved_config(args)
    print(json.dumps(config.as_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portlab",
        description="HRP and eigen portfolio construction with train/test backtesting",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="enable info logging")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--config", required=True, help="path to the experiment JSON config")
        sub.add_argument("--out", default=None, help="override the configured output directory")
        # accepted so existing command lines keep working; sectors run one at a time
        sub.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
        sub.add_argument("--format", choices=("json", "csv"), default="json")
        sub.add_argument("--sector", default=None, help="process only the named sector")

    run = commands.add_parser("run", help="full pipeline: build, backtest, report")
    add_common(run)
    run.set_defaults(handler=_cmd_run)

    build = commands.add_parser("build", help="construct and export weights only")
    add_common(build)
    build.set_defaults(handler=_cmd_build)

    backtest = commands.add_parser("backtest", help="evaluate previously exported weights")
    add_common(backtest)
    backtest.add_argument("--weights", required=True, help="directory holding per-sector weights")
    backtest.set_defaults(handler=_cmd_backtest)

    validate = commands.add_parser("validate", help="check a config file")
    validate.add_argument("--config", required=True)
    validate.add_argument("--out", default=None)
    validate.set_defaults(handler=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except ConfigError as bad:
        print(json.dumps({"config_errors": bad.problems}, indent=2), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
