"""Command-line front end: ingest -> build portfolios -> backtest -> reports.

Subcommands:
  run       full pipeline for every configured sector
  build     construct and export weights only
  backtest  evaluate previously exported weights
  validate  check a config file and print the resolved form

A failing sector never aborts the others; failures are reported as a JSON
error list on stderr and turn the exit status to 1. Config problems exit 2
before any computation. All artifact writes are atomic (temp file + rename)
and byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

from . import backtest as bt
from .config import ExperimentConfig, SectorConfig, load_config
from .eigen import fit_pca, min_components_for_variance, select_best_eigen
from .errors import ConfigError, PortlabError
from .hrp import HrpResult, build_hrp_portfolio, dendrogram_dict
from .market_data import PricePanel, align_panel, load_price_csv, parse_wide_csv, slice_period
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


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=path.parent, prefix=f".{path.name}.", delete=False
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


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


def _build_sector_portfolios(
    train_panel: PricePanel, config: ExperimentConfig
) -> tuple[HrpResult, PortfolioWeights, list]:
    """Both portfolios from one training-window covariance and correlation."""
    train_returns = daily_returns(train_panel)
    cov = sample_covariance(train_returns)
    corr = correlation(cov)
    if train_returns.n_obs < len(train_returns.tickers) + 1:
        logger.warning(
            "%d observations for %d assets; covariance is rank-deficient",
            train_returns.n_obs,
            len(train_returns.tickers),
        )
    hrp_result = build_hrp_portfolio(
        cov, corr, built_on=train_returns.dates[-1], linkage_method=config.linkage_method
    )
    model = fit_pca(corr if config.standardize else cov)
    k_max = min_components_for_variance(model, config.variance_threshold)
    eigen_weights, candidates = select_best_eigen(
        train_returns, model, k_max, config.risk_free_rate
    )
    return hrp_result, eigen_weights, candidates


def _candidate_csv(candidates: list, tickers: tuple[str, ...]) -> str:
    header = ["component_index", "in_sample_sharpe"] + list(tickers)
    lines = [",".join(header)]
    for candidate in candidates:
        cells = [str(candidate.component_index), repr(float(candidate.in_sample_sharpe))]
        cells.extend(repr(float(w)) for w in candidate.weights)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write_build_artifacts(
    out_dir: Path,
    sector: str,
    hrp_result: HrpResult,
    eigen_weights: PortfolioWeights,
    candidates: list,
) -> None:
    sector_dir = out_dir / sector
    tickers = hrp_result.weights.tickers
    _atomic_write(sector_dir / "weights_hrp.csv", hrp_result.weights.to_csv())
    _atomic_write(sector_dir / "weights_eigen.csv", eigen_weights.to_csv())
    _atomic_write(
        sector_dir / "dendrogram.json",
        json.dumps(dendrogram_dict(hrp_result.tree, tickers), indent=2, sort_keys=True) + "\n",
    )
    seriated = hrp_result.order.tickers(tickers)
    _atomic_write(
        sector_dir / "seriation.csv",
        "position,ticker\n" + "\n".join(f"{i},{t}" for i, t in enumerate(seriated)) + "\n",
    )
    _atomic_write(sector_dir / "eigen_candidates.csv", _candidate_csv(candidates, tickers))


def _load_weights(sector_dir: Path, config: ExperimentConfig) -> dict[str, PortfolioWeights]:
    return {
        method: weights_from_csv(
            (sector_dir / name).read_text(encoding="utf-8"), method, config.train.end
        )
        for method, name in (("HRP", "weights_hrp.csv"), ("EIGEN", "weights_eigen.csv"))
    }


def _write_report_artifacts(
    out_dir: Path, report: bt.BacktestReport, fmt: str
) -> None:
    sector_dir = out_dir / report.sector
    if fmt == "csv":
        _atomic_write(sector_dir / "report.csv", bt.report_to_csv(report))
    else:
        _atomic_write(sector_dir / "report.json", bt.report_to_json(report))
    if report.series:
        for method, by_period in sorted(report.series.items()):
            for period, series in sorted(by_period.items()):
                name = f"returns_{method.lower()}_{period}.csv"
                _atomic_write(sector_dir / name, series.to_csv())


def _run_one_sector(
    sector: SectorConfig,
    config: ExperimentConfig,
    out_dir: Path,
    fmt: str,
    evaluate: bool,
    weights_dir: Path | None,
) -> SectorResult:
    """ingest -> build weights (or load them from weights_dir) -> backtest -> write."""
    stage = "ingest"
    try:
        train_panel, test_panel = _load_sector_panels(sector, config)
        if weights_dir is None:
            stage = "build"
            hrp_result, eigen_weights, candidates = _build_sector_portfolios(train_panel, config)
            _write_build_artifacts(out_dir, sector.name, hrp_result, eigen_weights, candidates)
            weights = {"HRP": hrp_result.weights, "EIGEN": eigen_weights}
        else:
            stage = "load_weights"
            weights = _load_weights(weights_dir / sector.name, config)
        if not evaluate:
            return SectorResult(sector=sector.name)
        stage = "backtest"
        report = bt.evaluate(
            weights,
            train_panel,
            test_panel,
            risk_free=config.risk_free_rate,
            sector=sector.name,
            extra_metadata={"config_hash": config_hash(config), "alignment": config.alignment},
        )
        stage = "write"
        _write_report_artifacts(out_dir, report, fmt)
        return SectorResult(sector=sector.name, report=report)
    except (PortlabError, OSError, ValueError) as cause:
        source = str(weights_dir / sector.name) if stage == "load_weights" else sector.data
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
    Returns the exit status and per-sector results.
    """
    sectors = list(config.sectors)
    if sector_filter is not None:
        sectors = [s for s in sectors if s.name == sector_filter]
        if not sectors:
            raise ConfigError([f"--sector {sector_filter!r} matches no configured sector"])
    out_dir = Path(config.output_dir)
    results = [
        _run_one_sector(sector, config, out_dir, fmt, evaluate, weights_dir) for sector in sectors
    ]

    reports = [r.report for r in results if r.report is not None]
    if evaluate and reports:
        summary = bt.summarize(reports)
        if fmt == "csv":
            _atomic_write(out_dir / "summary.csv", bt.summary_to_csv(summary))
        else:
            _atomic_write(out_dir / "summary.json", bt.summary_to_json(summary))

    failures = [r.failure for r in results if r.failure is not None]
    if failures:
        _atomic_write(
            out_dir / "errors.json",
            json.dumps([f.as_dict() for f in failures], indent=2, sort_keys=True) + "\n",
        )
    return (EXIT_PARTIAL if failures else EXIT_OK), results


def _resolved_config(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config)
    risk_free = None
    if ENV_RISK_FREE in os.environ:
        try:
            risk_free = float(os.environ[ENV_RISK_FREE])
        except ValueError as bad:
            raise ConfigError([f"{ENV_RISK_FREE}: {bad}"]) from bad
        if not math.isfinite(risk_free):
            raise ConfigError([f"{ENV_RISK_FREE}: must be a finite number, got {risk_free}"])
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
