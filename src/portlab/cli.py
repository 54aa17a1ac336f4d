"""Command-line front end: ingest -> build portfolios -> backtest -> reports.

Subcommands:
  run       full pipeline for every configured sector
  build     construct and export weights only
  backtest  evaluate previously exported weights
  validate  check a config file and print the resolved form

A failing sector never aborts the others; failures are reported as a JSON
error list on stderr and turn the exit status to 1. Config problems exit 2
before any computation. Each artifact write is atomic (temp file + rename)
and byte-deterministic for identical inputs under one BLAS thread
configuration. ``run`` and ``build`` replace every artifact of the sectors
they process, ``backtest`` all but the build files it reads, and all three
the summary and error list; a failed sector keeps none of the files its
command replaces.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterator, get_args

from . import backtest as bt
from .config import ROOT_ARTIFACTS, SETTINGS, ExperimentConfig, SectorConfig, load_config
from .eigen import EigenCandidate, fit_pca, min_components_for_variance, select_best_eigen
from .errors import ConfigError, PortlabError
from .hrp import build_hrp_portfolio, dendrogram_json
from .market_data import (
    PricePanel, _csv_text, _dated_csv_text, align_panel, parse_price_csv, parse_wide_csv, slice_period
)
from .portfolio import Method, PortfolioWeights, weights_from_csv
from .returns_stats import correlation, daily_returns, sample_covariance

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2

METHODS: tuple[Method, ...] = get_args(Method)  # HRP first: the order weights are loaded in


@dataclass
class SectorFailure:
    sector: str
    stage: str
    file: str
    cause: str


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
    "build": {
        *(f"weights_{m.lower()}.csv" for m in METHODS), "dendrogram.json", "seriation.csv", "eigen_candidates.csv"
    },
    "report": {"report.json", "report.csv", *(f"returns_{m.lower()}_{p}.csv" for m in METHODS for p in bt.PERIODS)},
    "root": set(ROOT_ARTIFACTS),
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
    for name in sorted(owned - files.keys()):  # one order, so a failed write leaves one state
        (directory / name).unlink(missing_ok=True)


def config_hash(config: ExperimentConfig) -> str:
    """Hash of what the experiment computes; the locations of its input and output are left out."""
    resolved = config.as_dict()
    for key in ("applied_defaults", "warnings", "output_dir"):
        resolved.pop(key)
    resolved["sectors"] = [{k: v for k, v in s.items() if k != "data"} for s in resolved["sectors"]]
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _read_inputs(sector: SectorConfig, digest: hashlib._Hash) -> Iterator[bytes]:
    """The bytes of each input file of ``sector`` in config order, read when asked for, after ``digest``
    takes its base name, length and bytes. A wide file's path is opened as configured, so errors name it."""
    wide = sector.input_format == "wide"
    for path in [sector.data] if wide else [Path(sector.data) / f"{ticker}.csv" for ticker in sector.tickers]:
        with open(path, "rb") as handle:
            raw = handle.read()
        digest.update(os.fsencode(os.path.basename(path)) + b"\0" + len(raw).to_bytes(8, "little"))
        digest.update(raw)
        yield raw


def _load_sector_panels(sector: SectorConfig, config: ExperimentConfig) -> tuple[PricePanel, PricePanel, str]:
    """The train and test panels of ``sector``, and the sha256 of the input they were read from."""
    digest = hashlib.sha256()
    inputs = _read_inputs(sector, digest)
    if sector.input_format == "wide":
        prices = parse_wide_csv(next(inputs), sector.tickers or None)
    else:
        prices = list(map(parse_price_csv, inputs, sector.tickers))
    panel = align_panel(prices, config.alignment)
    return slice_period(panel, config.train), slice_period(panel, config.test), digest.hexdigest()


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
    weights = {"HRP": hrp.weights, "EIGEN": eigen_weights}
    files = {
        **{f"weights_{method.lower()}.csv": w.to_csv() for method, w in weights.items()},
        "dendrogram.json": dendrogram_json(hrp.tree, tickers),
        "seriation.csv": _csv_text(("position", "ticker"), enumerate(hrp.order.tickers(tickers))),
        "eigen_candidates.csv": _csv_text(EigenCandidate._fields, candidates),
    }
    return weights, files


def _load_weights(sector_dir: Path) -> dict[str, PortfolioWeights]:
    weights = {}
    for method in METHODS:
        # newline="": a carriage return inside a quoted ticker stays one
        with (sector_dir / f"weights_{method.lower()}.csv").open(encoding="utf-8", newline="") as handle:
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
        train_panel, test_panel, input_sha256 = _load_sector_panels(sector, config)
        if weights_dir is None:
            stage = "build"
            weights, files = _build_sector(train_panel, config)
        else:
            stage, source = "load_weights", str(weights_dir / sector.name)
            weights = _load_weights(weights_dir / sector.name)
        if evaluate:
            stage, source = "backtest", sector.data
            metadata = {"config_hash": config_hash(config), "alignment": config.alignment, "input_sha256": input_sha256}
            report = bt.evaluate(
                weights, train_panel, test_panel, config.risk_free_rate, sector=sector.name, extra_metadata=metadata
            )
            files[f"report.{fmt}"] = bt.report_to_csv(report) if fmt == "csv" else bt.report_to_json(report)
            for period, series in report.series.items():
                for method, col in zip(series.tickers, series.values.T):
                    text = _dated_csv_text(("date", "return"), series.dates, col)
                    files[f"returns_{method.lower()}_{period}.csv"] = text
        stage, source = "write", str(sector_dir)
        _write_files(sector_dir, owned, files)
        return SectorResult(sector=sector.name, report=report)
    except (PortlabError, OSError, ValueError) as cause:
        for name in owned:  # each name on its own: sector_dir may not be a directory, or a name one
            with contextlib.suppress(OSError):
                (sector_dir / name).unlink(missing_ok=True)
        return SectorResult(
            sector=sector.name,
            failure=SectorFailure(sector=sector.name, stage=stage, file=source, cause=str(cause)),
        )


def _report_in_tree(out_dir: Path, sector: SectorConfig, current_hash: str) -> bt.BacktestReport | None:
    """The report an earlier run left for ``sector`` under ``out_dir``, if it was computed under
    ``current_hash`` from the bytes the sector's input files hold now."""
    try:
        report = bt.report_from_json((out_dir / sector.name / "report.json").read_text(encoding="utf-8"))
        if report.sector != sector.name or report.metadata.get("config_hash") != current_hash:
            return None
        digest = hashlib.sha256()
        collections.deque(_read_inputs(sector, digest), maxlen=0)  # hashed, not parsed
        return report if report.metadata.get("input_sha256") == digest.hexdigest() else None
    except (OSError, ValueError):  # missing or not a report, or an input file is missing
        return None


def _failures_json(results: list[SectorResult]) -> str:
    """The failed sectors as the JSON list ``errors.json`` and stderr show, or "" when none failed."""
    failures = [asdict(r.failure) for r in results if r.failure is not None]
    return json.dumps(failures, indent=2, sort_keys=True) + "\n" if failures else ""


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
    The summary covers, in config order, the sectors this run evaluated and,
    for JSON, every sector it did not run whose ``report.json`` is a report
    of that sector under the current config hash and input bytes.
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
    ran, current = {r.sector: r.report for r in results}, config_hash(config)
    reports = [  # CSV reports carry no config_hash to match
        ran[s.name] if s.name in ran else _report_in_tree(out_dir, s, current) if fmt == "json" else None
        for s in config.sectors
    ]
    reports = [report for report in reports if report is not None]
    if reports:
        summary = bt.summarize(reports)
        files[f"summary.{fmt}"] = bt.summary_to_csv(summary) if fmt == "csv" else bt.summary_to_json(summary)
    if failures := _failures_json(results):
        files["errors.json"] = failures
    try:
        _write_files(out_dir, ARTIFACTS["root"], files)
    except OSError as cause:  # e.g. the output directory is a regular file
        results.append(SectorResult("", failure=SectorFailure("", "write", str(out_dir), str(cause))))
    return (EXIT_PARTIAL if any(r.failure for r in results) else EXIT_OK), results


def _resolved_config(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config)
    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.out and not SETTINGS["output_dir"].accepts(args.out):  # "" keeps the configured directory
        raise ConfigError([f"--out: {SETTINGS['output_dir'].text}"])
    return replace(config, output_dir=args.out) if args.out else config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _resolved_config(args)
    if args.jobs != 1:
        print("warning: --jobs is deprecated and ignored; sectors run one at a time", file=sys.stderr)
    status, results = run_experiment(
        config,
        sector_filter=args.sector,
        fmt=args.format,
        evaluate=args.evaluate,
        weights_dir=None if args.weights is None else Path(args.weights),
    )
    for result in results:
        if result.report is not None:
            print(bt.format_report_table(result.report))
        elif result.failure is None:
            print(f"{result.sector}: weights written")
    sys.stderr.write(_failures_json(results))
    return status


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
    run.set_defaults(handler=_cmd_run, evaluate=True, weights=None)

    build = commands.add_parser("build", help="construct and export weights only")
    add_common(build)
    build.set_defaults(handler=_cmd_run, evaluate=False, weights=None)

    backtest = commands.add_parser("backtest", help="evaluate previously exported weights")
    add_common(backtest)
    backtest.add_argument("--weights", required=True, help="directory holding per-sector weights")
    backtest.set_defaults(handler=_cmd_run, evaluate=True)

    validate = commands.add_parser("validate", help="check a config file")
    validate.add_argument("--config", required=True)
    validate.add_argument("--out", default=None)
    validate.set_defaults(handler=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")  # a handler, unless one is installed
    logging.getLogger().setLevel(logging.INFO if args.verbose else logging.WARNING)  # per call, not only the first
    try:
        return args.handler(args)
    except ConfigError as bad:
        print(json.dumps({"config_errors": bad.problems}, indent=2), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
