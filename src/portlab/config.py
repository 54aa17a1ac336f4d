"""Experiment configuration: parsing, defaulting, and validation.

The config is one JSON document. Validation aggregates every problem into a
single ConfigError instead of failing fast; unknown keys produce warnings so
configs stay forward compatible. Every default that gets applied is echoed
on the parsed result.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from datetime import date
from importlib import resources
from pathlib import Path
from typing import Any

from .errors import ConfigError
from .hrp import LinkageMethod
from .market_data import AlignmentPolicy, PeriodSpec

DEFAULTS: dict[str, Any] = {
    "risk_free_rate": 0.0,
    "alignment": "intersection",
    "hrp.distance": "sqrt_half",
    "hrp.linkage": "ward",
    "eigen.standardize": True,
    "eigen.variance_threshold": 0.8,
    "output_dir": "out",
}

_TOP_LEVEL_KEYS = {
    "sectors",
    "train",
    "test",
    "risk_free_rate",
    "alignment",
    "hrp",
    "eigen",
    "output_dir",
}
_SECTOR_KEYS = {"name", "data", "tickers", "format"}


@dataclass(frozen=True)
class SectorConfig:
    """One sector's name, data location, and input layout."""

    name: str
    data: str
    tickers: tuple[str, ...]
    input_format: str  # "per_ticker": <data>/<TICKER>.csv; "wide": <data> is one CSV


@dataclass(frozen=True)
class ExperimentConfig:
    sectors: tuple[SectorConfig, ...]
    train: PeriodSpec
    test: PeriodSpec
    risk_free_rate: float
    alignment: AlignmentPolicy
    linkage_method: LinkageMethod
    standardize: bool
    variance_threshold: float
    output_dir: str
    applied_defaults: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "sectors": [
                {
                    "name": s.name,
                    "data": s.data,
                    "tickers": list(s.tickers),
                    "format": s.input_format,
                }
                for s in self.sectors
            ],
            "train": {"start": self.train.start.isoformat(), "end": self.train.end.isoformat()},
            "test": {"start": self.test.start.isoformat(), "end": self.test.end.isoformat()},
            "risk_free_rate": self.risk_free_rate,
            "alignment": self.alignment,
            "hrp": {"distance": "sqrt_half", "linkage": self.linkage_method},
            "eigen": {
                "standardize": self.standardize,
                "variance_threshold": self.variance_threshold,
            },
            "output_dir": self.output_dir,
            "applied_defaults": list(self.applied_defaults),
            "warnings": list(self.warnings),
        }


def _parse_period(
    raw: Any, label: str, problems: list[str]
) -> PeriodSpec | None:
    if not isinstance(raw, dict) or "start" not in raw or "end" not in raw:
        problems.append(f"{label}: expected an object with 'start' and 'end'")
        return None
    try:
        start = date.fromisoformat(str(raw["start"]))
        end = date.fromisoformat(str(raw["end"]))
    except ValueError as bad:
        problems.append(f"{label}: {bad}")
        return None
    if start > end:
        problems.append(f"{label}: start {start} is after end {end}")
        return None
    return PeriodSpec(label=label, start=start, end=end)  # type: ignore[arg-type]


def _parse_sector(raw: Any, position: int, problems: list[str], warnings: list[str]) -> SectorConfig | None:
    where = f"sectors[{position}]"
    if not isinstance(raw, dict):
        problems.append(f"{where}: expected an object")
        return None
    for key in raw:
        if key not in _SECTOR_KEYS:
            warnings.append(f"{where}: unknown key {key!r} ignored")
    name = raw.get("name")
    data = raw.get("data")
    if not name or not isinstance(name, str):
        problems.append(f"{where}.name: required string")
        return None
    if not data or not isinstance(data, str):
        problems.append(f"{where} ({name}).data: required string path")
        return None
    input_format = raw.get("format", "per_ticker")
    if input_format not in ("per_ticker", "wide"):
        problems.append(f"{where} ({name}).format: must be 'per_ticker' or 'wide'")
        return None
    tickers = raw.get("tickers")
    if tickers is None:
        if input_format == "per_ticker":
            problems.append(f"{where} ({name}).tickers: required for per_ticker format")
            return None
        tickers = []
    if not isinstance(tickers, list) or not all(isinstance(t, str) and t for t in tickers):
        problems.append(f"{where} ({name}).tickers: must be a list of ticker strings")
        return None
    if tickers and len(tickers) < 2:
        problems.append(f"{where} ({name}).tickers: a sector needs at least 2 tickers")
        return None
    if len(set(tickers)) != len(tickers):
        problems.append(f"{where} ({name}).tickers: duplicates present")
        return None
    return SectorConfig(name=name, data=data, tickers=tuple(tickers), input_format=input_format)


def validate_config(raw: dict[str, Any]) -> ExperimentConfig:
    """Check all invariants, fill defaults, and return the resolved config.

    Raises ConfigError carrying the full list of problems found.
    """
    problems: list[str] = []
    warnings: list[str] = []
    applied: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])

    for key in raw:
        if key not in _TOP_LEVEL_KEYS:
            warnings.append(f"unknown key {key!r} ignored")

    def pick(key: str, section: dict[str, Any] | None = None) -> Any:
        source = raw if section is None else section
        short = key.split(".")[-1]
        if short in source:
            return source[short]
        applied.append(key)
        return DEFAULTS[key]

    sectors_raw = raw.get("sectors")
    sectors: list[SectorConfig] = []
    if not isinstance(sectors_raw, list) or not sectors_raw:
        problems.append("sectors: at least one sector is required")
    else:
        for position, entry in enumerate(sectors_raw):
            sector = _parse_sector(entry, position, problems, warnings)
            if sector is not None:
                sectors.append(sector)
        names = [s.name for s in sectors]
        if len(set(names)) != len(names):
            problems.append("sectors: names must be unique")

    train = _parse_period(raw.get("train"), "train", problems)
    test = _parse_period(raw.get("test"), "test", problems)
    if train is not None and test is not None and train.overlaps(test):
        problems.append("train and test periods overlap")

    risk_free = pick("risk_free_rate")
    # a bound, not math.isfinite, which raises on json integers beyond float range; NaN fails it too
    finite = isinstance(risk_free, (int, float)) and abs(risk_free) <= sys.float_info.max
    if not finite or isinstance(risk_free, bool):
        problems.append("risk_free_rate: must be a finite number")
        risk_free = 0.0

    alignment = pick("alignment")
    if alignment not in ("intersection", "forward_fill"):
        problems.append("alignment: must be 'intersection' or 'forward_fill'")

    hrp_section = raw.get("hrp", {})
    if not isinstance(hrp_section, dict):
        problems.append("hrp: expected an object")
        hrp_section = {}
    for key in hrp_section:
        if key not in ("distance", "linkage"):
            warnings.append(f"hrp: unknown key {key!r} ignored")
    distance = pick("hrp.distance", hrp_section)
    if distance == "euclidean_returns":
        warnings.append(
            "hrp.distance: 'euclidean_returns' is deprecated; it orders and weights assets "
            "exactly like 'sqrt_half', which is used instead"
        )
    elif distance != "sqrt_half":
        problems.append("hrp.distance: must be 'sqrt_half'")
    linkage = pick("hrp.linkage", hrp_section)
    if linkage not in ("ward", "single", "complete", "average"):
        problems.append("hrp.linkage: must be one of ward, single, complete, average")

    eigen_section = raw.get("eigen", {})
    if not isinstance(eigen_section, dict):
        problems.append("eigen: expected an object")
        eigen_section = {}
    for key in eigen_section:
        if key not in ("standardize", "variance_threshold"):
            warnings.append(f"eigen: unknown key {key!r} ignored")
    standardize = pick("eigen.standardize", eigen_section)
    if not isinstance(standardize, bool):
        problems.append("eigen.standardize: must be true or false")
        standardize = True
    threshold = pick("eigen.variance_threshold", eigen_section)
    if (
        not isinstance(threshold, (int, float))
        or isinstance(threshold, bool)
        or not 0.0 < float(threshold) <= 1.0
    ):
        problems.append(f"eigen.variance_threshold: must be in (0, 1], got {threshold!r}")
        threshold = 0.8

    output_dir = pick("output_dir")
    if not isinstance(output_dir, str) or not output_dir:
        problems.append("output_dir: must be a non-empty string")
        output_dir = "out"

    if problems:
        raise ConfigError(problems)
    assert train is not None and test is not None
    return ExperimentConfig(
        sectors=tuple(sectors),
        train=train,
        test=test,
        risk_free_rate=float(risk_free),
        alignment=alignment,
        linkage_method=linkage,
        standardize=standardize,
        variance_threshold=float(threshold),
        output_dir=output_dir,
        applied_defaults=tuple(applied),
        warnings=tuple(warnings),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as bad:
        raise ConfigError([f"cannot read config {path}: {bad}"]) from bad
    except json.JSONDecodeError as bad:
        raise ConfigError([f"config {path} is not valid JSON: {bad}"]) from bad
    return validate_config(raw)


def load_sector_constituents() -> dict[str, Any]:
    """Bundled sector constituent lists with their index contributions."""
    text = resources.files("portlab.data").joinpath("sector_constituents.json").read_text("utf-8")
    return json.loads(text)
