"""Experiment configuration: parsing, defaulting, and validation.

The config is one JSON document. Validation aggregates every problem into a
single ConfigError instead of failing fast; unknown keys produce warnings so
configs stay forward compatible. Each scalar setting's default, accepted values
and problem text live once, in SETTINGS; every default that gets applied is
echoed on the parsed result.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple, get_args

from .errors import ConfigError
from .hrp import LinkageMethod
from .market_data import AlignmentPolicy, PeriodSpec, _iso_day


class Setting(NamedTuple):
    """A scalar setting's default, its value test, and the problem text for a failing value."""

    default: Any
    accepts: Callable[[Any], bool]
    text: str


def _number(low: float, high: float) -> Callable[[Any], bool]:
    # a json number, not a bool, in [low, high]; comparing an int with a float never
    # overflows (float() of a 400-digit int does), and NaN fails both bounds
    return lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and low <= v <= high


_finite = _number(-sys.float_info.max, sys.float_info.max)


def _one_of(*choices: str) -> Callable[[Any], bool]:
    return lambda v: v in choices


ALIGNMENTS, LINKAGES = get_args(AlignmentPolicy), get_args(LinkageMethod)


SETTINGS: dict[str, Setting] = {
    "risk_free_rate": Setting(0.0, _finite, "must be a finite number"),
    "alignment": Setting("intersection", _one_of(*ALIGNMENTS), f"must be {' or '.join(map(repr, ALIGNMENTS))}"),
    "hrp.distance": Setting("sqrt_half", _one_of("sqrt_half"), "must be 'sqrt_half'"),
    "hrp.linkage": Setting("ward", _one_of(*LINKAGES), f"must be one of {', '.join(LINKAGES)}"),
    "eigen.standardize": Setting(True, lambda v: isinstance(v, bool), "must be true or false"),
    # (0, 1], as no float lies strictly between 0 and math.ulp(0.0)
    "eigen.variance_threshold": Setting(
        0.8, _number(math.ulp(0.0), 1.0), "must be a number in (0, 1]"
    ),
    "output_dir": Setting(
        "out", lambda v: isinstance(v, str) and v != "" and "\0" not in v,
        "must be a non-empty string without NUL",
    ),
}
_TOP_LEVEL = ("sectors", "train", "test", *(key.partition(".")[0] for key in SETTINGS))
ROOT_ARTIFACTS = ("summary.json", "summary.csv", "errors.json")  # the files beside the sector directories


def _warn_unknown(obj: dict[str, Any], known: Iterable[str], where: str, warnings: list[str]) -> None:
    prefix = f"{where}: " if where else ""
    warnings.extend(f"{prefix}unknown key {key!r} ignored" for key in obj if key not in known)


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
                {"name": s.name, "data": s.data, "tickers": list(s.tickers), "format": s.input_format}
                for s in self.sectors
            ],
            "train": {"start": self.train.start.isoformat(), "end": self.train.end.isoformat()},
            "test": {"start": self.test.start.isoformat(), "end": self.test.end.isoformat()},
            "risk_free_rate": self.risk_free_rate,
            "alignment": self.alignment,
            "hrp": {"distance": "sqrt_half", "linkage": self.linkage_method},
            "eigen": {"standardize": self.standardize, "variance_threshold": self.variance_threshold},
            "output_dir": self.output_dir,
            "applied_defaults": list(self.applied_defaults),
            "warnings": list(self.warnings),
        }


def _parse_period(raw: Any, label: str, problems: list[str]) -> PeriodSpec | None:
    if not isinstance(raw, dict) or "start" not in raw or "end" not in raw:
        problems.append(f"{label}: expected an object with 'start' and 'end'")
        return None
    try:
        start, end = (_iso_day(str(raw[key])) for key in ("start", "end"))
        return PeriodSpec(label=label, start=start, end=end)  # type: ignore[arg-type]
    except ValueError as bad:
        problems.append(f"{label}: {bad}")
        return None


def _parse_sector(raw: Any, position: int, problems: list[str], warnings: list[str]) -> SectorConfig | None:
    where = f"sectors[{position}]"
    if not isinstance(raw, dict):
        problems.append(f"{where}: expected an object")
        return None
    _warn_unknown(raw, ("name", "data", "tickers", "format"), where, warnings)
    name, data, tickers = raw.get("name"), raw.get("data"), raw.get("tickers")
    input_format = raw.get("format", "per_ticker")
    if not name or not isinstance(name, str):
        problems.append(f"{where}.name: required string")
        return None
    if tickers is None and input_format == "wide":
        tickers = []
    # the name is the sector's directory beside the root files; no leading '.' keeps it off the temp files too
    if name.startswith(".") or name in ROOT_ARTIFACTS or any(c in name for c in "/\\\0"):
        problem = f"name: one path component, no leading '.', no '/', '\\' or NUL, not {', '.join(ROOT_ARTIFACTS)}"
    elif not data or not isinstance(data, str):
        problem = "data: required string path"
    elif input_format not in ("per_ticker", "wide"):
        problem = "format: must be 'per_ticker' or 'wide'"
    elif tickers is None:
        problem = "tickers: required for per_ticker format"
    elif not isinstance(tickers, list) or not all(isinstance(t, str) and t and t == t.strip() for t in tickers):
        problem = "tickers: must be a list of ticker strings, none empty or with spaces around it"
    elif len(tickers) == 1 or (not tickers and input_format == "per_ticker"):
        problem = "tickers: a sector needs at least 2 tickers"
    elif len(set(tickers)) != len(tickers):
        problem = "tickers: duplicates present"
    else:
        return SectorConfig(name=name, data=data, tickers=tuple(tickers), input_format=input_format)
    problems.append(f"{where} ({name}).{problem}")
    return None


def validate_config(raw: dict[str, Any]) -> ExperimentConfig:
    """Check every rule and fill defaults; raise ConfigError listing all problems found."""
    problems: list[str] = []
    warnings: list[str] = []
    applied: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["config root must be a JSON object"])
    _warn_unknown(raw, _TOP_LEVEL, "", warnings)

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

    sections: dict[str, dict[str, Any]] = {"": raw}
    values: dict[str, Any] = {}
    for key, setting in SETTINGS.items():
        name, _, short = key.rpartition(".")
        if name not in sections:
            sections[name] = raw.get(name, {})
            if not isinstance(sections[name], dict):
                problems.append(f"{name}: expected an object")
                sections[name] = {}
            known = [k.rpartition(".")[2] for k in SETTINGS if k.startswith(f"{name}.")]
            _warn_unknown(sections[name], known, name, warnings)
        if short not in sections[name]:
            applied.append(key)
        values[key] = sections[name].get(short, setting.default)
        if not setting.accepts(values[key]):
            problems.append(f"{key}: {setting.text}")
            values[key] = setting.default

    if problems:
        raise ConfigError(problems)
    assert train is not None and test is not None
    return ExperimentConfig(
        sectors=tuple(sectors),
        train=train,
        test=test,
        risk_free_rate=float(values["risk_free_rate"]),
        alignment=values["alignment"],
        linkage_method=values["hrp.linkage"],
        standardize=values["eigen.standardize"],
        variance_threshold=float(values["eigen.variance_threshold"]),
        output_dir=values["output_dir"],
        applied_defaults=tuple(applied),
        warnings=tuple(warnings),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except (OSError, ValueError) as bad:  # ValueError: a NUL in the path
        raise ConfigError([f"cannot read config {path}: {bad}"]) from bad
    try:
        raw = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as bad:  # bad syntax or bytes, integers over 4,300 digits, deep nesting
        raise ConfigError([f"config {path} is not valid JSON: {bad}"]) from bad
    return validate_config(raw)
