"""Checks run on every invocation's artifacts, outside the timed region."""

from __future__ import annotations

import hashlib
from pathlib import Path

WEIGHT_SUM_TOL = 1e-9


def read_weights(path: Path) -> dict[str, float]:
    """``ticker,weight`` CSV as a dict, in file order."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "ticker,weight":
        raise ValueError(f"{path}: header is not 'ticker,weight'")
    return {t: float(w) for t, w in (line.split(",") for line in lines[1:] if line)}


def weight_problems(path: Path, long_only: bool) -> list[str]:
    weights = read_weights(path)
    problems = []
    total = sum(weights.values())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        problems.append(f"{path}: weights sum to {total!r}")
    if long_only and not all(0.0 < w <= 1.0 for w in weights.values()):
        problems.append(f"{path}: HRP weight outside (0, 1]")
    return problems


def inspect_output(out: Path, expected_files: list[str]) -> dict:
    """Artifact count, bytes and hash of one output tree, plus any problems."""
    files = sorted(p for p in out.rglob("*") if p.is_file())
    names = [p.relative_to(out).as_posix() for p in files]
    problems = [f"missing artifact {name}" for name in sorted(set(expected_files) - set(names))]
    problems += [f"unexpected artifact {name}" for name in sorted(set(names) - set(expected_files))]
    digest = hashlib.sha256()
    total = 0
    for path, name in zip(files, names):
        data = path.read_bytes()
        total += len(data)
        digest.update(name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        try:
            if path.name == "weights_hrp.csv":
                problems += weight_problems(path, long_only=True)
            elif path.name == "weights_eigen.csv":
                problems += weight_problems(path, long_only=False)
        except ValueError as bad:
            problems.append(str(bad))
    return {"hash": digest.hexdigest(), "artifacts": len(files), "bytes_written": total, "problems": problems}
