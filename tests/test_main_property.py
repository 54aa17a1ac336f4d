"""No input ends in a traceback: ``cli.main`` over generated configs, CSV bytes and output paths.

Each example starts from one small ``write_fixture`` tree, copies its data,
then breaks the config (a dropped key, a value of the wrong type, deep
nesting), the price files (truncation, NUL, BOM, a lone carriage return,
swapped rows, an overflowing or underflowing close) and the output path (fresh,
an existing file, or below one). Whatever it gets, ``main`` returns 0, 1 or 2:
on 1 or 2 stderr ends in the error JSON, and on 0 every file the command owns
is there and every JSON file in the tree parses with NaN and Infinity rejected.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import strict_json
from portlab.cli import ARTIFACTS, EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL, main
from portlab.config import load_config
from portlab.synthetic import write_fixture

DEEP = "__deep__"  # a value the config text nests this deep; json.dumps would recurse
CONFIG_PATHS = [
    ("sectors",),
    ("sectors", 0),
    ("sectors", 0, "name"),
    ("sectors", 0, "data"),
    ("sectors", 0, "tickers"),
    ("sectors", 1, "tickers", 0),
    ("sectors", 1, "format"),
    ("train",),
    ("train", "start"),
    ("test", "end"),
    ("risk_free_rate",),
    ("alignment",),
    ("hrp",),
    ("hrp", "linkage"),
    ("eigen", "standardize"),
    ("eigen", "variance_threshold"),
    ("output_dir",),
]
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**400), 10**400),  # str() of an int past 4,300 digits raises in json.dumps itself
    st.floats(),  # NaN and infinities are written as NaN and Infinity
    st.sampled_from(["", "x", "wide", "2021-13-01", "2016-01-01", "..", "a/b"]),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.sampled_from(["start", "end", "name"]), st.integers(0, 3), max_size=2),
)
CONFIG_EDITS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(CONFIG_PATHS)),
    st.tuples(st.just("replace"), st.sampled_from(CONFIG_PATHS), JSON_VALUES),
    st.tuples(st.just("deep"), st.sampled_from(CONFIG_PATHS), st.sampled_from([10, 900, 5_000, 100_000])),
)
CSV_EDITS = st.tuples(
    st.sampled_from(["truncate", "nul", "bom", "lone_cr", "swap", "1e400", "1e-400"]),
    st.integers(0, 7),  # which of the fixture's eight files
    st.floats(0.0, 1.0),  # where in it
    st.floats(0.0, 1.0),  # the second row of a swap
)


@pytest.fixture(scope="module")
def fixture_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixture")
    write_fixture(root, n_sectors=2, tickers_per_sector=4, seed=3)
    return root


def edit_config(config, edit):
    """Apply one config edit in place; an edit whose path an earlier edit broke does nothing."""
    kind, path, *value = edit
    *parents, last = path
    container = config
    try:
        for key in parents:
            container = container[key]
        if kind == "drop":
            del container[last]
        else:
            container[last] = value[0] if kind == "replace" else f"{DEEP}{value[0]}"
    except (KeyError, IndexError, TypeError):
        pass


def config_text(config):
    text = json.dumps(config, indent=2)
    for depth in (10, 900, 5_000, 100_000):
        text = text.replace(f'"{DEEP}{depth}"', "[" * depth + "]" * depth)
    return text


def edit_csv(path, edit):
    kind, _, where, other = edit
    data = path.read_bytes()
    at = int(where * len(data))
    lines = data.split(b"\n")
    rows = len(lines) - 2  # the data rows of an intact file, which ends in a line feed
    if kind == "truncate":
        data = data[:at]
    elif kind == "nul":
        data = data[:at] + b"\0" + data[at:]
    elif kind == "bom":
        data = b"\xef\xbb\xbf" + data
    elif kind == "lone_cr":
        data = data[:at] + data[at:].replace(b"\n", b"\r", 1)
    elif rows < 1:  # no data row left to swap or rewrite
        return
    elif kind == "swap":
        row, row2 = 1 + int(where * (rows - 1)), 1 + int(other * (rows - 1))
        lines[row], lines[row2] = lines[row2], lines[row]
        data = b"\n".join(lines)
    else:  # a close past float range, or below its least subnormal
        row = 1 + int(where * (rows - 1))
        lines[row] = lines[row].split(b",")[0] + b"," + kind.encode()
        data = b"\n".join(lines)
    path.write_bytes(data)


def owned_files(config_path, command, fmt):
    """Every file a successful ``command`` leaves in its output tree."""
    per_sector = set(ARTIFACTS["build"])
    root = set()
    if command == "run":
        per_sector |= {f"report.{fmt}"} | {name for name in ARTIFACTS["report"] if name.startswith("returns_")}
        root = {f"summary.{fmt}"}
    sectors = [sector.name for sector in load_config(config_path).sectors]
    return root | {f"{sector}/{name}" for sector in sectors for name in per_sector}


@settings(deadline=None, max_examples=100, derandomize=True)
@given(
    config_edits=st.lists(CONFIG_EDITS, max_size=2),
    csv_edits=st.lists(CSV_EDITS, max_size=3),
    out_kind=st.sampled_from(["fresh", "file", "below_file", "nul"]),
    command=st.sampled_from(["run", "build"]),
    fmt=st.sampled_from(["json", "csv"]),
)
def test_main_exits_0_1_or_2_and_explains_itself(fixture_root, config_edits, csv_edits, out_kind, command, fmt):
    work = Path(tempfile.mkdtemp(dir=fixture_root))
    try:
        shutil.copytree(fixture_root / "data", work / "data")
        config = json.loads((fixture_root / "config.json").read_text(encoding="utf-8"))
        for sector in config["sectors"]:
            sector["data"] = str(work / "data" / sector["name"])
        for edit in config_edits:
            edit_config(config, edit)
        config_path = work / "config.json"
        config_path.write_text(config_text(config), encoding="utf-8")
        files = sorted((work / "data").rglob("*.csv"))
        for edit in csv_edits:
            edit_csv(files[edit[1]], edit)
        out = work / ("o\0ut" if out_kind == "nul" else "out")
        if out_kind in ("file", "below_file"):
            (work / "file").write_text("not a directory\n", encoding="utf-8")
            out = work / "file" if out_kind == "file" else work / "file" / "out"

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main([command, "--config", str(config_path), "--out", str(out), "--format", fmt])

        assert status in (EXIT_OK, EXIT_PARTIAL, EXIT_CONFIG)
        assert status == EXIT_CONFIG or out_kind != "nul"  # --out is held to the output_dir rule
        if status == EXIT_OK:
            written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
            assert owned_files(config_path, command, fmt) <= written
            for path in out.rglob("*.json"):  # NaN and Infinity are not JSON
                strict_json(path.read_text(encoding="utf-8"))
            return
        lines = stderr.getvalue().splitlines(keepends=True)
        start = next(i for i, line in enumerate(lines) if line.startswith(("{", "[")))
        errors = json.loads("".join(lines[start:]))
        if status == EXIT_CONFIG:
            assert list(errors) == ["config_errors"] and errors["config_errors"]
        else:
            assert errors and all(set(e) == {"sector", "stage", "file", "cause"} for e in errors)
    finally:
        shutil.rmtree(work)
