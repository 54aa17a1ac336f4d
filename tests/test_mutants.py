"""The mutation survey's list stays applicable: each mutant's text is still in its module, once."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[f"{n}-{m.file}" for n, m in enumerate(mutants.MUTANTS, 1)])
def test_old_text_occurs_exactly_once(mutant):
    source = (ROOT / "src" / "portlab" / mutant.file).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_every_module_with_logic_has_three_mutants():
    counts = Counter(m.file for m in mutants.MUTANTS)
    modules = {p.name for p in (ROOT / "src" / "portlab").glob("*.py")} - {"__init__.py", "errors.py"}
    assert {name: counts[name] for name in modules if counts[name] < 3} == {}
    assert len(mutants.MUTANTS) >= 40
