"""The package and its tests parse under the oldest supported Python's grammar."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = tuple(int(part) for part in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups())
SOURCES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_with_oldest_grammar(path):
    # Grammar only: a standard-library API newer than the oldest version still passes.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
