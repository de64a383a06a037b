"""Every source and test file parses as Python 3.10, the oldest version
that pyproject.toml supports, so newer syntax is caught on any interpreter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p.relative_to(ROOT) for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=str)
def test_file_parses_as_python_3_10(path):
    ast.parse((ROOT / path).read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_newer_syntax_is_refused():
    # except* came with Python 3.11
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
