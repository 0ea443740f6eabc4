"""Every module parses as the oldest Python that pyproject.toml declares.

``ast.parse`` with ``feature_version`` refuses syntax newer than that
version, so the floor is checked without an interpreter of that version.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    m = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert m is not None, "pyproject.toml declares no requires-python floor"
    return int(m[1]), int(m[2])


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "hpcflow").glob("*.py")), ids=lambda p: p.name
)
def test_module_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_declared_floor())

