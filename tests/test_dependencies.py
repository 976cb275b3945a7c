"""The declared dependencies match what the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _names(requirements):
    """Distribution names of requirement strings, lower-cased."""
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}


def _third_party_imports():
    """Top-level names of the absolute imports in src/nullcontrol/*.py,
    wherever they sit in a module, outside the standard library."""
    names = set()
    for path in (ROOT / "src" / "nullcontrol").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_runtime_dependencies_are_the_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+; requires-python is 3.10
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = _names(project["dependencies"])
    assert _third_party_imports() == declared == {"numpy", "scipy", "mpmath"}
    # jsonschema is the tests' oracle for the in-package validator, nothing more
    extras = project["optional-dependencies"]
    assert [name for name, reqs in extras.items() if "jsonschema" in _names(reqs)] == ["test"]
