"""The ``moments`` benchmark outputs of seeds 1 and 4 against the committed
manifest (``tests/output_manifest.py`` regenerates it): every file by
sha256, and ``residuals.json`` and ``biortho.csv`` value by value, exact
except the entries that pass through numpy ``exp``."""

import json
import math

import pytest

from tests.output_manifest import MANIFEST, REL_TOL, VALUE_FILES, run_jobs


def _close(got, want, tol, where):
    """Assert got == want, floats (also nested in lists and dicts) within
    relative ``tol``."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _close(got[key], want[key], tol, f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, tol, f"{where}[{i}]")
    elif tol and isinstance(want, float) and math.isfinite(want):
        assert isinstance(got, float) and abs(got - want) <= tol * abs(want), (where, got, want)
    else:
        assert got == want and type(got) is type(want), (where, got, want)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_jobs(tmp_path_factory.mktemp("manifest"))


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


def test_same_jobs(outputs, manifest):
    # a changed job list needs a regenerated manifest
    assert {k: v["config"] for k, v in outputs.items()} \
        == {k: v["config"] for k, v in manifest.items()}


def test_files_byte_identical(outputs, manifest):
    for name, want in manifest.items():
        assert outputs[name]["sha256"] == want["sha256"], name


def test_values(outputs, manifest):
    for name, want in manifest.items():
        got = outputs[name]["values"]
        assert sorted(got) == sorted(want["values"]), name
        for file, values in want["values"].items():
            for key, value in values.items():
                tol = REL_TOL if key in VALUE_FILES[file] else 0.0
                _close(got[file][key], value, tol, f"{name}/{file}/{key}")
