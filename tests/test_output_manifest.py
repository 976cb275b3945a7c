"""The benchmark outputs of seeds 1 and 4 and the configs of the commands
the benchmark skips, against the committed manifest
(``tests/output_manifest.py`` regenerates it and names its tolerance
classes): every file by sha256, and the files whose entries may differ
between hosts value by value, each entry at its class's tolerance."""

import json

import pytest

from tests.output_manifest import MANIFEST, run_jobs, values_match


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
            assert values_match(file, got[file], values), f"{name}/{file}"
