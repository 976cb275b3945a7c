"""The outputs of the configs the committed manifest records (the
benchmark jobs of seeds 1 and 4 and one config per command the benchmark
skips, when it was last regenerated) against that manifest
(``tests/output_manifest.py`` regenerates it and names its tolerance
classes): every file by sha256, and the files whose entries may differ
between hosts value by value, each entry at its class's tolerance."""

import json

import pytest

from tests.output_manifest import MANIFEST, moved, recorded, run_jobs, values_match


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_jobs(tmp_path_factory.mktemp("manifest"), recorded())


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


def test_same_jobs(outputs, manifest):
    # the run covers exactly the recorded jobs at their recorded configs;
    # the benchmark's job lists reach the manifest only by regenerating it
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


def test_moved_names_added_dropped_and_moved():
    def job(config, sha256, values):
        return {"config": config, "sha256": sha256, "values": values}

    want = {
        "a": job({"K": 1}, {"f.csv": "0", "g.csv": "1"}, {"tstar.json": {"lower": 1.0}}),
        "b": job({"K": 2}, {}, {}),
        "c": job({"K": 3}, {"f.csv": "0"}, {}),
    }
    got = {
        "a": job({"K": 1}, {"f.csv": "0", "h.csv": "2"},
                 {"tstar.json": {"lower": 1.0 + 1e-13}, "tmin.csv": {"v": [0.5]}}),
        "c": job({"K": 4}, {"f.csv": "0"}, {}),
        "d": job({"K": 5}, {}, {}),
    }
    assert moved(got, want) == [
        ("dropped", "b"), ("added", "d"), ("moved", "c"),
        ("dropped", "a/g.csv"), ("added", "a/h.csv"), ("added", "a/tmin.csv")]
    got["a"]["sha256"]["f.csv"] = "9"
    got["a"]["values"]["tstar.json"]["lower"] = 1.0 + 1e-11   # past VECTOR_TOL
    assert {("moved", "a/f.csv"), ("moved", "a/tstar.json")} <= set(moved(got, want))
    assert moved(want, want) == []
