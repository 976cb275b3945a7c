"""The outputs of the benchmark's ``moments`` jobs, seeds 1 and 4, as a
manifest: the sha256 of each file, and the parsed values of the two files
that hold numpy exponentials.

    PYTHONPATH=src python tests/output_manifest.py

runs the jobs in process through ``nullcontrol.cli.main`` and rewrites
``tests/data/output_manifest.json``; ``tests/test_output_manifest.py``
runs them again and compares.  The job configs are read from
``perfbench/workloads.py``, which is loaded from its path and not changed.

``residuals.json`` (``per_mode_norm``) and ``biortho.csv`` (the ``norm``
column) hold values that pass through numpy ``exp``, whose last bit may
differ between hosts; they are kept as values, and those entries are
compared at REL_TOL.  Every other value and every other file must match
exactly.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "data" / "output_manifest.json"
WORKLOAD, SEEDS = "moments", (1, 4)
# files kept as values, and within them the entries compared at REL_TOL
VALUE_FILES = {"residuals.json": ("per_mode_norm",), "biortho.csv": ("norm",)}
REL_TOL = 1e-14


def make_jobs(workload: str, seed: int) -> list:
    """``perfbench/workloads.py``'s job configs, loaded from its path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_jobs(workload, seed)


def _values(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())["data"]
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [float(row[j]) for row in rows[1:]] for j, name in enumerate(rows[0])}


def run_jobs(out_root: Path) -> dict:
    """{job name: {"config", "sha256", "values"}} for every job, each run
    through ``cli.main`` into its own directory under ``out_root``."""
    from nullcontrol.cli import main

    manifest = {}
    for seed in SEEDS:
        for i, config in enumerate(make_jobs(WORKLOAD, seed)):
            name = f"{WORKLOAD}:{seed}:{i}:{config['command']}"
            out = out_root / name.replace(":", "_")
            cfg = out_root / f"{out.name}.json"
            cfg.write_text(json.dumps(config))
            rc = main(["--config", str(cfg), "--out", str(out)])
            if rc != 0:
                raise RuntimeError(f"{name} exited with {rc}")
            files = sorted(out.iterdir())
            manifest[name] = {
                "config": config,
                "sha256": {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                           for f in files if f.name not in VALUE_FILES},
                "values": {f.name: _values(f) for f in files if f.name in VALUE_FILES},
            }
    return manifest


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        manifest = run_jobs(Path(tmp))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"{MANIFEST}: {len(manifest)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
