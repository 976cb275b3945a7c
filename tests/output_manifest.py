"""The outputs of the benchmark's ``moments`` and ``spectra`` jobs, seeds 1
and 4, and of one config per CLI command those jobs skip, as a manifest:
the sha256 of each file, and the parsed values of the files that hold
entries whose last bits may differ between hosts.

    PYTHONPATH=src python tests/output_manifest.py

runs the jobs in process through ``nullcontrol.cli.main``, prints as
``added:``, ``dropped:`` or ``moved:`` every job and file that the
committed ``tests/data/output_manifest.json`` lacks, that only it holds,
or that moved beyond its tolerance, and rewrites that manifest.  Only
this regeneration reads the workload configs, from
``perfbench/workloads.py`` (loaded from its path and not changed), plus
SKIPPED.  ``tests/test_output_manifest.py`` runs the configs the manifest
records and compares, so a re-pinned benchmark job list does not move
the gate until the manifest is regenerated.

Every file is compared by sha256 except those in TOLERANCES, which are
kept as values (a ``.dat`` file as its columns ``x`` and ``y``) and
compared entry by entry, exactly except for these classes:

* EXP_TOL (1e-14 relative), one numpy ``exp`` of a log: ``per_mode_norm``
  of ``residuals.json`` and the ``norm`` column of ``biortho.csv``.
* VECTOR_TOL (1e-12 relative), entries that pass through numpy's
  vectorized ``log``, ``log1p`` or ``exp``, through libm, or through
  ``np.polyfit``: the condensation columns ``cond_v`` and ``cond_runsup``
  of ``indices.csv``, the ``y`` column of ``indices_cond.dat`` and
  ``condensation_tail`` of ``indices.json``; the profile values ``v`` and
  ``running_sup`` of ``tstar_observation.csv``, ``tstar_gap.csv``,
  ``tstar_jordan.csv`` and ``tmin.csv``, the ``y`` column of their
  ``.dat`` files and ``lower``,
  ``components`` and ``tmin_tail`` of ``tstar.json``; the fitted
  ``summability_exponent`` of ``hypotheses.json``; and the ``control2x2``
  samples, the ``u`` column of ``control2x2.csv`` and ``y`` of
  ``control2x2.dat``.
* BRACKET_TOL (1e-9 relative): every entry of ``grushin.csv``,
  ``grushin.dat`` and ``grushin.json``, since one bisection step of the
  1e-10 bracket may flip on another build, and the RK4 state
  ``terminal_abs`` of ``gramian.json``.

Every other entry of those files, and every other file (``control.csv``,
``control.dat``, ``verify.json``, ``biortho.dat``, ``biortho.json``,
``indices_bohr.dat``), must match exactly.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "data" / "output_manifest.json"
WORKLOADS, SEEDS = ("moments", "spectra"), (1, 4)
# one config per CLI command, model or rule the workloads do not run
SKIPPED = (
    {"command": "gramian2x2", "params": {"lam1": 1.0, "lam2": 2.0, "T": 1.0, "samples": 200}},
    {"command": "hypotheses",
     "sequence": {"rule": "two_diffusion", "d": 2.0, "scale": math.pi ** 2},
     "params": {"K": 60}},
    {"command": "tstar", "model": {"name": "pointwise_heat", "x0": 0.3141592653589793},
     "params": {"K": 30}},
    {"command": "tstar",
     "model": {"name": "cascade_internal_q", "q_breakpoints": [0.6, 0.9], "q_values": [1.0],
               "omega": [0.1, 0.4]},
     "params": {"K": 20}},
    {"command": "indices",
     "sequence": {"rule": "explicit",
                  "values": [1.0, 4.0, 9.0, 9.5, 16.0, 25.0, 36.0, 49.0, 64.0, 64.001,
                             81.0, 100.0]},
     "params": {"K": 12, "window": 4}},
)

EXP_TOL, VECTOR_TOL, BRACKET_TOL = 1e-14, 1e-12, 1e-9
_PROFILE = {"v": VECTOR_TOL, "running_sup": VECTOR_TOL}
_DAT = {"y": VECTOR_TOL}
# the files kept as values: a relative tolerance per entry (0 = exact), or
# one for every entry of the file
TOLERANCES = {
    "residuals.json": {"per_mode_norm": EXP_TOL},
    "biortho.csv": {"norm": EXP_TOL},
    "indices.csv": {"cond_v": VECTOR_TOL, "cond_runsup": VECTOR_TOL},
    "indices_cond.dat": _DAT,
    "indices.json": {"condensation_tail": VECTOR_TOL},
    "tstar_observation.csv": _PROFILE, "tstar_observation.dat": _DAT,
    "tstar_gap.csv": _PROFILE, "tstar_gap.dat": _DAT,
    "tstar_jordan.csv": _PROFILE, "tstar_jordan.dat": _DAT,
    "tmin.csv": _PROFILE, "tmin.dat": _DAT,
    "tstar.json": {"lower": VECTOR_TOL, "components": VECTOR_TOL, "tmin_tail": VECTOR_TOL},
    "hypotheses.json": {"summability_exponent": VECTOR_TOL},
    "control2x2.csv": {"u": VECTOR_TOL}, "control2x2.dat": _DAT,
    "gramian.json": {"terminal_abs": BRACKET_TOL},
    "grushin.csv": BRACKET_TOL, "grushin.dat": BRACKET_TOL, "grushin.json": BRACKET_TOL,
}


def make_jobs(workload: str, seed: int) -> list:
    """``perfbench/workloads.py``'s job configs, loaded from its path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_jobs(workload, seed)


def jobs() -> dict:
    """{job name: config} of a regeneration, the workloads' jobs first."""
    named = {f"{workload}:{seed}:{i}:{config['command']}": config
             for workload in WORKLOADS for seed in SEEDS
             for i, config in enumerate(make_jobs(workload, seed))}
    return named | {f"skipped:{i}:{config['command']}": config
                    for i, config in enumerate(SKIPPED)}


def _values(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())["data"]
    with path.open(newline="") as fh:
        if path.suffix == ".dat":
            rows = [["x", "y"]] + [line.split() for line in fh]
        else:
            rows = list(csv.reader(fh))
    return {name: [float(row[j]) for row in rows[1:]] for j, name in enumerate(rows[0])}


def recorded() -> dict:
    """{job name: config} of the committed manifest."""
    return {name: job["config"] for name, job in json.loads(MANIFEST.read_text()).items()}


def run_jobs(out_root: Path, configs: dict) -> dict:
    """{job name: {"config", "sha256", "values"}} for every job of
    ``configs`` ({job name: config}), each run through ``cli.main`` into
    its own directory under ``out_root``."""
    from nullcontrol.cli import main

    manifest = {}
    for name, config in configs.items():
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
                       for f in files if f.name not in TOLERANCES},
            "values": {f.name: _values(f) for f in files if f.name in TOLERANCES},
        }
    return manifest


def close(got, want, tol: float) -> bool:
    """got == want, floats (also nested in lists and dicts) within relative
    ``tol``; any other value, and a non-finite float, exactly and of the
    same type."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and sorted(got) == sorted(want)
                and all(close(got[key], want[key], tol) for key in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(close(g, w, tol) for g, w in zip(got, want)))
    if tol and isinstance(want, float) and math.isfinite(want):
        return isinstance(got, float) and abs(got - want) <= tol * abs(want)
    return got == want and type(got) is type(want)


def values_match(file: str, got: dict, want: dict) -> bool:
    """The values of one file kept as values, each entry at its tolerance."""
    tols = TOLERANCES[file]
    return sorted(got) == sorted(want) and all(
        close(got[key], want[key], tols if isinstance(tols, float) else tols.get(key, 0.0))
        for key in want)


def _changes(prefix: str, got: dict, want: dict, same) -> list:
    return ([("dropped", prefix + key) for key in want if key not in got]
            + [("added", prefix + key) for key in got if key not in want]
            + [("moved", prefix + key) for key in want
               if key in got and not same(key, got[key], want[key])])


def moved(got: dict, want: dict) -> list:
    """(kind, ``job`` or ``job/file``) from manifest ``want`` to manifest
    ``got``: "added" or "dropped" for a job or file only one of them holds,
    "moved" for a reconfigured job and for a file whose sha256 or values
    moved beyond their tolerance."""
    out = _changes("", got, want, lambda _, g, w: g["config"] == w["config"])
    for name, w in want.items():
        g = got.get(name)
        if g is not None and g["config"] == w["config"]:
            out += _changes(f"{name}/", g["sha256"], w["sha256"], lambda _, x, y: x == y)
            out += _changes(f"{name}/", g["values"], w["values"], values_match)
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        manifest = run_jobs(Path(tmp), jobs())
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    for kind, line in moved(manifest, old):
        print(f"{kind}: {line}")
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"{MANIFEST}: {len(manifest)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
