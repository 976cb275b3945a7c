"""Output checks of one job, read from the job's output files alone.

A job passes when it exited 0, wrote at least one diagnostics JSON and
every ``*.json`` validates against the program's ``DIAGNOSTICS_SCHEMA``,
and the checks of its command hold:

* dual-family residual (``family_residual`` / ``residual``) <= 1e-8, the
  program's ``RESIDUAL_THRESHOLD``, and moment residual
  (``max_abs_residual``) <= 1e-6;
* ``synthesize``: ``control.csv`` has ``samples`` rows, all finite;
* ``indices`` on ``power`` and ``two_diffusion``: every ``cond_v`` with a
  closed form matches ln|E'(lambda_k)| from the sine/sinh product
  identities to 1e-6 relative;
* ``grushin``: lambda_n > n pi for every n.

The closed forms are restated here, not imported, so the program under
test cannot change its own oracle.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import math
from pathlib import Path

import jsonschema

FAMILY_RESIDUAL_MAX = 1e-8
MOMENT_RESIDUAL_MAX = 1e-6
CLOSED_FORM_REL_TOL = 1e-6


def load_diagnostics_schema(root: Path) -> dict:
    """DIAGNOSTICS_SCHEMA from the checkout's source, without importing
    the package (whose import pulls in numpy, scipy and mpmath)."""
    path = root / "src" / "nullcontrol" / "schemas.py"
    spec = importlib.util.spec_from_file_location("_perfbench_schemas", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DIAGNOSTICS_SCHEMA


def _ln_sinh(x: float) -> float:
    if x > 30.0:
        return x - math.log(2.0) + math.log1p(-math.exp(-2.0 * x))
    return math.log(math.sinh(x))


def _ln_eprime_single(k: int, scale: float) -> float:
    """lambda_j = scale j^2: |E'(lambda_k)| = sinh(k pi) / (2 pi k^3 scale)."""
    return _ln_sinh(k * math.pi) - math.log(2.0 * math.pi * k**3 * scale)


def _ln_eprime_two(k: int, d: float, scale: float) -> float:
    """{scale j^2} u {scale d j^2} at lambda = scale k^2:
    |E'| = d sinh(k pi) sinh(k pi/sqrt d) |sin(k pi/sqrt d)| / (2 pi^3 k^5 scale)."""
    rd = math.sqrt(d)
    return (math.log(d) + _ln_sinh(k * math.pi) + _ln_sinh(k * math.pi / rd)
            + math.log(abs(math.sin(k * math.pi / rd)))
            - math.log(2.0 * math.pi**3 * k**5 * scale))


def _closed_form(seq: dict):
    """ln|E'| oracle for lambda = scale k^2, or None for other rules."""
    if seq["rule"] == "power" and seq.get("p", 2.0) == 2.0:
        return seq.get("c", 1.0), lambda k: _ln_eprime_single(k, seq.get("c", 1.0))
    if seq["rule"] == "two_diffusion":
        scale = seq.get("scale", 1.0)
        return scale, lambda k: _ln_eprime_two(k, seq["d"], scale)
    return None


def _check_indices(cfg: dict, out: Path) -> list:
    oracle = _closed_form(cfg["sequence"])
    if oracle is None:
        return []
    scale, ln_eprime = oracle
    errors, checked = [], 0
    with open(out / "indices.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            re_lam = float(row["ReLambda"])
            k = round(math.sqrt(re_lam / scale))
            if abs(re_lam - scale * k * k) > 1e-9 * re_lam:
                continue  # a member of the second family: no closed form
            got = -float(row["cond_v"]) * re_lam
            want = ln_eprime(k)
            checked += 1
            if not abs(got - want) <= CLOSED_FORM_REL_TOL * abs(want):
                errors.append(f"cond_v at k={row['k']} is off the closed form by "
                              f"{abs(got - want) / abs(want):.2e} relative")
    if checked == 0:
        errors.append("no indices.csv row has a closed form")
    return errors


def _check_control(cfg: dict, out: Path) -> list:
    samples = cfg.get("params", {}).get("samples", 2000)
    with open(out / "control.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != samples:
        return [f"control.csv has {len(rows)} rows, expected {samples}"]
    if not all(math.isfinite(float(v)) for row in rows for v in row):
        return ["control.csv holds a non-finite value"]
    return []


def _check_grushin(out: Path) -> list:
    with open(out / "grushin.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = [r["n"] for r in rows if not float(r["lambda"]) > int(r["n"]) * math.pi]
    return [f"lambda_n <= n pi at n = {', '.join(bad)}"] if bad else []


def _check_residuals(name: str, data: dict) -> list:
    errors = []
    for key, limit in (("family_residual", FAMILY_RESIDUAL_MAX),
                       ("residual", FAMILY_RESIDUAL_MAX),
                       ("max_abs_residual", MOMENT_RESIDUAL_MAX)):
        if key in data and not (isinstance(data[key], (int, float)) and data[key] <= limit):
            errors.append(f"{name}: {key} = {data[key]!r} exceeds {limit:g}")
    return errors


def check_job(cfg: dict, out: Path, rc, schema: dict) -> list:
    """Every failed check of one job, as messages; empty when it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    diagnostics = sorted(out.glob("*.json"))
    if not diagnostics:
        return ["no diagnostics JSON written"]
    errors = []
    for path in diagnostics:
        payload = json.loads(path.read_text())
        try:
            jsonschema.validate(payload, schema)
        except jsonschema.ValidationError as exc:
            errors.append(f"{path.name}: schema: {exc.message}")
            continue
        errors += _check_residuals(path.name, payload["data"])
    command = cfg["command"]
    try:
        if command == "synthesize":
            errors += _check_control(cfg, out)
        elif command == "indices":
            errors += _check_indices(cfg, out)
        elif command == "grushin":
            errors += _check_grushin(out)
    except (OSError, KeyError, ValueError) as exc:
        errors.append(f"{command} output unreadable: {exc!r}")
    return errors


def output_digests(out: Path) -> dict:
    """sha256 and size of every output file, keyed by file name."""
    return {p.name: {"sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
                     "bytes": p.stat().st_size}
            for p in sorted(out.iterdir()) if p.is_file()}
