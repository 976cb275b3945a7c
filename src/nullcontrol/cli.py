"""Batch front end: one JSON config in, CSV tables and JSON diagnostics out.

Numbers are written with %.17g so two runs of the same config produce
byte-identical files; plot-ready two-column .dat files accompany every
profile CSV.  Errors leave a machine-readable JSON object on stderr and
map to exit codes: 2 for validation/model problems, 3 for numerical
failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from . import hautus, spectral, synthesis
from .errors import NullControlError, ValidationError
from .generators import make_rule
from .grushin import grushin_tstar_profile
from .grushin import solve_mode  # noqa: F401  read only by perfbench/tracing.py ENTRY_POINTS
from .models import (
    PiecewiseConstant,
    academic_lf,
    block_2x2,
    cascade_boundary_q,
    cascade_internal_q,
    harmonic_oscillator,
    pointwise_heat,
    two_diffusion_boundary,
    two_diffusion_pointwise,
)
from .schemas import CONFIG_SCHEMA, DIAGNOSTICS_SCHEMA, SchemaViolation, validate


# rows formatted and written at a time, so that no file is built whole in memory
_WRITE_ROWS = 256


def _write_rows(path: Path, head: str, line: str, rows):
    """head, then line % row for each row: a 2-D array's rows as lists of
    floats, or the items of any iterable of sequences."""
    with path.open("w") as f:
        f.write(head)
        if isinstance(rows, np.ndarray):
            blocks = (rows[i:i + _WRITE_ROWS].tolist() for i in range(0, len(rows), _WRITE_ROWS))
        else:
            rows = iter(rows)
            blocks = iter(lambda: list(islice(rows, _WRITE_ROWS)), [])
        for block in blocks:
            f.write("".join([line % tuple(row) for row in block]))


def _write_csv(path: Path, header, rows):
    # %.17g round-trips every binary64 value, spells +-inf as inf/-inf and
    # prints the integer columns exactly (indices, far below 2^53)
    _write_rows(path, ",".join(header) + "\n", ",".join(["%.17g"] * len(header)) + "\n", rows)


def _write_dat(path: Path, xs, ys):
    _write_rows(path, "", "%.17g %.17g\n",
                zip(np.asarray(xs).tolist(), np.asarray(ys).tolist()))


def _write_json(path: Path, payload):
    # strict JSON: a non-finite float would be written as NaN or Infinity
    payload = _json_safe(payload)
    validate(payload, DIAGNOSTICS_SCHEMA)  # a failure here is a program fault, not exit 2
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _json_safe(x):
    """x with nan as null, +-inf as "inf"/"-inf", complex as {"re", "im"}
    and numpy scalars as Python numbers, recursively."""
    if isinstance(x, dict):
        return {str(k): _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_json_safe(v) for v in x]
    if isinstance(x, (np.floating, float)):
        x = float(x)
        if math.isnan(x):
            return None
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, complex):
        return {"re": _json_safe(x.real), "im": _json_safe(x.imag)}
    return x


def _y0_rule(tag):
    return {
        None: None,
        "one": lambda k, i: 1.0,
        "reciprocal": lambda k, i: 1.0 / k,
        "reciprocal_sq": lambda k, i: 1.0 / k**2,
    }[tag]


def build_model(desc: dict):
    name = desc["name"]
    y0 = _y0_rule(desc.get("y0"))
    if name == "pointwise_heat":
        return pointwise_heat(desc["x0"], y0_rule=y0)
    if name == "academic_lf":
        return academic_lf(desc["tau"], y0_rule=y0)
    if name == "two_diffusion_boundary":
        return two_diffusion_boundary(desc["d"], y0_rule=y0)
    if name == "two_diffusion_pointwise":
        return two_diffusion_pointwise(desc["d"], desc["x0"], y0_rule=y0)
    if name == "harmonic_oscillator":
        return harmonic_oscillator()
    q = PiecewiseConstant.from_breakpoints(desc["q_breakpoints"], desc["q_values"])
    if name == "cascade_internal_q":
        return cascade_internal_q(q, tuple(desc["omega"]), M=desc.get("truncation", 200),
                                  y0_rule=y0)
    if name == "cascade_boundary_q":
        return cascade_boundary_q(q, M=desc.get("truncation", 200), y0_rule=y0)
    raise ValidationError(f"unknown model {name!r}")


def build_sequence(desc: dict, K: int):
    kwargs = {k: v for k, v in desc.items() if k != "rule"}
    return spectral.from_rule(make_rule(desc["rule"], **kwargs), K)


def _profile_csv(out: Path, stem: str, prof, re_lam):
    _write_csv(out / f"{stem}.csv", ["k", "ReLambda", "v", "running_sup"],
               [(k, r, v, s) for (k, v, s), r in zip(prof.rows(), re_lam)])
    _write_dat(out / f"{stem}.dat", prof.ks, prof.values)


def _run_indices(cfg, out, params, meta):
    K = params.get("K", 100)
    seq = build_sequence(cfg["sequence"], K)
    tol = params.get("rel_tail_tol", 1e-10)
    window = params.get("window", 10)
    cond = spectral.condensation_profile(seq, K, tol, window)
    bohr = spectral.bohr_profile(seq, K, window)
    re = seq.re[:K]
    _write_csv(out / "indices.csv",
               ["k", "ReLambda", "cond_v", "cond_runsup", "bohr_v", "bohr_runsup"],
               [(k + 1, re[k], cond.values[k], cond.running_sup[k],
                 bohr.values[k], bohr.running_sup[k]) for k in range(K)])
    _write_dat(out / "indices_cond.dat", cond.ks, cond.values)
    _write_dat(out / "indices_bohr.dat", bohr.ks, bohr.values)
    _write_json(out / "indices.json", meta | {"data": {
        "condensation_tail": cond.tail_estimate,
        "bohr_tail": bohr.tail_estimate}})
    return 0


def _run_hypotheses(cfg, out, params, meta):
    K = params.get("K", 100)
    if "sequence" in cfg:
        seq = build_sequence(cfg["sequence"], K)
    else:
        seq = build_model(cfg["model"]).spectrum(K)
    rep = spectral.check_hypotheses(seq, K)
    _write_json(out / "hypotheses.json", meta | {"data": {
        "sector_delta_est": rep.sector_delta_est,
        "summability_exponent": rep.summability_exponent,
        "summable": rep.summable,
        "sup_rk": rep.sup_rk,
        "warnings": list(rep.warnings)}})
    return 0


def _run_tstar(cfg, out, params, meta):
    K = params.get("K", 30)
    window = params.get("window", 10)
    model = build_model(cfg["model"])
    est = hautus.tstar_estimate(model, K, window)
    re = [m.lam.real for m in model.modes(K)]
    for name, prof in est.profiles.items():
        # ReLambda at the profile's own k: a Jordan profile skips mu = 0
        _profile_csv(out, f"tstar_{name}", prof, [re[k - 1] for k in prof.ks.tolist()])
    tmin = model.tmin_profile(K, window)
    data = {"lower": est.lower, "components": est.components}
    if tmin is not None:
        data["tmin_tail"] = tmin.tail_estimate
        _profile_csv(out, "tmin", tmin, re[: len(tmin)])
    _write_json(out / "tstar.json", meta | {"data": data})
    return 0


def _run_biortho(cfg, out, params, meta):
    from .biortho_time import ExponentialSpan, build_biortho

    N = params.get("N", 8)
    seq = build_sequence(cfg["sequence"], N)
    span = ExponentialSpan.distinct(tuple(seq.values[:N]), params.get("T", 1.0))
    fam = build_biortho(span)
    _write_csv(out / "biortho.csv", ["k", "rate", "norm", "ln_norm"],
               [(k + 1, float(span.rates[k].real), fam.norms[k], fam.ln_norms[k])
                for k in range(N)])
    _write_dat(out / "biortho.dat", range(1, N + 1), fam.ln_norms)
    _write_json(out / "biortho.json", meta | {"data": {
        "residual": fam.residual, "cond_estimate": fam.cond_estimate,
        "cond_log10": fam.cond_log10,
        "degraded": fam.degraded, "dps": fam.dps}})
    return 0


def _synthesize_plan(cfg, params):
    return synthesis.synthesize(
        build_model(cfg["model"]), params.get("T", 0.5), params.get("N", 8))


def _run_synthesize(cfg, out, params, meta):
    plan = _synthesize_plan(cfg, params)
    report = synthesis.verify_moments(plan)
    ts, cols, u = synthesis.sample_plan(plan, params.get("samples", 2000))
    header = ["t"] + ["term_{}_{}".format(*t.label) for t in plan.terms]
    columns = [ts, cols.T]
    if u is not None:
        header.append("u")
        columns.append(u)
        _write_dat(out / "control.dat", ts, u)
    _write_csv(out / "control.csv", header, np.column_stack(columns))
    _write_json(out / "residuals.json", meta | {"data": {
        "max_abs_residual": report.max_abs,
        "tail_bound": report.tail_bound,
        "total_norm": plan.total_norm,
        "per_mode_norm": plan.per_mode_norm,
        "family_residual": plan.family.residual}})
    return 0


def _run_verify(cfg, out, params, meta):
    plan = _synthesize_plan(cfg, params)
    report = synthesis.verify_moments(plan, N_check=params.get("N_check", plan.N))
    _write_json(out / "verify.json", meta | {"data": {
        "max_abs_residual": report.max_abs,
        "tail_bound": report.tail_bound,
        "residuals": {f"{k}_{b}": v for (k, b), v in report.residuals.items()},
        "leakage": {f"{k}_{b}": v for (k, b), v in report.leakage.items()}}})
    return 0


def _run_grushin(cfg, out, params, meta):
    a, b = params.get("a", 0.3), params.get("b", 0.5)
    n_max = params.get("n_max", 40)
    h = params.get("h", 2e-4)
    cap = params.get("cap")
    prof = grushin_tstar_profile(a, b, n_max, h, window=params.get("window", 10))
    _write_csv(out / "grushin.csv", ["n", "lambda", "integral", "T_n"],
               zip(prof.ks, prof.extras["lambda"], prof.extras["integral"], prof.values))
    _write_dat(out / "grushin.dat", prof.ks, prof.values)
    _write_json(out / "grushin.json", meta | {"data": {
        "tail_estimate": prof.tail_estimate,
        "target": prof.extras["target"],
        "unbounded": bool(cap is not None and np.isfinite(cap)
                          and prof.running_sup[-1] > cap)}})
    return 0


def _run_gramian2x2(cfg, out, params, meta):
    blk = block_2x2(params["lam1"], params["lam2"], tuple(params.get("bvec", (1.0, 1.0))))
    res = synthesis.gramian_control_2x2(
        blk, tuple(params.get("y0vec", (1.0, 1.0))), params.get("T", 1.0),
        rk4_h=params.get("rk4_h", 1e-4), samples=params.get("samples", 2000))
    _write_csv(out / "control2x2.csv", ["t", "u"],
               list(zip(res.times, res.samples)))
    _write_dat(out / "control2x2.dat", res.times, res.samples)
    _write_json(out / "gramian.json", meta | {"data": {
        "det_Q": res.det_Q, "log10_det_Q": res.log10_det_Q,
        "tr_Q": res.tr_Q, "sigma": res.sigma,
        "sigma_bounds_ok": res.sigma_bounds_ok,
        "control_norm_sq": res.control_norm_sq,
        "terminal_abs": res.diagnostics["terminal_abs"]}})
    return 0


_RUNNERS = {
    "indices": _run_indices,
    "hypotheses": _run_hypotheses,
    "tstar": _run_tstar,
    "biortho": _run_biortho,
    "synthesize": _run_synthesize,
    "verify": _run_verify,
    "grushin": _run_grushin,
    "gramian2x2": _run_gramian2x2,
}


def run(config: dict, out_dir, seed=None) -> int:
    """Validate and dispatch one config; returns the process exit code."""
    try:
        validate(config, CONFIG_SCHEMA)
    except SchemaViolation as exc:
        raise ValidationError(f"config rejected: {exc}") from exc
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = config.get("params", {})
    meta = {
        "command": config["command"],
        "seed": seed,
        "model": config.get("model"),
        "sequence": config.get("sequence"),
    }
    return _RUNNERS[config["command"]](config, out, params, meta)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nullcontrol",
        description="moment-method null-control synthesis and minimal-time diagnostics")
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed recorded in diagnostics (property fixtures)")
    args = parser.parse_args(argv)
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "BAD_CONFIG", "message": str(exc)}), file=sys.stderr)
        return 2
    try:
        return run(config, args.out, args.seed)
    except NullControlError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return exc.exit_code
    except (ValueError, KeyError) as exc:
        print(json.dumps({"error": "VALIDATION", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
