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
from pathlib import Path

import jsonschema
import numpy as np

from . import hautus, spectral, synthesis
from .errors import NullControlError, ValidationError
from .generators import make_rule
from .grushin import grushin_tstar_profile, observation_integral, solve_mode
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
from .schemas import CONFIG_SCHEMA, DIAGNOSTICS_SCHEMA


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_dat(path: Path, xs, ys):
    lines = [f"{_fmt(x)} {_fmt(y)}" for x, y in zip(xs, ys)]
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload):
    jsonschema.validate(payload, DIAGNOSTICS_SCHEMA)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _json_safe(x):
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
        return {"re": x.real, "im": x.imag}
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
        "condensation_tail": _json_safe(cond.tail_estimate),
        "bohr_tail": _json_safe(bohr.tail_estimate)}})
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
    profiles = {}
    if model.observation_available:
        profiles["observation"] = hautus.tstar_observation_profile(model, K, window)
    if model.structural_pair_kernel is not None:
        profiles["gap"] = hautus.tstar_gap_profile(model, K, window)
    re = [m.lam.real for m in model.modes(K)]
    for name, prof in profiles.items():
        _profile_csv(out, f"tstar_{name}", prof, re[: len(prof)])
    tmin = model.tmin_profile(K, window)
    data = {"lower": _json_safe(est.lower), "components": _json_safe(est.components)}
    if tmin is not None:
        data["tmin_tail"] = _json_safe(tmin.tail_estimate)
        _profile_csv(out, "tmin", tmin, re[: len(tmin)])
    _write_json(out / "tstar.json", meta | {"data": data})
    return 0


def _run_biortho(cfg, out, params, meta):
    from .biortho_time import ExponentialSpan, build_biortho

    N = params.get("N", 8)
    seq = build_sequence(cfg["sequence"], N)
    span = ExponentialSpan(tuple(seq.values[:N]), params.get("T", 1.0))
    fam = build_biortho(span, precision=params.get("precision", "extended"),
                        dps=params.get("dps"))
    _write_csv(out / "biortho.csv", ["k", "rate", "norm", "ln_norm"],
               [(k + 1, float(span.rates[k].real), fam.norms[k], fam.ln_norms[k])
                for k in range(N)])
    _write_dat(out / "biortho.dat", range(1, N + 1), fam.ln_norms)
    _write_json(out / "biortho.json", meta | {"data": {
        "residual": fam.residual, "cond_estimate": fam.cond_estimate,
        "degraded": fam.degraded, "dps": fam.dps}})
    return 0


def _synthesize_plan(cfg, params):
    return synthesis.synthesize(
        build_model(cfg["model"]), params.get("T", 0.5), params.get("N", 8),
        precision=params.get("precision", "extended"), dps=params.get("dps"))


def _run_synthesize(cfg, out, params, meta):
    plan = _synthesize_plan(cfg, params)
    report = synthesis.verify_moments(plan)
    ts, cols, u = synthesis.sample_plan(plan, params.get("samples", 2000))
    header = ["t"] + [f"term_{k}_{j}" for (k, j) in plan.meta["labels"]]
    rows = [tuple([ts[i]] + [cols[c, i] for c in range(cols.shape[0])])
            for i in range(len(ts))]
    if u is not None:
        header.append("u")
        rows = [r + (u[i],) for i, r in enumerate(rows)]
        _write_dat(out / "control.dat", ts, u)
    _write_csv(out / "control.csv", header, rows)
    _write_json(out / "residuals.json", meta | {"data": {
        "max_abs_residual": report.max_abs,
        "tail_bound": _json_safe(report.tail_bound),
        "total_norm": _json_safe(plan.total_norm),
        "per_mode_norm": _json_safe(plan.per_mode_norm),
        "family_residual": plan.family.residual}})
    return 0


def _run_verify(cfg, out, params, meta):
    plan = _synthesize_plan(cfg, params)
    report = synthesis.verify_moments(plan, N_check=params.get("N_check", plan.N))
    _write_json(out / "verify.json", meta | {"data": {
        "max_abs_residual": report.max_abs,
        "tail_bound": _json_safe(report.tail_bound),
        "residuals": _json_safe({f"{k}_{b}": v for (k, b), v in report.residuals.items()}),
        "leakage": _json_safe({f"{k}_{b}": v for (k, b), v in report.leakage.items()})}})
    return 0


def _run_grushin(cfg, out, params, meta):
    a, b = params.get("a", 0.3), params.get("b", 0.5)
    n_max = params.get("n_max", 40)
    h = params.get("h", 2e-4)
    prof = grushin_tstar_profile(a, b, n_max, h, window=params.get("window", 10),
                                 cap=params.get("cap"))
    integs = [observation_integral(solve_mode(n, h), a, b) for n in range(1, n_max + 1)]
    _write_csv(out / "grushin.csv", ["n", "lambda", "integral", "T_n"],
               [(n, prof.extras["lambda"][n - 1], integs[n - 1], prof.values[n - 1])
                for n in range(1, n_max + 1)])
    _write_dat(out / "grushin.dat", prof.ks, prof.values)
    _write_json(out / "grushin.json", meta | {"data": {
        "tail_estimate": _json_safe(prof.tail_estimate),
        "target": prof.extras["target"],
        "unbounded": prof.unbounded}})
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
        "det_Q": res.det_Q, "tr_Q": res.tr_Q, "sigma": res.sigma,
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


def run(config: dict, out_dir, precision=None, seed=None) -> int:
    """Validate and dispatch one config; returns the process exit code."""
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ValidationError(f"config rejected: {exc.message}") from exc
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = dict(config.get("params", {}))
    if precision:
        params["precision"] = precision
    meta = {
        "command": config["command"],
        "seed": seed,
        "precision": params.get("precision", "extended"),
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
    parser.add_argument("--precision", choices=["standard", "extended"], default=None)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed recorded in diagnostics (property fixtures)")
    args = parser.parse_args(argv)
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "BAD_CONFIG", "message": str(exc)}), file=sys.stderr)
        return 2
    try:
        return run(config, args.out, args.precision, args.seed)
    except NullControlError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return exc.exit_code
    except (ValueError, KeyError) as exc:
        print(json.dumps({"error": "VALIDATION", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
