"""Acceptance gate: every criterion at its stated tolerance.

Each criterion is a function returning (ok, detail); the pytest wrappers
assert, and running the module directly prints one pass/fail line per
criterion without stopping at the first failure:

    python -m tests.test_acceptance

Known red entries, kept failing rather than loosened: the product-based
clustering tolerances of criteria 2 and 3 and the horizon-tail clause of
criterion 10 pin 10% windows at desk scale that the exact quantities
provably exceed there -- the surrogates carry -+2pi/k (resp. ln(n)/n)
finite-size corrections and enter those windows only near k ~ 250
(resp. n ~ 240).  demos/clustering_indices.py shows the convergence.
"""

import json
import math
import time

import numpy as np
import pytest

import nullcontrol as nc
from nullcontrol import (
    ExponentialSpan,
    TestVector,
    academic_lf,
    block_2x2,
    build_biortho,
    cascade_boundary_q,
    check_hypotheses,
    gramian_control_2x2,
    grushin_tstar_profile,
    harmonic_oscillator,
    inequality_ratio,
    pointwise_heat,
    solve_mode,
    synthesize,
    tstar_estimate,
    verify_moments,
)
from nullcontrol.generators import AppendixBRule
from nullcontrol.grushin import expected_observation_asymptote, observation_integral
from nullcontrol.models import PiecewiseConstant
from nullcontrol.synthesis import biorthogonalize_gram
from nullcontrol.cli import main as cli_main
from tests.closed_forms import cauchy_inverse_oracle, log_eprime_two_family

PI2 = math.pi**2
X0 = math.sqrt(2.0) - 1.0


def _within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def criterion_01():
    """Closed-form product identity for {k^2, d k^2}, d in {2, 5}, k <= 20."""
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2.0, 5.0):
        seq = nc.from_rule(nc.make_rule("two_diffusion", d=d, scale=1.0), 48)
        fl = np.real(seq.floats[:48])
        for k in range(1, 21):
            idx = int(np.searchsorted(fl, k * k * (1 - 1e-12)) + 1)
            got = nc.spectral.log_E_primes(seq, [idx], rel_tail_tol=1e-7)[0]
            want = log_eprime_two_family(k, d, scale=1.0)
            worst = max(worst, abs(got - want) / abs(want))
    dt = time.perf_counter() - t0
    return worst <= 1e-6 and dt < 1.0, f"max rel err {worst:.2e}, {dt:.2f}s"


def criterion_02():
    """Pair-decay index: condensation and pairwise tails vs tau over k in [15,30]."""
    t0 = time.perf_counter()
    ok = True
    details = []
    for tau in (0.25, 1.0):
        seq = nc.from_rule(nc.make_rule("appendixB", tau=tau), 60)
        cond = nc.condensation_profile(seq, 60, rel_tail_tol=1e-6, window=32)
        bohr = nc.bohr_profile(seq, 60, window=32)
        ok_c = _within(cond.tail_estimate, tau, 0.10)
        ok_b = _within(bohr.tail_estimate, tau, 0.10)
        ok = ok and ok_c and ok_b
        details.append(f"tau={tau}: cond {cond.tail_estimate:.4f}"
                       f"{'' if ok_c else ' (out)'}, bohr {bohr.tail_estimate:.4f}"
                       f"{'' if ok_b else ' (out)'}")
    dt = time.perf_counter() - t0
    return ok and dt < 1.0, "; ".join(details) + f", {dt:.2f}s"


def criterion_03():
    """Inner-function cross-check: |W'|- and |E'|-based tails within 10%."""
    t0 = time.perf_counter()
    seq = nc.from_rule(nc.make_rule("appendixB", tau=0.25), 60)
    cond = nc.condensation_profile(seq, 60, rel_tail_tol=1e-6, window=32)
    bla = nc.blaschke_profile(seq, 60, rel_tail_tol=1e-5, window=32)
    dt = time.perf_counter() - t0
    agree = abs(bla.tail_estimate - cond.tail_estimate) <= 0.10 * max(
        abs(bla.tail_estimate), abs(cond.tail_estimate))
    return agree and dt < 2.0, (f"blaschke {bla.tail_estimate:.4f} vs "
                                f"cond {cond.tail_estimate:.4f}, {dt:.2f}s")


def criterion_04():
    """Biorthogonality residual (N=12, T=0.5) and Cauchy-oracle equivalence."""
    t0 = time.perf_counter()
    rates = tuple(k * k * PI2 for k in range(1, 13))
    fam = build_biortho(ExponentialSpan(rates, 0.5))
    sq = [float(k * k) for k in range(1, 9)]
    fam_inf = build_biortho(ExponentialSpan(tuple(sq), None))
    oracle = cauchy_inverse_oracle(sq)
    coeffs = np.array(fam_inf.mp_coeffs.tolist(), dtype=float)
    rel = float(np.max(np.abs(coeffs - oracle) / np.abs(oracle)))
    dt = time.perf_counter() - t0
    ok = fam.residual <= 1e-8 and rel <= 1e-10 and dt < 1.0
    return ok, f"residual {fam.residual:.2e}, oracle rel {rel:.2e}, {dt:.2f}s"


def criterion_05():
    """Doubled-basis residual (N=8, T=0.5) and Jordan norm-growth bound."""
    t0 = time.perf_counter()
    rates = tuple(k * k * PI2 for k in range(1, 9))
    # a Jordan span lists every rate twice
    fam = build_biortho(ExponentialSpan(tuple(r for r in rates for _ in range(2)), 0.5))
    tau = 0.25
    pair_rates = tuple(AppendixBRule(tau).mp_entries(12))
    fam_pairs = build_biortho(ExponentialSpan(tuple(r for r in pair_rates for _ in range(2)), 1.0))
    # LS slope of ln||q|| against Re(lam) over the last 12 duals (2 per rate)
    xs = np.array([float(r.real) for r in fam_pairs.span.rates])
    slope = float(np.polyfit(xs[-12:], fam_pairs.ln_norms[-12:], 1)[0])
    dt = time.perf_counter() - t0
    ok = fam.residual <= 1e-6 and slope <= 4 * tau + 0.1 and dt < 2.0
    return ok, f"residual {fam.residual:.2e}, slope {slope:.3f} <= {4 * tau + 0.1}, {dt:.2f}s"


def criterion_06():
    """Simple synthesis: moment residuals, tail bound, finite norm."""
    t0 = time.perf_counter()
    model = pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k)
    plan = synthesize(model, 0.4, 10)
    report = verify_moments(plan)
    dt = time.perf_counter() - t0
    ok = (report.max_abs <= 1e-8 and report.tail_bound <= 1e-15
          and math.isfinite(plan.total_norm) and dt < 1.0)
    return ok, (f"residual {report.max_abs:.2e}, tail {report.tail_bound:.2e}, "
                f"norm {plan.total_norm:.3e}, {dt:.2f}s")


def criterion_07():
    """Minimal-horizon dichotomy on the two-branch academic model."""
    t0 = time.perf_counter()
    model = academic_lf(0.2, y0_rule=lambda k, i: 1.0)
    signs = {}
    for T in (0.1, 0.4):
        plan = synthesize(model, T, 12)
        pair_ln = [max(plan.ln_per_mode_norm[2 * i], plan.ln_per_mode_norm[2 * i + 1])
                   for i in range(6)]
        diffs = np.diff(pair_ln[2:])
        signs[T] = bool(np.all(diffs > 0)) if T == 0.1 else bool(np.all(diffs < 0))
    est = tstar_estimate(academic_lf(0.2), 24)
    dt = time.perf_counter() - t0
    ok = signs[0.1] and signs[0.4] and _within(est.lower, 0.2, 0.10) and dt < 1.0
    return ok, (f"grow@0.1 {signs[0.1]}, decay@0.4 {signs[0.4]}, "
                f"tstar {est.lower:.4f}, {dt:.2f}s")


def criterion_08():
    """Jordan synthesis on the boundary cascade."""
    t0 = time.perf_counter()
    model = cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),)),
                               y0_rule=lambda k, i: 1.0 / k if i == 1 else 1.0 / k**2)
    plan = synthesize(model, 0.5, 8)
    report = verify_moments(plan)
    obs3 = model.modes(3)[2].obs[0].value
    dt = time.perf_counter() - t0
    ok = (report.max_abs <= 1e-6
          and abs(obs3 - 3 * math.sqrt(2.0) * math.pi) <= 1e-12 and dt < 2.0)
    return ok, f"residual {report.max_abs:.2e}, obs3 err {abs(obs3 - 3 * math.sqrt(2) * math.pi):.1e}, {dt:.2f}s"


def criterion_09():
    """2x2 Gramian control: forward integration and sigma bounds."""
    t0 = time.perf_counter()
    res = gramian_control_2x2(block_2x2(1.0, 2.0, (1.0, 1.0)), (1.0, 1.0), 1.0)
    terminal = res.diagnostics["terminal_abs"] / math.sqrt(2.0)
    bounds = res.det_Q / res.tr_Q <= res.sigma <= 2 * res.det_Q / res.tr_Q
    dt = time.perf_counter() - t0
    ok = terminal <= 1e-6 and bounds and dt < 1.0
    return ok, f"|y(T)|/|y0| {terminal:.2e}, sigma bounds {bounds}, {dt:.2f}s"


def criterion_10():
    """Cross-section study: observation decay, horizon tail, eigenvalue bracket."""
    t0 = time.perf_counter()
    a, b, h = 0.3, 0.5, 2e-4
    ratios_ok = True
    for n in range(20, 41):
        mode = solve_mode(n, h)
        r = observation_integral(mode, a, b) / expected_observation_asymptote(n, a)
        ratios_ok = ratios_ok and 0.8 <= r <= 1.2
    prof = grushin_tstar_profile(a, b, 40, h)
    tail_ok = _within(prof.tail_estimate, 0.045, 0.10)
    bracket_ok = all(0.0 < solve_mode(n, h).lam - n * math.pi <= 5.0
                     for n in range(1, 41))
    dt = time.perf_counter() - t0
    ok = ratios_ok and tail_ok and bracket_ok and dt < 30.0
    return ok, (f"ratios {ratios_ok}, tail {prof.tail_estimate:.4f} vs 0.045"
                f"{'' if tail_ok else ' (out)'}, bracket {bracket_ok}, {dt:.1f}s")


def criterion_11(tmp_path=None):
    """Unobservability: infinite horizon estimate and CLI exit code."""
    import tempfile

    t0 = time.perf_counter()
    est = tstar_estimate(pointwise_heat(0.5), 12)
    with tempfile.TemporaryDirectory() as td:
        cfg = {"command": "synthesize", "model": {"name": "pointwise_heat", "x0": 0.5},
               "params": {"T": 0.4, "N": 4}}
        cfg_path = f"{td}/cfg.json"
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        code = cli_main(["--config", cfg_path, "--out", f"{td}/out"])
    dt = time.perf_counter() - t0
    ok = est.lower == math.inf and code == 2 and dt < 1.0
    return ok, f"tstar {est.lower}, exit {code}, {dt:.2f}s"


def criterion_12():
    """Hypothesis diagnostics: reciprocal-sum failure vs quadratic growth."""
    t0 = time.perf_counter()
    osc = check_hypotheses(harmonic_oscillator().spectrum(100), 100)
    heat = check_hypotheses(pointwise_heat(X0).spectrum(100), 100)
    dt = time.perf_counter() - t0
    ok = (not osc.summable and "HYP_SUMMABILITY_FAIL" in osc.warnings
          and heat.summable and abs(heat.summability_exponent - 2.0) <= 0.05
          and dt < 1.0)
    return ok, (f"oscillator p {osc.summability_exponent:.3f} flagged, "
                f"heat p {heat.summability_exponent:.3f}, {dt:.2f}s")


def criterion_13():
    """Property suites: spatial duals, ratio monotonicity, linearity."""
    t0 = time.perf_counter()
    ok = True
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        V = rng.normal(size=(4, 9))
        mix, sigma = biorthogonalize_gram(V @ V.conj().T)
        duals = mix @ V
        delta_residual = float(np.max(np.abs(V @ duals.conj().T - np.eye(4))))
        ok = ok and delta_residual <= 1e-10
        ok = ok and bool(np.all(np.linalg.norm(duals, axis=1)
                                <= 2.0 / sigma + 1e-10))
    rng = np.random.default_rng(77)
    for _ in range(100):
        tv = TestVector(complex(rng.uniform(0.1, 40.0), rng.uniform(-5, 5)),
                        rng.uniform(0.1, 5.0), rng.uniform(0, 5.0), rng.uniform(0, 5.0))
        T1, T2 = sorted(rng.uniform(0.0, 2.0, size=2))
        C1, C2 = sorted(rng.uniform(0.1, 4.0, size=2))
        ok = ok and inequality_ratio(tv, T2, C1) >= inequality_ratio(tv, T1, C1)
        ok = ok and inequality_ratio(tv, T1, C2) >= inequality_ratio(tv, T1, C1)
    p1 = synthesize(pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k), 0.4, 6)
    p2 = synthesize(pointwise_heat(X0, y0_rule=lambda k, i: float(k)), 0.4, 6)
    p12 = synthesize(pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k + k), 0.4, 6)
    c1 = np.array([t.coeff for t in p1.terms])
    c2 = np.array([t.coeff for t in p2.terms])
    c12 = np.array([t.coeff for t in p12.terms])
    lin = float(np.max(np.abs(c12 - (c1 + c2)) / np.abs(c12)))
    ok = ok and lin <= 1e-12
    dt = time.perf_counter() - t0
    return ok and dt < 5.0, f"linearity rel {lin:.1e}, {dt:.2f}s"


CRITERIA = [
    (1, criterion_01), (2, criterion_02), (3, criterion_03), (4, criterion_04),
    (5, criterion_05), (6, criterion_06), (7, criterion_07), (8, criterion_08),
    (9, criterion_09), (10, criterion_10), (11, criterion_11), (12, criterion_12),
    (13, criterion_13),
]


def _run(idx):
    fn = dict(CRITERIA)[idx]
    ok, detail = fn()
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {idx:2d}: {detail}")
    return ok, detail


@pytest.mark.parametrize("idx", [i for i, _ in CRITERIA])
def test_criterion(idx):
    ok, detail = _run(idx)
    assert ok, f"criterion {idx}: {detail}"


def main():
    results = [(idx, *_run(idx)) for idx, _ in CRITERIA]
    failed = [idx for idx, ok, _ in results if not ok]
    print(f"\n{len(results) - len(failed)}/{len(results)} criteria passed"
          + (f"; failing: {failed}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
