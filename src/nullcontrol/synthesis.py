"""Moment-method control construction and closed-form verification.

A control is sought as a finite sum of (dual time profile) x (direction
in U) terms.  Plugging it into the moment equations and using time/space
biorthogonality determines every coefficient explicitly; verification
re-evaluates all pairings in closed form at the family's working
precision, so the reported residuals measure the linear solve, not any
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .biortho_time import (
    BiorthogonalFamily,
    ExponentialSpan,
    build_biortho,
    build_biortho_jordan,  # noqa: F401  looked up by name on this module
    pair_with_exponential_mp,
)
from .biortho_space import biorthogonalize_gram
from .errors import SynthesisUnsupported, UnobservableMode, ZeroMuUnsupported
from .models import Block2x2, ParabolicModel
from .observations import combine
from .precision import to_complex, to_mp, workdps

_TAIL_MODES = 50


@dataclass(frozen=True)
class PlanTerm:
    basis_index: int          # row into the family's dual functions
    label: tuple              # (mode index, branch)
    coeff_mp: object          # mp scalar multiplying q_label(T - t)
    direction: object         # ObservationVector

    @property
    def coeff(self) -> complex:
        return to_complex(self.coeff_mp)


@dataclass(frozen=True)
class ControlPlan:
    model: ParabolicModel
    T: object                 # mpf horizon
    N: int
    family: BiorthogonalFamily
    terms: tuple
    per_mode_norm: np.ndarray  # |coeff| ||q|| ||direction|| per term
    ln_per_mode_norm: np.ndarray
    total_norm: float
    tail_bound: float
    meta: dict = field(default_factory=dict)

    @property
    def horizon(self) -> float:
        return float(self.T)


def moment_rhs(model: ParabolicModel, T, k: int, branch: int = 1) -> complex:
    """Target moment -e^{-lam_k T} <y0, phi_{k,branch}>."""
    return to_complex(_moment_rhs_mp(model.modes(k)[k - 1], to_mp(T), branch))


def _moment_rhs_mp(mode, T_mp, branch: int):
    # evaluated at the caller's working precision
    return -mp.e ** (-mode.lam_mp * T_mp) * to_mp(mode.y0[branch - 1])


def _generalized_rhs_mp(mode, T_mp):
    """Second Jordan moment target -e^{-lam T}(<y0, phi_2> - T mu <y0, phi_1>)."""
    mu = to_mp(mode.mu)
    return -mp.e ** (-mode.lam_mp * T_mp) * (to_mp(mode.y0[1]) - T_mp * mu * to_mp(mode.y0[0]))


def _tail_bound(model, T_mp, N: int) -> float:
    """sum_{k>N} e^{-Re(lam_k) T} |<y0, phi_{k,i}>| over the next block of
    uncontrolled modes (the summand decays super-geometrically)."""
    total = mp.mpf(0)
    try:
        modes = model.modes(N + _TAIL_MODES)
    except Exception:  # finite mode lists cannot extend past their length
        return float("nan")
    for mode in modes[N:]:
        w = mp.e ** (-mode.lam_mp.real * T_mp)
        total += w * sum(abs(to_mp(c)) for c in mode.y0)
    return float(total)


def _finalize(model, T_mp, N, family, terms) -> ControlPlan:
    with workdps(family.dps):
        n = family.size
        C = family.mp_coeffs
        G = family.mp_gram
        Q = C * G * C.transpose_conj()   # <q_i(T-.), q_j(T-.)> = <q_i, q_j>
        lns = []
        for t in terms:
            c = abs(t.coeff_mp)
            ln = float("-inf") if c == 0 else float(mp.log(c)) + family.ln_norms[t.basis_index] \
                + math.log(max(t.direction.norm(), 1e-300))
            lns.append(ln)
        total_sq = mp.mpf(0)
        for ti in terms:
            for tj in terms:
                d_inner = to_mp(ti.direction.inner(tj.direction))
                total_sq += ti.coeff_mp * mp.conj(tj.coeff_mp) \
                    * Q[ti.basis_index, tj.basis_index] * d_inner
        total = float(mp.sqrt(abs(total_sq)))
    lns = np.array(lns)
    with np.errstate(over="ignore"):
        pmn = np.exp(lns)
    return ControlPlan(
        model=model, T=T_mp, N=N, family=family, terms=tuple(terms),
        per_mode_norm=pmn, ln_per_mode_norm=lns, total_norm=total,
        tail_bound=_tail_bound(model, T_mp, N),
        meta={"labels": [t.label for t in terms]},
    )


def _check_mode(mode):
    """Refuse a mode the moment method cannot control, before any solve."""
    obs = mode.obs[0]
    if obs is None or obs.unobservable:
        raise UnobservableMode(f"mode k={mode.k} has vanishing first observation")
    if mode.kind != "jordan":
        return
    if mode.mu is None or mode.mu == 0:
        raise ZeroMuUnsupported(
            f"mode k={mode.k} is flagged jordan but carries no coupling")
    if mode.gamma is None:
        raise SynthesisUnsupported(
            f"mode k={mode.k} has non-proportional branch observations; "
            "the two-profile construction needs B* phi_2 = gamma B* phi_1")


def _mode_terms(mode, base: int, T_mp) -> list:
    """The plan terms of one mode whose dual profiles start at row ``base``."""
    if mode.kind == "jordan":
        # two dual profiles, both along B* phi_{k,1}; the coefficients
        # solve the triangular 2x2 moment system
        obs1 = mode.obs[0]
        nsq = obs1.norm() ** 2
        mu = to_mp(mode.mu)
        # <B*phi_1, B*phi_2> = conj(gamma) ||B*phi_1||^2 in the moment pairing
        gamma_c = mp.conj(to_mp(mode.gamma))
        alpha = _moment_rhs_mp(mode, T_mp, 1)
        beta = (gamma_c * alpha - _generalized_rhs_mp(mode, T_mp)) / mu
        return [PlanTerm(base, (mode.k, 1), alpha / nsq, obs1),
                PlanTerm(base + 1, (mode.k, 2), beta / nsq, obs1)]
    if mode.kind == "multiple":
        # the direction is built from the spatial duals of the observation
        # family, so each branch's moment decouples
        obs = mode.obs
        r = len(obs)
        G = np.array([[obs[a].inner(obs[b]) for b in range(r)] for a in range(r)])
        mix, _ = biorthogonalize_gram(G)   # raises DegenerateFamily
        alphas = [_moment_rhs_mp(mode, T_mp, b + 1) for b in range(r)]
        # direction = sum_b alpha_b Psi_b, Psi_b = sum_j mix[b, j] obs_j
        weights = [mp.fsum(alphas[b] * to_mp(mix[b, j]) for b in range(r))
                   for j in range(r)]
        return [PlanTerm(base, (mode.k, 0), mp.mpf(1),
                         combine(obs, [to_complex(w) for w in weights]))]
    nsq = mode.obs[0].norm() ** 2
    return [PlanTerm(base, (mode.k, 1), _moment_rhs_mp(mode, T_mp, 1) / nsq, mode.obs[0])]


def synthesize(model: ParabolicModel, T, N: int, precision: str = "extended",
               dps=None) -> ControlPlan:
    """Moment-method null control of the first N modes.

    A simple mode gives u = -e^{-lam T} <y0,phi>/||B* phi||^2 q(T-t) B* phi;
    a multiple mode one term along the spatial duals of its observations;
    a length-2 Jordan chain two terms over the doubled basis
    {e^{-lam t}, t e^{-lam t}}, which the whole span takes on as soon as
    one mode is a Jordan chain.
    """
    if not model.observation_available:
        raise SynthesisUnsupported(f"model {model.name} exposes no observations")
    modes = model.modes(N)
    for mode in modes:
        _check_mode(mode)
    jordan = any(mode.kind == "jordan" for mode in modes)
    span = ExponentialSpan(tuple(m.lam_mp for m in modes), to_mp(T), jordan=jordan)
    family = build_biortho(span, precision=precision, dps=dps)
    step = 2 if jordan else 1   # a doubled span holds q_{k,1}, q_{k,2} per mode
    terms = []
    with workdps(family.dps):
        for i, mode in enumerate(modes):
            terms += _mode_terms(mode, step * i, span.T)
    return _finalize(model, span.T, N, family, terms)


# The per-kind names stay as aliases: tests and the benchmark's tracer
# look them up on this module.
synthesize_simple = synthesize      # all modes simple
synthesize_multiple = synthesize    # multiple eigenvalues
synthesize_jordan = synthesize      # length-2 Jordan chains


@dataclass(frozen=True)
class MomentResidualReport:
    residuals: dict            # (k, branch) -> complex
    max_abs: float             # over controlled modes k <= N(plan)
    tail_bound: float
    leakage: dict              # residuals at k > N(plan), reported not asserted


def verify_moments(plan: ControlPlan, model: ParabolicModel | None = None,
                   T=None, N_check: int | None = None) -> MomentResidualReport:
    """Re-evaluate every moment equation with closed-form pairings."""
    model = model or plan.model
    T_mp = plan.T if T is None else to_mp(T)
    N_check = N_check or plan.N
    family = plan.family
    modes = model.modes(N_check)
    residuals: dict = {}
    leakage: dict = {}
    max_abs = 0.0
    with workdps(family.dps):
        for mode in modes:
            lam = mode.lam_mp
            pair0 = pair_with_exponential_mp(family, lam, 0)
            lhs_per_obs = {}

            def lhs_against(obs, pair):
                # <u(t), B*phi>_U pairs each term direction (first slot) with obs
                total = mp.mpf(0)
                for t in plan.terms:
                    total += t.coeff_mp * pair[t.basis_index] * to_mp(t.direction.inner(obs))
                return total

            if mode.kind == "jordan":
                pair1 = pair_with_exponential_mp(family, lam, 1)
                r1 = lhs_against(mode.obs[0], pair0) - _moment_rhs_mp(mode, T_mp, 1)
                mu = to_mp(mode.mu)
                r2 = (lhs_against(mode.obs[1], pair0)
                      - mu * lhs_against(mode.obs[0], pair1)
                      - _generalized_rhs_mp(mode, T_mp))
                entries = {(mode.k, 1): r1, (mode.k, 2): r2}
            else:
                entries = {}
                for b, obs in enumerate(mode.obs, start=1):
                    if obs is None:
                        continue
                    entries[(mode.k, b)] = lhs_against(obs, pair0) - _moment_rhs_mp(mode, T_mp, b)
            for key, val in entries.items():
                cval = to_complex(val)
                if key[0] <= plan.N:
                    residuals[key] = cval
                    max_abs = max(max_abs, abs(cval))
                else:
                    leakage[key] = cval
    return MomentResidualReport(residuals, max_abs, plan.tail_bound, leakage)


def terminal_projection(plan: ControlPlan, model: ParabolicModel | None = None,
                        T=None, K: int | None = None) -> dict:
    """Coefficients <y(T), phi_{k,i}> of the controlled state.

    The solution identity makes these exactly the moment residuals, so
    this is verify_moments viewed as terminal data."""
    report = verify_moments(plan, model, T, K or plan.N)
    out = dict(report.residuals)
    out.update(report.leakage)
    return out


def sample_plan(plan: ControlPlan, n: int = 2000):
    """Time samples of the per-term profiles coeff * q(T - t) (CSV export
    only; verification never touches samples).  Returns (t, term_matrix,
    u) where u is the assembled scalar control when every direction is a
    scalar observation, else None.

    Well-conditioned families sample vectorized in binary64 (plot grade);
    deep-cancellation families fall back to the working precision.
    """
    T = float(plan.T)
    ts = np.linspace(0.0, T, n)
    family = plan.family
    span = family.span
    basis = span.basis()
    cols = np.empty((len(plan.terms), n))
    if family.cond_estimate < 1e12:
        s = (T - ts)[None, :]
        rates = np.array([complex(r.real, r.imag) for r, _ in basis])[:, None]
        powers = np.array([p for _, p in basis])[:, None]
        funcs = s**powers * np.exp(-rates * s)
        for col, term in enumerate(plan.terms):
            cols[col] = np.real((term.coeff * family.coeffs[term.basis_index]) @ funcs)
    else:
        with workdps(family.dps):
            s_grid = [to_mp(T) - to_mp(float(t)) for t in ts]
            for col, term in enumerate(plan.terms):
                row = family.mp_coeffs[term.basis_index, :]
                for i, s in enumerate(s_grid):
                    acc = mp.mpf(0)
                    for j, (rate, power) in enumerate(basis):
                        acc += row[j] * s**power * mp.e ** (-rate * s)
                    cols[col, i] = float((term.coeff_mp * acc).real)
    scalars = [getattr(t.direction, "value", None) for t in plan.terms]
    u = None
    if all(v is not None for v in scalars):
        u = np.sum(cols * np.array([float(np.real(v)) for v in scalars])[:, None], axis=0)
    return ts, cols, u


# ---------------------------------------------------------------------------
# finite 2x2 minimal-norm control

def _eta(s: float) -> float:
    if s == 0.0:
        return 1.0
    return math.expm1(s) / s


@dataclass(frozen=True)
class GramianControlResult:
    block: Block2x2
    T: float
    Q: np.ndarray
    det_Q: float
    tr_Q: float
    sigma: float
    sigma_bounds_ok: bool
    control_norm_sq: float
    times: np.ndarray
    samples: np.ndarray
    terminal_state: np.ndarray
    diagnostics: dict


def gramian_control_2x2(block: Block2x2, y0, T: float, rk4_h: float = 1e-4,
                        samples: int = 2000) -> GramianControlResult:
    """Minimal-L2-norm control u(t) = -B^T e^{A(T-t)} Q^{-1} e^{AT} y0 of the
    2x2 diagonal block, with Gramian assembled in closed form via
    eta(s) = (e^s - 1)/s, plus an RK4 forward integration as an
    independent check that y(T) = 0."""
    l1, l2 = block.lam1, block.lam2
    b1, b2 = block.b
    y0 = np.asarray(y0, dtype=float)
    Q = T * np.array([
        [b1 * b1 * _eta(-2 * T * l1), b1 * b2 * _eta(-T * (l1 + l2))],
        [b1 * b2 * _eta(-T * (l1 + l2)), b2 * b2 * _eta(-2 * T * l2)],
    ])
    det_q = float(np.linalg.det(Q))
    tr_q = float(np.trace(Q))
    sigma = 2.0 * det_q / (tr_q + math.sqrt(max(tr_q * tr_q - 4.0 * det_q, 0.0)))
    bounds_ok = det_q / tr_q <= sigma <= 2.0 * det_q / tr_q + 1e-15
    eAT = np.array([math.exp(-l1 * T), math.exp(-l2 * T)])
    w = np.linalg.solve(Q, eAT * y0)
    norm_sq = float(np.dot(w, eAT * y0))

    def u(t: float) -> float:
        return -(b1 * math.exp(-l1 * (T - t)) * w[0] + b2 * math.exp(-l2 * (T - t)) * w[1])

    def rhs(t, y):
        ut = u(t)
        return np.array([-l1 * y[0] + b1 * ut, -l2 * y[1] + b2 * ut])

    nsteps = int(round(T / rk4_h))
    hh = T / nsteps
    y = y0.copy()
    t = 0.0
    for _ in range(nsteps):
        k1 = rhs(t, y)
        k2 = rhs(t + hh / 2, y + hh / 2 * k1)
        k3 = rhs(t + hh / 2, y + hh / 2 * k2)
        k4 = rhs(t + hh, y + hh * k3)
        y = y + hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += hh
    ts = np.linspace(0.0, T, samples)
    us = np.array([u(float(tt)) for tt in ts])
    grid_norm_sq = float(np.trapezoid(us * us, ts))
    decay_scale = (l1 + l2) * math.exp(-2 * l1 * T) * float(np.dot(y0, y0))
    return GramianControlResult(
        block=block, T=float(T), Q=Q, det_Q=det_q, tr_Q=tr_q, sigma=float(sigma),
        sigma_bounds_ok=bool(bounds_ok), control_norm_sq=norm_sq,
        times=ts, samples=us, terminal_state=y,
        diagnostics={
            "terminal_abs": float(np.linalg.norm(y)),
            "grid_norm_sq": grid_norm_sq,
            "norm_bound_scale": decay_scale,
            "norm_over_scale": norm_sq / decay_scale if decay_scale > 0 else math.inf,
        },
    )
