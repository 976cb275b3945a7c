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
from dataclasses import dataclass
from itertools import islice

import mpmath as mp
import numpy as np
from mpmath import libmp

from .biortho_time import (
    BiorthogonalFamily,
    ExponentialSpan,
    build_biortho,
    build_biortho_jordan,  # noqa: F401  read only by perfbench/tracing.py ENTRY_POINTS
    pair_with_exponential_mp,
)
from .errors import (
    DegenerateFamily, NotHermitian, NumericalError, SynthesisUnsupported, UnobservableMode,
    ValidationError, ZeroMuUnsupported,
)
from .models import Block2x2, ParabolicModel
from .observations import Scalar, combine
from .precision import (
    DEFAULT_DPS, exact_matmul, float_matmul, int_rows, mp_log_abs, round_half_even, signed,
    signed_rows, to_complex, to_mp, workdps,
)

_TAIL_MODES = 50
SIGMA_SQ_TOL = 1e-12
# most RK4 steps gramian_control_2x2 takes: each is a few Python-level array
# operations, about 13 us on a 2-core x86-64 box, so 10^6 steps take about 13 s
RK4_MAX_STEPS = 10**6


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

    @property
    def horizon(self) -> float:
        return float(self.T)


def _moment_rhs_mp(mode, T_mp, branch: int):
    """Target moment -e^{-lam_k T} <y0, phi_{k,branch}> at the caller's
    working precision."""
    return -mp.exp(-mode.lam_mp * T_mp) * to_mp(mode.y0[branch - 1])


def _generalized_rhs_mp(mode, T_mp):
    """Second Jordan moment target -e^{-lam T}(<y0, phi_2> - T mu <y0, phi_1>)."""
    mu = to_mp(mode.mu)
    return -mp.exp(-mode.lam_mp * T_mp) * (to_mp(mode.y0[1]) - T_mp * mu * to_mp(mode.y0[0]))


def _tail_bound(model, T_mp, N: int) -> float:
    """sum_{k>N} e^{-Re(lam_k) T} |<y0, phi_{k,i}>| over at most the next
    50 uncontrolled modes, summed at DEFAULT_DPS whatever the caller's
    precision.

    The modes are built one at a time, and the sum stops at the first
    nonzero term below 2^-(prec+1) times the running total: that term is
    under half a unit in the last place, so adding it leaves the rounded
    total as it is.  Stopping there assumes that the nonzero terms
    decrease, as they do super-geometrically for the gallery's spectra and
    initial data; every later term then leaves the total as it is too.  A
    zero term (initial data without that mode) does not stop the sum."""
    with workdps(DEFAULT_DPS):
        tiny = mp.ldexp(1, -mp.mp.prec - 1)
        total = mp.mpf(0)
        for k in range(N + 1, N + _TAIL_MODES + 1):
            mode = model.modes(k)[-1]
            term = mp.exp(-mode.lam_mp.real * T_mp) * sum(abs(to_mp(c)) for c in mode.y0)
            if term and term < tiny * total:
                break
            total += term
        return float(total)


def _norm_sq(family, terms):
    """||u||^2 = sum_ij c_i conj(c_j) <q_i, q_j> <d_i, d_j> over the terms.

    On a real span with scalar directions this is the quadratic form
    w^T Q conj(w), Q the dual Gram, w_b = sum of coeff * value over the
    terms of basis row b: one exact dot per row of Q, and one of w with
    the result, each a ``precision.exact_matmul``.  When Q is C, its
    integer rows are the family's own; otherwise Q is converted one row
    at a time."""
    Q = family.mp_dual_gram   # <q_i(T-.), q_j(T-.)> = <q_i, q_j>
    if family.span.real and all(isinstance(t.direction, Scalar) for t in terms):
        w = [mp.mpf(0)] * family.size
        for t in terms:
            w[t.basis_index] += t.coeff_mp * to_mp(t.direction.value)
        cw = int_rows([[mp.conj(x) for x in w]])
        rows = [family.int_rows] if Q is family.mp_coeffs else (int_rows([row]) for row in Q)
        Qw = [x for r in rows for x, in exact_matmul(r, cw)]
        return exact_matmul(int_rows([w]), int_rows([Qw]))[0][0]
    total_sq = mp.mpf(0)
    for ti in terms:
        for tj in terms:
            d_inner = to_mp(ti.direction.inner(tj.direction))
            total_sq += ti.coeff_mp * mp.conj(tj.coeff_mp) \
                * Q[ti.basis_index, tj.basis_index] * d_inner
    return total_sq


def _finalize(model, T_mp, N, family, terms) -> ControlPlan:
    with workdps(family.dps):
        lns = []
        for t in terms:
            lns.append(mp_log_abs(t.coeff_mp) + family.ln_norms[t.basis_index]
                       + math.log(max(t.direction.norm(), 1e-300)))
        total = float(mp.sqrt(abs(_norm_sq(family, terms))))
    lns = np.array(lns)
    with np.errstate(over="ignore"):
        pmn = np.exp(lns)
    return ControlPlan(
        model=model, T=T_mp, N=N, family=family, terms=tuple(terms),
        per_mode_norm=pmn, ln_per_mode_norm=lns, total_norm=total,
        tail_bound=_tail_bound(model, T_mp, N),
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


def smallest_eigenvalue(G: np.ndarray) -> float:
    """sigma^2: smallest eigenvalue of a hermitian Gram matrix."""
    G = np.atleast_2d(np.asarray(G, dtype=complex))
    if G.shape[0] != G.shape[1] or np.max(np.abs(G - G.conj().T)) > 1e-10 * (np.max(np.abs(G)) or 1.0):
        raise NotHermitian("Gram matrix must be hermitian")
    return float(np.linalg.eigvalsh(G)[0])


def biorthogonalize_gram(G: np.ndarray):
    """(G^{-1}, sigma) for vectors v_1..v_r known only through their Gram
    G_ij = <v_i, v_j>: the duals w_i = sum_j (G^{-1})_ij v_j satisfy
    <v_i, w_j> = delta_ij, ||w_i||^2 = (G^{-1})_ii and ||w_i|| <= sqrt(r)/sigma,
    sigma^2 the smallest eigenvalue of G."""
    G = np.atleast_2d(np.asarray(G, dtype=complex))
    sig_sq = smallest_eigenvalue(G)
    if sig_sq <= SIGMA_SQ_TOL:
        raise DegenerateFamily(f"smallest Gram eigenvalue {sig_sq:.3e} <= {SIGMA_SQ_TOL:g}")
    mix = np.linalg.solve(G, np.eye(G.shape[0], dtype=complex))
    return mix, float(np.sqrt(sig_sq))


def _mode_terms(mode, base: int, T_mp) -> list:
    """The plan terms of one mode whose dual profiles start at row ``base``."""
    if mode.kind == "jordan":
        # two dual profiles, both along B* phi_{k,1}; the coefficients
        # solve the triangular 2x2 moment system
        obs1 = mode.obs[0]
        nsq = obs1.inner(obs1).real   # as verify_moments pairs it, not norm() ** 2
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
    nsq = mode.obs[0].inner(mode.obs[0]).real
    return [PlanTerm(base, (mode.k, 1), _moment_rhs_mp(mode, T_mp, 1) / nsq, mode.obs[0])]


def synthesize(model: ParabolicModel, T, N: int) -> ControlPlan:
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
    # a doubled span lists every rate twice and holds q_{k,1}, q_{k,2} per
    # mode; otherwise a repeated rate is refused, not read as a Jordan chain
    step = 2 if any(mode.kind == "jordan" for mode in modes) else 1
    rates = tuple(m.lam_mp for m in modes for _ in range(step))
    span = (ExponentialSpan if step == 2 else ExponentialSpan.distinct)(rates, to_mp(T))
    family = build_biortho(span)
    terms = []
    with workdps(family.dps):
        for i, mode in enumerate(modes):
            terms += _mode_terms(mode, step * i, span.T)
    return _finalize(model, span.T, N, family, terms)


# The per-kind aliases are not exported; their only reader is the
# benchmark's tracer (perfbench/tracing.py ENTRY_POINTS).
synthesize_simple = synthesize      # all modes simple
synthesize_multiple = synthesize    # multiple eigenvalues
synthesize_jordan = synthesize      # length-2 Jordan chains


@dataclass(frozen=True)
class MomentResidualReport:
    residuals: dict            # (k, branch) -> complex
    max_abs: float             # over controlled modes k <= N(plan)
    tail_bound: float
    leakage: dict              # residuals at k > N(plan), reported not asserted


def verify_moments(plan: ControlPlan, N_check: int | None = None) -> MomentResidualReport:
    """Re-evaluate every moment equation of ``plan.model`` at ``plan.T`` with
    closed-form pairings, for the first N_check modes (default: the
    plan's N)."""
    T_mp = plan.T
    N_check = N_check or plan.N
    family = plan.family
    modes = plan.model.modes(N_check)
    residuals: dict = {}
    leakage: dict = {}
    max_abs = 0.0

    def lhs_against(obs, pair):
        # <u(t), B*phi>_U pairs each term direction (first slot) with obs
        total = mp.mpf(0)
        for t in plan.terms:
            total += t.coeff_mp * pair[t.basis_index] * to_mp(t.direction.inner(obs))
        return total

    with workdps(family.dps):
        for mode in modes:
            lam = mode.lam_mp
            pair0 = pair_with_exponential_mp(family, lam, 0)
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


def _exact_sum(a, ea, b, eb):
    """a 2^ea + b 2^eb as (mantissa, exponent), exactly."""
    if ea <= eb:
        return a + (b << (eb - ea)), ea
    return (a << (ea - eb)) + b, eb


# samples per exact object-matrix product in sample_plan
_SAMPLE_BLOCK = 64


def _basis_samples(basis, T: float, ts, prec: int):
    """Yield the basis values e^{-r s} and e^{-r s} phi_d(s) at each
    s_i = T - t_i, one ``precision.IntRows`` row per sample and one form
    per _SAMPLE_BLOCK samples.

    e^{-r s} is evaluated once, at s_0, and then follows the recurrence
    e^{-r s_i} = e^{-r s_(i-1)} e^{r d_i} over the exact grid steps
    d_i = s_(i-1) - s_i, with one cached e^{r d} per rate and distinct
    step (np.linspace has a dozen or two).  A pair's phi_d(s) =
    (1 - e^{-d s}) / d follows phi <- e^{d d_i} phi - expm1(d d_i) / d,
    with one cached pair of factors per d > 0 and distinct step; at d = 0
    (a Jordan chain) phi is s itself.  Both are carried at
    wp = prec + len(ts).bit_length() + 1 bits, so that the drift after
    len(ts) steps stays below one unit in the last place at ``prec`` bits,
    of the value for e^{-r s} and of the pair's scale T for phi.

    Every value is a signed integer mantissa and an exponent.  T and the
    t_i are doubles, so s_i and d_i are exact integers over the grid's
    smallest exponent.  A step takes the exact integer product (for a
    complex rate, the exact aligned re and im of the product; for phi, the
    exact aligned difference after its rounded product) and rounds it half
    to even to wp bits: the value ``libmp.mpf_mul``, ``mpf_sub`` and
    ``mpc_mul`` return at wp bits, rounding to nearest, with no libmp call
    and no mp scalar per sample.  s e^{-r s} is the rounded product with
    the exact s.  A d > 0 pairs real rates only.

    Each sample is aligned, and its spread checked, by
    ``precision.signed_rows`` before the next is stepped; a value has at
    most wp + 1 bits, so its lowest set bit lies at most wp above its
    exponent.  Only the cached factors come from mpmath, and the check for
    an inf or nan is made on them (``precision.signed``): integer
    mantissas hold neither.
    """
    rates = list(dict.fromkeys(r for r, _ in basis))
    deltas = list(dict.fromkeys(d for _, d in basis if d))
    # per row: its rate, and None (e^{-r s}), -1 (s e^{-r s}) or its d's index
    slots = [(rates.index(r), None if d is None else deltas.index(d) if d else -1)
             for r, d in basis]
    cplx = [type(r) is mp.mpc for r in rates]
    flat_c = any(cplx)
    wp = prec + len(ts).bit_length() + 1

    # T and every t_i as integers over one exponent e0, their smallest
    ts = [float(t) for t in ts]
    scale = max(x.as_integer_ratio()[1] for x in ts + [float(T)])   # a power of two
    e0 = 1 - scale.bit_length()

    def fixed(x):
        """x / 2^e0, exactly, for a double x."""
        num, den = x.as_integer_ratio()
        return num * (scale // den)

    T_int = fixed(float(T))

    def factors(x):
        """e^{r x} per rate, and (e^{d x}, -expm1(d x) / d) per d > 0, as
        signed (mantissa, exponent) pairs (re and im pairs for a complex
        rate), for x 2^e0."""
        with mp.workprec(wp):
            x = mp.make_mpf(libmp.from_man_exp(x, e0))
            vals = [mp.exp(r * x) for r in rates]
            em1 = [mp.expm1(d * x) for d in deltas]
            pairs = [(signed((m + 1)._mpf_), signed((-m / d)._mpf_))
                     for m, d in zip(em1, deltas)]
        return [tuple(map(signed, v._mpc_)) if c else signed(v._mpf_)
                for v, c in zip(vals, cplx)], pairs

    def scaled(z, w, c):
        """z w rounded, for a real w and z complex when c, else real."""
        m, x = w
        if c:
            return tuple([round_half_even(a * m, b + x, wp) for a, b in z])
        return round_half_even(z[0] * m, z[1] + x, wp)

    def ctimes(z, w):
        """z w rounded, re and im each from the exact products, for complex z and w."""
        (a, ea), (b, eb) = z
        (c, ec), (d, ed) = w
        return (round_half_even(*_exact_sum(a * c, ea + ec, -(b * d), eb + ed), wp),
                round_half_even(*_exact_sum(a * d, ea + ed, b * c, eb + ec), wp))

    def values():
        """Each sample's signed values: re parts, then im parts when any
        rate is complex, a value of a real rate taking a zero im."""
        zero = (0, 0)
        steps = {}
        s_prev = None
        for t in ts:
            s = T_int - fixed(t)   # exact, s 2^e0
            if s_prev is None:
                e, phi = factors(-s)
                phi = [c for _, c in phi]   # phi_d(s) = -expm1(-d s) / d
            else:
                step = steps.get(s_prev - s)
                if step is None:
                    step = steps[s_prev - s] = factors(s_prev - s)
                e = [ctimes(a, f) if c else round_half_even(a[0] * f[0], a[1] + f[1], wp)
                     for a, f, c in zip(e, step[0], cplx)]
                phi = [round_half_even(*_exact_sum(*round_half_even(p * f, x + y, wp), *c), wp)
                       for (p, x), ((f, y), c) in zip(phi, step[1])]
            s_prev = s
            vals = [e[k] if j is None else scaled(e[k], (s, e0) if j < 0 else phi[j], cplx[k])
                    for k, j in slots]
            if flat_c:
                vals = [v[0] if cplx[k] else v for v, (k, _) in zip(vals, slots)] \
                    + [v[1] if cplx[k] else zero for v, (k, _) in zip(vals, slots)]
            yield vals

    rows = values()
    for _ in range(0, len(ts), _SAMPLE_BLOCK):
        yield signed_rows(islice(rows, _SAMPLE_BLOCK), flat_c, wp)


def sample_plan(plan: ControlPlan, n: int = 2000):
    """Time samples of the per-term profiles coeff * q(T - t) (CSV export
    only; verification never touches samples).  Returns (t, term_matrix,
    u): term_matrix holds the real parts Re(coeff * q(T - t)), and u is
    the assembled scalar control when every direction is a real scalar
    observation, else None.

    Each term's coefficient is folded into its dual row once at the
    family's working precision; the basis values, e^{-r s} and on a
    pair's second row e^{-r s} phi_d(s), come from the integer recurrences
    of ``_basis_samples``.  Each sample is the exact integer dot product
    of a folded row with the basis values, both in the form
    ``precision.IntRows`` (the folded rows built once), taken for a block
    of samples by one ``precision.float_matmul`` (real parts only), and
    rounded once to the family's precision and then to float.
    The sum stays exact at any exponent spread (the basis values fall by
    hundreds of bits between s = 0 and s = T), where mp.fdot may drop
    terms.

    Cost: (rates + distinct pair gaps) * (1 + distinct grid steps) mp
    exponentials; per sample, about one integer product and one
    half-even rounding per basis value at the carried precision, with no
    libmp call and no mp scalar; per block of samples, one exact product
    of the folded rows with the samples' integers; then n * terms integer
    roundings and int -> float conversions.
    """
    T = float(plan.T)
    ts = np.linspace(0.0, T, n)
    family = plan.family
    with workdps(family.dps):
        prec = mp.mp.prec
        rows = int_rows([term.coeff_mp * c for c in family.mp_coeffs[term.basis_index, :]]
                        for term in plan.terms)
    cols = np.empty((len(plan.terms), n))
    start = 0
    for block in _basis_samples(family.span.basis(), T, ts, prec):
        stop = start + len(block.exp)
        for col, vals in zip(cols, float_matmul(rows, block, prec)):
            col[start:stop] = vals
        start = stop
    scalars = [getattr(t.direction, "value", None) for t in plan.terms]
    u = None
    if all(v is not None and np.imag(v) == 0 for v in scalars):
        u = np.sum(cols * np.array([float(np.real(v)) for v in scalars])[:, None], axis=0)
    return ts, cols, u


# ---------------------------------------------------------------------------
# finite 2x2 minimal-norm control

def _eta(s):
    """(e^s - 1)/s at the working precision."""
    return mp.expm1(s) / s if s else mp.mpf(1)


@dataclass(frozen=True)
class GramianControlResult:
    block: Block2x2
    T: float
    Q: np.ndarray
    det_Q: float
    log10_det_Q: float          # finite where det_Q underflows binary64 (unit data, T < ~1e-81)
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
    independent check that y(T) = 0.

    Q, det Q, its smaller eigenvalue sigma and the weights Q^{-1} e^{AT} y0
    are evaluated in mpmath: det Q = q11 q22 - q12^2 keeps only about
    ((lam2 - lam1) min(T, 1/(lam1 + lam2)))^2 / 12 of its terms (T^4 / 12
    times (lam2 - lam1)^2 at small T), so those lost digits are carried on
    top of DEFAULT_DPS.  The control itself is sampled in binary64: a
    NumericalError is raised when its weights, its samples or the RK4
    state leave that range (below about T = 1e-155 for unit data), or when
    the RK4 stage times, which overrun T by a few ulps, take the control's
    exponentials out of range.  A ValidationError is raised before any work
    when the RK4 check would take more than RK4_MAX_STEPS steps."""
    if not T > 0:
        raise ValueError("horizon T must be positive")
    if T / rk4_h > RK4_MAX_STEPS:
        raise ValidationError(f"the RK4 check would take T / rk4_h = {T / rk4_h:.3g} steps, "
                              f"more than {RK4_MAX_STEPS}")
    l1, l2 = block.lam1, block.lam2
    b1, b2 = block.b
    y0 = np.asarray(y0, dtype=float)
    lost = -2.0 * (math.log10(l2 - l1) + math.log10(min(T, 1.0 / (l1 + l2))))
    with workdps(DEFAULT_DPS + max(0, math.ceil(lost))):
        T_mp, l1_mp, l2_mp = mp.mpf(T), mp.mpf(l1), mp.mpf(l2)
        q11 = T_mp * b1 * b1 * _eta(-2 * T_mp * l1_mp)
        q12 = T_mp * b1 * b2 * _eta(-T_mp * (l1_mp + l2_mp))
        q22 = T_mp * b2 * b2 * _eta(-2 * T_mp * l2_mp)
        det_mp, tr_mp = q11 * q22 - q12 * q12, q11 + q22
        sigma_mp = 2 * det_mp / (tr_mp + mp.sqrt(max(tr_mp * tr_mp - 4 * det_mp, 0)))
        # det/tr <= sigma <= 2 det/tr, up to a relative rounding slack
        slack = mp.ldexp(1, 8 - mp.mp.prec)
        bounds_ok = (det_mp / tr_mp * (1 - slack) <= sigma_mp
                     <= 2 * det_mp / tr_mp * (1 + slack))
        r1, r2 = mp.exp(-l1_mp * T_mp) * y0[0], mp.exp(-l2_mp * T_mp) * y0[1]
        w_mp = ((q22 * r1 - q12 * r2) / det_mp, (q11 * r2 - q12 * r1) / det_mp)
        norm_sq = float(w_mp[0] * r1 + w_mp[1] * r2)
        Q = np.array([[float(q11), float(q12)], [float(q12), float(q22)]])
        det_q, tr_q, sigma = float(det_mp), float(tr_mp), float(sigma_mp)
        log10_det_q = float(mp.log10(det_mp))
        # u(T - s) = -e^{-lam1 s} [u0 + b2 w1 expm1(-(lam2 - lam1) s)]: the sum
        # u0 = b1 w0 + b2 w1 cancels most digits of the weights at small T
        u0, b2w1 = float(b1 * w_mp[0] + b2 * w_mp[1]), float(b2 * w_mp[1])
    if not (math.isfinite(u0) and math.isfinite(b2w1)):
        raise NumericalError(f"control weights overflow binary64 at T = {T:g}")

    def u(t: float) -> float:
        s = T - t
        return -math.exp(-l1 * s) * (u0 + b2w1 * math.expm1(-(l2 - l1) * s))

    def rhs(t, y):
        ut = u(t)
        return np.array([-l1 * y[0] + b1 * ut, -l2 * y[1] + b2 * ut])

    nsteps = max(1, round(T / rk4_h))  # rk4_h > 2T still takes one step
    hh = T / nsteps
    y = y0.copy()
    t = 0.0
    try:  # a non-finite state or sample is caught by the check below
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(nsteps):
                k1 = rhs(t, y)
                k2 = rhs(t + hh / 2, y + hh / 2 * k1)
                k3 = rhs(t + hh / 2, y + hh / 2 * k2)
                k4 = rhs(t + hh, y + hh * k3)
                y = y + hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                t += hh
            ts = np.linspace(0.0, T, samples)
            us = np.array([u(float(tt)) for tt in ts])
    except OverflowError as exc:
        raise NumericalError(f"control exponentials overflow binary64 at T = {T:g}") from exc
    if not (np.all(np.isfinite(us)) and np.all(np.isfinite(y))):
        raise NumericalError(f"control samples or RK4 state overflow binary64 at T = {T:g}")
    grid_norm_sq = float(np.trapezoid(us * us, ts))
    return GramianControlResult(
        block=block, T=float(T), Q=Q, det_Q=det_q, log10_det_Q=log10_det_q,
        tr_Q=tr_q, sigma=sigma,
        sigma_bounds_ok=bool(bounds_ok), control_norm_sq=norm_sq,
        times=ts, samples=us, terminal_state=y,
        diagnostics={
            "terminal_abs": float(np.linalg.norm(y)),
            "grid_norm_sq": grid_norm_sq,
        },
    )
