"""Cross-section eigenproblem -v'' + (n pi)^2 x^2 v on (-1, 1), Dirichlet.

The smallest eigenvalue must certifiably sit above n*pi (its true distance
is exponentially small in n), so the discretization is a conforming P1
Galerkin pencil (K, M) with exactly integrated potential: by min-max every
discrete eigenvalue is an upper bound for the true one.  The pencil is
tridiagonal, and the LDL^T factorization of K - sigma*M (LAPACK dpttrf)
succeeds exactly when sigma lies below the smallest eigenvalue.  Inverse
iteration through the factor at n*pi (a lower end by domain monotonicity)
gives a Rayleigh quotient RQ, taken in its shifted form from the solve
itself; being accurate to second order in the eigenvector, it lies within a
few BRACKET_REL_TOL of the switch.  Doubling steps walk up from RQ while the
factor succeeds, then down until it does, and one bisection closes the
bracket they leave.  With its h/2 partner, a mode at h = 2e-4 takes 4-10
dpttrf calls, 252 for n <= 40; n = 1 takes 27, since n*pi lies 14% below
lambda_1 and leaves RQ 2.7e-7 off.  The upper end is
reported and the bracket kept in ``CrossSectionMode.meta``.  The Richardson
partner lambda(h/2) is not bisected: it is the shifted Rayleigh quotient of
one inverse-iteration step through the h/2 pencil's factor at n*pi, from
the h eigenvector prolonged to that grid, so a mode costs the h bracket
plus one h/2 factor and one solve.  The omega-free potential
integrals are assembled once per grid.  On grids fine enough that binary64
rounding of the pencil exceeds lambda - n*pi, ``solve_mode`` raises GridTooFine.
dpttrf/dpttrs come from scipy's ``_flapack`` extension alone, loaded by the
first factorization, not by importing this module, and without
``scipy.linalg``.  Every norm and Rayleigh quotient is a numpy pairwise sum,
not a BLAS dot, so no output depends on the BLAS thread count.
``grushin_tstar_profile`` solves each mode once and takes T_n from one
trapezoid integral over the window's grid nodes.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import GridTooCoarse, GridTooFine
from .hautus import marginal_horizon
from .report import DEFAULT_WINDOW, ProfileReport, make_profile

_GAUSS_NODES = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_GAUSS_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])

# the bisection stops once hi - lo <= BRACKET_REL_TOL * hi
BRACKET_REL_TOL = 1e-10
# solve_mode accepts a grid while |lambda(h) - lambda(h/2)| <= RICHARDSON_TOL * lambda(h)
RICHARDSON_TOL = 1e-4
# largest frequency solve_mode and grushin_tstar_profile accept
N_MAX = 60
# finest step solve_mode accepts: a mode there takes about 2 s and 500 MB, and
# binary64 rounding of the pencil already fails GridTooFine at h = 1e-5, n = 20
H_MIN = 1e-6


@dataclass(frozen=True)
class CrossSectionMode:
    n: int
    lam: float                # upper end of the certified dpttrf bracket at step h
    vec: np.ndarray           # nodal values on the full grid, L2-normalized
    grid: np.ndarray
    h: float
    meta: dict = field(default_factory=dict)


@lru_cache(maxsize=4)
def _potential(h: float):
    """The grid and the omega-free per-element potential integrals
    int x^2 phi_a phi_b over each element, read-only and shared by every mode on it."""
    nel = int(round(2.0 / h))
    if abs(nel * h - 2.0) > 1e-12 * nel:
        raise ValueError("h must divide the interval length 2")
    grid = -1.0 + h * np.arange(nel + 1)

    # 3-point Gauss per element integrates x^2 * hat * hat (quartic) exactly
    xl, xr = grid[:-1], grid[1:]
    mid, half = 0.5 * (xl + xr), 0.5 * h
    pot_ll = np.zeros(nel)
    pot_rr = np.zeros(nel)
    pot_lr = np.zeros(nel)
    for node, wgt in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
        x = mid + half * node
        phi_l = (xr - x) / h
        phi_r = (x - xl) / h
        w = wgt * half * x * x
        pot_ll += w * phi_l * phi_l
        pot_rr += w * phi_r * phi_r
        pot_lr += w * phi_l * phi_r
    for a in (grid, pot_ll, pot_rr, pot_lr):
        a.flags.writeable = False
    return grid, pot_ll, pot_rr, pot_lr


def _assemble(n: int, h: float):
    """Tridiagonal stiffness+potential matrix on interior nodes, as arrays,
    and the uniform grid's mass matrix, as its constant diagonal and
    off-diagonal scalars."""
    grid, pot_ll, pot_rr, pot_lr = _potential(h)
    omega_sq = (n * math.pi) ** 2
    # node i from elements i-1, i; off-diagonal via the shared element
    kd = 2.0 / h + pot_rr[:-1] * omega_sq + pot_ll[1:] * omega_sq
    ke = -1.0 / h + pot_lr[1:-1] * omega_sq
    return grid, kd, ke, 2.0 * h / 3.0, h / 6.0


@lru_cache(maxsize=1)
def _flapack():
    """scipy's LAPACK extension module, loaded by itself: importing
    ``scipy.linalg`` would also load numpy.f2py, numpy.testing and numpy.ma,
    and take longer than the whole 40-mode solve.  Importing
    top-level ``scipy`` first keeps its shared-library setup."""
    import scipy

    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    found = importlib.machinery.PathFinder.find_spec("_flapack", [where])
    if found is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {where}")
    name = "scipy.linalg._flapack"
    loader = importlib.machinery.ExtensionFileLoader(name, found.origin)
    spec = importlib.util.spec_from_file_location(name, found.origin, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _dot(a, b) -> float:
    """sum(a * b) by numpy's pairwise sum: single-threaded, so unlike a BLAS
    dot its rounding does not depend on the thread count."""
    return float(np.add.reduce(a * b))


def _factor(kd, ke, md, me, sigma: float):
    """LDL^T factor (d, e) of K - sigma*M when it is positive definite, i.e.
    sigma lies below every pencil eigenvalue; None otherwise."""
    # the shifted diagonals are fresh temporaries, so dpttrf may factor them in place
    d, e, info = _flapack().dpttrf(kd - sigma * md, ke - sigma * me,
                                   overwrite_d=True, overwrite_e=True)
    return (d, e) if info == 0 else None


def _factor_below(kd, ke, md, me, sigma: float):
    """(sigma', factor, dpttrf calls) for the first sigma' of sigma, sigma/2,
    sigma/4, ... at which K - sigma'*M is definite: binary64 rounding of the
    pencil on very fine grids can put its smallest eigenvalue below n*pi."""
    calls = 1
    while (kept := _factor(kd, ke, md, me, sigma)) is None:
        sigma *= 0.5
        calls += 1
    return sigma, kept, calls


def _tridiag_times(d, e, v):
    """A v for the symmetric tridiagonal A with diagonal d and off-diagonal e,
    each an array or, for a constant one, a scalar."""
    av = d * v
    av[:-1] += e * v[1:]
    av[1:] += e * v[:-1]
    return av


def _inverse_iteration(factor, md, me, v):
    """One step v <- (K - sigma M)^{-1} M v through the kept factor of K - sigma M."""
    v = _flapack().dpttrs(*factor, _tridiag_times(md, me, v))[0]
    v /= math.sqrt(_dot(v, v))
    return v


def _shifted_rayleigh(factor, sigma, md, me, v):
    """(w, rq): the inverse-iteration step w = (K - sigma M)^{-1} M v through
    the factor of K - sigma M, normalized, and its Rayleigh quotient in the
    shifted form sigma + w.Mv / w.Mw, which takes no product with K: both
    from the one solve.  w.Mv is taken as Mw.v, so the solve may overwrite
    Mv and no more grid-sized arrays are live than in a plain step."""
    w = _flapack().dpttrs(*factor, _tridiag_times(md, me, v), overwrite_b=True)[0]
    mw = _tridiag_times(md, me, w)
    rq = sigma + _dot(mw, v) / _dot(mw, w)
    w /= math.sqrt(_dot(w, w))
    return w, rq


def _solve_eig(n, h):
    """(grid, lo, hi, v, dpttrf calls): K - lo*M is definite, K - hi*M is not,
    and hi - lo <= BRACKET_REL_TOL * hi brackets the smallest pencil eigenvalue."""
    grid, kd, ke, md, me = _assemble(n, h)
    # n*pi lies below the true eigenvalue, hence below the pencil's
    lo, kept, calls = _factor_below(kd, ke, md, me, n * math.pi)

    def factor(sigma):
        nonlocal calls
        calls += 1
        return _factor(kd, ke, md, me, sigma)

    v, rq = _shifted_rayleigh(kept, lo, md, me,
                              _inverse_iteration(kept, md, me, np.ones(len(kd))))
    # the quotient lies within a few BRACKET_REL_TOL of the switch: walk up
    # from it, then down, in doubling steps, never below the accepted shift
    step = 0.5 * BRACKET_REL_TOL * rq
    hi = rq + step
    while (f := factor(hi)) is not None:
        lo, kept = hi, f
        step *= 2.0
        hi += step
    step = 0.5 * BRACKET_REL_TOL * rq
    while (mid := hi - step) > lo:
        if (f := factor(mid)) is None:
            hi = mid
            step *= 2.0
        else:
            lo, kept = mid, f
            break
    while hi - lo > BRACKET_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if (f := factor(mid)) is None:
            hi = mid
        else:
            lo, kept = mid, f
    return grid, lo, hi, _inverse_iteration(kept, md, me, v), calls


def _half_step_rayleigh(n, h, v):
    """(lambda(h/2), dpttrf calls): the shifted Rayleigh quotient of the h/2
    pencil after one inverse-iteration step from the h eigenvector ``v``
    (interior nodes) prolonged to the nested grid, shifted at n*pi as
    ``_solve_eig`` is."""
    _, kd, ke, md, me = _assemble(n, h / 2.0)
    coarse = np.zeros(len(v) + 2)
    coarse[1:-1] = v
    fine = np.empty(2 * len(coarse) - 1)
    fine[::2] = coarse  # the h nodes, then the midpoints by linear interpolation
    fine[1::2] = 0.5 * (coarse[:-1] + coarse[1:])
    sigma, kept, calls = _factor_below(kd, ke, md, me, n * math.pi)
    return _shifted_rayleigh(kept, sigma, md, me, fine[1:-1])[1], calls


def solve_mode(n: int, h: float = 2e-4) -> CrossSectionMode:
    """Ground mode of the cross-section operator at frequency n.

    ``lam`` is the upper end of the certified bracket at step h, walked out
    from the Rayleigh quotient and closed by bisection.  Its Richardson
    partner ``meta["lam_half_step"]`` is the shifted Rayleigh quotient of
    one inverse-iteration step on the h/2 pencil, not a certified bracket:
    it only has to resolve the RICHARDSON_TOL guard.  ``meta["dpttrf_calls"]``
    counts the h bracket's factorizations plus the h/2 factor.

    Raises GridTooCoarse when the h vs h/2 Richardson difference exceeds
    RICHARDSON_TOL * lambda_n, and GridTooFine when the certified bracket does not
    lie above n*pi, which bounds the exact pencil's eigenvalue from below.
    """
    if not 1 <= n <= N_MAX:
        raise ValueError(f"n must lie in 1..{N_MAX}")
    if not H_MIN <= h <= 1e-3:
        raise ValueError(f"h must lie in [{H_MIN:g}, 1e-3]")
    h = float(h)
    grid, lo, lam, v_in, calls = _solve_eig(n, h)
    lam_half, calls_half = _half_step_rayleigh(n, h, v_in)
    if lam <= n * math.pi:
        raise GridTooFine(f"lambda_{n} = {lam!r} <= n*pi at h = {h:g}: binary64 rounding "
                          "of the pencil exceeds lambda - n*pi on this grid")
    err_est = abs(lam - lam_half)
    if err_est > RICHARDSON_TOL * lam:
        raise GridTooCoarse(
            f"discretization error estimate {err_est:.3e} > {RICHARDSON_TOL:g} * lambda")
    full = np.zeros(len(grid))
    full[1:-1] = v_in
    if full[len(full) // 2] < 0:
        full = -full
    nrm = math.sqrt(np.trapezoid(full * full, grid))
    full = full / nrm
    sym = float(np.max(np.abs(full - full[::-1])))
    return CrossSectionMode(n, lam, full, grid, h,
                            meta={"lam_lower": lo, "lam_upper": lam,
                                  "dpttrf_calls": calls + calls_half,
                                  "lam_half_step": lam_half, "richardson_err": err_est,
                                  "symmetry_defect": sym})


def observation_integral(mode: CrossSectionMode, a: float, b: float) -> float:
    """int_a^b v_n^2 by the trapezoid rule over the grid nodes in [a, b].

    Raises ValueError unless 0 <= a < b <= 1 and [a, b] holds at least two
    grid nodes: a narrower window has no trapezoid.  The integral stays far
    inside the binary64 range: at h = 2e-4 its smallest value over n <= 60
    is 7.2e-69, on [1 - h, 1] at n = 50."""
    if not 0.0 <= a < b <= 1.0:
        raise ValueError("need 0 <= a < b <= 1")
    mask = (mode.grid >= a - 1e-15) & (mode.grid <= b + 1e-15)
    if np.count_nonzero(mask) < 2:
        raise ValueError(f"window [{a:g}, {b:g}] holds fewer than two grid nodes "
                         f"at h = {mode.h:g}")
    return float(np.trapezoid(mode.vec[mask] ** 2, mode.grid[mask]))


def expected_observation_asymptote(n: int, a: float) -> float:
    """e^{-a^2 n pi} / (2 a pi sqrt(n)): the predicted ground-state mass scale."""
    return math.exp(-a * a * n * math.pi) / (2.0 * a * math.pi * math.sqrt(n))


def grushin_tstar_profile(a: float, b: float, n_max: int, h: float = 2e-4,
                          window: int = DEFAULT_WINDOW) -> ProfileReport:
    """Per-frequency marginal horizons T_n = [ln lam_n - ln(2 int_a^b v_n^2)] / (2 lam_n).

    The witness is an exact eigenfunction, so only the observation term
    ||B* v_n||^2 = 2 int_a^b v_n^2 of the quantified test survives
    (``hautus.marginal_horizon``); constant-1 convention for the unknown
    prefactor.  Each mode is solved once and integrated once
    (``observation_integral``).  The extras hold lambda_n, the integral
    int_a^b v_n^2 and the target a^2/2 the tail is compared against; the
    running supremum is what the CLI's ``grushin`` command checks against
    its optional cap.  Raises ValueError unless 1 <= n_max <= N_MAX,
    before any work.
    """
    if not 1 <= n_max <= N_MAX:
        raise ValueError(f"n_max must lie in 1..{N_MAX}")
    lams = np.empty(n_max)
    integrals = np.empty(n_max)
    vals = np.empty(n_max)
    for n in range(1, n_max + 1):
        mode = solve_mode(n, h)
        integral = observation_integral(mode, a, b)
        lams[n - 1] = mode.lam
        integrals[n - 1] = integral
        vals[n - 1] = marginal_horizon(mode.lam, ln_By=0.5 * (math.log(2.0) + math.log(integral)))
    extras = {"lambda": lams, "integral": integrals, "target": a * a / 2.0}
    return make_profile("grushin_tstar", np.arange(1, n_max + 1), vals, window, extras)
