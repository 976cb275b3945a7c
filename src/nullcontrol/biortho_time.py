"""Biorthogonal families to exponentials e^{-lam t} (and t e^{-lam t}) on (0,T).

The dual functions q_k are representable in the span of the basis itself,
so they are obtained by one Gram-type solve and every downstream integral
has a closed form; no quadrature enters anywhere.

These systems are Cauchy-like and their conditioning explodes with the
number of rates and with rate coalescence, so the solve runs in mpmath at
a precision chosen from the smallest relative rate gap (with automatic
retry if the biorthogonality residual misses the target).  A plain
binary64 path is kept for well-separated spans.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np
import scipy.linalg

from .errors import IllConditioned
from .precision import auto_dps_for_gaps, to_complex, to_mp, workdps

RESIDUAL_THRESHOLD = 1e-8
_MAX_DPS = 6000


@dataclass(frozen=True)
class ExponentialSpan:
    """Distinct decay rates with Re > 0 on a horizon T (None = infinite).

    With ``jordan=True`` the span holds both e^{-lam t} and t e^{-lam t}
    per rate; basis functions are labelled (k, j) with j in {1, 2} and
    ordered (1,1), (1,2), (2,1), ...
    """

    rates: tuple
    T: object  # mpf or None
    jordan: bool = False

    def __post_init__(self):
        rates = tuple(to_mp(r) for r in self.rates)
        object.__setattr__(self, "rates", rates)
        if len(rates) == 0:
            raise ValueError("span needs at least one rate")
        for r in rates:
            if not (r.real > 0):
                raise ValueError(f"rate {r} has nonpositive real part")
        T = self.T
        if T is not None:
            T = to_mp(T)
            if not (T > 0):
                raise ValueError("horizon T must be positive")
            object.__setattr__(self, "T", T)
        for i in range(len(rates)):
            for j in range(i + 1, len(rates)):
                if rates[i] == rates[j]:
                    raise ValueError(f"duplicated rate {rates[i]}")

    @property
    def size(self) -> int:
        return (2 if self.jordan else 1) * len(self.rates)

    def labels(self):
        if not self.jordan:
            return tuple((k, 1) for k in range(1, len(self.rates) + 1))
        out = []
        for k in range(1, len(self.rates) + 1):
            out += [(k, 1), (k, 2)]
        return tuple(out)

    def basis(self):
        """(rate, t-power) per basis function."""
        if not self.jordan:
            return tuple((r, 0) for r in self.rates)
        out = []
        for r in self.rates:
            out += [(r, 0), (r, 1)]
        return tuple(out)

    def min_log_rel_gap(self) -> float:
        """ln of the smallest relative pairwise rate gap.

        Escalates the working precision until the smallest gap resolves
        (distinct rates can differ by e^{-900} and beyond)."""
        if len(self.rates) == 1:
            return 0.0
        dps = max(mp.mp.dps, 50)
        while True:
            with workdps(dps):
                best = None
                for i in range(len(self.rates)):
                    for j in range(i + 1, len(self.rates)):
                        g = abs(self.rates[i] - self.rates[j]) \
                            / (1 + abs(self.rates[i]) + abs(self.rates[j]))
                        if best is None or g < best:
                            best = g
                if best > 0:
                    return float(mp.log(best))
            if dps >= _MAX_DPS:
                return float("-inf")
            dps = min(_MAX_DPS, 8 * dps)


def int_pow_exp(a: int, s, T):
    """Closed form of int_0^T t^a e^{-s t} dt for a in {0, 1, 2}."""
    if T is None:
        return mp.factorial(a) / s ** (a + 1)
    E = mp.e ** (-s * T)
    if a == 0:
        return (1 - E) / s
    if a == 1:
        return (1 - (1 + s * T) * E) / s**2
    if a == 2:
        return (2 - (2 + 2 * s * T + (s * T) ** 2) * E) / s**3
    raise ValueError(f"t-power {a} not supported")


def _gram_mp(span: ExponentialSpan) -> mp.matrix:
    """Hermitian Gram <f_j, f_i> = int f_j conj(f_i)."""
    basis = span.basis()
    n = len(basis)
    G = mp.matrix(n, n)
    for i in range(n):
        ri, pi_ = basis[i]
        for j in range(n):
            rj, pj = basis[j]
            G[i, j] = int_pow_exp(pi_ + pj, mp.conj(ri) + rj, span.T)
    return G


def _pairing_mp(span: ExponentialSpan) -> mp.matrix:
    """Bilinear pairing int f_i f_j (no conjugation): the defining system."""
    basis = span.basis()
    n = len(basis)
    M = mp.matrix(n, n)
    for i in range(n):
        ri, pi_ = basis[i]
        for j in range(i, n):
            rj, pj = basis[j]
            v = int_pow_exp(pi_ + pj, ri + rj, span.T)
            M[i, j] = v
            M[j, i] = v
    return M


def exp_gram(span: ExponentialSpan, dps: int = 60) -> np.ndarray:
    """The span's Gram matrix as complex128 (real rates: also the pairing)."""
    with workdps(dps):
        G = _gram_mp(span)
        n = G.rows
        return np.array([[to_complex(G[i, j]) for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class BiorthogonalFamily:
    span: ExponentialSpan
    coeffs: np.ndarray          # float view of C: q_k = sum_j C[k, j] basis_j
    gram: np.ndarray            # float view of the hermitian Gram
    cond_estimate: float
    norms: np.ndarray           # ||q_k||_{L^2(0,T)}, may overflow to inf
    ln_norms: np.ndarray
    residual: float             # max |pairing(C) - I|
    degraded: bool
    dps: int
    mp_coeffs: mp.matrix
    mp_gram: mp.matrix

    @property
    def size(self) -> int:
        return self.span.size

    def labels(self):
        return self.span.labels()


def _solve_at(span: ExponentialSpan, dps: int):
    with workdps(dps):
        M = _pairing_mp(span)
        n = M.rows
        try:
            C = mp.inverse(M).T  # rows of C solve M C^T = I
        except ZeroDivisionError as exc:
            raise IllConditioned(f"pairing matrix singular at {dps} digits") from exc
        R = M * C.T
        residual = 0.0
        for i in range(n):
            for j in range(n):
                residual = max(residual, float(abs(R[i, j] - (1 if i == j else 0))))
        G = _gram_mp(span)
        N = C * G * C.transpose_conj()
        pos_def = all(N[i, i].real > 0 for i in range(n))
        if not pos_def:
            # force a precision retry: a negative computed norm means the
            # working precision has not resolved the Gram's definiteness
            residual = float("inf")
        ln_norms = np.array([float(mp.log(abs(N[i, i]))) / 2.0 if N[i, i] != 0 else -math.inf
                             for i in range(n)])
        # 1-norm condition estimate of the Gram
        gnorm = max(mp.fsum(abs(G[i, j]) for i in range(n)) for j in range(n))
        ginvnorm = max(mp.fsum(abs(C[i, j]) for i in range(n)) for j in range(n))
        cond = float(gnorm * ginvnorm)
    return C, G, residual, ln_norms, cond


def _family_from_solution(span, C, G, residual, ln_norms, cond, dps,
                          residual_threshold) -> BiorthogonalFamily:
    n = span.size
    coeffs = np.array([[to_complex(C[i, j]) for j in range(n)] for i in range(n)])
    gram = np.array([[to_complex(G[i, j]) for j in range(n)] for i in range(n)])
    with np.errstate(over="ignore"):
        norms = np.exp(ln_norms)
    return BiorthogonalFamily(
        span=span, coeffs=coeffs, gram=gram, cond_estimate=cond,
        norms=norms, ln_norms=ln_norms, residual=residual,
        degraded=residual > residual_threshold, dps=dps,
        mp_coeffs=C, mp_gram=G,
    )


def _build_standard(span: ExponentialSpan, residual_threshold: float) -> BiorthogonalFamily:
    """binary64 path for well-separated spans; raises IllConditioned when
    the pivoted factorization breaks down.

    Two steps of iterative refinement against extra-precise residuals
    drive the solution to the binary64 representability floor (the
    residual of the exactly rounded dual coefficients), which is the best
    any fixed-precision algorithm can do on these Cauchy-like systems.
    """
    with workdps(60):
        Mmp = _pairing_mp(span)
        Gmp = _gram_mp(span)
    n = span.size
    M = np.array([[to_complex(Mmp[i, j]) for j in range(n)] for i in range(n)])
    G = np.array([[to_complex(Gmp[i, j]) for j in range(n)] for i in range(n)])
    real = bool(np.all(np.abs(M.imag) == 0.0))
    try:
        if real:
            cf = scipy.linalg.cho_factor(M.real)
            solve = lambda B: scipy.linalg.cho_solve(cf, B.real).astype(complex)
        else:
            lu = scipy.linalg.lu_factor(M)
            solve = lambda B: scipy.linalg.lu_solve(lu, B)
        Ct = solve(np.eye(n))
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise IllConditioned(
            "factorization pivot failed; reduce N or use extended precision") from exc

    def mp_residual(Ct_now):
        with workdps(60):
            R = np.empty((n, n), dtype=complex)
            for i in range(n):
                for j in range(n):
                    s = mp.fsum(Mmp[i, k] * to_mp(complex(Ct_now[k, j])) for k in range(n))
                    R[i, j] = to_complex(s) - (1.0 if i == j else 0.0)
        return R

    R = mp_residual(Ct)
    for _ in range(2):
        if np.max(np.abs(R)) <= 1e-15:
            break
        Ct = Ct - solve(R)
        R = mp_residual(Ct)
    C = Ct.T
    residual = float(np.max(np.abs(R)))
    nsq = np.real(np.diag(C @ G @ C.conj().T))
    if np.any(nsq <= 0):
        raise IllConditioned("negative computed norm; use extended precision")
    cond = float(abs(np.linalg.cond(G, 1)))
    ln_norms = 0.5 * np.log(nsq)
    Cmp = mp.matrix(n, n)
    Gm = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            Cmp[i, j] = to_mp(complex(C[i, j]))
            Gm[i, j] = to_mp(complex(G[i, j]))
    return BiorthogonalFamily(
        span=span, coeffs=C, gram=G, cond_estimate=cond,
        norms=np.sqrt(nsq), ln_norms=ln_norms, residual=residual,
        degraded=residual > residual_threshold, dps=16,
        mp_coeffs=Cmp, mp_gram=Gm,
    )


def build_biortho(span: ExponentialSpan, precision: str = "extended", dps=None,
                  residual_threshold: float = RESIDUAL_THRESHOLD) -> BiorthogonalFamily:
    """Dual family to the span's basis f_j: int_0^T f_j(t) q_k(t) dt = delta_jk,
    with f_j running over e^{-lam t} (and t e^{-lam t} on a Jordan span)."""
    if precision == "standard":
        return _build_standard(span, residual_threshold)
    if dps is None:
        dps = auto_dps_for_gaps(span.min_log_rel_gap(), scale=5.0 if span.jordan else 2.6,
                                size=span.size, cap=_MAX_DPS)
    dps = min(int(dps), _MAX_DPS)
    for _ in range(4):
        C, G, residual, ln_norms, cond = _solve_at(span, dps)
        if residual <= residual_threshold or dps >= _MAX_DPS:
            break
        dps = min(_MAX_DPS, 2 * dps)
    if math.isinf(residual):
        raise IllConditioned(
            f"Gram not numerically positive definite at {dps} digits")
    return _family_from_solution(span, C, G, residual, ln_norms, cond, dps,
                                 residual_threshold)


# Alias looked up by tests and the benchmark's tracer; the span itself
# carries the Jordan flag.
build_biortho_jordan = build_biortho


def pair_with_exponential_mp(family: BiorthogonalFamily, mu, a: int = 0) -> list:
    """int_0^T t^a e^{-mu t} q_k(t) dt for every family member k, as mp
    scalars at the family's working precision.

    For mu equal to a span rate and a = 0 this returns the corresponding
    Kronecker column up to the solve residual.
    """
    if a not in (0, 1):
        raise ValueError("t-power a must be 0 or 1")
    span = family.span
    mu = to_mp(mu)
    with workdps(family.dps):
        basis = span.basis()
        col = [int_pow_exp(a + p, mu + r, span.T) for (r, p) in basis]
        C = family.mp_coeffs
        return [mp.fsum(C[k, j] * col[j] for j in range(span.size)) for k in range(span.size)]


def pair_with_exponential(family: BiorthogonalFamily, mu, a: int = 0) -> np.ndarray:
    """Float view of pair_with_exponential_mp."""
    return np.array([to_complex(v) for v in pair_with_exponential_mp(family, mu, a)],
                    dtype=complex)


def cauchy_inverse_oracle(rates) -> np.ndarray:
    """Closed-form inverse of the infinite-horizon Gram 1/(lam_i + lam_j).

    Independent of any factorization: Schechter's product formula for the
    inverse of a Cauchy matrix, evaluated exactly (Fractions) for rational
    rates and in high-precision floats otherwise.
    """
    vals = list(rates)
    exact = all(isinstance(v, (int, Fraction)) or (isinstance(v, float) and v.is_integer())
                for v in vals)
    with contextlib.nullcontext() if exact else workdps(80):
        xs = [Fraction(v) if exact else to_mp(v) for v in vals]
        n = len(xs)
        out = np.empty((n, n), dtype=float)
        for i in range(n):
            for j in range(n):
                num = 1
                for k in range(n):
                    num *= (xs[j] + xs[k]) * (xs[k] + xs[i])
                den = xs[j] + xs[i]
                for k in range(n):
                    if k != j:
                        den *= xs[j] - xs[k]
                    if k != i:
                        den *= xs[i] - xs[k]
                out[i, j] = float(num / den)
    return out


@dataclass(frozen=True)
class NormGrowthReport:
    slope: float
    bound: float
    ok: bool
    degenerate: bool
    npoints: int


def norm_growth_fit(family: BiorthogonalFamily, re_rates=None, c_est: float = 0.0,
                    window: int = 10, slack: float = 0.1) -> NormGrowthReport:
    """LS slope of ln||q_k|| against Re(lam_k) over the tail window,
    checked against the clustering-index upper bound (4x for Jordan spans).
    """
    if re_rates is None:
        re_rates = [float(r.real) for r in family.span.rates]
    xs = np.asarray(re_rates, dtype=float)
    if family.span.jordan:
        xs = np.repeat(xs, 2)
    ys = family.ln_norms
    if len(xs) != len(ys):
        raise ValueError("rate/norm length mismatch")
    bound = (4.0 if family.span.jordan else 1.0) * float(c_est)
    if len(np.unique(xs)) < 2:
        return NormGrowthReport(float("nan"), bound, False, True, len(xs))
    w = max(2, min(window, len(xs)))
    slope = float(np.polyfit(xs[-w:], ys[-w:], 1)[0])
    return NormGrowthReport(slope, bound, slope <= bound + slack, False, w)
