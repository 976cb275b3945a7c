"""Biorthogonal families to exponentials e^{-lam t} (and t e^{-lam t}) on (0,T).

The dual functions q_k are representable in the span of the basis itself,
so every downstream integral has a closed form; no quadrature enters
anywhere.  Their coefficients C are the inverse of the pairing
M_ij = int_0^T f_i f_j.  The basis obeys f' = -J f, with J = diag(rates)
plus -1 just below the diagonal at each Jordan pair's (r, 1) row, so M
satisfies the rank-2 displacement equation

    J M + M J^T = F(0) F(0)^T - F(T) F(T)^T.

Schur elimination on these two generators (Gohberg-Kailath-Olshevsky)
factors M = L D L^T in O(n^2) operations, and C = M^{-1} follows from
X J + J^T X = u u^T - v v^T with u = M^{-1} F(0), v = M^{-1} F(T), also
in O(n^2).  The biorthogonality residual max|M C^T - I| is still checked
in full, in O(n^3), as exact integer dot products rounded once
(``precision.int_dot``); so are the closed-form moment pairings.

These systems are Cauchy-like and their conditioning explodes with the
number of rates and with rate coalescence, so the solve always runs in
mpmath, at digits chosen from the smallest relative rate gap (with
automatic retry if the biorthogonality residual misses the target).  The
family is then carried at fewer digits, chosen from the conditioning the
solve measured: ceil(log10 cond) + CARRY_DIGITS.  C and the Gram formed
for the estimate are rounded to them, and the residual, the dual Gram, the
plan and its checks all run there.
Every closed form takes its exponentials from one table E_j = e^{-r_j T}
per span, n exponentials instead of one per pair.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import IllConditioned, NumericalError
from .precision import (
    MAX_DPS, auto_dps_for_gaps, int_dot, int_parts, mp_log_abs, to_mp, workdps,
)

RESIDUAL_THRESHOLD = 1e-8
# digits the family carries beyond log10 of its Gram's condition estimate
CARRY_DIGITS = 30


@dataclass(frozen=True)
class ExponentialSpan:
    """Distinct decay rates with Re > 0 on a horizon T (None = infinite).

    With ``jordan=True`` the span holds both e^{-lam t} and t e^{-lam t}
    per rate, interleaved: ``basis()`` runs (r_1, 0), (r_1, 1), (r_2, 0), ...
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

    @property
    def real(self) -> bool:
        return all(mp.im(r) == 0 for r in self.rates)

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

        Distinct rates can differ by e^{-900} and beyond, but an mpf
        difference is exact before it is rounded, so every gap of the
        (distinct) rates is nonzero at any working precision."""
        if len(self.rates) == 1:
            return 0.0
        with workdps(max(mp.mp.dps, 50)):
            best = None
            for i in range(len(self.rates)):
                for j in range(i + 1, len(self.rates)):
                    g = abs(self.rates[i] - self.rates[j]) \
                        / (1 + abs(self.rates[i]) + abs(self.rates[j]))
                    if best is None or g < best:
                        best = g
            return mp_log_abs(best)


def int_pow_exp(a: int, s, T, E):
    """Closed form of int_0^T t^a e^{-s t} dt for a in {0, 1, 2}, given
    E = e^{-s T} (unread on an infinite horizon, T = None)."""
    if T is None:
        return mp.factorial(a) / s ** (a + 1)
    if a == 0:
        return (1 - E) / s
    if a == 1:
        return (1 - (1 + s * T) * E) / s**2
    if a == 2:
        return (2 - (2 + 2 * s * T + (s * T) ** 2) * E) / s**3
    raise ValueError(f"t-power {a} not supported")


def _exp_table(span: ExponentialSpan) -> tuple:
    """E_j = e^{-r_j T} per basis function at the working precision, one
    exponential per rate; zeros on an infinite horizon.  A rate beyond
    mpmath's exponent range raises NumericalError."""
    if span.T is None:
        return (mp.mpf(0),) * span.size
    try:
        exps = [mp.exp(-r * span.T) for r in span.rates]
    except OverflowError as exc:
        raise NumericalError(f"e^(-r T) is out of range at T = {float(span.T):g}") from exc
    return tuple(e for e in exps for _ in range(2 if span.jordan else 1))


def _pairing_mp(span: ExponentialSpan, E=None, hermitian=False) -> mp.matrix:
    """Bilinear pairing int f_i f_j (no conjugation), the defining system,
    or with ``hermitian`` the Gram <f_j, f_i> = int f_j conj(f_i): the left
    factor conjugated and the lower triangle mirrored as conjugates.
    e^{-(r_i + r_j) T} = E_i E_j comes from the table E (made at the
    working precision when not given)."""
    basis = span.basis()
    E = _exp_table(span) if E is None else E
    n = len(basis)
    M = mp.matrix(n, n)
    for i in range(n):
        ri, pi_ = basis[i]
        ei = E[i]
        if hermitian:
            ri, ei = mp.conj(ri), mp.conj(ei)
        for j in range(i, n):
            rj, pj = basis[j]
            v = int_pow_exp(pi_ + pj, ri + rj, span.T, ei * E[j])
            M[j, i] = mp.conj(v) if hermitian else v
            M[i, j] = v  # last, so the diagonal keeps v itself
    return M


@dataclass(frozen=True)
class BiorthogonalFamily:
    span: ExponentialSpan
    cond_estimate: float
    cond_log10: float           # log10 of the same estimate, finite beyond binary64
    norms: np.ndarray           # ||q_k||_{L^2(0,T)}, may overflow to inf
    ln_norms: np.ndarray
    residual: float             # max |pairing(C) - I|
    degraded: bool
    dps: int                    # carried digits: everything below is held at them
    mp_coeffs: mp.matrix        # C: q_k = sum_j C[k, j] basis_j
    mp_dual_gram: mp.matrix     # <q_i, q_j> = (C G C^H)[i, j]; C itself on real spans
    int_rows: list = field(repr=False, compare=False)  # rows of C as precision.int_parts
    exp_table: tuple = field(repr=False, compare=False)  # E_j = e^{-r_j T}, see _exp_table

    @property
    def size(self) -> int:
        return self.span.size


def _displacement(span: ExponentialSpan, E):
    """J and the generators of J M + M J^T = F(0) F(0)^T - F(T) F(T)^T,
    with F(T) read from the exponential table E.

    J is given by its diagonal (the rates) and its subdiagonal sub[i] =
    J[i, i-1] (-1 at a Jordan pair's t e^{-r t} row, else 0); F(T) is None
    on an infinite horizon."""
    basis = span.basis()
    diag = [r for r, _ in basis]
    sub = [-1 if p else 0 for _, p in basis]
    F0 = [0 if p else 1 for _, p in basis]
    T = span.T
    FT = None if T is None else [e * (T if p else 1) for e, (_, p) in zip(E, basis)]
    return diag, sub, F0, FT


def _structured_inverse(diag, sub, F0, FT) -> mp.matrix:
    """M^{-1} for the symmetric M with J M + M J^T = F0 F0^T - FT FT^T, J
    lower bidiagonal, in O(n^2); a zero pivot raises ZeroDivisionError."""
    n = len(diag)
    a, b = list(F0), None if FT is None else list(FT)
    L, d = [], []
    for k in range(n):
        # column k of the current Schur complement, from its displacement
        # equation by forward substitution down the bidiagonal J
        s = []
        for i in range(k, n):
            rhs = a[i] * a[k] if b is None else a[i] * a[k] - b[i] * b[k]
            if i > k and sub[i]:
                rhs -= sub[i] * s[-1]
            s.append(rhs / (diag[i] + diag[k]))
        d.append(s[0])
        col = [x / s[0] for x in s[1:]]
        L.append(col)
        # the next complement's generators; each pivot row is left holding (L^{-1} F)_k
        for i, li in enumerate(col, k + 1):
            a[i] -= li * a[k]
            if b is not None:
                b[i] -= li * b[k]

    def back(z):  # solves D L^T x = z
        x = [None] * n
        for i in reversed(range(n)):
            x[i] = z[i] / d[i] - mp.fdot(L[i], x[i + 1:])
        return x

    u, v = back(a), None if b is None else back(b)
    # X = M^{-1} solves X J + J^T X = u u^T - v v^T; fill it backward
    X = [[None] * n for _ in range(n)]
    for i in reversed(range(n)):
        for j in reversed(range(i, n)):
            rhs = u[i] * u[j] if v is None else u[i] * u[j] - v[i] * v[j]
            if j + 1 < n and sub[j + 1]:
                rhs -= sub[j + 1] * X[i][j + 1]
            if i + 1 < n and sub[i + 1]:
                rhs -= sub[i + 1] * X[i + 1][j]
            X[i][j] = X[j][i] = rhs / (diag[i] + diag[j])
    return mp.matrix(X)


def _norm1(A: mp.matrix):
    """max column sum of |A_ij|."""
    return max(mp.fsum(abs(A[i, j]) for i in range(A.rows)) for j in range(A.cols))


def _solve_at(span: ExponentialSpan, dps: int) -> BiorthogonalFamily:
    """The family from a solve at ``dps`` digits, carried at
    min(dps, ceil(log10 cond) + CARRY_DIGITS) digits."""
    real = span.real
    with workdps(dps):
        E = _exp_table(span)
        try:
            C = _structured_inverse(*_displacement(span, E))  # rows of C solve M C^T = I
        except ZeroDivisionError as exc:
            raise IllConditioned(f"pairing matrix singular at {dps} digits") from exc
        # 1-norm condition estimate of the Gram
        G = _pairing_mp(span, E, not real)
        kappa = _norm1(G) * _norm1(C)
        log10_kappa = mp.log10(kappa)
        carry = min(dps, int(mp.ceil(log10_kappa)) + CARRY_DIGITS)
    with workdps(carry):
        if carry < dps:
            # C and G are rounded (unary + rounds to the working precision);
            # the table is made afresh, so that the closed forms at the
            # carried digits match those of any caller working there
            E = _exp_table(span)
            C = C.apply(lambda x: +x)
            G = G.apply(lambda x: +x)
        M = G if real else _pairing_mp(span, E)
        n = M.rows
        # max |M C^T - I|, each entry an exact dot of a row of M with a row of C
        c_rows = [int_parts(row) for row in C.tolist()]
        residual = 0.0
        for i, m_row in enumerate(M.tolist()):
            m_row = int_parts(m_row)
            for j, c_row in enumerate(c_rows):
                residual = max(residual, float(abs(int_dot(m_row, c_row) - (1 if i == j else 0))))
        if real:
            # the Gram is the pairing, so C G C^H = C M C^T = C
            N = C
        else:
            g_cols = [int_parts(col) for col in G.T.tolist()]
            cg_rows = [int_parts([int_dot(c_row, g_col) for g_col in g_cols])
                       for c_row in c_rows]
            ch_cols = [r._replace(im=[-x for x in r.im]) for r in c_rows]  # conj(C)^T
            N = mp.matrix([[int_dot(cg_row, ch_col) for ch_col in ch_cols]
                           for cg_row in cg_rows])
        if not all(N[i, i].real > 0 for i in range(n)):
            # force a precision retry: a negative computed norm means the
            # working precision has not resolved the Gram's definiteness
            residual = float("inf")
        ln_norms = np.array([mp_log_abs(N[i, i]) / 2.0 for i in range(n)])
    with np.errstate(over="ignore"):
        norms = np.exp(ln_norms)
    return BiorthogonalFamily(
        span=span, cond_estimate=float(kappa), cond_log10=float(log10_kappa),
        norms=norms, ln_norms=ln_norms, residual=residual,
        degraded=residual > RESIDUAL_THRESHOLD, dps=carry,
        mp_coeffs=C, mp_dual_gram=N, int_rows=c_rows, exp_table=E,
    )


def build_biortho(span: ExponentialSpan) -> BiorthogonalFamily:
    """Dual family to the span's basis f_j: int_0^T f_j(t) q_k(t) dt = delta_jk,
    with f_j running over e^{-lam t} (and t e^{-lam t} on a Jordan span).

    The solve runs at the digits ``auto_dps_for_gaps`` takes from the
    smallest relative rate gap, doubled while the residual misses
    RESIDUAL_THRESHOLD; the family is carried at the digits its measured
    conditioning needs (``_solve_at``), which ``family.dps`` reports."""
    dps = auto_dps_for_gaps(span.min_log_rel_gap(), scale=5.0 if span.jordan else 2.6,
                            size=span.size)
    for _ in range(4):
        family = _solve_at(span, dps)
        if family.residual <= RESIDUAL_THRESHOLD or dps >= MAX_DPS:
            break
        dps = min(MAX_DPS, 2 * dps)
    if math.isinf(family.residual):
        raise IllConditioned(
            f"Gram not numerically positive definite at {dps} digits")
    return family


# Not exported: the only reader is the benchmark's tracer
# (perfbench/tracing.py ENTRY_POINTS).  The span carries the Jordan flag.
build_biortho_jordan = build_biortho


def pair_with_exponential_mp(family: BiorthogonalFamily, mu, a: int = 0) -> list:
    """int_0^T t^a e^{-mu t} q_k(t) dt for every family member k, as mp
    scalars at the family's working precision.

    For mu equal to a span rate and a = 0 this returns the corresponding
    Kronecker column up to the solve residual.  The closed-form column
    takes e^{-(mu + r_j) T} = e^{-mu T} E_j from the family's exponential
    table, one exponential per call; it is converted once and dotted
    exactly with the family's integer rows of C.
    """
    if a not in (0, 1):
        raise ValueError("t-power a must be 0 or 1")
    span = family.span
    mu = to_mp(mu)
    with workdps(family.dps):
        e_mu = mp.mpf(0) if span.T is None else mp.exp(-mu * span.T)
        col = int_parts(int_pow_exp(a + p, mu + r, span.T, e_mu * e)
                        for (r, p), e in zip(span.basis(), family.exp_table))
        return [int_dot(row, col) for row in family.int_rows]


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
