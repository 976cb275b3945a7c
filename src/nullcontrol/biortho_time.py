"""Biorthogonal families to exponentials e^{-lam t} on (0,T), close pairs
and Jordan chains included.

The span's basis holds e^{-r t} per rate, except that two adjacent close
rates r, r' = r + d hold e^{-r t} and the divided difference g(t) =
(e^{-r t} - e^{-r' t}) / d, which is t e^{-r t} on a Jordan chain (d = 0;
Benabdallah, Boyer and Morancey, Ann. Henri Lebesgue 3, 2020): the Gram
of a close exponential pair has condition near d^-2, that of the pair's
basis does not.  The duals are representable in the span of the basis
itself, so every downstream integral has a closed form; no quadrature
enters anywhere.  The basis obeys f' = -J f, with J the rates on the
diagonal (r' on a pair's second row) and -1 below it on each pair's
second row, so the pairing M_ij = int_0^T f_i f_j satisfies the rank-2
displacement equation

    J M + M J^T = F(0) F(0)^T - F(T) F(T)^T.

Schur elimination on these two generators (Gohberg-Kailath-Olshevsky)
factors M = L D L^T in O(n^2) operations, and M^{-1} follows from
X J + J^T X = u u^T - v v^T with u = M^{-1} F(0), v = M^{-1} F(T), also
in O(n^2).  The biorthogonality residual max|M M^{-1} - I| is still
checked in full, in O(n^3), one row of M at a time, as exact integer
matrix products rounded once (``precision.exact_matmul``); so are the
complex dual Gram and the closed-form moment pairings.

These systems are Cauchy-like, so the solve always runs in mpmath, under
one precision policy: carry the family at ceil(log10 cond) + CARRY_DIGITS
digits.  The solve runs at the digits predicted for that carry from the
closed-form inverse of the infinite-horizon Gram, a Cauchy matrix, before
any solve; it runs again at the carried digits only on a miss, when they
are more.  The residual, the dual Gram, the plan and its checks all run at
the carried digits.  Every closed form takes its exponentials from one
table E_j = e^{-r_j T} per span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from mpmath import libmp

from .errors import IllConditioned, NumericalError
from .precision import (
    DEFAULT_DPS, MAX_DPS, IntRows, exact_matmul, int_rows, mp_log_abs, to_mp, workdps,
)

RESIDUAL_THRESHOLD = 1e-8
# digits the family carries beyond log10 of its Gram's condition estimate
CARRY_DIGITS = 30
# digits added to the predicted log10 cond (``_predicted_log10_cond``)
# before the solve digits are taken from it: on the heat, power,
# appendixB, academic_lf and cascade spans of up to 60 rows that the tests
# check, it falls at most 0.91 digits short of the measured log10 cond and
# exceeds it by at most 0.02
PREDICT_MARGIN = 2
# relative gap below which the prediction takes the difference of two
# rates from their mp values rather than from their binary64 views
_FLOAT_GAP = 1e-8
# Two adjacent real rates whose relative gap is below this form one
# divided-difference pair.  Left as exponentials, a pair at relative gap g
# adds about 2 log10(1/g) digits to the Gram's condition, so every pair
# below 1e-3 would cost 6 digits or more; the spectra without
# condensation (heat, power, the cascades, two_diffusion d = 2 below 70
# entries) have no adjacent gap this small, so their spans stay
# exponential.
PAIR_REL_GAP = 1e-3


@dataclass(frozen=True)
class ExponentialSpan:
    """Decay rates with Re > 0 on a horizon T (None = infinite).

    Two adjacent rates r, r' pair when r' == r (a Jordan chain, d = 0) or,
    on a real span, |r' - r| < PAIR_REL_GAP |r|; the pair's second row
    holds e^{-r t} phi_d(t), d = r' - r, instead of e^{-r' t}, which is
    t e^{-r t} on a Jordan chain.  Pairs form left to right, so a rate
    listed twice never pairs with a neighbour.
    """

    rates: tuple
    T: object  # mpf or None
    _basis: tuple = field(init=False, repr=False, compare=False)

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
        real = self.real
        # d is the exact difference of the stored rates (mpf_sub at
        # precision 0 does not round), 0 on a Jordan chain
        basis, i = [], 0
        while i < len(rates):
            r, s = rates[i], rates[i + 1:i + 2]
            basis.append((r, None))
            if s and (s[0] == r or (real and abs(s[0] - r) < PAIR_REL_GAP * abs(r))):
                basis.append((r, mp.make_mpf(libmp.mpf_sub(s[0].real._mpf_, r.real._mpf_, 0))))
                i += 1
            i += 1
        if len(set(rates)) + sum(d == 0 for _, d in basis) != len(rates):
            raise ValueError("duplicated rate")
        object.__setattr__(self, "_basis", tuple(basis))

    @property
    def size(self) -> int:
        return len(self.rates)

    @property
    def real(self) -> bool:
        return all(mp.im(r) == 0 for r in self.rates)

    def basis(self):
        """(r, d) per basis function: (r, None) for e^{-r t}, and (r, d)
        for a pair's second row e^{-r t} phi_d(t), r the pair's first rate."""
        return self._basis

    @classmethod
    def distinct(cls, rates, T) -> "ExponentialSpan":
        """The span of rates meant to be distinct, where a repeat would
        read as a Jordan chain: any two equal rates raise ValueError."""
        span = cls(rates, T)
        for r, d in span.basis():
            if d == 0:
                raise ValueError(f"duplicated rate {r}")
        return span


def _transpose_paired(basis, x) -> list:
    """P^T x, P the map from exponential duals to the basis's duals:
    (P w)_k = (w_i - w_k) / d on the second row k of a pair (i, k) with
    d > 0, w_k elsewhere.  So x_i + x_k / d on that pair's first row i,
    -x_k / d on its second row k, x elsewhere."""
    y = list(x)
    for k, (_, d) in enumerate(basis):
        if d:
            y[k - 1] = x[k - 1] + x[k] / d
            y[k] = -x[k] / d
    return y


def _phi_T(d, T):
    """phi_d(T) = (1 - e^{-d T}) / d, and T at d = 0."""
    return T if not d else -mp.expm1(-d * T) / d


def int_phi_exp(x, deltas: tuple, T, E):
    """Closed form of int_0^T e^{-x t} prod_{d in deltas} phi_d(t) dt, for
    at most two factors phi_d(t) = (1 - e^{-d t}) / d (phi_0(t) = t), given
    E = e^{-x T} (unread on an infinite horizon, T = None).

    These are the divided differences of h(x) = int_0^T e^{-x t} dt, with
    signs: -h[x, x + d] for one factor, and for two the mixed difference
    (h(x) - h(x + a) - h(x + b) + h(x + a + b)) / (a b).  With every d
    zero they are the t-moments int t^m e^{-x t}, in their usual forms.
    Otherwise they are rearranged so that no d divides: d enters only
    through phi_d(T) = -expm1(-d T) / d, which keeps its relative
    precision at any d > 0, so no digits cancel however close the pair.
    The forms lose, as the t-moments do, about log10(1/(x T)) digits when
    x T is small.
    """
    m = len(deltas)
    if not any(deltas):
        if T is None:
            return mp.factorial(m) / x ** (m + 1)
        if m == 0:
            return (1 - E) / x
        if m == 1:
            return (1 - (1 + x * T) * E) / x**2
        return (2 - (2 + 2 * x * T + (x * T) ** 2) * E) / x**3
    if T is None:
        E, phis = 0, (0,) * m
    else:
        phis = tuple(_phi_T(d, T) for d in deltas)
    if m == 1:
        return (1 - E - x * E * phis[0]) / (x * (x + deltas[0]))
    (a, b), (pa, pb) = deltas, phis
    n1 = 1 - E - x * E * pa
    return ((n1 * (2 * x + a + b) - x * (x + a) * E * (pb - pa + (x + b) * pa * pb))
            / (x * (x + a) * (x + b) * (x + a + b)))


def _exp_table(span: ExponentialSpan) -> tuple:
    """E_j = e^{-r_j T} per basis function at the working precision, r_j
    its (first) rate, one exponential per row that opens a pair or stands
    alone; zeros on an infinite horizon.  A rate beyond mpmath's exponent
    range raises NumericalError."""
    if span.T is None:
        return (mp.mpf(0),) * span.size
    table = []
    try:
        for r, d in span.basis():
            table.append(mp.exp(-r * span.T) if d is None else table[-1])
    except OverflowError as exc:
        raise NumericalError(f"e^(-r T) is out of range at T = {float(span.T):g}") from exc
    return tuple(table)


def _pairing_mp(span: ExponentialSpan, E=None, hermitian=False) -> np.ndarray:
    """Bilinear pairing int f_i f_j (no conjugation), the defining system,
    or with ``hermitian`` the Gram <f_j, f_i> = int f_j conj(f_i): the left
    factor conjugated and the lower triangle mirrored as conjugates.
    e^{-(r_i + r_j) T} = E_i E_j comes from the table E (made at the
    working precision when not given).  An object array of mp scalars."""
    basis = span.basis()
    E = _exp_table(span) if E is None else E
    n = len(basis)
    M = np.empty((n, n), dtype=object)
    for i in range(n):
        ri, di = basis[i]
        ei = E[i]
        if hermitian:
            ri, ei = mp.conj(ri), mp.conj(ei)
        for j in range(i, n):
            rj, dj = basis[j]
            v = int_phi_exp(ri + rj, tuple(d for d in (di, dj) if d is not None), span.T,
                            ei * E[j])
            M[j, i] = mp.conj(v) if hermitian else v
            M[i, j] = v  # last, so the diagonal keeps v itself
    return M


@dataclass(frozen=True)
class BiorthogonalFamily:
    """The duals q_k of the span's exponentials: int_0^T e^{-r_j t} q_k = delta_jk
    (on a Jordan chain, the duals of e^{-r t} and t e^{-r t}), one per rate."""

    span: ExponentialSpan
    cond_estimate: float        # 1-norm condition estimate of the basis's Gram
    cond_log10: float           # log10 of the same estimate, finite beyond binary64
    norms: np.ndarray           # ||q_k||_{L^2(0,T)}, may overflow to inf
    ln_norms: np.ndarray
    residual: float             # max |M M^{-1} - I| of the basis's pairing M
    degraded: bool
    dps: int                    # carried digits: everything below is held at them
    mp_coeffs: np.ndarray       # q_k = sum_j C[k, j] basis_j; both read-only mp object arrays
    mp_dual_gram: np.ndarray    # <q_i, q_j>; mp_coeffs itself on real spans without a close pair
    int_rows: IntRows = field(repr=False, compare=False)  # mp_coeffs in precision.int_rows form
    exp_table: tuple = field(repr=False, compare=False)  # E_j = e^{-r_j T}, see _exp_table

    @property
    def size(self) -> int:
        return self.span.size


def _displacement(span: ExponentialSpan, E):
    """J and the generators of J M + M J^T = F(0) F(0)^T - F(T) F(T)^T,
    with F(T) read from the exponential table E.

    J is given by its diagonal (the rates, r' on a pair's second row) and
    its subdiagonal sub[i] = J[i, i-1] (-1 on a pair's second row, else
    0): g' = -r' g + e^{-r t}.  g(0) = 0 and g(T) = e^{-r T} phi_d(T);
    F(T) is None on an infinite horizon."""
    basis = span.basis()
    sub = [0 if d is None else -1 for _, d in basis]
    F0 = [1 if d is None else 0 for _, d in basis]
    T = span.T
    FT = None if T is None else [e if d is None else e * _phi_T(d, T)
                                 for e, (_, d) in zip(E, basis)]
    return list(span.rates), sub, F0, FT


def _structured_inverse(diag, sub, F0, FT) -> np.ndarray:
    """M^{-1} for the symmetric M with J M + M J^T = F0 F0^T - FT FT^T, J
    lower bidiagonal, in O(n^2), as an object array of mp scalars; a zero
    pivot raises ZeroDivisionError."""
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
    return np.array(X, dtype=object)


def _norm1(A: np.ndarray):
    """max column sum of |A_ij|."""
    return max(mp.fsum(abs(x) for x in col) for col in A.T)


def _cauchy_log_diag(span: ExponentialSpan) -> tuple:
    """(ln C_ii per basis row, max_i sum_j 1/|conj(r_i) + r_j|) in binary64,
    C = G_inf^{-1} and G_inf the infinite-horizon Gram of the span's basis;
    either may be inf or nan, and a rate below binary64 raises ValueError
    or ZeroDivisionError.

    On exponentials G_inf is the Cauchy matrix 1/(conj(r_i) + r_j), whose
    inverse has Schechter's product formula (``cauchy_inverse_oracle`` in
    tests/closed_forms.py):

        ln C_ii = ln 2 Re r_i + 2 sum_{k != i} ln |(conj(r_i) + r_k) / (r_i - r_k)|.

    A pair's second row is the divided difference, whose dual is d times
    that of e^{-r' t}: there the partner's factor |(conj(r_i) + r_p) / d|^2
    becomes |conj(r_i) + r_p|^2, exactly, and also on a Jordan chain (d = 0).
    On a pair's first row the partner's factor is dropped.  A difference of
    rates that binary64 cannot resolve is taken from their mp values.

    Plain floats, not numpy: the first numpy ufunc calls of a CLI run raise
    its peak RSS by about 0.5 MB, and n = 40 takes about 0.3 ms."""
    rates = span.rates
    r = [complex(x) for x in rates]
    size = [abs(x) for x in r]
    partner = [None] * len(r)
    for k, (_, d) in enumerate(span.basis()):
        if d is not None:
            partner[k], partner[k - 1] = k - 1, k
    ln_diag, row_sum = [], 0.0
    for i, ri in enumerate(r):
        sums = [abs(ri.conjugate() + rk) for rk in r]
        row_sum = max(row_sum, sum(1 / s for s in sums))
        ln = math.log(2 * ri.real)
        for k, rk in enumerate(r):
            if k == i:
                continue
            if k == partner[i]:
                if k < i:
                    ln += 2 * math.log(sums[k])
                continue
            gap = abs(ri - rk)
            if gap > _FLOAT_GAP * (size[i] + size[k]):
                ln += 2 * math.log(sums[k] / gap)
            else:
                ln += 2 * (math.log(sums[k]) - mp_log_abs(rates[i] - rates[k]))
        ln_diag.append(ln)
    return ln_diag, row_sum


def _predicted_log10_cond(span: ExponentialSpan) -> float:
    """log10 k, k = max_i C_ii max_i sum_j 1/|conj(r_i) + r_j| the condition
    of the infinite-horizon Gram predicted from ``_cauchy_log_diag``; nan
    when any term is not finite (a rate beyond binary64, say).  The horizon
    is not read: a short one can raise the condition past the prediction,
    and the solve's own estimate then catches the miss."""
    try:
        ln_diag, row_sum = _cauchy_log_diag(span)
        ln_cond = max(ln_diag) + math.log(row_sum)
    except (ValueError, ZeroDivisionError):
        return math.nan
    if not (all(map(math.isfinite, ln_diag)) and math.isfinite(ln_cond)):
        return math.nan
    return ln_cond / math.log(10)


def _predicted_dps(span: ExponentialSpan) -> int:
    """The digits to solve at: ceil(log10 k + PREDICT_MARGIN) + CARRY_DIGITS,
    k the predicted condition, at least DEFAULT_DPS and at most MAX_DPS;
    DEFAULT_DPS when the prediction is not finite."""
    log10_cond = _predicted_log10_cond(span)
    if math.isnan(log10_cond):
        return DEFAULT_DPS
    carry = math.ceil(log10_cond + PREDICT_MARGIN) + CARRY_DIGITS
    return max(DEFAULT_DPS, min(MAX_DPS, carry))


def _solve(span: ExponentialSpan, dps: int):
    """(M^{-1}, the Gram G, the table E, cond, log10 cond) from the
    structured solve at ``dps`` digits; cond = ||G||_1 ||M^{-1}||_1."""
    with workdps(dps):
        E = _exp_table(span)
        try:
            C = _structured_inverse(*_displacement(span, E))
        except ZeroDivisionError as exc:
            raise IllConditioned(f"pairing matrix singular at {dps} digits") from exc
        G = _pairing_mp(span, E, not span.real)
        kappa = _norm1(G) * _norm1(C)
        return C, G, E, kappa, mp.log10(kappa)


def _carried(span, dps, carry, C, G, E, kappa, log10_kappa) -> BiorthogonalFamily:
    """The family of a solve at ``dps`` digits, carried at ``carry`` <= dps."""
    real = span.real
    basis = span.basis()
    with workdps(carry):
        if carry < dps:
            # C and G are rounded in place row by row (unary + rounds to the
            # working precision), so no unrounded copy outlives its row; the
            # table is made afresh, so that the closed forms at the carried
            # digits match those of any caller working there
            E = _exp_table(span)
            for row in (*C, *G):
                row[:] = [+x for x in row]
        M = G if real else _pairing_mp(span, E)
        # max |M C^T - I|, formed exactly one row of M at a time
        c_rows = int_rows(C)
        residual = max(float(abs(x - (1 if i == j else 0))) for i, m_row in enumerate(M)
                       for j, x in enumerate(exact_matmul(int_rows([m_row]), c_rows)[0]))
        N = C   # real without a close pair: P is the identity, and the Gram P^T C P is C
        if not real:
            g_cols = int_rows(G.T)
            cg_rows = int_rows(exact_matmul(c_rows, g_cols))
            N = np.array(exact_matmul(cg_rows, c_rows.conj()), dtype=object)   # C G C^H
        elif any(d for _, d in basis):
            # the exponential duals are the rows of A = P^T C, their Gram
            # A P = P^T C P (C symmetric)
            A = [list(col) for col in zip(*(_transpose_paired(basis, row) for row in C))]
            N = np.array([_transpose_paired(basis, row) for row in A], dtype=object)
            C, c_rows = np.array(A, dtype=object), int_rows(A)
        diag = N.diagonal()
        if not all(x.real > 0 for x in diag):
            # force a precision retry: a negative computed norm means the
            # working precision has not resolved the Gram's definiteness
            residual = float("inf")
        ln_norms = np.array([mp_log_abs(x) / 2.0 for x in diag])
    C.flags.writeable = N.flags.writeable = False
    with np.errstate(over="ignore"):
        norms = np.exp(ln_norms)
    return BiorthogonalFamily(
        span=span, cond_estimate=float(kappa), cond_log10=float(log10_kappa),
        norms=norms, ln_norms=ln_norms, residual=residual,
        degraded=residual > RESIDUAL_THRESHOLD, dps=carry,
        mp_coeffs=C, mp_dual_gram=N, int_rows=c_rows, exp_table=E,
    )


def build_biortho(span: ExponentialSpan) -> BiorthogonalFamily:
    """Duals q_k of the span's exponentials: int_0^T e^{-r_j t} q_k(t) dt =
    delta_jk, with the duals of e^{-r t} and t e^{-r t} on a Jordan chain,
    each a combination of the span's basis functions.

    One precision policy: the family is carried at ceil(log10 cond) +
    CARRY_DIGITS digits, cond the condition estimate of the basis's Gram
    measured by the solve.  The solve runs at the digits predicted for that
    carry (``_predicted_dps``); only on a miss, when the carried digits
    exceed the digits solved at, does it run again at them first.  A
    residual above RESIDUAL_THRESHOLD doubles the solve digits, at most
    three times.  ``family.dps`` reports the carried digits."""
    dps, retries = _predicted_dps(span), 0
    while True:
        solved = _solve(span, dps)
        carry = int(mp.ceil(solved[-1])) + CARRY_DIGITS
        if carry > dps and dps < MAX_DPS:
            dps = min(MAX_DPS, carry)
            continue
        family = _carried(span, dps, min(carry, dps), *solved)
        if family.residual <= RESIDUAL_THRESHOLD or dps >= MAX_DPS or retries == 3:
            break
        dps, retries = min(MAX_DPS, 2 * dps), retries + 1
    if math.isinf(family.residual):
        raise IllConditioned(
            f"Gram not numerically positive definite at {dps} digits")
    return family


# Not exported: the only reader is the benchmark's tracer
# (perfbench/tracing.py ENTRY_POINTS).  Jordan chains are rates listed twice.
build_biortho_jordan = build_biortho


def pair_with_exponential_mp(family: BiorthogonalFamily, mu, a: int = 0) -> list:
    """int_0^T t^a e^{-mu t} q_k(t) dt for every family member k, as mp
    scalars at the family's working precision.

    For mu equal to a span rate and a = 0 this returns the corresponding
    Kronecker column up to the solve residual.  The closed-form column
    (``int_phi_exp``, t^a being phi_0^a) takes e^{-(mu + r_j) T} =
    e^{-mu T} E_j from the family's exponential table, one exponential per
    call; it is converted once, and one ``precision.exact_matmul`` dots it
    exactly with the family's integer rows of C, built with the family.
    """
    if a not in (0, 1):
        raise ValueError("t-power a must be 0 or 1")
    span = family.span
    mu = to_mp(mu)
    with workdps(family.dps):
        e_mu = mp.mpf(0) if span.T is None else mp.exp(-mu * span.T)
        col = int_rows([[int_phi_exp(mu + r, (0,) * a + (() if d is None else (d,)), span.T,
                                     e_mu * e)
                         for (r, d), e in zip(span.basis(), family.exp_table)]])
        return [x for x, in exact_matmul(family.int_rows, col)]

