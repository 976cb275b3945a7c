"""Small helpers around mpmath working precision.

Gram matrices of near-coincident exponentials have condition numbers far
beyond binary64 (and beyond double-double for the academic two-branch
model), so the solvers run in mpmath arbitrary precision.  The dual solve
takes its digits from one policy (``biortho_time.build_biortho``): the
family is carried at ceil(log10 cond) + 30 digits; the solve runs at the
digits predicted for that carry, at least DEFAULT_DPS and at most MAX_DPS,
and again at the carried digits only on a miss, when they are more.
Everything user-facing is reported back as ordinary floats.

Every exact sum runs on one form, ``IntRows``: rows of Python ints held as
object arrays, re and (when any value is complex) im, with one exponent
per row.  ``int_rows`` builds it from mp scalars and ``signed_rows`` from
signed (mantissa, exponent) values; both align a row to its lowest
exponent and refuse a non-finite value or a spread above MAX_SPREAD_BITS
in one place.  A caller builds each operand once and keeps it;
``int_matmul`` takes the exact A B^T of two forms with ``np.dot``, and
each entry is rounded once, to an mp scalar (``exact_matmul``) or to a
float (``float_matmul``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import NamedTuple

import mpmath as mp
import numpy as np
from mpmath import libmp

from .errors import NumericalError

DEFAULT_DPS = 60
MAX_DPS = 6000
# widest exponent spread, in bits, that a row of IntRows aligns: its
# integers, and the cost of every exact sum over them, grow with the spread
# (heat N = 8 at T = 1e5 spreads about 9e7 bits and would take 35 s and
# 193 MB; the widest vector of the benchmark's jobs spreads 9110 bits)
MAX_SPREAD_BITS = 1 << 24


@contextmanager
def workdps(dps):
    with mp.workdps(int(dps)):
        yield


def to_mp(x):
    """Coerce a scalar to mpf/mpc, preserving mpmath inputs exactly."""
    if isinstance(x, (mp.mpf, mp.mpc)):
        return x
    if isinstance(x, complex):
        if x.imag == 0.0:
            return mp.mpf(x.real)
        return mp.mpc(x.real, x.imag)
    # int, float, fractions.Fraction and friends
    return mp.mpf(x)


def to_complex(x) -> complex:
    """Best-effort float view of an mp scalar (may overflow to inf)."""
    if isinstance(x, mp.mpc):
        return complex(float(x.real), float(x.imag))
    return complex(float(x), 0.0)


def mp_log_abs(x) -> float:
    """ln|x| of an mp scalar as a float; -inf for exact zero.

    |x| is taken at the caller's precision, its log at 128 bits, and that
    is rounded once to float.  mpmath's log reads the whole mantissa and
    widens its working bits by the cancellation near 1, so the 128-bit log
    is good to about 128 bits however many digits x carries: the float
    differs from a full-precision log's only when the exact value lies
    within about 2^-75 (relative) of a binary64 rounding midpoint.
    """
    if x == 0:
        return float("-inf")
    a = abs(x)
    with mp.workprec(128):
        return float(mp.log(a))


class IntRows(NamedTuple):
    """The exact integer form of rows of finite values: entry (i, j) is
    (re[i, j] + i im[i, j]) 2^exp[i].  ``re`` and ``im`` are object arrays of
    Python ints; ``im`` is None when no value is complex, and a real value
    of a complex form has a zero im."""

    re: np.ndarray
    im: np.ndarray | None
    exp: list

    def conj(self) -> "IntRows":
        """The complex conjugate rows."""
        return self if self.im is None else IntRows(self.re, -self.im, self.exp)


def signed(raw) -> tuple:
    """(signed mantissa, exponent) of a raw mpf tuple; an inf or nan raises
    ValueError."""
    sign, man, exp, bc = raw
    if bc and not man:   # an inf or nan has a zero mantissa and a nonzero bit count
        raise ValueError("exact integer form of a non-finite value")
    return (-man if sign else man), exp


def _aligned(values, slack: int) -> tuple:
    """(integers, exponent): signed (mantissa, exponent) values aligned to
    their lowest exponent.  A mantissa's lowest set bit lies at most
    ``slack`` bits above its exponent (0 for mpmath's odd mantissas), so
    only a coarse spread within ``slack`` of the limit needs the exact one;
    a spread of lowest set bits above MAX_SPREAD_BITS raises NumericalError."""
    exps = [x for m, x in values if m]
    lo, hi = min(exps, default=0), max(exps, default=0)
    if hi - lo + slack > MAX_SPREAD_BITS:
        lsb = [x + (m & -m).bit_length() - 1 for m, x in values if m]
        spread = max(lsb) - min(lsb)
        if spread > MAX_SPREAD_BITS:
            raise NumericalError(f"exact sum over values spread across {spread} bits, "
                                 f"more than {MAX_SPREAD_BITS}")
    return [m << (x - lo) if m else 0 for m, x in values], lo


def signed_rows(rows, cplx: bool = False, slack: int = 0) -> IntRows:
    """The exact integer form of rows of signed (mantissa, exponent) values,
    each row aligned to its own exponent as it is read; with ``cplx`` a
    row holds its re parts and then its im parts.  ``slack`` is as in
    ``_aligned``."""
    aligned = [_aligned(r, slack) for r in rows]
    ints = np.array([a for a, _ in aligned], dtype=object)
    exp = [e for _, e in aligned]
    if cplx:
        n = ints.shape[1] // 2
        return IntRows(ints[:, :n], ints[:, n:], exp)
    return IntRows(ints, None, exp)


def int_rows(rows) -> IntRows:
    """The exact integer form of rows of finite mp scalars, for
    ``int_matmul``; an inf or nan raises ValueError, and a row whose
    exponents spread above MAX_SPREAD_BITS raises NumericalError."""
    rows = [list(r) for r in rows]
    if any(type(v) is mp.mpc for r in rows for v in r):
        raw = [[v._mpc_ if type(v) is mp.mpc else (v._mpf_, libmp.fzero) for v in r]
               for r in rows]
        return signed_rows(([signed(x) for x, _ in r] + [signed(y) for _, y in r] for r in raw),
                           cplx=True)
    return signed_rows([signed(v._mpf_) for v in r] for r in rows)


def int_matmul(A: IntRows, B: IntRows, imag: bool = True):
    """The exact mantissas of A B^T: object arrays (re, im) of Python ints,
    entry (i, j) at exponent A.exp[i] + B.exp[j]; im is None when both
    sides are real or ``imag`` is false.  numpy runs the object-dtype
    products as Python int products and sums, without an interpreter loop;
    np.dot, not @: the object-dtype matmul gufunc adds ~0.1 MB to peak RSS."""
    re = np.dot(A.re, B.re.T)
    if A.im is not None and B.im is not None:
        re -= np.dot(A.im, B.im.T)
    if not imag or (A.im is None and B.im is None):
        return re, None
    return re, ((0 if B.im is None else np.dot(A.re, B.im.T))
                + (0 if A.im is None else np.dot(A.im, B.re.T)))


def exact_matmul(A: IntRows, B: IntRows) -> list:
    """A B^T as rows of mp scalars, each entry of ``int_matmul`` rounded
    once to the working precision; the entries are mpc when A or B is
    complex.  This is what mp.fdot computes per entry, except that mp.fdot
    drops a partial sum or a term lying more than 2 prec bits below the
    other; the exact sum keeps it."""
    prec = mp.mp.prec
    re, im = int_matmul(A, B)
    im = [[None] * len(B.exp)] * len(A.exp) if im is None else im.tolist()

    def entry(x, y, e):
        x = libmp.from_man_exp(x, e, prec, "n")
        return mp.make_mpf(x) if y is None else mp.make_mpc(
            (x, libmp.from_man_exp(y, e, prec, "n")))
    return [[entry(x, y, ea + eb) for x, y, eb in zip(xs, ys, B.exp)]
            for xs, ys, ea in zip(re.tolist(), im, A.exp)]


def float_matmul(A: IntRows, B: IntRows, prec: int) -> list:
    """Re(A B^T) as rows of floats, each entry of ``int_matmul`` rounded
    once to ``prec`` bits and then to float (``round_to_float``)."""
    re, _ = int_matmul(A, B, imag=False)
    return [[round_to_float(x, ea + eb, prec) for x, eb in zip(xs, B.exp)]
            for xs, ea in zip(re.tolist(), A.exp)]


def round_half_even(man: int, exp: int, bits: int):
    """man 2^exp rounded half to even to ``bits`` significant bits, as
    (mantissa, exponent); unchanged when man has at most ``bits`` bits."""
    shift = man.bit_length() - bits
    if shift <= 0:
        return man, exp
    # floor(man / 2^(shift - 1)): its last bit is the half bit, the bits
    # below it are nonzero off a tie, and the bit above is the parity
    m = man >> (shift - 1)
    if m & 1 and (m & 2 or man & ((1 << (shift - 1)) - 1)):
        return (m >> 1) + 1, exp + shift
    return m >> 1, exp + shift


def round_to_float(man: int, exp: int, prec: int) -> float:
    """man 2^exp rounded half to even to ``prec`` bits and then to float,
    in integer arithmetic: the double rounding of
    ``libmp.to_float(libmp.from_man_exp(man, exp, prec, "n"))``.

    CPython converts an int to float correctly rounded, half to even, and
    math.ldexp then scales exactly, or rounds into the subnormal range as
    ``libmp.to_float`` does with its 53-bit mantissa.  Overflow gives
    +-inf.  That int -> float step is the second rounding; it takes ints
    below 2^1024, so past 1000 bits of ``prec`` the mantissa is rounded to
    53 bits in integers first.
    """
    man, exp = round_half_even(man, exp, prec)
    if prec > 1000:
        man, exp = round_half_even(man, exp, 53)
    try:
        return math.ldexp(float(man), exp)
    except OverflowError:
        return -math.inf if man < 0 else math.inf
