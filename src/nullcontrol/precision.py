"""Small helpers around mpmath working precision.

Gram matrices of near-coincident exponentials have condition numbers far
beyond binary64 (and beyond double-double for the academic two-branch
model), so the solvers run in mpmath arbitrary precision.  The dual solve
takes its digits from one policy (``biortho_time.build_biortho``): the
family is carried at ceil(log10 cond) + 30 digits; the solve runs at the
digits predicted for that carry, at least DEFAULT_DPS and at most MAX_DPS,
and again at the carried digits only on a miss, when they are more.
Everything user-facing is reported back as ordinary floats.
Every exact sum is one ``int_matmul`` of ``int_parts`` rows, each entry
rounded once (``exact_matmul``, ``round_to_float``).
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
# widest exponent spread, in bits, that int_parts aligns: its integers, and
# the cost of every exact sum over them, grow with the spread (heat N = 8 at
# T = 1e5 spreads about 9e7 bits and would take 35 s and 193 MB; the
# widest vector of the benchmark's jobs spreads 9110 bits)
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


class IntVector(NamedTuple):
    """Exact integer form of finite mp scalars: value_j = (re[j] + i im[j]) 2^exp.

    ``im`` is empty when no value is an mpc."""

    re: list
    im: list
    exp: int


def int_parts(values) -> IntVector:
    """The exact integer form of a sequence of finite mp scalars, for
    ``int_matmul``; an inf or nan raises ValueError, and an exponent spread
    above MAX_SPREAD_BITS raises NumericalError."""
    values = list(values)
    cplx = mp.mpc in map(type, values)
    if cplx:
        flat = [x for v in values
                for x in (v._mpc_ if type(v) is mp.mpc else (v._mpf_, libmp.fzero))]
    else:
        flat = [v._mpf_ for v in values]
    # mpf tuples are normalized (odd mantissa), so the exponent of a
    # nonzero part is the position of its least significant bit
    exps = [x[2] for x in flat if x[1]]
    # an inf or nan has a zero mantissa and a nonzero bit count
    if len(exps) < len(flat) and any(x[3] for x in flat if not x[1]):
        raise ValueError("exact integer form of a non-finite value")
    exp = min(exps, default=0)
    check_spread(max(exps, default=0) - exp)
    ints = [0 if not man else -(man << (e - exp)) if sign else man << (e - exp)
            for sign, man, e, _ in flat]
    if cplx:
        return IntVector(ints[0::2], ints[1::2], exp)
    return IntVector(ints, [], exp)


def check_spread(spread: int):
    """Raise NumericalError when an exact sum would align values whose
    exponents spread over more than MAX_SPREAD_BITS bits."""
    if spread > MAX_SPREAD_BITS:
        raise NumericalError(f"exact sum over values spread across {spread} bits, "
                             f"more than {MAX_SPREAD_BITS}")


def int_matmul(A, B, imag: bool = True):
    """The exact mantissas of A B^T, for lists A and B of IntVector rows of
    one length: object arrays (re, im) of Python ints, entry (i, j) at
    exponent A[i].exp + B[j].exp; im is None when both sides are real or
    ``imag`` is false.  numpy runs the object-dtype products as Python int
    products and sums, without an interpreter loop."""
    def parts(rows):
        """(re, im) arrays; im is None when no row is complex, and a real row's im is 0."""
        re = np.array([r.re for r in rows], dtype=object)
        if not any(r.im for r in rows):
            return re, None
        return re, np.array([r.im or [0] * len(r.re) for r in rows], dtype=object)

    # np.dot, not @: the object-dtype matmul gufunc adds ~0.1 MB to peak RSS
    (a_re, a_im), (b_re, b_im) = parts(A), parts(B)
    re = np.dot(a_re, b_re.T)
    if a_im is not None and b_im is not None:
        re -= np.dot(a_im, b_im.T)
    if not imag or (a_im is None and b_im is None):
        return re, None
    return re, ((0 if b_im is None else np.dot(a_re, b_im.T))
                + (0 if a_im is None else np.dot(a_im, b_re.T)))


def exact_matmul(A, B) -> list:
    """A B^T as rows of mp scalars, each entry of ``int_matmul`` rounded
    once to the working precision; an entry is an mpc when its row of A or
    of B is complex.  This is what mp.fdot computes per entry, except that
    mp.fdot drops a partial sum or a term lying more than 2 prec bits below
    the other; the exact sum keeps it."""
    prec = mp.mp.prec
    re, im = int_matmul(A, B)
    im = [[0] * len(B)] * len(A) if im is None else im.tolist()

    def entry(x, y, e, cplx):
        x = libmp.from_man_exp(x, e, prec, "n")
        return mp.make_mpc((x, libmp.from_man_exp(y, e, prec, "n"))) if cplx else mp.make_mpf(x)
    return [[entry(x, y, a.exp + b.exp, a.im or b.im) for b, x, y in zip(B, xs, ys)]
            for a, xs, ys in zip(A, re.tolist(), im)]


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
