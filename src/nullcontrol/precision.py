"""Small helpers around mpmath working precision.

Gram matrices of near-coincident exponentials have condition numbers far
beyond binary64 (and beyond double-double for the academic two-branch
model), so the solvers run in mpmath arbitrary precision.  Everything
user-facing is reported back as ordinary floats.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import mpmath as mp

DEFAULT_DPS = 60
MAX_DPS = 6000


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
    """ln|x| of an mp scalar as a float; -inf for exact zero."""
    if x == 0:
        return float("-inf")
    return float(mp.log(abs(x)))


def auto_dps_for_gaps(min_log_gap: float, scale: float = 2.6, size: int = 0) -> int:
    """Decimal digits needed to resolve a relative gap exp(min_log_gap)
    in a Gram system of ``size`` basis functions.

    Solving a Gram system whose basis functions coalesce at relative
    distance g requires roughly cond ~ g^-2, hence ~ 2|log10 g| digits
    plus headroom: ``scale`` digits per decade of gap (5 for doubled,
    Jordan bases), two per basis function and 30 more.  Unresolvably
    small gaps saturate at MAX_DPS; none gets fewer than DEFAULT_DPS.
    """
    if math.isnan(min_log_gap) or min_log_gap == math.inf:
        return DEFAULT_DPS
    if min_log_gap == -math.inf:
        return MAX_DPS
    digits = scale * max(0.0, -min_log_gap) / math.log(10.0)
    return max(DEFAULT_DPS, min(MAX_DPS, int(math.ceil(digits)) + 2 * size + 30))
