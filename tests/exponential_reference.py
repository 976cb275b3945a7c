"""The dual solve in the exponential basis, at digits from the smallest
rate gap: the reference the paired-basis solve of ``biortho_time`` is
checked against.

Before close pairs became divided-difference rows, every span was solved
on e^{-r t} per rate (and t e^{-r t} per rate of a Jordan span) at the
digits ``auto_dps_for_gaps`` took from the smallest relative rate gap,
doubled while the residual missed RESIDUAL_THRESHOLD, and its family was
carried at min(those digits, ceil(log10 cond) + CARRY_DIGITS).  The
closed forms of that basis are the t-moments ``int_pow_exp``.
"""

import math

import mpmath as mp

from nullcontrol import biortho_time
from nullcontrol.biortho_time import ExponentialSpan
from nullcontrol.precision import DEFAULT_DPS, MAX_DPS, mp_log_abs, workdps


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


def min_log_rel_gap(rates) -> float:
    """ln of the smallest relative pairwise gap of distinct rates,
    |r_i - r_j| / (1 + |r_i| + |r_j|)."""
    if len(rates) == 1:
        return 0.0
    with workdps(max(mp.mp.dps, 50)):
        best = min(abs(a - b) / (1 + abs(a) + abs(b))
                   for i, a in enumerate(rates) for b in rates[i + 1:])
        return mp_log_abs(best)


def auto_dps_for_gaps(min_log_gap: float, scale: float = 2.6, size: int = 0) -> int:
    """Digits that resolve a relative gap exp(min_log_gap) in a Gram system
    of ``size`` basis functions: ``scale`` digits per decade of gap (5 for
    a Jordan basis), two per basis function and 30 more, at least
    DEFAULT_DPS and at most MAX_DPS."""
    if math.isnan(min_log_gap) or min_log_gap == math.inf:
        return DEFAULT_DPS
    if min_log_gap == -math.inf:
        return MAX_DPS
    digits = scale * max(0.0, -min_log_gap) / math.log(10.0)
    return max(DEFAULT_DPS, min(MAX_DPS, int(math.ceil(digits)) + 2 * size + 30))


def exponential_span(rates, T, jordan: bool = False) -> ExponentialSpan:
    """The span of ``rates`` on the exponential basis: e^{-r t} per rate,
    and t e^{-r t} after it on a Jordan span, with no divided-difference
    row, however close two rates lie."""
    span = ExponentialSpan(tuple(r for r in rates for _ in range(2 if jordan else 1)), T)
    basis = tuple(row for r in span.rates[::2 if jordan else 1]
                  for row in ((r, None), (r, 0))[:2 if jordan else 1])
    object.__setattr__(span, "_basis", basis)
    return span


def solve_dps(rates, jordan: bool = False) -> int:
    """The digits the exponential-basis solve of ``rates`` ran at before
    any residual retry."""
    return auto_dps_for_gaps(min_log_rel_gap(rates), scale=5.0 if jordan else 2.6,
                             size=(2 if jordan else 1) * len(rates))


def reference_family(rates, T, jordan: bool = False, carry: bool = True):
    """The family of ``rates`` from the exponential-basis solve at
    ``solve_dps`` digits, carried at min(those digits, ceil(log10 cond) +
    CARRY_DIGITS), or kept at the solve digits without ``carry``."""
    span = exponential_span(rates, T, jordan)
    dps = solve_dps(span.rates[::2 if jordan else 1], jordan)
    for _ in range(4):
        solved = biortho_time._solve(span, dps)
        digits = int(mp.ceil(solved[-1])) + biortho_time.CARRY_DIGITS
        family = biortho_time._carried(span, dps, min(dps, digits) if carry else dps, *solved)
        if family.residual <= biortho_time.RESIDUAL_THRESHOLD or dps >= MAX_DPS:
            break
        dps = min(MAX_DPS, 2 * dps)
    return family
