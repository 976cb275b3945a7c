"""Closed forms of ln|E'(lam_k)| for the sine/sinh canonical products: the
references the condensation profiles and ``spectral.log_E_primes`` are
checked against; the closed-form inverse of the infinite-horizon Gram
that the dual solve's predicted condition is checked against; and the
per-witness horizon formulas the T* profiles are checked against."""

import contextlib
import math
from fractions import Fraction

import numpy as np

from nullcontrol.precision import to_mp, workdps


def ln_sinh(x: float) -> float:
    """ln(sinh x) for x > 0 without overflow."""
    if x > 30.0:
        return x - math.log(2.0) + math.log1p(-math.exp(-2.0 * x))
    return math.log(math.sinh(x))


def log_eprime_single_family(k: int, scale: float = 1.0) -> float:
    """ln|E'(lam_k)| for lam_j = scale*j^2: |E'| = sinh(k pi)/(2 pi k^3 scale)."""
    return ln_sinh(k * math.pi) - math.log(2.0 * math.pi * k**3 * scale)


def log_eprime_two_family(k: int, d: float, scale: float = 1.0) -> float:
    """ln|E'(lam_k)| at lam_k = scale*k^2 for the merged family
    {scale*j^2, scale*d*j^2}:

    |E'| = d sinh(k pi) sinh(k pi/sqrt d) |sin(k pi/sqrt d)| / (2 pi^3 k^5 scale).
    """
    rd = math.sqrt(d)
    return (math.log(d) + ln_sinh(k * math.pi) + ln_sinh(k * math.pi / rd)
            + math.log(abs(math.sin(k * math.pi / rd)))
            - math.log(2.0 * math.pi**3 * k**5 * scale))


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


# The marginal horizon of each witness family, written out by hand in its
# own algebra, independent of ``hautus.marginal_horizon``.

def _clamp(v: float) -> float:
    return v if math.isinf(v) else max(0.0, v)


def horizon_observation(re: float, norm_By: float) -> float:
    """[-ln ||B* phi_k|| + ln(Re lam_k)/2] / Re lam_k."""
    return _clamp((-math.log(norm_By) + 0.5 * math.log(re)) / re)


def horizon_gap(re: float, bohr_v: float) -> float:
    """bohr's -ln(gap_k) / Re lam_k plus ln(Re lam_k) / Re lam_k."""
    return _clamp(bohr_v + math.log(re) / re)


def horizon_jordan(re: float, mu: complex) -> float:
    """[-ln |mu_k| + ln(Re lam_k)] / Re lam_k."""
    return _clamp((-math.log(abs(mu)) + math.log(re)) / re)


def horizon_jordan_gamma(re: float, mu: complex, gamma: complex) -> float:
    """[ln(|gamma_k| / |mu_k|) + ln(Re lam_k)] / Re lam_k."""
    return _clamp((math.log(abs(gamma) / abs(mu)) + math.log(re)) / re)


def horizon_grushin(lam: float, integral: float) -> float:
    """[ln lam_n - ln(2 int_a^b v_n^2)] / (2 lam_n)."""
    return (math.log(lam) - (math.log(2.0) + math.log(integral))) / (2.0 * lam)
