"""The concrete model gallery: spectra, observations, initial data.

Each model exposes the data the moment method consumes: eigenvalues with
multiplicity/Jordan structure (taken from the model's sequence rule, the
one place that decides them), the observation values B* phi_{k,i} as
ObservationVector instances, coefficients <y0, phi_{k,i}> of the initial
state, and (when a closed form is known) the minimal-time profile rule.

Conventions recorded in model metadata rather than renormalized away:
generalized eigenfunctions are kept un-normalized as (phi_k, psi_k), so
the Jordan coupling mu_k equals the raw coupling integral; boundary
observation scalings follow the stated B* phi values.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import DegenerateB, RationalRootWarning, SupportOverlap
from .generators import AcademicLfRule, PowerRule, SequenceRule, TwoDiffusionRule
from .observations import VANISH_TOL, Scalar, SineSeries
from .report import DEFAULT_WINDOW, ProfileReport, make_profile
from . import spectral

_PI = math.pi
_PI2 = math.pi**2
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SpectralMode:
    """One eigenvalue with its branches.

    kind is 'simple' (one eigenfunction), 'multiple' (r independent
    eigenfunctions) or 'jordan' (length-2 chain with coupling mu).
    obs[i] is B* phi_{k, i+1}; None marks an unavailable observation.
    """

    k: int
    lam: complex
    lam_mp: object
    kind: str
    obs: tuple
    y0: tuple
    r: int = 1
    mu: complex | None = None
    gamma: complex | None = None
    meta: dict = field(default_factory=dict)

    @property
    def unobservable(self) -> bool:
        first = self.obs[0]
        return first is None or first.unobservable


def _default_y0(k: int, branch: int) -> complex:
    return 1.0


class ParabolicModel:
    """Base class: lazily memoized mode construction.

    ``rule`` alone decides the eigenvalues: mode j carries
    ``rule.mp_entry(j)`` and ``spectrum`` reads the same entries, so
    neither depends on the caller's mpmath precision."""

    name = "model"
    structural_pair_kernel: str | None = None
    observation_available = True

    def __init__(self, y0_rule=None, rule: SequenceRule | None = None):
        self.y0_rule = y0_rule or _default_y0
        self.rule = rule
        self.metadata: dict = {}
        self._modes: list[SpectralMode] = []
        self._spectra: dict[int, spectral.SpectralSequence] = {}
        self._lock = threading.RLock()  # spectrum() holds it while it reads modes()

    def _mode(self, k: int) -> SpectralMode:
        raise NotImplementedError

    def _rate(self, j: int):
        """(lam, lam_mp) of mode j, both from the rule's entry j."""
        lam_mp = self.rule.mp_entry(j)
        return complex(lam_mp), lam_mp

    def modes(self, K: int) -> list[SpectralMode]:
        with self._lock:
            while len(self._modes) < K:
                self._modes.append(self._mode(len(self._modes) + 1))
            return self._modes[:K]

    def spectrum(self, K: int) -> spectral.SpectralSequence:
        """The rule's first K entries (plus its buffer) with the modes'
        multiplicities, built once per K and shared."""
        with self._lock:
            if K not in self._spectra:
                seq = spectral.from_rule(self.rule, K)
                self._spectra[K] = replace(seq, r=tuple(m.r for m in self.modes(len(seq))))
            return self._spectra[K]

    def tmin_profile(self, K: int, window: int = DEFAULT_WINDOW) -> ProfileReport | None:
        return None

    def _decay_profile(self, name: str, xs, window: int) -> ProfileReport:
        """The profile of -ln|x_k| / lam_k over k = 1..len(xs), inf where x_k = 0."""
        lams = self.rule.float_range(0, len(xs))
        vals = np.array([math.inf if x == 0.0 else -math.log(abs(x)) / lam
                         for x, lam in zip(xs, lams)])
        return make_profile(name, np.arange(1, len(xs) + 1), vals, window)


# ---------------------------------------------------------------------------
# pointwise-control heat equation

class PointwiseHeatModel(ParabolicModel):
    name = "pointwise_heat"
    structural_pair_kernel = "scalar-control"

    def __init__(self, x0: float, y0_rule=None):
        if not 0.0 < x0 < 1.0:
            raise ValueError("x0 must lie in (0, 1)")
        super().__init__(y0_rule, PowerRule(_PI2, 2.0))
        self.x0 = float(x0)
        self.metadata["observation"] = "sqrt(2) sin(k pi x0)"

    def _obs_value(self, k: int) -> float:
        v = _SQRT2 * math.sin(k * _PI * self.x0)
        return 0.0 if abs(v) < VANISH_TOL else v

    def _mode(self, k):
        return SpectralMode(k, *self._rate(k), "simple", (Scalar(self._obs_value(k)),),
                            (complex(self.y0_rule(k, 1)),))

    def tmin_profile(self, K, window=DEFAULT_WINDOW):
        xs = [self._obs_value(k) for k in range(1, K + 1)]
        return self._decay_profile("tmin_pointwise", xs, window)


def pointwise_heat(x0: float, y0_rule=None) -> PointwiseHeatModel:
    return PointwiseHeatModel(x0, y0_rule)


# ---------------------------------------------------------------------------
# piecewise-constant coupling q

@dataclass(frozen=True)
class PiecewiseConstant:
    """q = sum of constant values on disjoint subintervals of (0, 1)."""

    segments: tuple  # ((lo, hi, value), ...)

    def __post_init__(self):
        segs = tuple((float(lo), float(hi), float(v)) for lo, hi, v in self.segments)
        prev = 0.0
        for lo, hi, _ in segs:
            if not (0.0 <= lo < hi <= 1.0) or lo < prev:
                raise ValueError("segments must be disjoint, ordered, inside [0, 1]")
            prev = hi
        object.__setattr__(self, "segments", segs)

    @classmethod
    def from_breakpoints(cls, breakpoints, values) -> "PiecewiseConstant":
        if len(breakpoints) != len(values) + 1:
            raise ValueError("need one more breakpoint than values")
        return cls(tuple((breakpoints[i], breakpoints[i + 1], values[i])
                         for i in range(len(values))))

    def support(self):
        return [(lo, hi) for lo, hi, v in self.segments if v != 0.0]

    def total_variation(self) -> float:
        return sum(abs(v) for _, _, v in self.segments)

    def integral_sin2(self, k: int, lo: float = 0.0, hi: float = 1.0) -> float:
        """int q(x) * 2 sin^2(k pi x) dx over [lo, hi]."""
        def prim(x):
            return x - math.sin(2 * k * _PI * x) / (2 * k * _PI)
        total = 0.0
        for a, b, v in self.segments:
            a1, b1 = max(a, lo), min(b, hi)
            if a1 < b1 and v != 0.0:
                total += v * (prim(b1) - prim(a1))
        return total

    def integral_cross(self, k: int, m: int) -> float:
        """int q(x) * 2 sin(k pi x) sin(m pi x) dx over (0, 1)."""
        def prim(d, x):
            return x if d == 0 else math.sin(d * _PI * x) / (d * _PI)
        total = 0.0
        for a, b, v in self.segments:
            if v == 0.0:
                continue
            total += v * ((prim(m - k, b) - prim(m - k, a)) - (prim(m + k, b) - prim(m + k, a)))
        return total

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for a, b, v in self.segments:
            out = np.where((x >= a) & (x < b), v, out)
        return out


def _tail_ms(M: int, k: int):
    """(m, L): m = M+1 .. L without m = k (the psi series skips it), as
    floats, with L = max(M, k) + 20000.  The tail sums add a closed-form
    remainder for m > L: each summand there is at most a decreasing
    c / (m - k)^n, and the sum of those is at most its integral past L."""
    L = max(M, k) + 20000
    mm = np.arange(M + 1, L + 1, dtype=float)
    return mm[mm != k], L


def _psi_coefficients(q: PiecewiseConstant, k: int, M: int):
    """Spectral solve of -psi'' - lam_k psi = (I_k - q) phi_k with
    <psi, phi_k> = 0: psi_hat_m = -<q phi_k, phi_m> / (lam_m - lam_k).

    Returns (ms, psi_hat, solvability_residual, tail_bound) where the tail
    bound dominates sum_{m>M} |g_hat_m|^2 / (lam_m - lam_k)^2.
    """
    lam_k = k * k * _PI2
    ms, cs = [], []
    for m in range(1, M + 1):
        if m == k:
            continue
        g = -q.integral_cross(k, m)
        ms.append(m)
        cs.append(g / (m * m * _PI2 - lam_k))
    # solvability: <(I_k - q) phi_k, phi_k> must vanish identically
    solv = q.integral_sin2(k) - q.integral_cross(k, k)
    V = q.total_variation()
    mm, L = _tail_ms(M, k)
    g = 4.0 * V / _PI
    tail = float(np.sum((g / (mm - k) / ((mm * mm - k * k) * _PI2)) ** 2))
    # m > L: the summand g^2 / ((m - k)^4 (m + k)^2 pi^4) is at most
    # g^2 / (pi^4 (m - k)^6), whose integral past L is c / (5 (L - k)^5)
    tail += g * g / (_PI2 * _PI2) / (5.0 * float(L - k) ** 5)
    return np.array(ms), np.array(cs), solv, tail


class CascadeInternalModel(ParabolicModel):
    """Cascade pair with coupling q and internal control on omega = (a, b)."""

    name = "cascade_internal_q"

    def __init__(self, q: PiecewiseConstant, omega, M: int = 200, y0_rule=None):
        a, b = float(omega[0]), float(omega[1])
        if not (0.0 <= a < b <= 1.0):
            raise ValueError("omega must be a subinterval of (0, 1)")
        for lo, hi in q.support():
            if lo < b and hi > a:
                raise SupportOverlap(f"support piece ({lo}, {hi}) meets omega ({a}, {b})")
        super().__init__(y0_rule, PowerRule(_PI2, 2.0))
        self.q = q
        self.omega = (a, b)
        self.M = int(M)
        self.metadata["convention"] = "phi_{k,2} = (phi_k, psi_k) un-normalized; mu_k is the raw coupling integral"

    def coupling(self, k: int) -> tuple[float, float]:
        return (self.q.integral_sin2(k), self.q.integral_sin2(k, 0.0, self.omega[0]))

    def _mode(self, k):
        I_k, I1_k = self.coupling(k)
        ms, cs, solv, tail = _psi_coefficients(self.q, k, self.M)
        obs1 = SineSeries.single(k, 1.0, self.omega)
        obs2 = SineSeries(ms, cs, self.omega)
        n1 = obs1.inner(obs1)
        # a window too thin for binary64 leaves obs1 = 0, with nothing to project out
        tau_k = (obs2.inner(obs1) / n1).real if n1 else 0.0
        xi = obs2.plus(obs1.scaled(-tau_k))
        meta = {
            "I_k": I_k, "I1_k": I1_k, "tau_k": tau_k,
            "xi_norm": xi.norm(), "solvability_residual": solv,
            "psi_tail_bound": tail,
            "approx_controllable": abs(I_k) > VANISH_TOL or abs(I1_k) > VANISH_TOL,
        }
        y0 = (complex(self.y0_rule(k, 1)), complex(self.y0_rule(k, 2)))
        if abs(I_k) <= VANISH_TOL:
            return SpectralMode(k, *self._rate(k), "multiple", (obs1, obs2), y0, r=2, meta=meta)
        return SpectralMode(k, *self._rate(k), "jordan", (obs1, obs2), y0,
                            r=1, mu=complex(I_k), gamma=None, meta=meta)

    def tmin_profile(self, K, window=DEFAULT_WINDOW):
        xs = [max(abs(I_k), abs(I1_k)) for I_k, I1_k in map(self.coupling, range(1, K + 1))]
        return self._decay_profile("tmin_cascade_internal", xs, window)


def cascade_internal_q(q: PiecewiseConstant, omega, M: int = 200, y0_rule=None) -> CascadeInternalModel:
    return CascadeInternalModel(q, omega, M, y0_rule)


class CascadeBoundaryModel(ParabolicModel):
    """Cascade pair with coupling q and a scalar boundary control."""

    name = "cascade_boundary_q"
    structural_pair_kernel = "scalar-control"

    def __init__(self, q: PiecewiseConstant, M: int = 200, y0_rule=None):
        super().__init__(y0_rule, PowerRule(_PI2, 2.0))
        self.q = q
        self.M = int(M)
        self.metadata["convention"] = "obs_2 = psi_k'(0) from the truncated spectral expansion"

    def coupling(self, k: int) -> float:
        return self.q.integral_sin2(k)

    def _mode(self, k):
        I_k = self.coupling(k)
        obs1_val = _SQRT2 * k * _PI
        ms, cs, solv, _ = _psi_coefficients(self.q, k, self.M)
        obs2_val = float(np.sum(cs * (_SQRT2 * ms * _PI)))
        V = self.q.total_variation()
        mm, L = _tail_ms(self.M, k)
        g = 4.0 * V / _PI
        deriv_tail = float(np.sum(g / (mm - k) * (_SQRT2 * mm * _PI)
                                  / ((mm * mm - k * k) * _PI2)))
        # m > L: the summand c m / ((m - k)^2 (m + k)), c = sqrt(2) g / pi,
        # is at most c / (m - k)^2, whose integral past L is c / (L - k)
        deriv_tail += _SQRT2 * g / _PI / (L - k)
        gamma = obs2_val / obs1_val
        meta = {"I_k": I_k, "solvability_residual": solv, "obs2_tail_bound": deriv_tail}
        y0 = (complex(self.y0_rule(k, 1)), complex(self.y0_rule(k, 2)))
        return SpectralMode(k, *self._rate(k), "jordan",
                            (Scalar(obs1_val), Scalar(obs2_val)), y0,
                            r=1, mu=complex(I_k), gamma=complex(gamma), meta=meta)

    def tmin_profile(self, K, window=DEFAULT_WINDOW):
        xs = [self.coupling(k) for k in range(1, K + 1)]
        return self._decay_profile("tmin_cascade_boundary", xs, window)


def cascade_boundary_q(q: PiecewiseConstant, M: int = 200, y0_rule=None) -> CascadeBoundaryModel:
    return CascadeBoundaryModel(q, M, y0_rule)


# ---------------------------------------------------------------------------
# two diffusion speeds

def _check_rational_root(d: float, qmax: int = 50, tol: float = 1e-9) -> None:
    # warn only when the first coinciding pair lies within a profile's reach
    rd = math.sqrt(d)
    r = Fraction(rd).limit_denominator(qmax)
    p, q = r.numerator, r.denominator
    if 0 < p <= spectral._J_MAX and abs(rd - r) < tol:
        warnings.warn(
            f"sqrt(d) is within {tol:g} of {p}/{q}: s k^2 at k = {p} meets "
            f"s d m^2 at m = {q}, eigenvalue collision risk", RationalRootWarning, stacklevel=3)


class _TwoDiffusionBase(ParabolicModel):
    structural_pair_kernel = "scalar-control"

    def __init__(self, d: float, y0_rule=None):
        super().__init__(y0_rule, TwoDiffusionRule(d, scale=_PI2))  # rejects d <= 0, d = 1
        _check_rational_root(d)
        self.d = float(d)

    def _observation(self, fam: int, k: int):
        raise NotImplementedError

    def _mode(self, j):
        fam, k = self.rule.tag(j)  # family 1 = slow diffusion
        return SpectralMode(j, *self._rate(j), "simple", (self._observation(fam, k),),
                            (complex(self.y0_rule(j, 1)),),
                            meta={"family": fam, "underlying_k": k})


class TwoDiffusionBoundaryModel(_TwoDiffusionBase):
    name = "two_diffusion_boundary"

    def _observation(self, fam, k):
        lam_k = k * k * _PI2
        return Scalar(_SQRT2 / (self.d - 1.0) if fam == 1 else _SQRT2 * lam_k)

    def tmin_profile(self, K, window=DEFAULT_WINDOW):
        return spectral.condensation_profile(self.spectrum(K), K, window=window)


def two_diffusion_boundary(d: float, y0_rule=None) -> TwoDiffusionBoundaryModel:
    return TwoDiffusionBoundaryModel(d, y0_rule)


class TwoDiffusionPointwiseModel(_TwoDiffusionBase):
    name = "two_diffusion_pointwise"

    def __init__(self, d: float, x0: float, y0_rule=None):
        if not 0.0 < x0 < 1.0:
            raise ValueError("x0 must lie in (0, 1)")
        super().__init__(d, y0_rule)
        self.x0 = float(x0)
        self.metadata["convention"] = "pointwise dual scaling inferred from the stated eigenfunctions"

    def _observation(self, fam, k):
        lam_k = k * k * _PI2
        s = _SQRT2 * math.sin(k * _PI * self.x0)
        v = s / ((self.d - 1.0) * math.sqrt(lam_k)) if fam == 1 else math.sqrt(lam_k) * s
        return Scalar(0.0 if abs(v) < VANISH_TOL else v)

    def tmin_profile(self, K, window=DEFAULT_WINDOW):
        seq = self.spectrum(K)
        observed = {}
        for j in range(1, K + 1):
            _, k = self.rule.tag(j)
            s = abs(_SQRT2 * math.sin(k * _PI * self.x0))
            if s >= VANISH_TOL:
                observed[j] = s
        vals = np.full(K, math.inf)  # unobserved modes stay inf
        log_eprimes = spectral.log_E_primes(seq, list(observed))
        for (j, s), log_ep in zip(observed.items(), log_eprimes):
            vals[j - 1] = (-math.log(s) - log_ep) / float(seq.entry(j).real)
        return make_profile("tmin_two_diffusion_pointwise", np.arange(1, K + 1), vals, window)


def two_diffusion_pointwise(d: float, x0: float, y0_rule=None) -> TwoDiffusionPointwiseModel:
    return TwoDiffusionPointwiseModel(d, x0, y0_rule)


# ---------------------------------------------------------------------------
# academic two-branch model with tunable spectral pairing

class AcademicLfModel(ParabolicModel):
    """Pair spectrum lam_k -+ e^{-tau lam_k}; the pair sum is unobservable."""

    name = "academic_lf"
    structural_pair_kernel = "paired-branches"

    def __init__(self, tau: float, y0_rule=None):
        super().__init__(y0_rule, AcademicLfRule(tau))  # rejects tau <= 0
        self.tau = float(tau)

    def _mode(self, j):
        k = (j + 1) // 2
        minus_branch = (j % 2 == 1)
        sign = 1.0 if minus_branch else -1.0  # B* phi^- = +phi_k/sqrt2, B* phi^+ = -phi_k/sqrt2
        obs = SineSeries.single(k, sign / _SQRT2, (0.0, 1.0))
        return SpectralMode(j, *self._rate(j), "simple", (obs,), (complex(self.y0_rule(j, 1)),),
                            meta={"underlying_k": k, "branch": "-" if minus_branch else "+"})

    def tmin_profile(self, K, window=DEFAULT_WINDOW):
        ks = np.arange(1, K + 1)
        vals = np.full(K, self.tau)  # -ln f(lam_k) / lam_k is exactly tau
        return make_profile("tmin_academic", ks, vals, window)


def academic_lf(tau: float, y0_rule=None) -> AcademicLfModel:
    return AcademicLfModel(tau, y0_rule)


# ---------------------------------------------------------------------------
# harmonic oscillator (diagnostics only)

class _OddRule(SequenceRule):
    """lambda_k = 2k - 1."""

    def mp_entry(self, j):
        return mp.mpf(2 * j - 1)

    def float_range(self, i0, i1):
        return 2.0 * np.arange(i0 + 1, i1 + 1) - 1.0


class HarmonicOscillatorModel(ParabolicModel):
    """lam_k = 2k - 1: the reciprocal sum diverges, so the minimal-time
    machinery does not apply; kept for the hypothesis diagnostics."""

    name = "harmonic_oscillator"
    observation_available = False

    def __init__(self):
        super().__init__(rule=_OddRule())
        self.metadata["caveat"] = (
            "the quantified test holds for every horizon while null "
            "controllability fails at every horizon; no synthesis is defined")

    def _mode(self, k):
        return SpectralMode(k, *self._rate(k), "simple", (None,), (1.0 + 0.0j,))


def harmonic_oscillator() -> HarmonicOscillatorModel:
    return HarmonicOscillatorModel()


# ---------------------------------------------------------------------------
# finite 2x2 block

@dataclass(frozen=True)
class Block2x2:
    """y' = diag(-lam1, -lam2) y + b u, scalar u."""

    lam1: float
    lam2: float
    b: tuple

    def __post_init__(self):
        if not (0.0 < self.lam1 < self.lam2):
            raise ValueError("need 0 < lam1 < lam2")
        b1, b2 = self.b
        if b1 * b2 == 0.0:
            raise DegenerateB("need b1 * b2 != 0")
        object.__setattr__(self, "b", (float(b1), float(b2)))


def block_2x2(lam1: float, lam2: float, b) -> Block2x2:
    return Block2x2(float(lam1), float(lam2), tuple(b))
