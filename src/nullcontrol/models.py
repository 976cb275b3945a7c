"""The concrete model gallery: spectra, observations, initial data.

Each model exposes the data the moment method consumes: eigenvalues with
multiplicity/Jordan structure, the observation values B* phi_{k,i} as
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
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .errors import DegenerateB, SupportOverlap, SynthesisUnsupported, UnobservableJordanBranch
from .errors import RationalRootWarning
from .generators import AcademicLfRule, TwoDiffusionRule
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
    """Base class: lazily memoized mode construction."""

    name = "model"
    scalar_control = False
    structural_pair_kernel: str | None = None
    observation_available = True

    def __init__(self, y0_rule=None):
        self.y0_rule = y0_rule or _default_y0
        self.metadata: dict = {}
        self._modes: list[SpectralMode] = []
        self._lock = threading.Lock()

    def _mode(self, k: int) -> SpectralMode:
        raise NotImplementedError

    def modes(self, K: int) -> list[SpectralMode]:
        with self._lock:
            while len(self._modes) < K:
                self._modes.append(self._mode(len(self._modes) + 1))
            return self._modes[:K]

    def spectrum(self, K: int) -> spectral.SpectralSequence:
        ms = self.modes(K)
        r = [m.r for m in ms]
        mus = [m.mu for m in ms]
        return spectral.normal_order([m.lam_mp for m in ms], r=r, jordan_mu=mus)

    def tmin_profile(self, K: int, window: int = DEFAULT_WINDOW,
                     cap: float | None = None) -> ProfileReport | None:
        return None


# ---------------------------------------------------------------------------
# pointwise-control heat equation

class PointwiseHeatModel(ParabolicModel):
    name = "pointwise_heat"
    scalar_control = True
    structural_pair_kernel = "scalar-control"

    def __init__(self, x0: float, y0_rule=None):
        if not 0.0 < x0 < 1.0:
            raise ValueError("x0 must lie in (0, 1)")
        super().__init__(y0_rule)
        self.x0 = float(x0)
        self.metadata["observation"] = "sqrt(2) sin(k pi x0)"

    def _obs_value(self, k: int) -> float:
        v = _SQRT2 * math.sin(k * _PI * self.x0)
        return 0.0 if abs(v) < VANISH_TOL else v

    def _mode(self, k):
        lam = k * k * _PI2
        v = self._obs_value(k)
        return SpectralMode(k, complex(lam), mp.mpf(k) ** 2 * mp.pi**2, "simple",
                            (Scalar(v),), (complex(self.y0_rule(k, 1)),))

    def tmin_profile(self, K, window=DEFAULT_WINDOW, cap=None):
        ks = np.arange(1, K + 1)
        vals = np.empty(K)
        for i, k in enumerate(ks):
            v = self._obs_value(int(k))
            lam = float(k * k * _PI2)
            vals[i] = math.inf if v == 0.0 else -math.log(abs(v)) / lam
        return make_profile("tmin_pointwise", ks, vals, window, cap)


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
    mm = np.arange(M + 1, M + 20001, dtype=float)
    gbound = (4.0 * V / _PI) / (mm - k)
    tail = float(np.sum((gbound / ((mm * mm - k * k) * _PI2)) ** 2))
    return np.array(ms), np.array(cs), solv, tail


class CascadeInternalModel(ParabolicModel):
    """Cascade pair with coupling q and internal control on omega = (a, b)."""

    name = "cascade_internal_q"
    scalar_control = False

    def __init__(self, q: PiecewiseConstant, omega, M: int = 200, y0_rule=None,
                 zero_tol: float = VANISH_TOL):
        a, b = float(omega[0]), float(omega[1])
        if not (0.0 <= a < b <= 1.0):
            raise ValueError("omega must be a subinterval of (0, 1)")
        for lo, hi in q.support():
            if lo < b and hi > a:
                raise SupportOverlap(f"support piece ({lo}, {hi}) meets omega ({a}, {b})")
        super().__init__(y0_rule)
        self.q = q
        self.omega = (a, b)
        self.M = int(M)
        self.zero_tol = float(zero_tol)
        self.metadata["convention"] = "phi_{k,2} = (phi_k, psi_k) un-normalized; mu_k is the raw coupling integral"

    def coupling(self, k: int) -> tuple[float, float]:
        return (self.q.integral_sin2(k), self.q.integral_sin2(k, 0.0, self.omega[0]))

    def _mode(self, k):
        lam = k * k * _PI2
        I_k, I1_k = self.coupling(k)
        ms, cs, solv, tail = _psi_coefficients(self.q, k, self.M)
        obs1 = SineSeries.single(k, 1.0, self.omega)
        obs2 = SineSeries(ms, cs, self.omega)
        tau_k = (obs2.inner(obs1) / obs1.inner(obs1)).real
        xi = obs2.plus(obs1.scaled(-tau_k))
        meta = {
            "I_k": I_k, "I1_k": I1_k, "tau_k": tau_k,
            "xi_norm": xi.norm(), "solvability_residual": solv,
            "psi_tail_bound": tail,
            "approx_controllable": abs(I_k) > self.zero_tol or abs(I1_k) > self.zero_tol,
        }
        y0 = (complex(self.y0_rule(k, 1)), complex(self.y0_rule(k, 2)))
        if abs(I_k) <= self.zero_tol:
            return SpectralMode(k, complex(lam), mp.mpf(k) ** 2 * mp.pi**2, "multiple",
                                (obs1, obs2), y0, r=2, meta=meta)
        return SpectralMode(k, complex(lam), mp.mpf(k) ** 2 * mp.pi**2, "jordan",
                            (obs1, obs2), y0, r=1, mu=complex(I_k), gamma=None, meta=meta)

    def tmin_profile(self, K, window=DEFAULT_WINDOW, cap=None):
        ks = np.arange(1, K + 1)
        vals = np.empty(K)
        for i, k in enumerate(ks):
            I_k, I1_k = self.coupling(int(k))
            lam = float(k * k * _PI2)
            cands = [-math.log(abs(v)) for v in (I_k, I1_k) if abs(v) > 0.0]
            vals[i] = min(cands) / lam if cands else math.inf
        return make_profile("tmin_cascade_internal", ks, vals, window, cap)


def cascade_internal_q(q: PiecewiseConstant, omega, M: int = 200, y0_rule=None) -> CascadeInternalModel:
    return CascadeInternalModel(q, omega, M, y0_rule)


class CascadeBoundaryModel(ParabolicModel):
    """Cascade pair with coupling q and a scalar boundary control."""

    name = "cascade_boundary_q"
    scalar_control = True
    structural_pair_kernel = "scalar-control"

    def __init__(self, q: PiecewiseConstant, M: int = 200, y0_rule=None):
        super().__init__(y0_rule)
        self.q = q
        self.M = int(M)
        self.metadata["convention"] = "obs_2 = psi_k'(0) from the truncated spectral expansion"

    def coupling(self, k: int) -> float:
        return self.q.integral_sin2(k)

    def _mode(self, k):
        lam = k * k * _PI2
        I_k = self.coupling(k)
        obs1_val = _SQRT2 * k * _PI
        if abs(obs1_val) < VANISH_TOL:
            raise UnobservableJordanBranch(f"B* phi_{k},1 vanished")
        ms, cs, solv, _ = _psi_coefficients(self.q, k, self.M)
        obs2_val = float(np.sum(cs * (_SQRT2 * ms * _PI)))
        V = self.q.total_variation()
        mm = np.arange(self.M + 1, self.M + 20001, dtype=float)
        deriv_tail = float(np.sum((4.0 * V / _PI) / (mm - k) * (_SQRT2 * mm * _PI)
                                  / ((mm * mm - k * k) * _PI2)))
        gamma = obs2_val / obs1_val
        meta = {"I_k": I_k, "solvability_residual": solv, "obs2_tail_bound": deriv_tail}
        y0 = (complex(self.y0_rule(k, 1)), complex(self.y0_rule(k, 2)))
        return SpectralMode(k, complex(lam), mp.mpf(k) ** 2 * mp.pi**2, "jordan",
                            (Scalar(obs1_val), Scalar(obs2_val)), y0,
                            r=1, mu=complex(I_k), gamma=complex(gamma), meta=meta)

    def tmin_profile(self, K, window=DEFAULT_WINDOW, cap=None):
        ks = np.arange(1, K + 1)
        vals = np.empty(K)
        for i, k in enumerate(ks):
            I_k = self.coupling(int(k))
            lam = float(k * k * _PI2)
            vals[i] = math.inf if I_k == 0.0 else -math.log(abs(I_k)) / lam
        return make_profile("tmin_cascade_boundary", ks, vals, window, cap)


def cascade_boundary_q(q: PiecewiseConstant, M: int = 200, y0_rule=None) -> CascadeBoundaryModel:
    return CascadeBoundaryModel(q, M, y0_rule)


# ---------------------------------------------------------------------------
# two diffusion speeds

def _check_rational_root(d: float, qmax: int = 50, tol: float = 1e-9) -> None:
    rd = math.sqrt(d)
    for q in range(1, qmax + 1):
        p = round(rd * q)
        if p > 0 and abs(rd - p / q) < tol:
            warnings.warn(
                f"sqrt(d) is within {tol:g} of {p}/{q}: eigenvalue collision risk",
                RationalRootWarning, stacklevel=3)
            return


class _TwoDiffusionBase(ParabolicModel):
    scalar_control = True
    structural_pair_kernel = "scalar-control"

    def __init__(self, d: float, y0_rule=None):
        if d <= 0 or abs(d - 1.0) <= 1e-9:
            raise ValueError("need d > 0 and d != 1")
        _check_rational_root(d)
        super().__init__(y0_rule)
        self.d = float(d)
        self.rule = TwoDiffusionRule(self.d, scale=_PI2)
        self._tags: list = []

    def _tagged(self, n: int):
        """Merged (value, family, underlying k), family 1 = slow diffusion."""
        if len(self._tags) < n:
            m = n + 8  # at most n per family enter the first n of the merge
            fam1 = [(k * k * _PI2, 1, k) for k in range(1, m + 1)]
            fam2 = [(self.d * k * k * _PI2, 2, k) for k in range(1, m + 1)]
            self._tags = sorted(fam1 + fam2)[:m]
        return self._tags[:n]

    def spectrum(self, K):
        return spectral.from_rule(self.rule, K)

    def _observation(self, fam: int, k: int):
        raise NotImplementedError

    def _mode(self, j):
        val, fam, k = self._tagged(j)[j - 1]
        lam_mp = (mp.mpf(1) if fam == 1 else mp.mpf(self.d)) * mp.mpf(k) ** 2 * mp.pi**2
        return SpectralMode(j, complex(val), lam_mp, "simple",
                            (self._observation(fam, k),),
                            (complex(self.y0_rule(j, 1)),),
                            meta={"family": fam, "underlying_k": k})


class TwoDiffusionBoundaryModel(_TwoDiffusionBase):
    name = "two_diffusion_boundary"

    def _observation(self, fam, k):
        lam_k = k * k * _PI2
        return Scalar(_SQRT2 / (self.d - 1.0) if fam == 1 else _SQRT2 * lam_k)

    def tmin_profile(self, K, window=DEFAULT_WINDOW, cap=None):
        return spectral.condensation_profile(self.spectrum(K), K, window=window, cap=cap)


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

    def tmin_profile(self, K, window=DEFAULT_WINDOW, cap=None, rel_tail_tol=1e-10):
        seq = self.spectrum(K)
        vals = np.empty(K)
        for j in range(1, K + 1):
            _, fam, k = self._tagged(j)[j - 1]
            s = _SQRT2 * math.sin(k * _PI * self.x0)
            lam = float(seq.entry(j).real)
            if abs(s) < VANISH_TOL:
                vals[j - 1] = math.inf
                continue
            vals[j - 1] = (-math.log(abs(s)) - spectral.log_E_prime(seq, j, rel_tail_tol)) / lam
        return make_profile("tmin_two_diffusion_pointwise", np.arange(1, K + 1), vals,
                            window, cap)


def two_diffusion_pointwise(d: float, x0: float, y0_rule=None) -> TwoDiffusionPointwiseModel:
    return TwoDiffusionPointwiseModel(d, x0, y0_rule)


# ---------------------------------------------------------------------------
# academic two-branch model with tunable spectral pairing

class AcademicLfModel(ParabolicModel):
    """Pair spectrum lam_k -+ e^{-tau lam_k}; the pair sum is unobservable."""

    name = "academic_lf"
    scalar_control = False  # U = L^2(0,1); the pair-kernel rule still holds
    structural_pair_kernel = "paired-branches"

    def __init__(self, tau: float, y0_rule=None):
        if tau <= 0:
            raise ValueError("tau must be positive")
        super().__init__(y0_rule)
        self.tau = float(tau)
        self.rule = AcademicLfRule(self.tau)

    def spectrum(self, K):
        return spectral.from_rule(self.rule, K)

    def _mode(self, j):
        k = (j + 1) // 2
        minus_branch = (j % 2 == 1)
        lam_mp = self.rule.mp_entries(j)[j - 1]
        sign = 1.0 if minus_branch else -1.0  # B* phi^- = +phi_k/sqrt2, B* phi^+ = -phi_k/sqrt2
        obs = SineSeries.single(k, sign / _SQRT2, (0.0, 1.0))
        return SpectralMode(j, complex(float(lam_mp.real), 0.0), lam_mp, "simple",
                            (obs,), (complex(self.y0_rule(j, 1)),),
                            meta={"underlying_k": k, "branch": "-" if minus_branch else "+"})

    def tmin_profile(self, K, window=DEFAULT_WINDOW, cap=None):
        ks = np.arange(1, K + 1)
        vals = np.full(K, self.tau)  # -ln f(lam_k) / lam_k is exactly tau
        return make_profile("tmin_academic", ks, vals, window, cap)


def academic_lf(tau: float, y0_rule=None) -> AcademicLfModel:
    return AcademicLfModel(tau, y0_rule)


# ---------------------------------------------------------------------------
# harmonic oscillator (diagnostics only)

class HarmonicOscillatorModel(ParabolicModel):
    """lam_k = 2k - 1: the reciprocal sum diverges, so the minimal-time
    machinery does not apply; kept for the hypothesis diagnostics."""

    name = "harmonic_oscillator"
    observation_available = False

    def __init__(self):
        super().__init__()
        self.metadata["caveat"] = (
            "the quantified test holds for every horizon while null "
            "controllability fails at every horizon; no synthesis is defined")

    def _mode(self, k):
        lam = 2 * k - 1
        return SpectralMode(k, complex(lam), mp.mpf(lam), "simple", (None,), (1.0 + 0.0j,))

    def require_synthesizable(self):
        raise SynthesisUnsupported("harmonic oscillator observations are unavailable")


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
