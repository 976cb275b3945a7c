"""Quantified observability inequality and minimal-horizon estimates.

The inequality bounds ||y||^2 by C e^{2 T Re(lam)} times resolvent and
observation terms.  For a unit witness y at C = 1 it turns marginal at

    T = -ln(||(A* + lam) y||^2 / Re(lam)^2 + ||B* y||^2 / Re(lam)) / (2 Re(lam)),

``marginal_horizon``, clamped below at 0 and +inf when both norms vanish
(the unquantified kernel test already fails there).  Each profile takes it
mode by mode along one family of witnesses; the windowed tails of the
profiles are the T* estimate:

* observation: eigenfunction phi_k, (A* + lam) phi_k = 0, ||B* phi_k|| given;
* gap: two-mode kernel direction, ||(A* + lam_k) y|| = min_j |lam_k - lam_j|;
* Jordan: chain eigenvector, ||(A* + lam) y|| = |mu_k|, or |mu_k| / |gamma_k|
  for its gamma profile; B* y = 0 for these two;
* Grushin: cross-section eigenfunction v_n, ||B* v_n||^2 = 2 int_a^b v_n^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoJordanModes,
    NoProfileAvailable,
    ObservationUnavailable,
    StructuralHypothesisMissing,
)
from .report import DEFAULT_WINDOW, ProfileReport, make_profile
from . import spectral


@dataclass(frozen=True)
class TestVector:
    """A witness y: its shift lambda and the three norms entering the test."""

    __test__ = False   # a witness, not a pytest test class

    lam: complex
    norm_y: float
    norm_Ay: float   # ||(A* + lambda) y||
    norm_By: float   # ||B* y||_U

    def __post_init__(self):
        if not complex(self.lam).real > 0:
            raise ValueError("Re(lambda) must be positive")
        if not self.norm_y > 0:
            raise ValueError("norm_y must be positive")
        if self.norm_Ay < 0 or self.norm_By < 0:
            raise ValueError("norms must be nonnegative")


def inequality_ratio(tv: TestVector, T: float, C: float) -> float:
    """RHS/LHS of the quantified test; >= 1 means the inequality holds."""
    if T < 0 or C <= 0:
        raise ValueError("need T >= 0 and C > 0")
    re = complex(tv.lam).real
    rhs = C * math.exp(2.0 * T * re) * (tv.norm_Ay**2 / re**2 + tv.norm_By**2 / re)
    return rhs / tv.norm_y**2


def marginal_horizon(lam: complex, ln_Ay: float = -math.inf, ln_By: float = -math.inf) -> float:
    """The T >= 0 at which ``inequality_ratio`` of a unit witness equals 1
    at C = 1, from ln||(A* + lam) y|| and ln||B* y||: logs, so that norms
    beyond the binary64 range stay finite.  +inf when both norms vanish."""
    re = complex(lam).real
    ln_re = math.log(re)
    ln_rhs = np.logaddexp(2.0 * (ln_Ay - ln_re), 2.0 * ln_By - ln_re)
    return max(0.0, float(-ln_rhs / (2.0 * re)))


def tstar_observation_profile(model, K: int, window: int = DEFAULT_WINDOW) -> ProfileReport:
    """v_k = [-ln ||B* phi_k|| + ln(Re lam_k)/2] / Re lam_k, +inf where
    phi_k is unobservable."""
    if not model.observation_available:
        raise ObservationUnavailable(f"model {model.name} has no observation data")
    vals = np.empty(K)
    for i, mode in enumerate(model.modes(K)):
        obs = mode.obs[0]
        observed = obs is not None and not obs.unobservable
        vals[i] = marginal_horizon(mode.lam, ln_By=math.log(obs.norm()) if observed else -math.inf)
    return make_profile("tstar_observation", np.arange(1, K + 1), vals, window)


def tstar_gap_profile(model, K: int, window: int = DEFAULT_WINDOW) -> ProfileReport:
    """v_k = [-ln min_j |lam_k - lam_j| + ln(Re lam_k)] / Re lam_k; needs
    the model's two-mode kernel direction (automatic for scalar controls)."""
    if model.structural_pair_kernel is None:
        raise StructuralHypothesisMissing(
            f"model {model.name} declares no two-mode kernel rule")
    seq = model.spectrum(K)  # from_rule keeps spare entries past K
    bohr = spectral.bohr_profile(seq, K, window=window)
    # bohr's v_k is -ln(gap_k) / Re lam_k
    vals = np.array([marginal_horizon(r, ln_Ay=-v * r) for v, r in zip(bohr.values, seq.re)])
    return make_profile("tstar_gap", np.arange(1, K + 1), vals, window,
                        extras={"partner": bohr.extras["partner"]})


def tstar_jordan_profile(model, K: int, window: int = DEFAULT_WINDOW) -> ProfileReport:
    """v_k = [-ln |mu_k| + ln(Re lam_k)] / Re lam_k, and the gamma profile
    [ln(|gamma_k| / |mu_k|) + ln(Re lam_k)] / Re lam_k when gamma is known."""
    modes = [m for m in model.modes(K) if m.kind == "jordan"]
    if not modes:
        raise NoJordanModes(f"model {model.name} has no Jordan modes among the first {K}")
    ks, vals, skipped = [], [], []
    g_ks, g_vals = [], []
    for mode in modes:
        if mode.mu is None or mode.mu == 0:
            skipped.append(mode.k)
            continue
        ks.append(mode.k)
        vals.append(marginal_horizon(mode.lam, ln_Ay=math.log(abs(mode.mu))))
        if mode.gamma is not None and mode.gamma != 0:
            g_ks.append(mode.k)
            g_vals.append(marginal_horizon(
                mode.lam, ln_Ay=-math.log(abs(mode.gamma) / abs(mode.mu))))
    if not ks:
        raise NoJordanModes("all Jordan couplings vanish (modes " + str(skipped) + ")")
    extras = {"skipped_zero_mu": skipped}
    if g_ks:
        extras["gamma_profile"] = make_profile("tstar_jordan_gamma", g_ks, g_vals, window)
    return make_profile("tstar_jordan", ks, vals, window, extras)


@dataclass(frozen=True)
class TstarEstimate:
    lower: float
    profiles: dict   # name -> the ProfileReport behind that component

    @property
    def components(self) -> dict:
        return {name: p.tail_estimate for name, p in self.profiles.items()}


def tstar_estimate(model, K: int, window: int = DEFAULT_WINDOW) -> TstarEstimate:
    """Lower bound for the minimal horizon: max of the applicable profile
    tails; +inf as soon as some profile is persistently infinite.

    When localization and spectral condensation are both present this is
    reported as a lower bound only.
    """
    profiles: dict = {}
    if model.observation_available:
        profiles["observation"] = tstar_observation_profile(model, K, window)
    if model.structural_pair_kernel is not None:
        profiles["gap"] = tstar_gap_profile(model, K, window)
    if any(m.kind == "jordan" for m in model.modes(K)):
        try:
            profiles["jordan"] = tstar_jordan_profile(model, K, window)
        except NoJordanModes:
            pass
    if not profiles:
        raise NoProfileAvailable(f"model {model.name} supports no horizon profile")
    lower = max(p.tail_estimate for p in profiles.values())
    return TstarEstimate(float(lower), profiles)
