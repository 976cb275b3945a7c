"""Quantified observability inequality and minimal-horizon estimates.

The inequality bounds ||y||^2 by C e^{2 T Re(lam)} times resolvent and
observation terms.  Evaluated along a model's eigenfunction family it
yields, mode by mode, the smallest horizon at which the bound becomes
marginal; the windowed tails of those per-mode horizons are the T*
estimate.  Profiles are clamped below at 0 (horizons are nonnegative) and
a single exactly-vanishing observation forces +inf: the unquantified
kernel test already fails there.
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

NEAR_ZERO_WARN = 1e-10


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


def _clamp(v: float) -> float:
    return v if math.isinf(v) else max(0.0, v)


def tstar_observation_profile(model, K: int, window: int = DEFAULT_WINDOW) -> ProfileReport:
    """Per-mode horizon from the eigenfunction witness:
    v_k = [-ln ||B* phi_k|| + ln(Re lam_k)/2] / Re lam_k."""
    if not model.observation_available:
        raise ObservationUnavailable(f"model {model.name} has no observation data")
    modes = model.modes(K)
    vals = np.empty(K)
    warn = []
    for i, mode in enumerate(modes):
        re = mode.lam.real
        obs = mode.obs[0]
        if obs is None or obs.unobservable:
            vals[i] = math.inf
            continue
        nrm = obs.norm()
        if nrm < NEAR_ZERO_WARN:
            warn.append(mode.k)
        vals[i] = _clamp((-math.log(nrm) + 0.5 * math.log(re)) / re)
    return make_profile("tstar_observation", np.arange(1, K + 1), vals, window,
                        extras={"near_zero_warnings": warn})


def tstar_gap_profile(model, K: int, window: int = DEFAULT_WINDOW) -> ProfileReport:
    """Per-mode horizon from pairwise eigenvalue separation:
    v_k = [-ln inf_j |lam_k - lam_j| + ln(Re lam_k)] / Re lam_k.

    Requires the model to provide a two-mode kernel direction (automatic
    for scalar controls)."""
    if model.structural_pair_kernel is None:
        raise StructuralHypothesisMissing(
            f"model {model.name} declares no two-mode kernel rule")
    seq = model.spectrum(K)  # from_rule keeps spare entries past K
    bohr = spectral.bohr_profile(seq, K, window=window)
    re = seq.re[:K]
    vals = np.array([_clamp(v + math.log(r) / r) for v, r in zip(bohr.values, re)])
    return make_profile("tstar_gap", np.arange(1, K + 1), vals, window,
                        extras={"partner": bohr.extras["partner"]})


def tstar_jordan_profile(model, K: int, window: int = DEFAULT_WINDOW) -> ProfileReport:
    """Per-mode horizon from the Jordan coupling:
    v_k = [-ln |mu_k| + ln(Re lam_k)] / Re lam_k, plus a secondary profile
    [ln(|gamma_k| / |mu_k|) + ln(Re lam_k)] / Re lam_k when gamma is known."""
    modes = [m for m in model.modes(K) if m.kind == "jordan"]
    if not modes:
        raise NoJordanModes(f"model {model.name} has no Jordan modes among the first {K}")
    ks, vals, skipped = [], [], []
    g_ks, g_vals = [], []
    for mode in modes:
        re = mode.lam.real
        if mode.mu is None or mode.mu == 0:
            skipped.append(mode.k)
            continue
        ks.append(mode.k)
        vals.append(_clamp((-math.log(abs(mode.mu)) + math.log(re)) / re))
        if mode.gamma is not None and mode.gamma != 0:
            g_ks.append(mode.k)
            g_vals.append(_clamp((math.log(abs(mode.gamma) / abs(mode.mu)) + math.log(re)) / re))
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
