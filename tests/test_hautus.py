"""Quantified-test evaluation and minimal-horizon profiles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nullcontrol import (
    TestVector,
    academic_lf,
    bohr_profile,
    cascade_boundary_q,
    grushin_tstar_profile,
    harmonic_oscillator,
    inequality_ratio,
    pointwise_heat,
    solve_mode,
    tstar_estimate,
    tstar_gap_profile,
    tstar_jordan_profile,
    tstar_observation_profile,
    two_diffusion_boundary,
)
from nullcontrol.errors import NoJordanModes, ObservationUnavailable, StructuralHypothesisMissing
from nullcontrol.grushin import observation_integral
from nullcontrol.hautus import marginal_horizon
from nullcontrol.models import ParabolicModel, PiecewiseConstant, SpectralMode
from nullcontrol.observations import Scalar

import mpmath as mp

from tests.closed_forms import (
    horizon_gap,
    horizon_grushin,
    horizon_jordan,
    horizon_jordan_gamma,
    horizon_observation,
)

PI2 = math.pi**2


class TestInequalityRatio:
    def test_eigenvector_marginal_case(self):
        tv = TestVector(1.0, 1.0, 0.0, 1.0)
        assert inequality_ratio(tv, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_horizon_shift_scales_exponentially(self):
        tv = TestVector(1.0, 1.0, 0.5, 1.0)
        assert inequality_ratio(tv, 2.0, 1.0) / inequality_ratio(tv, 1.0, 1.0) \
            == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_grushin_mode_below_marginal_horizon(self):
        n = 25
        mode = solve_mode(n, 2e-4)
        nrm_by = math.sqrt(2 * observation_integral(mode, 0.3, 0.5))
        tv = TestVector(mode.lam, 1.0, 0.0, nrm_by)
        assert inequality_ratio(tv, 0.02, 1.0) < 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_monotone_in_horizon_and_constant(self, seed):
        rng = np.random.default_rng(seed)
        tv = TestVector(
            complex(rng.uniform(0.1, 50.0), rng.uniform(-10, 10)),
            rng.uniform(0.1, 10.0), rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
        T1, T2 = sorted(rng.uniform(0.0, 3.0, size=2))
        C1, C2 = sorted(rng.uniform(0.1, 5.0, size=2))
        r11 = inequality_ratio(tv, T1, C1)
        assert inequality_ratio(tv, T2, C1) >= r11
        assert inequality_ratio(tv, T1, C2) >= r11

    def test_validation(self):
        with pytest.raises(ValueError):
            TestVector(-1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            inequality_ratio(TestVector(1.0, 1.0, 0.0, 0.0), -1.0, 1.0)


class TestObservationProfile:
    def test_half_point_infinite_at_even_modes(self):
        prof = tstar_observation_profile(pointwise_heat(0.5), 8)
        assert np.all(np.isinf(prof.values[1::2]))
        assert prof.tail_estimate == math.inf

    def test_constant_observation_tail_vanishes(self):
        prof = tstar_observation_profile(academic_lf(0.2), 24)
        assert prof.tail_estimate <= 0.01

    def test_quadratic_irrational_tail(self):
        prof = tstar_observation_profile(pointwise_heat(math.sqrt(2.0) - 1.0), 200)
        assert prof.tail_estimate <= 0.05

    def test_unavailable_observation(self):
        with pytest.raises(ObservationUnavailable):
            tstar_observation_profile(harmonic_oscillator(), 10)

    def test_rescaling_invariance_of_tail(self):
        base = pointwise_heat(math.sqrt(2.0) - 1.0)
        scaled = pointwise_heat(math.sqrt(2.0) - 1.0)
        for m in scaled.modes(60):
            object.__setattr__(m, "obs", (m.obs[0].scaled(10.0),))
        a = tstar_observation_profile(base, 60).tail_estimate
        b = tstar_observation_profile(scaled, 60).tail_estimate
        assert abs(a - b) <= 1e-3


class TestGapProfile:
    def test_academic_pair_rate(self):
        prof = tstar_gap_profile(academic_lf(0.2), 24)
        assert prof.tail_estimate == pytest.approx(0.2, rel=0.1)

    def test_two_diffusion_matches_pairwise_index(self):
        from nullcontrol import bohr_profile

        model = two_diffusion_boundary(2.0)
        prof = tstar_gap_profile(model, 30)
        bohr = bohr_profile(model.spectrum(34), 30)
        # identical up to the ln(Re) correction and clamping
        assert abs(prof.tail_estimate - max(bohr.tail_estimate, 0.0)) < 0.02

    def test_scalar_control_model_has_rule(self):
        prof = tstar_gap_profile(pointwise_heat(0.3), 30)
        assert prof.tail_estimate <= 0.01

    def test_missing_structural_rule(self):
        q = PiecewiseConstant(((0.0, 0.2, 1.0),))
        from nullcontrol import cascade_internal_q

        model = cascade_internal_q(q, (0.5, 0.7))
        with pytest.raises(StructuralHypothesisMissing):
            tstar_gap_profile(model, 10)


class _SyntheticJordan(ParabolicModel):
    """Jordan chain saturating every bound at rate rho: coupling
    mu_k = lam e^{-rho lam}, observation sqrt(lam) e^{-rho lam}, gamma = 1.
    lam_k = k^2 keeps the coupling representable out to k = 40."""

    name = "synthetic_jordan"
    structural_pair_kernel = "scalar-control"

    def __init__(self, rho):
        super().__init__()
        self.rho = rho

    def _mode(self, k):
        lam = float(k * k)
        decay = math.exp(-self.rho * lam)
        obs1 = Scalar(math.sqrt(lam) * decay)
        # y0 = (1, 0): with y0_2 = gamma y0_1 the growth term cancels exactly
        return SpectralMode(k, complex(lam), mp.mpf(k) ** 2, "jordan",
                            (obs1, obs1), (1.0, 0.0), mu=lam * decay, gamma=1.0)


class TestJordanProfile:
    def test_cascade_boundary_tail_vanishes(self):
        model = cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),)))
        prof = tstar_jordan_profile(model, 40)
        assert prof.tail_estimate <= 0.02

    def test_synthetic_decay_rate_recovered(self):
        prof = tstar_jordan_profile(_SyntheticJordan(0.3), 40)
        assert prof.tail_estimate == pytest.approx(0.3, rel=0.05)
        assert "gamma_profile" in prof.extras

    def test_no_jordan_modes(self):
        with pytest.raises(NoJordanModes):
            tstar_jordan_profile(pointwise_heat(0.3), 10)

    def test_zero_mu_skipped(self):
        class ZeroMu(_SyntheticJordan):
            def _mode(self, k):
                mode = super()._mode(k)
                if k == 1:
                    object.__setattr__(mode, "mu", 0.0)
                return mode

        prof = tstar_jordan_profile(ZeroMu(0.3), 8)
        assert prof.extras["skipped_zero_mu"] == [1]
        assert 1 not in prof.ks.tolist()


ORACLE_MODELS = [
    pytest.param(lambda: pointwise_heat(0.3), id="pointwise_heat"),
    pytest.param(lambda: academic_lf(0.2), id="academic_lf"),
    pytest.param(lambda: two_diffusion_boundary(2.0), id="two_diffusion_boundary"),
    pytest.param(lambda: cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),))),
                 id="cascade_boundary_q"),
    pytest.param(lambda: _SyntheticJordan(0.3), id="synthetic_jordan"),
]


class TestMarginalHorizon:
    """Every profile against the horizon formula of its witness family,
    written out by hand (``tests.closed_forms``)."""

    K = 30

    @pytest.mark.parametrize("make", ORACLE_MODELS)
    def test_observation_profile_matches_closed_form(self, make):
        # pointwise_heat(0.3) is unobservable, so +inf, at k = 10, 20, 30
        model = make()
        want = [horizon_observation(m.lam.real, m.obs[0].norm())
                if not m.obs[0].unobservable else math.inf for m in model.modes(self.K)]
        got = tstar_observation_profile(model, self.K).values
        assert got.tolist() == want

    @pytest.mark.parametrize("make", ORACLE_MODELS[:4])   # the synthetic chain has no rule
    def test_gap_profile_within_4_ulps_of_closed_form_terms(self, make):
        # the profile rescales bohr's v_k by Re lam_k and back, so the two
        # agree to the rounding of v_k + ln(Re lam_k) / Re lam_k: ulps of
        # its terms, not of the sum, which cancels to 1/4 of them on the
        # heat spectrum
        model = make()
        seq = model.spectrum(self.K)
        bohr = bohr_profile(seq, self.K)
        want = np.array([horizon_gap(r, v) for v, r in zip(bohr.values, seq.re)])
        scale = np.abs(bohr.values) + np.log(seq.re[:self.K]) / seq.re[:self.K]
        got = tstar_gap_profile(model, self.K).values
        assert np.all(np.abs(got - want) <= 4 * np.spacing(scale))

    @pytest.mark.parametrize("make", ORACLE_MODELS[3:])
    def test_jordan_profiles_match_closed_forms(self, make):
        model = make()
        modes = [m for m in model.modes(self.K) if m.kind == "jordan"]
        prof = tstar_jordan_profile(model, self.K)
        assert prof.values.tolist() == [horizon_jordan(m.lam.real, m.mu) for m in modes]
        assert prof.extras["gamma_profile"].values.tolist() \
            == [horizon_jordan_gamma(m.lam.real, m.mu, m.gamma) for m in modes]

    def test_grushin_profile_matches_closed_form(self):
        prof = grushin_tstar_profile(0.3, 0.5, 20, 2e-4)
        want = [horizon_grushin(lam, integral)
                for lam, integral in zip(prof.extras["lambda"], prof.extras["integral"])]
        assert prof.values.tolist() == want

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.1, 50.0), st.floats(-10.0, 10.0),
           st.one_of(st.just(-math.inf), st.floats(-150.0, 150.0)),
           st.one_of(st.just(-math.inf), st.floats(-150.0, 150.0)))
    def test_inequality_is_marginal_at_the_horizon(self, re, im, ln_Ay, ln_By):
        lam = complex(re, im)
        T = marginal_horizon(lam, ln_Ay, ln_By)
        assume(0.0 < T < math.inf)
        tv = TestVector(lam, 1.0, math.exp(ln_Ay), math.exp(ln_By))
        assert inequality_ratio(tv, T, 1.0) == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_vanishing_witness_norms_give_inf(self):
        assert marginal_horizon(complex(2.0, 3.0), -math.inf, -math.inf) == math.inf
        # an unobservable mode: sin(10 pi x) vanishes at the point 0.3
        assert tstar_observation_profile(pointwise_heat(0.3), 10).values[9] == math.inf

    def test_norms_beyond_binary64_and_clamp(self):
        # a pair gap of e^{-800} underflows binary64 but not its log
        assert marginal_horizon(1.0, ln_Ay=-800.0) == 800.0
        assert marginal_horizon(1.0, ln_By=1.0) == 0.0


class TestTstarEstimate:
    def test_academic_recovers_pair_rate(self):
        est = tstar_estimate(academic_lf(0.2), 24)
        assert est.lower == pytest.approx(0.2, rel=0.1)
        assert est.components["gap"] == pytest.approx(est.lower)

    def test_keeps_the_profiles_behind_its_components(self):
        model = academic_lf(0.2)
        est = tstar_estimate(model, 24)
        np.testing.assert_array_equal(est.profiles["gap"].values,
                                      tstar_gap_profile(model, 24).values)
        np.testing.assert_array_equal(est.profiles["observation"].values,
                                      tstar_observation_profile(model, 24).values)

    def test_half_point_infinite(self):
        est = tstar_estimate(pointwise_heat(0.5), 12)
        assert est.lower == math.inf

    def test_two_diffusion_matches_condensation_tail(self):
        model = two_diffusion_boundary(2.0)
        est = tstar_estimate(model, 30)
        cond_tail = model.tmin_profile(30).tail_estimate
        assert abs(est.lower - max(cond_tail, 0.0)) < 0.02

    def test_estimate_below_closed_form_when_known(self):
        model = cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),)))
        est = tstar_estimate(model, 40)
        tmin_tail = model.tmin_profile(40).tail_estimate
        assert est.lower <= max(tmin_tail, 0.0) + 0.1 * abs(tmin_tail) + 0.02

    def test_estimate_below_closed_form_across_gallery(self):
        # the quantified-test estimate never exceeds the known threshold
        cases = [
            (pointwise_heat(math.sqrt(2.0) - 1.0), 120),
            (academic_lf(0.2), 24),
            (cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),))), 40),
            (two_diffusion_boundary(2.0), 30),
        ]
        for model, K in cases:
            est = tstar_estimate(model, K)
            tmin = model.tmin_profile(K)
            bound = max(tmin.tail_estimate, 0.0)
            assert est.lower <= bound + 0.1 * abs(bound) + 0.02, model.name
