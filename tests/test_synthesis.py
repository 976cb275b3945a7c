"""Moment-method synthesis: residuals, linearity, Jordan chains, 2x2 block."""

import dataclasses
import math
import random
import sys

import mpmath as mp
import numpy as np
import pytest
from mpmath import libmp

from nullcontrol import (
    PiecewiseConstant,
    academic_lf,
    block_2x2,
    cascade_boundary_q,
    cascade_internal_q,
    gramian_control_2x2,
    pointwise_heat,
    synthesize,
    two_diffusion_boundary,
    two_diffusion_pointwise,
    verify_moments,
)
from nullcontrol import biortho_time, synthesis
from nullcontrol.errors import (
    DegenerateFamily,
    NumericalError,
    SynthesisUnsupported,
    UnobservableMode,
    ValidationError,
    ZeroMuUnsupported,
)
from nullcontrol.models import ParabolicModel, PointwiseHeatModel, SpectralMode
from nullcontrol.observations import Scalar
from nullcontrol.precision import MAX_SPREAD_BITS, to_complex, to_mp
from tests import sampling_reference
from tests.exponential_reference import reference_family

PI2 = math.pi**2
X0 = math.sqrt(2.0) - 1.0


def _null_coupling_q(omega=(0.5, 0.9), nzero=3):
    """Piecewise-constant q with the first nzero coupling integrals zero.

    Support straddles omega (pieces on both sides) so the partial
    integrals I_{1,k} stay nonzero: with support on one side only,
    I_k = 0 would force I_{1,k} = 0 and kill approximate controllability.
    """
    cuts = [0.0, 0.1, 0.2, 0.3, 0.4, 0.95, 1.0]
    segs = [(cuts[i], cuts[i + 1]) for i in range(4)] + [(0.95, 1.0)]
    A = np.zeros((nzero, len(segs)))
    for k in range(1, nzero + 1):
        for j, (lo, hi) in enumerate(segs):
            A[k - 1, j] = (hi - lo) - (math.sin(2 * k * math.pi * hi)
                                       - math.sin(2 * k * math.pi * lo)) / (2 * k * math.pi)
    _, _, vt = np.linalg.svd(A)
    v = vt[-1] + vt[-2]
    q = PiecewiseConstant(tuple((lo, hi, float(v[j])) for j, (lo, hi) in enumerate(segs)))
    return q, omega


class TestMomentRhs:
    def test_basic_value(self):
        mode = pointwise_heat(X0).modes(1)[0]
        got = to_complex(synthesis._moment_rhs_mp(mode, to_mp(1.0), 1))
        assert got == pytest.approx(-math.exp(-PI2), rel=1e-12)
        assert -math.exp(-PI2) == pytest.approx(-5.172e-5, abs=5e-8)

    def test_zero_initial_coefficient(self):
        mode = pointwise_heat(X0, y0_rule=lambda k, i: 0.0).modes(1)[0]
        assert synthesis._moment_rhs_mp(mode, to_mp(1.0), 1) == 0.0


class TestSynthesizeSimple:
    def test_heat_moment_residuals(self):
        model = pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k)
        plan = synthesize(model, 0.4, 10)
        report = verify_moments(plan)
        assert report.max_abs <= 1e-8
        assert report.tail_bound <= 1e-15
        assert math.isfinite(plan.total_norm)

    def test_single_mode_plan(self):
        model = pointwise_heat(X0, y0_rule=lambda k, i: 1.0 if k == 1 else 0.0)
        plan = synthesize(model, 0.5, 1)
        obs = model.modes(1)[0].obs[0]
        want = -math.exp(-PI2 * 0.5) / obs.norm() ** 2
        assert plan.terms[0].coeff.real == pytest.approx(want, rel=1e-12)

    def test_divides_by_the_paired_norm_squared(self):
        # the benchmark's seed-4 heat N=40 verify job: b_3 = -1.1887000399839316
        # squares to 1.4130077850578004 under pow (norm() ** 2) and to
        # 1.4130077850578007 as the product Scalar.inner takes, the pairing
        # verify_moments uses; dividing by norm() ** 2 left the one-ulp gap
        # as a -5.8e-32 mode-3 residual
        model = pointwise_heat(0.4392536293781675, y0_rule=lambda k, i: 1.0)
        obs = model.modes(3)[-1].obs[0]
        assert obs.value == -1.1887000399839316
        assert obs.norm() ** 2 != obs.inner(obs).real
        report = verify_moments(synthesize(model, 0.4, 40))
        assert abs(report.residuals[(3, 1)]) < 1e-50
        assert report.max_abs < 1e-50

    def test_unobservable_mode_rejected(self):
        with pytest.raises(UnobservableMode):
            synthesize(pointwise_heat(0.5), 0.4, 4)

    def test_linearity_in_initial_data(self):
        m1 = pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k)
        m2 = pointwise_heat(X0, y0_rule=lambda k, i: float(k))
        m12 = pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k + float(k))
        p1 = synthesize(m1, 0.4, 6)
        p2 = synthesize(m2, 0.4, 6)
        p12 = synthesize(m12, 0.4, 6)
        c1 = np.array([t.coeff for t in p1.terms])
        c2 = np.array([t.coeff for t in p2.terms])
        c12 = np.array([t.coeff for t in p12.terms])
        np.testing.assert_allclose(c12, c1 + c2, rtol=1e-12)

    def test_time_rescaling_of_total_norm(self):
        # (T, lam) -> (sT, lam/s) scales ||u|| by s^{-1/2}
        class Scaled(pointwise_heat(X0).__class__):
            def __init__(self, s):
                super().__init__(X0)
                self.s = s

            def _mode(self, k):
                mode = super()._mode(k)
                object.__setattr__(mode, "lam", mode.lam / self.s)
                object.__setattr__(mode, "lam_mp", mode.lam_mp / self.s)
                return mode

        s = 3.0
        base = synthesize(pointwise_heat(X0), 0.4, 5)
        scaled = synthesize(Scaled(s), 0.4 * s, 5)
        assert scaled.total_norm == pytest.approx(base.total_norm / math.sqrt(s), rel=1e-10)

    def test_verification_beyond_plan_reports_leakage(self):
        model = pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k)
        plan = synthesize(model, 0.4, 6)
        report = verify_moments(plan, N_check=8)
        assert (7, 1) in report.leakage and (8, 1) in report.leakage
        assert report.max_abs <= 1e-8  # leakage not counted against the plan

    def test_tail_bound_ignores_caller_precision(self):
        plan = synthesize(pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k), 0.4, 8)
        bounds = []
        for dps in (15, 80):
            with mp.workdps(dps):
                bounds.append(synthesis._tail_bound(plan.model, plan.T, plan.N))
        assert bounds[0] > 0
        assert bounds[0] == bounds[1] == plan.tail_bound

    @pytest.mark.parametrize("y0", ["one", "reciprocal", "reciprocal_sq", "odd_modes"])
    @pytest.mark.parametrize("name", ["heat", "academic", "cascade", "two_diffusion"])
    def test_tail_bound_stop_matches_full_sum(self, name, y0):
        # the early stop leaves every bit of the sum over all 50 modes; a
        # zero term (odd_modes) must not stop it
        rule = {"one": lambda k, i: 1.0, "reciprocal": lambda k, i: 1.0 / k,
                "reciprocal_sq": lambda k, i: 1.0 / k**2,
                "odd_modes": lambda k, i: float(k % 2)}[y0]
        model = {
            "heat": lambda: pointwise_heat(X0, y0_rule=rule),
            "academic": lambda: academic_lf(0.2, y0_rule=rule),
            "cascade": lambda: cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),)),
                                                  y0_rule=rule),
            "two_diffusion": lambda: two_diffusion_boundary(2.0, y0_rule=rule),
        }[name]()
        synthesis._tail_bound(model, mp.mpf(0.4), 4)
        assert len(model._modes) < 4 + 50   # it stopped early
        for N in (4, 8, 12, 20):
            for T in (0.05, 0.4, 2.0):
                T_mp = mp.mpf(T)
                with mp.workdps(60):
                    full = mp.mpf(0)
                    for mode in model.modes(N + 50)[N:]:
                        full += mp.exp(-mode.lam_mp.real * T_mp) \
                            * sum(abs(to_mp(c)) for c in mode.y0)
                assert synthesis._tail_bound(model, T_mp, N) == float(full), (N, T)

    def test_zero_initial_data_zero_plan(self):
        model = pointwise_heat(X0, y0_rule=lambda k, i: 0.0)
        plan = synthesize(model, 0.4, 5)
        assert plan.total_norm == pytest.approx(0.0, abs=1e-30)
        report = verify_moments(plan)
        assert report.max_abs == pytest.approx(0.0, abs=1e-30)


_CALLER_DPS_MODELS = [
    (lambda: pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k), 0.4, 6),
    (lambda: academic_lf(0.2, y0_rule=lambda k, i: 1.0), 0.5, 4),
    (lambda: cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),))), 0.5, 3),
    (lambda: cascade_internal_q(*_null_coupling_q()), 0.5, 3),
    (lambda: two_diffusion_boundary(3.7), 0.5, 6),
    (lambda: two_diffusion_pointwise(3.7, X0), 0.5, 6),
]


class TestCallerPrecision:
    @pytest.mark.parametrize("make,T,N", _CALLER_DPS_MODELS,
                             ids=["heat", "academic", "cascade_boundary", "cascade_internal",
                                  "two_diffusion_boundary", "two_diffusion_pointwise"])
    def test_plan_independent_of_dps_at_mode_build(self, make, T, N):
        plans = []
        for dps in (15, 40):
            model = make()
            with mp.workdps(dps):
                model.modes(N)
            plans.append(synthesize(model, T, N))
        lo, hi = plans
        assert lo.total_norm == hi.total_norm
        np.testing.assert_array_equal(lo.per_mode_norm, hi.per_mode_norm)
        assert [t.coeff for t in lo.terms] == [t.coeff for t in hi.terms]
        assert [repr(t.coeff_mp) for t in lo.terms] == [repr(t.coeff_mp) for t in hi.terms]


class TestSynthesizeMultiple:
    def test_null_coupling_fixture_residuals(self):
        q, omega = _null_coupling_q()
        model = cascade_internal_q(q, omega)
        modes = model.modes(3)
        assert all(m.kind == "multiple" for m in modes)
        plan = synthesize(model, 0.5, 3)
        report = verify_moments(plan)
        assert report.max_abs <= 1e-7

    def test_reduces_to_simple_for_rank_one(self):
        # the heat modes relabelled as rank-one multiple eigenvalues take the
        # decoupled construction, which must agree with the simple one
        class RankOne(PointwiseHeatModel):
            def _mode(self, k):
                return dataclasses.replace(super()._mode(k), kind="multiple")

        y0 = lambda k, i: 1.0 / k
        p_simple = synthesize(pointwise_heat(X0, y0_rule=y0), 0.4, 6)
        p_multi = synthesize(RankOne(X0, y0_rule=y0), 0.4, 6)
        assert [t.label for t in p_multi.terms] == [(k, 0) for k in range(1, 7)]
        np.testing.assert_allclose(p_multi.per_mode_norm, p_simple.per_mode_norm,
                                   rtol=1e-12)
        eff_s = np.array([t.coeff * t.direction.value for t in p_simple.terms])
        eff_m = np.array([t.coeff * t.direction.value for t in p_multi.terms])
        np.testing.assert_allclose(eff_m, eff_s, rtol=1e-12)

    def test_dependent_observations_rejected(self):
        class Dependent(ParabolicModel):
            observation_available = True

            def _mode(self, k):
                return SpectralMode(k, complex(k * k * PI2), mp.mpf(k) ** 2 * mp.pi**2,
                                    "multiple", (Scalar(1.0), Scalar(1.0)),
                                    (1.0, 1.0), r=2)

        with pytest.raises(DegenerateFamily):
            synthesize(Dependent(), 0.5, 2)


class _ZeroMu(PointwiseHeatModel):
    """Heat modes flagged as Jordan chains without a coupling."""

    def _mode(self, k):
        return dataclasses.replace(super()._mode(k), kind="jordan", mu=0.0, gamma=1.0)


class TestSynthesizeDispatch:
    @staticmethod
    def _layout(plan):
        return [(t.basis_index, t.label) for t in plan.terms]

    @staticmethod
    def _plain(span):
        """Whether every basis row is an exponential."""
        return all(d is None for _, d in span.basis())

    def test_simple_modes_keep_the_plain_span(self):
        plan = synthesize(pointwise_heat(X0), 0.4, 4)
        assert self._plain(plan.family.span)
        assert self._layout(plan) == [(i, (i + 1, 1)) for i in range(4)]

    def test_jordan_modes_double_the_span(self):
        model = cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),)))
        plan = synthesize(model, 0.5, 3)
        # every rate listed twice: a Jordan pair (d = 0) per mode
        assert [d for _, d in plan.family.span.basis()] == [None, 0] * 3
        assert self._layout(plan) == [(2 * i + j - 1, (i + 1, j))
                                      for i in range(3) for j in (1, 2)]

    def test_multiple_modes_take_the_decoupled_term(self):
        q, omega = _null_coupling_q()
        plan = synthesize(cascade_internal_q(q, omega), 0.5, 3)
        assert self._plain(plan.family.span)
        assert self._layout(plan) == [(i, (i + 1, 0)) for i in range(3)]

    @pytest.mark.parametrize("model,error", [
        (pointwise_heat(0.5), UnobservableMode),
        (_ZeroMu(X0), ZeroMuUnsupported),
        # q outside omega: Jordan chains whose two observations are not
        # proportional
        (cascade_internal_q(PiecewiseConstant(((0.6, 0.9, 1.0),)), (0.1, 0.4)),
         SynthesisUnsupported),
    ])
    def test_refusals_precede_the_dual_solve(self, monkeypatch, model, error):
        def no_solve(*args, **kwargs):
            raise AssertionError("dual family built for a refused model")

        monkeypatch.setattr(synthesis, "build_biortho", no_solve)
        with pytest.raises(error):
            synthesize(model, 0.4, 4)


class TestSynthesizeJordan:
    def test_cascade_boundary_generalized_residuals(self):
        model = cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),)),
                                   y0_rule=lambda k, i: 1.0 / k if i == 1 else 1.0 / k**2)
        plan = synthesize(model, 0.5, 8)
        report = verify_moments(plan)
        assert report.max_abs <= 1e-6

    def test_single_jordan_mode_coefficients(self):
        # y0 = phi_{1,1}: alpha = -e^{-lam T}, beta = -e^{-lam T}(gamma/mu + T)
        model = cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),)),
                                   y0_rule=lambda k, i: 1.0 if i == 1 else 0.0)
        T = 0.5
        plan = synthesize(model, T, 1)
        mode = model.modes(1)[0]
        lam, mu, gamma = mode.lam.real, mode.mu.real, mode.gamma.real
        nsq = mode.obs[0].norm() ** 2
        alpha = -math.exp(-lam * T)
        beta = (gamma * alpha - (-math.exp(-lam * T)) * (0.0 - T * mu * 1.0)) / mu
        assert plan.terms[0].coeff.real == pytest.approx(alpha / nsq, rel=1e-12)
        assert plan.terms[1].coeff.real == pytest.approx(beta / nsq, rel=1e-12)
        report = verify_moments(plan)
        assert report.max_abs <= 1e-12

    def test_dichotomy_of_per_mode_norms(self):
        # growth threshold for Jordan chains sits at 2 rho, not rho:
        # T = 0.4 < 0.6 grows, T = 0.7 > 0.6 decays
        from tests.test_hautus import _SyntheticJordan

        # observations decay like e^{-rho lam}: k <= 10 keeps them above
        # the unobservability snap threshold
        model = _SyntheticJordan(0.3)
        lo = synthesize(model, 0.4, 10)
        hi = synthesize(model, 0.7, 10)
        ln_lo = [max(lo.ln_per_mode_norm[2 * i], lo.ln_per_mode_norm[2 * i + 1])
                 for i in range(4, 10)]
        ln_hi = [max(hi.ln_per_mode_norm[2 * i], hi.ln_per_mode_norm[2 * i + 1])
                 for i in range(4, 10)]
        assert all(b > a for a, b in zip(ln_lo, ln_lo[1:]))
        assert all(b < a for a, b in zip(ln_hi, ln_hi[1:]))


class TestAcademicDichotomy:
    @pytest.mark.parametrize("T,increasing", [(0.1, True), (0.4, False)])
    def test_per_pair_norm_growth_sign(self, T, increasing):
        model = academic_lf(0.2, y0_rule=lambda k, i: 1.0)
        plan = synthesize(model, T, 12)
        pair_ln = [max(plan.ln_per_mode_norm[2 * i], plan.ln_per_mode_norm[2 * i + 1])
                   for i in range(6)]
        diffs = np.diff(pair_ln[2:])
        assert np.all(diffs > 0) if increasing else np.all(diffs < 0)

    def test_moment_residuals_stay_small(self):
        model = academic_lf(0.2, y0_rule=lambda k, i: 1.0)
        plan = synthesize(model, 0.4, 12)
        report = verify_moments(plan)
        assert report.max_abs <= 1e-8


def _basis_value(rate, d, s, exp=mp.exp):
    """The basis function (rate, d) at s: e^{-r s}, s e^{-r s} (d = 0) or
    e^{-r s} (1 - e^{-d s}) / d."""
    e = exp(-rate * s)
    return e if d is None else s * e if not d else -mp.expm1(-d * s) / d * e


def _sample_per_term(plan, n):
    """Reference for sample_plan: a per-term loop that re-evaluates every
    basis exponential for every term and applies the coefficient after
    summing the dual row, all at the family's precision."""
    T = float(plan.T)
    ts = np.linspace(0.0, T, n)
    family = plan.family
    basis = family.span.basis()
    cols = np.empty((len(plan.terms), n))
    with mp.workdps(family.dps):
        s_grid = [mp.mpf(T) - mp.mpf(float(t)) for t in ts]
        for col, term in enumerate(plan.terms):
            row = family.mp_coeffs[term.basis_index, :]
            for i, s in enumerate(s_grid):
                acc = mp.mpf(0)
                for j, (rate, d) in enumerate(basis):
                    acc += row[j] * _basis_value(rate, d, s, lambda x: mp.e ** x)
                cols[col, i] = float((term.coeff_mp * acc).real)
    return ts, cols


def _sample_folded(plan, n):
    """Reference for sample_plan: the folded loop it replaced, which calls
    mp.exp for every basis function at every sample and mp.fdot for every
    term, all at the family's precision."""
    T = float(plan.T)
    ts = np.linspace(0.0, T, n)
    family = plan.family
    basis = family.span.basis()
    cols = np.empty((len(plan.terms), n))
    with mp.workdps(family.dps):
        rows = [[term.coeff_mp * c for c in family.mp_coeffs[term.basis_index, :]]
                for term in plan.terms]
        for i, t in enumerate(ts):
            s = mp.mpf(T) - mp.mpf(float(t))
            funcs = [_basis_value(r, d, s) for r, d in basis]
            for col, row in enumerate(rows):
                cols[col, i] = float(mp.fdot(row, funcs).real)
    return ts, cols


class _ComplexPair(ParabolicModel):
    """Complex rates k^2 + 0.3ik observed along a complex scalar."""

    observation_available = True

    def _mode(self, k):
        lam = complex(k * k, 0.3 * k)
        return SpectralMode(k, lam, mp.mpc(lam.real, lam.imag), "simple",
                            (Scalar(1.0 + 0.5j),), (1.0 / k,))


def _count_exp_calls(fn):
    """fn() and the number of mpf_exp / mpc_exp calls it made."""
    codes = {libmp.mpf_exp.__code__, libmp.mpc_exp.__code__}
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, count


_SAMPLE_PLANS = [
    # well-conditioned: cond ~1e8 at 60 digits
    (pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k), 0.4, 8),
    # Jordan span: t e^{-lam t} basis functions, two terms per mode
    (cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),)),
                        y0_rule=lambda k, i: 1.0 / k), 0.5, 3),
    # vector (SineSeries) directions: no scalar control
    (academic_lf(0.2, y0_rule=lambda k, i: 1.0), 0.5, 4),
]
_SAMPLE_IDS = ["heat", "cascade_jordan", "academic"]


class TestSamplePlan:
    @pytest.mark.parametrize("model,T,N", _SAMPLE_PLANS, ids=_SAMPLE_IDS)
    def test_matches_per_term_oracle(self, model, T, N):
        plan = synthesize(model, T, N)
        ts, cols, u = synthesis.sample_plan(plan, 101)
        ts_ref, ref = _sample_per_term(plan, 101)
        assert np.array_equal(ts, ts_ref)
        assert cols.shape == ref.shape == (len(plan.terms), 101)
        scale = np.max(np.abs(ref), axis=1)
        assert np.all(scale > 0)
        assert np.all(np.max(np.abs(cols - ref), axis=1) <= 1e-12 * scale)
        values = [getattr(t.direction, "value", None) for t in plan.terms]
        if any(v is None for v in values):
            assert u is None
        else:
            weights = np.array([float(np.real(v)) for v in values])
            np.testing.assert_array_equal(u, np.sum(cols * weights[:, None], axis=0))

    @pytest.mark.parametrize("model,T,N", _SAMPLE_PLANS + [(_ComplexPair(), 0.5, 4)],
                             ids=_SAMPLE_IDS + ["complex_pair"])
    def test_bit_exact_against_folded_loop(self, model, T, N):
        plan = synthesize(model, T, N)
        ts, cols, _ = synthesis.sample_plan(plan, 101)
        ts_ref, ref = _sample_folded(plan, 101)
        assert np.array_equal(ts, ts_ref)
        assert np.array_equal(cols, ref)

    @pytest.mark.parametrize("n", [2, 9, 2000])
    def test_heat_bit_exact_and_u_unchanged(self, n):
        plan = synthesize(pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k), 0.4, 8)
        ts, cols, u = synthesis.sample_plan(plan, n)
        _, ref = _sample_folded(plan, n)
        assert np.array_equal(cols, ref)
        weights = np.array([t.direction.value.real for t in plan.terms])
        assert np.array_equal(u, np.sum(ref * weights[:, None], axis=0))

    def test_complex_directions_give_no_scalar_control(self):
        # cols holds Re(coeff q); with complex direction values the Im*Im
        # part of Re(sum coeff q value) is missing, so no u is assembled
        plan = synthesize(_ComplexPair(), 0.5, 4)
        ts, cols, u = synthesis.sample_plan(plan, 21)
        assert u is None
        family = plan.family
        with mp.workdps(family.dps):
            direct = []
            for t in ts:
                s = plan.T - mp.mpf(float(t))
                total = mp.mpf(0)
                for term in plan.terms:
                    q = mp.fsum(c * mp.exp(-r * s) for c, (r, _) in
                                zip(family.mp_coeffs[term.basis_index, :],
                                    family.span.basis()))
                    total += term.coeff_mp * q * to_mp(term.direction.value)
                direct.append(float(total.real))
        real_only = np.sum(cols * np.array([t.direction.value.real
                                            for t in plan.terms])[:, None], axis=0)
        assert np.max(np.abs(real_only - direct)) > 0.01 * np.max(np.abs(direct))

    @pytest.mark.parametrize("model,T,N", _SAMPLE_PLANS[:2], ids=_SAMPLE_IDS[:2])
    def test_recurrence_drift_below_one_ulp(self, model, T, N):
        # every basis value of the integer recurrence stays within 2^-prec
        # relative of s^p e^{-r s}, below one unit in the last place at the
        # family's precision
        plan = synthesize(model, T, N)
        with mp.workdps(plan.family.dps):
            prec = mp.mp.prec
        T_f = float(plan.T)
        ts = np.linspace(0.0, T_f, 2000)
        basis = plan.family.span.basis()
        with mp.workprec(prec + 64):
            tol = mp.ldexp(1, -prec)
            for t, f in zip(ts, _per_sample(synthesis._basis_samples(basis, T_f, ts, prec))):
                s = mp.mpf(T_f) - mp.mpf(float(t))
                # real spans: the integer form holds re_j 2^exp exactly
                assert not f.im
                values = [mp.ldexp(re, f.exp) for re in f.re]
                for v, (r, d) in zip(values, basis):
                    exact = _basis_value(r, d, s)
                    assert abs(v - exact) <= tol * abs(exact)

    def test_exponentials_per_distinct_step(self):
        plan = synthesize(pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k), 0.4, 8)
        (ts, _, _), count = _count_exp_calls(lambda: synthesis.sample_plan(plan, 2000))
        steps = len(np.unique(np.diff(ts)))
        assert count <= plan.family.size * (1 + steps)


    def test_exponentials_per_span_rate(self):
        # the closed forms read one table e^{-r_j T} per span: the dual solve,
        # the plan and its moment check take O(n) exponentials, not O(n^2)
        def synthesize_and_verify():
            plan = synthesize(pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k), 0.4, 40)
            verify_moments(plan)
            return plan

        plan, count = _count_exp_calls(synthesize_and_verify)
        assert count <= 6 * plan.family.size


_Y0 = {"one": lambda k, i: 1.0, "reciprocal": lambda k, i: 1.0 / k,
       "reciprocal_sq": lambda k, i: 1.0 / k**2}


def _moments_synthesize_plans(seed):
    """The four synthesize jobs of the benchmark's moments workload, with
    x0, q and y0 drawn from ``seed`` over the ranges the benchmark draws."""
    rng = random.Random(seed)

    def x0(n):
        # observations sin(k pi x0), k <= n, all away from zero
        while True:
            x = rng.uniform(0.2, 0.45)
            if min(abs(math.sin(k * math.pi * x)) for k in range(1, n + 1)) >= 0.05:
                return x

    y0 = _Y0[rng.choice(sorted(_Y0))]
    return [
        (pointwise_heat(x0(12), y0_rule=y0), 0.4, 12),
        (academic_lf(0.2, y0_rule=y0), 0.5, 8),
        (cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, rng.uniform(0.5, 2.0)),)),
                            y0_rule=y0), 0.5, 6),
        (pointwise_heat(x0(8), y0_rule=y0), 0.4, 8),
    ]


def _assert_samples_match_reference(plan, n):
    ts, cols, u = synthesis.sample_plan(plan, n)
    ts_ref, cols_ref, u_ref = sampling_reference.sample_plan(plan, n)
    assert np.array_equal(ts, ts_ref)
    assert cols.shape == cols_ref.shape == (len(plan.terms), n)
    assert np.array_equal(cols, cols_ref)
    assert (u is None and u_ref is None) or np.array_equal(u, u_ref)


def _per_sample(blocks):
    """The rows of ``synthesis._basis_samples``' blocks, one per sample, as
    ``sampling_reference.basis_samples`` yields them."""
    for f in blocks:
        for i, exp in enumerate(f.exp):
            yield sampling_reference.IntVector(
                f.re[i].tolist(), [] if f.im is None else f.im[i].tolist(), exp)


def _same_values(f, g):
    """Whether two samples' integer forms hold the same exact values."""
    e = min(f.exp, g.exp)
    return ([m << (f.exp - e) for m in f.re + f.im]
            == [m << (g.exp - e) for m in g.re + g.im])


class TestSamplingKernel:
    """The integer recurrence and the blocked object-matrix products of
    sample_plan against the libmp path they replaced
    (tests/sampling_reference.py), bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("job", range(4), ids=["heat-N12", "academic-N8", "cascade-N6",
                                                  "heat-N8"])
    def test_moments_synthesize_jobs(self, seed, job):
        model, T, N = _moments_synthesize_plans(seed)[job]
        _assert_samples_match_reference(synthesize(model, T, N), 2000)

    @pytest.mark.parametrize("n", [2, 9, 101, 2000])
    def test_complex_pair(self, n):
        plan = synthesize(_ComplexPair(), 0.5, 4)
        assert not plan.family.span.real
        _assert_samples_match_reference(plan, n)

    @pytest.mark.parametrize("n", [2, 9, 2000])
    def test_jordan_span(self, n):
        model = cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.3),)),
                                   y0_rule=lambda k, i: 1.0 / k)
        plan = synthesize(model, 0.5, 4)
        assert any(d == 0 for _, d in plan.family.span.basis())
        _assert_samples_match_reference(plan, n)

    @pytest.mark.parametrize("n", [2, 9, 2000])
    def test_paired_span_above_1000_bits(self, monkeypatch, n):
        # carried 300 digits above its condition number, the academic
        # family with three close pairs takes 1036 bits: the final rounding
        # goes through 53 bits in integers before the int -> float step
        monkeypatch.setattr(biortho_time, "CARRY_DIGITS", 300)
        plan = synthesize(academic_lf(0.2, y0_rule=lambda k, i: 1.0), 0.5, 8)
        with mp.workdps(plan.family.dps):
            assert mp.mp.prec > 1000
        assert sum(1 for _, d in plan.family.span.basis() if d) == 3
        _assert_samples_match_reference(plan, n)

    @pytest.mark.parametrize("ts", [[0.0, 0.5, 1.0], [0.5, 0.0]], ids=["forward", "backward"])
    def test_spread_check_at_the_limit(self, ts):
        # two rates whose values at s = 1 spread about MAX_SPREAD_BITS +
        # offset bits, at the first sample (values from mpmath) or after a
        # step (rounded products, whose lowest set bit can lie above their
        # exponent): the kernel refuses exactly when the libmp path did,
        # with the same count, and otherwise yields the same values
        def run(samples):
            try:
                return list(samples)
            except NumericalError as exc:
                return str(exc)

        ts = np.array(ts)
        refused = set()
        for offset in range(-4, 5):
            for r1 in (3, 11):
                basis = [(mp.mpf(r1), None), (r1 + (MAX_SPREAD_BITS + offset) * mp.ln(2), None)]
                got = run(_per_sample(synthesis._basis_samples(basis, 1.0, ts, 200)))
                want = run(sampling_reference.basis_samples(basis, 1.0, ts, 200))
                refused.add(isinstance(want, str))
                if isinstance(want, str):
                    assert got == want
                else:
                    assert len(got) == len(want) and all(map(_same_values, got, want))
        assert refused == {True, False}

    def test_non_finite_factor_refused(self):
        # e^{inf d} is the first step's factor: the reference raises before
        # yielding a second sample, and the kernel, which yields blocks of
        # samples, takes the first sample alone and refuses the step
        basis = [(mp.mpf(1), None), (mp.inf, None)]
        ts = np.linspace(0.0, 1.0, 3)
        samples = sampling_reference.basis_samples(basis, 1.0, ts, 200)
        next(samples)
        with pytest.raises(ValueError, match="non-finite"):
            next(samples)
        assert len(list(_per_sample(synthesis._basis_samples(basis, 1.0, ts[:1], 200)))) == 1
        with pytest.raises(ValueError, match="non-finite"):
            list(synthesis._basis_samples(basis, 1.0, ts, 200))


def _solve_digit_plan(monkeypatch, model, T, N):
    """The plan with its dual family solved in the exponential basis at
    the gap digits and kept there (tests/exponential_reference.py), as
    before close pairs became divided-difference rows and the family was
    carried at ceil(log10 cond) + CARRY_DIGITS."""
    def exponential_family(span):
        jordan = any(d == 0 for _, d in span.basis())
        return reference_family(span.rates[::2] if jordan else span.rates, span.T, jordan,
                                carry=False)

    with monkeypatch.context() as m:
        m.setattr(synthesis, "build_biortho", exponential_family)
        return synthesize(model, T, N)


class TestCarriedDigits:
    """A family carried at ceil(log10 cond) + 30 digits of its basis's
    Gram, close pairs as divided differences, gives the same samples,
    scalar control and norm as the exponential-basis one kept at the gap
    digits."""

    @pytest.mark.parametrize("model,T,N", _SAMPLE_PLANS + [
        (pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k), 0.4, 12)],
        ids=_SAMPLE_IDS + ["heat-N12"])
    def test_samples_and_norm_bit_exact(self, monkeypatch, model, T, N):
        plan = synthesize(model, T, N)
        ref = _solve_digit_plan(monkeypatch, model, T, N)
        assert plan.family.dps < ref.family.dps
        ts, cols, u = synthesis.sample_plan(plan, 2000)
        ts_ref, cols_ref, u_ref = synthesis.sample_plan(ref, 2000)
        assert np.array_equal(ts, ts_ref)
        assert np.array_equal(cols, cols_ref)
        assert (u is None and u_ref is None) or np.array_equal(u, u_ref)
        assert plan.total_norm == ref.total_norm
        np.testing.assert_array_equal(plan.per_mode_norm, ref.per_mode_norm)

    @pytest.mark.parametrize("N", [8, 20])
    @pytest.mark.parametrize("y0", [lambda k, i: 1.0, lambda k, i: 1.0 / k],
                             ids=["one", "reciprocal"])
    def test_academic_norms_match_exponential_family(self, monkeypatch, N, y0):
        model = academic_lf(0.2, y0_rule=y0)
        plan, ref = synthesize(model, 0.5, N), _solve_digit_plan(monkeypatch, model, 0.5, N)
        assert plan.family.dps < ref.family.dps
        assert plan.total_norm == ref.total_norm
        np.testing.assert_array_equal(plan.per_mode_norm, ref.per_mode_norm)


def _pairwise_norm(plan):
    """The plan norm as the double sum over term pairs that _finalize used
    for every plan, at the family's digits."""
    Q = plan.family.mp_dual_gram
    with mp.workdps(plan.family.dps):
        total_sq = mp.mpf(0)
        for ti in plan.terms:
            for tj in plan.terms:
                total_sq += ti.coeff_mp * mp.conj(tj.coeff_mp) \
                    * Q[ti.basis_index, tj.basis_index] * to_mp(ti.direction.inner(tj.direction))
        return float(mp.sqrt(abs(total_sq)))


def _quadratic_form_norm(plan, dps):
    """sqrt(|w^T C conj(w)|), w_b = coeff * value by basis row, at ``dps``."""
    C = plan.family.mp_coeffs
    with mp.workdps(dps):
        w = [mp.mpf(0)] * plan.family.size
        for t in plan.terms:
            w[t.basis_index] += t.coeff_mp * to_mp(t.direction.value)
        n = len(w)
        total_sq = mp.fsum(w[i] * C[i, j] * mp.conj(w[j]) for i in range(n) for j in range(n))
        return float(mp.sqrt(abs(total_sq)))


class TestPlanNorm:
    """On real spans with scalar directions the plan norm is one exact
    quadratic form in C; other plans keep the sum over term pairs."""

    @pytest.mark.parametrize("model,T,N", [
        (pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k), 0.4, 8),
        (pointwise_heat(X0, y0_rule=lambda k, i: 1.0), 0.4, 40),
        (cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),)),
                            y0_rule=lambda k, i: 1.0 / k), 0.5, 16),
        (two_diffusion_boundary(2.0), 0.5, 24),
    ], ids=["heat-N8", "heat-N40", "cascade-jordan-N16", "two_diffusion-N24"])
    def test_quadratic_form(self, model, T, N):
        plan = synthesize(model, T, N)
        assert plan.family.span.real
        assert all(isinstance(t.direction, Scalar) for t in plan.terms)
        pairwise = _pairwise_norm(plan)
        assert abs(plan.total_norm - pairwise) <= 4 * math.ulp(pairwise)
        ref = _quadratic_form_norm(plan, 2 * plan.family.dps)
        assert abs(plan.total_norm - ref) <= math.ulp(ref)

    @pytest.mark.parametrize("model,T,N", [
        (academic_lf(0.2, y0_rule=lambda k, i: 1.0), 0.5, 8),
        (_ComplexPair(), 0.5, 4),
    ], ids=["academic_series", "complex_span"])
    def test_pairwise_sum_elsewhere(self, model, T, N):
        plan = synthesize(model, T, N)
        assert plan.total_norm == _pairwise_norm(plan)


class TestGramian2x2:
    def test_eta_values(self):
        res = gramian_control_2x2(block_2x2(1.0, 2.0, (1.0, 1.0)), (1.0, 1.0), 1.0)
        eta = lambda s: math.expm1(s) / s
        np.testing.assert_allclose(res.Q, [[eta(-2.0), eta(-3.0)], [eta(-3.0), eta(-4.0)]],
                                   rtol=1e-14)
        assert res.Q[0, 0] == pytest.approx(0.432332, abs=1e-6)
        assert res.Q[0, 1] == pytest.approx(0.316738, abs=1e-6)
        assert res.Q[1, 1] == pytest.approx(0.245421, abs=1e-6)

    def test_rk4_reaches_zero(self):
        res = gramian_control_2x2(block_2x2(1.0, 2.0, (1.0, 1.0)), (1.0, 1.0), 1.0)
        assert res.diagnostics["terminal_abs"] <= 1e-6 * math.sqrt(2.0)

    def test_sigma_bounds(self):
        for blk in [block_2x2(1.0, 2.0, (1.0, 1.0)),
                    block_2x2(1.0, 1.01, (1.0, 1.0)),
                    block_2x2(PI2, 2 * PI2, (1.0, -1.0))]:
            res = gramian_control_2x2(blk, (1.0, -0.5), 1.0)
            assert res.det_Q / res.tr_Q <= res.sigma <= 2 * res.det_Q / res.tr_Q + 1e-15
            assert res.sigma_bounds_ok

    def test_determinant_beyond_default_digits(self):
        # det Q = T^4 (lam2 - lam1)^2 / 12 + O(T^5) cancels about 80 digits
        # at T = 1e-40, more than DEFAULT_DPS holds
        res = gramian_control_2x2(block_2x2(1.0, 2.0, (1.0, 1.0)), (1.0, 1.0), 1e-40)
        assert res.det_Q == pytest.approx(1e-160 / 12, rel=1e-6)
        assert 0 < res.sigma and res.sigma_bounds_ok

    def test_log10_determinant_below_binary64(self):
        # det Q ~ T^4 / 12 = 1e-401 / 1.2 underflows binary64; its log10 does not
        res = gramian_control_2x2(block_2x2(1.0, 2.0, (1.0, 1.0)), (1.0, 1.0), 1e-100)
        assert res.det_Q == 0.0
        assert math.isfinite(res.log10_det_Q)
        # det/tr <= sigma <= 2 det/tr, up to the rounding of the logs
        ratio = res.log10_det_Q - math.log10(res.tr_Q)
        assert ratio - 1e-12 <= math.log10(res.sigma) <= math.log10(2.0) + ratio

    def test_log10_determinant_matches_float_view(self):
        res = gramian_control_2x2(block_2x2(1.0, 2.0, (1.0, 1.0)), (1.0, 1.0), 1.0)
        assert 10**res.log10_det_Q == pytest.approx(res.det_Q, rel=1e-12)

    @pytest.mark.parametrize("T,rk4_h", [(300.0, 1e-4), (1e300, 1e-4), (1.0, 1e-300)])
    def test_rk4_step_budget_checked_first(self, T, rk4_h, monkeypatch):
        monkeypatch.setattr(synthesis, "_eta", None)  # reaching the Gramian would fail
        with pytest.raises(ValidationError, match="RK4"):
            gramian_control_2x2(block_2x2(1.0, 2.0, (1.0, 1.0)), (1.0, 1.0), T, rk4_h=rk4_h)

    def test_stage_time_overrun_overflow_is_numerical(self):
        # the RK4 stage times overrun T by ~1e-12, and expm1(-(lam2 - lam1) s)
        # at s < 0 then overflows
        with pytest.raises(NumericalError, match="overflow"):
            gramian_control_2x2(block_2x2(1e-300, 1e300, (1.0, 1.0)), (1.0, 1.0), 3.0)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError, match="positive"):
            gramian_control_2x2(block_2x2(1.0, 2.0, (1.0, 1.0)), (1.0, 1.0), 0.0)

    @pytest.mark.parametrize("T", [1e-9, 1e-6, 1.0])
    def test_samples_match_high_precision_control(self, T):
        # u = -(b1 e^{-lam1 s} w0 + b2 e^{-lam2 s} w1), s = T - t, cancels
        # about 9.5 digits in binary64 at T = 1e-9
        lam1, lam2, b = 1.0, 2.0, (1.0, -0.5)
        y0 = (1.0, 1.0)
        res = gramian_control_2x2(block_2x2(lam1, lam2, b), y0, T, samples=200)
        with mp.workdps(80):
            Tm = mp.mpf(T)
            eta = lambda s: mp.expm1(s) / s
            q11 = Tm * b[0] ** 2 * eta(-2 * lam1 * Tm)
            q12 = Tm * b[0] * b[1] * eta(-(lam1 + lam2) * Tm)
            q22 = Tm * b[1] ** 2 * eta(-2 * lam2 * Tm)
            det = q11 * q22 - q12 * q12
            r1, r2 = mp.exp(-lam1 * Tm) * y0[0], mp.exp(-lam2 * Tm) * y0[1]
            w0, w1 = (q22 * r1 - q12 * r2) / det, (q11 * r2 - q12 * r1) / det
            ref = np.array([float(-(b[0] * mp.exp(-lam1 * (Tm - t)) * w0
                                    + b[1] * mp.exp(-lam2 * (Tm - t)) * w1))
                            for t in res.times])
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(res.samples - ref)) <= 1e-14 * scale

    def test_closed_form_norm_matches_grid(self):
        res = gramian_control_2x2(block_2x2(1.0, 2.0, (1.0, 1.0)), (1.0, 1.0), 1.0,
                                  samples=20001)
        assert res.diagnostics["grid_norm_sq"] == pytest.approx(res.control_norm_sq, rel=1e-6)
