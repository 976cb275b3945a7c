"""Moment-method synthesis: residuals, linearity, Jordan chains, 2x2 block."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from nullcontrol import (
    PiecewiseConstant,
    academic_lf,
    block_2x2,
    cascade_boundary_q,
    cascade_internal_q,
    gramian_control_2x2,
    moment_rhs,
    pointwise_heat,
    synthesize,
    synthesize_jordan,
    synthesize_multiple,
    synthesize_simple,
    terminal_projection,
    verify_moments,
)
from nullcontrol import synthesis
from nullcontrol.errors import (
    DegenerateFamily,
    SynthesisUnsupported,
    UnobservableMode,
    ZeroMuUnsupported,
)
from nullcontrol.models import PointwiseHeatModel

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
        model = pointwise_heat(X0)
        assert moment_rhs(model, 1.0, 1) == pytest.approx(-math.exp(-PI2), rel=1e-12)
        assert -math.exp(-PI2) == pytest.approx(-5.172e-5, abs=5e-8)

    def test_zero_initial_coefficient(self):
        model = pointwise_heat(X0, y0_rule=lambda k, i: 0.0)
        assert moment_rhs(model, 1.0, 1) == 0.0


class TestSynthesizeSimple:
    def test_heat_moment_residuals(self):
        model = pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k)
        plan = synthesize_simple(model, 0.4, 10)
        report = verify_moments(plan)
        assert report.max_abs <= 1e-8
        assert report.tail_bound <= 1e-15
        assert math.isfinite(plan.total_norm)

    def test_single_mode_plan(self):
        model = pointwise_heat(X0, y0_rule=lambda k, i: 1.0 if k == 1 else 0.0)
        plan = synthesize_simple(model, 0.5, 1)
        obs = model.modes(1)[0].obs[0]
        want = -math.exp(-PI2 * 0.5) / obs.norm() ** 2
        assert plan.terms[0].coeff.real == pytest.approx(want, rel=1e-12)

    def test_unobservable_mode_rejected(self):
        with pytest.raises(UnobservableMode):
            synthesize_simple(pointwise_heat(0.5), 0.4, 4)

    def test_linearity_in_initial_data(self):
        m1 = pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k)
        m2 = pointwise_heat(X0, y0_rule=lambda k, i: float(k))
        m12 = pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k + float(k))
        p1 = synthesize_simple(m1, 0.4, 6)
        p2 = synthesize_simple(m2, 0.4, 6)
        p12 = synthesize_simple(m12, 0.4, 6)
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
        base = synthesize_simple(pointwise_heat(X0), 0.4, 5)
        scaled = synthesize_simple(Scaled(s), 0.4 * s, 5)
        assert scaled.total_norm == pytest.approx(base.total_norm / math.sqrt(s), rel=1e-10)

    def test_verification_beyond_plan_reports_leakage(self):
        model = pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k)
        plan = synthesize_simple(model, 0.4, 6)
        report = verify_moments(plan, N_check=8)
        assert (7, 1) in report.leakage and (8, 1) in report.leakage
        assert report.max_abs <= 1e-8  # leakage not counted against the plan

    def test_terminal_projection_equals_residuals(self):
        model = pointwise_heat(X0, y0_rule=lambda k, i: 1.0 / k)
        plan = synthesize_simple(model, 0.4, 6)
        report = verify_moments(plan, N_check=8)
        proj = terminal_projection(plan, K=8)
        for key, val in report.residuals.items():
            assert proj[key] == val

    def test_zero_initial_data_zero_plan(self):
        model = pointwise_heat(X0, y0_rule=lambda k, i: 0.0)
        plan = synthesize_simple(model, 0.4, 5)
        assert plan.total_norm == pytest.approx(0.0, abs=1e-30)
        report = verify_moments(plan)
        assert report.max_abs == pytest.approx(0.0, abs=1e-30)


class TestSynthesizeMultiple:
    def test_null_coupling_fixture_residuals(self):
        q, omega = _null_coupling_q()
        model = cascade_internal_q(q, omega)
        modes = model.modes(3)
        assert all(m.kind == "multiple" for m in modes)
        plan = synthesize_multiple(model, 0.5, 3)
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
        from nullcontrol.models import ParabolicModel, SpectralMode
        from nullcontrol.observations import Scalar

        class Dependent(ParabolicModel):
            observation_available = True

            def _mode(self, k):
                return SpectralMode(k, complex(k * k * PI2), mp.mpf(k) ** 2 * mp.pi**2,
                                    "multiple", (Scalar(1.0), Scalar(1.0)),
                                    (1.0, 1.0), r=2)

        with pytest.raises(DegenerateFamily):
            synthesize_multiple(Dependent(), 0.5, 2)


class _ZeroMu(PointwiseHeatModel):
    """Heat modes flagged as Jordan chains without a coupling."""

    def _mode(self, k):
        return dataclasses.replace(super()._mode(k), kind="jordan", mu=0.0, gamma=1.0)


class TestSynthesizeDispatch:
    @staticmethod
    def _layout(plan):
        return [(t.basis_index, t.label) for t in plan.terms]

    def test_simple_modes_keep_the_plain_span(self):
        plan = synthesize(pointwise_heat(X0), 0.4, 4)
        assert not plan.family.span.jordan
        assert self._layout(plan) == [(i, (i + 1, 1)) for i in range(4)]

    def test_jordan_modes_double_the_span(self):
        model = cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),)))
        plan = synthesize(model, 0.5, 3)
        assert plan.family.span.jordan
        assert self._layout(plan) == [(2 * i + j - 1, (i + 1, j))
                                      for i in range(3) for j in (1, 2)]

    def test_multiple_modes_take_the_decoupled_term(self):
        q, omega = _null_coupling_q()
        plan = synthesize(cascade_internal_q(q, omega), 0.5, 3)
        assert not plan.family.span.jordan
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
        plan = synthesize_jordan(model, 0.5, 8)
        report = verify_moments(plan)
        assert report.max_abs <= 1e-6

    def test_single_jordan_mode_coefficients(self):
        # y0 = phi_{1,1}: alpha = -e^{-lam T}, beta = -e^{-lam T}(gamma/mu + T)
        model = cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),)),
                                   y0_rule=lambda k, i: 1.0 if i == 1 else 0.0)
        T = 0.5
        plan = synthesize_jordan(model, T, 1)
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
        lo = synthesize_jordan(model, 0.4, 10)
        hi = synthesize_jordan(model, 0.7, 10)
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
        plan = synthesize_simple(model, T, 12)
        pair_ln = [max(plan.ln_per_mode_norm[2 * i], plan.ln_per_mode_norm[2 * i + 1])
                   for i in range(6)]
        diffs = np.diff(pair_ln[2:])
        assert np.all(diffs > 0) if increasing else np.all(diffs < 0)

    def test_moment_residuals_stay_small(self):
        model = academic_lf(0.2, y0_rule=lambda k, i: 1.0)
        plan = synthesize_simple(model, 0.4, 12)
        report = verify_moments(plan)
        assert report.max_abs <= 1e-8


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

    def test_closed_form_norm_matches_grid(self):
        res = gramian_control_2x2(block_2x2(1.0, 2.0, (1.0, 1.0)), (1.0, 1.0), 1.0,
                                  samples=20001)
        assert res.diagnostics["grid_norm_sq"] == pytest.approx(res.control_norm_sq, rel=1e-6)
