"""Time-biorthogonal families: Gram closed forms, solves, oracles, growth."""

import math

import mpmath as mp
import numpy as np
import pytest

from nullcontrol import (
    ExponentialSpan,
    build_biortho,
    build_biortho_jordan,
    cauchy_inverse_oracle,
    exp_gram,
    norm_growth_fit,
    pair_with_exponential,
)
from nullcontrol.generators import AppendixBRule

PI2 = math.pi**2


class TestExpGram:
    def test_infinite_horizon_cauchy(self):
        G = exp_gram(ExponentialSpan((1.0, 2.0), None))
        np.testing.assert_allclose(G.real, [[0.5, 1 / 3], [1 / 3, 0.25]], rtol=1e-14)

    def test_single_rate_finite_horizon(self):
        G = exp_gram(ExponentialSpan((1.0,), 1.0))
        assert G[0, 0].real == pytest.approx((1 - math.exp(-2)) / 2, abs=1e-15)
        assert G[0, 0].real == pytest.approx(0.4323323583, abs=1e-9)

    def test_jordan_block_entries(self):
        G = exp_gram(ExponentialSpan((1.0,), 1.0, jordan=True))
        want_12 = (1 - 3 * math.exp(-2)) / 4  # int_0^1 t e^{-2t} dt
        assert G[0, 1].real == pytest.approx(want_12, abs=1e-15)
        assert G[0, 1].real == pytest.approx(0.1485, abs=5e-5)
        assert G[1, 0].real == pytest.approx(want_12, abs=1e-15)

    def test_rejects_duplicate_rates(self):
        with pytest.raises(ValueError):
            ExponentialSpan((1.0, 1.0), 1.0)

    def test_rejects_nonpositive_rate_or_horizon(self):
        with pytest.raises(ValueError):
            ExponentialSpan((0.0,), 1.0)
        with pytest.raises(ValueError):
            ExponentialSpan((1.0,), 0.0)


class TestBuildBiortho:
    def test_single_rate_infinite_horizon(self):
        fam = build_biortho(ExponentialSpan((1.0,), None))
        # q_1(t) = 2 e^{-t}, norm sqrt(2)
        assert fam.coeffs[0, 0].real == pytest.approx(2.0, abs=1e-12)
        assert fam.norms[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_two_rates_exact_inverse(self):
        fam = build_biortho(ExponentialSpan((1.0, 2.0), None))
        np.testing.assert_allclose(fam.coeffs.real, [[18.0, -24.0], [-24.0, 36.0]],
                                   rtol=1e-12)
        # biorthogonality by hand: int e^{-t} q_1 = 18/2 - 24/3 = 1
        assert 18 / 2 - 24 / 3 == 1 and 18 / 3 - 24 / 4 == 0

    def test_heat_rates_extended_precision_residual(self):
        rates = tuple(k * k * PI2 for k in range(1, 13))
        fam = build_biortho(ExponentialSpan(rates, 0.5), precision="extended")
        assert fam.residual <= 1e-8
        assert not fam.degraded

    def test_extended_precision_to_n20(self):
        rates = tuple(k * k * PI2 for k in range(1, 21))
        fam = build_biortho(ExponentialSpan(rates, 0.3), precision="extended")
        assert fam.residual <= 1e-8

    def test_cond_estimate_monotone_in_n(self):
        conds = []
        for n in (3, 5, 7, 9):
            fam = build_biortho(ExponentialSpan(tuple(float(k * k) for k in range(1, n + 1)), 1.0))
            conds.append(fam.cond_estimate)
        assert all(a < b for a, b in zip(conds, conds[1:]))

    def test_scaling_covariance(self):
        # (T, rates) -> (sT, rates/s) scales the Gram by s and norms by s^{-1/2}
        rates = (1.0, 3.0, 7.0)
        s = 4.0
        fam = build_biortho(ExponentialSpan(rates, 0.7))
        fam_s = build_biortho(ExponentialSpan(tuple(r / s for r in rates), 0.7 * s))
        np.testing.assert_allclose(fam_s.gram.real, s * fam.gram.real, rtol=1e-12)
        np.testing.assert_allclose(fam_s.norms, fam.norms / math.sqrt(s), rtol=1e-12)

    def test_standard_precision_path(self):
        fam = build_biortho(ExponentialSpan((1.0, 2.0, 5.0), 1.0), precision="standard")
        assert fam.residual <= 1e-10

    def test_standard_precision_heat_rates_to_n10(self):
        rates = tuple(k * k * PI2 for k in range(1, 11))
        fam = build_biortho(ExponentialSpan(rates, 0.5), precision="standard")
        assert fam.residual <= 1e-8 and not fam.degraded

    def test_standard_precision_degrades_at_n12(self):
        # binary64 representability floor of the dual coefficients is
        # ~1e-6 at N=12 (exactly rounded solution): flagged, not raised
        rates = tuple(k * k * PI2 for k in range(1, 13))
        fam = build_biortho(ExponentialSpan(rates, 0.5), precision="standard")
        assert fam.degraded
        assert fam.residual <= 5e-6


class TestJordanFamily:
    def test_single_rate_exact_inverse(self):
        fam = build_biortho_jordan(ExponentialSpan((1.0,), None, jordan=True))
        np.testing.assert_allclose(fam.gram.real, [[0.5, 0.25], [0.25, 0.25]], rtol=1e-14)
        # inverse of [[1/2, 1/4], [1/4, 1/4]] (det 1/16) is [[4, -4], [-4, 8]]
        np.testing.assert_allclose(fam.coeffs.real, [[4.0, -4.0], [-4.0, 8.0]], rtol=1e-12)
        # q_{1,1} = 4 e^{-t} - 4 t e^{-t}: <e^{-t}, q11> = 4/2 - 4/4 = 1,
        # <t e^{-t}, q11> = 4 * 1/4 - 4 * 2/8 = 0
        assert 4 / 2 - 4 / 4 == 1 and 4 * (1 / 4) - 4 * (2 / 8) == 0

    def test_heat_rates_doubled_basis_residual(self):
        rates = tuple(k * k * PI2 for k in range(1, 9))
        fam = build_biortho_jordan(ExponentialSpan(rates, 0.5, jordan=True))
        assert fam.residual <= 1e-6

    def test_labels_interleave(self):
        fam = build_biortho_jordan(ExponentialSpan((1.0, 2.0), 1.0, jordan=True))
        assert fam.labels() == ((1, 1), (1, 2), (2, 1), (2, 2))


class TestCauchyOracle:
    def test_two_rates_exact(self):
        np.testing.assert_allclose(cauchy_inverse_oracle([1, 2]),
                                   [[18.0, -24.0], [-24.0, 36.0]], rtol=0)

    def test_single_rate(self):
        np.testing.assert_allclose(cauchy_inverse_oracle([1]), [[2.0]], rtol=0)

    def test_matches_solver_at_squares(self):
        rates = [float(k * k) for k in range(1, 9)]
        oracle = cauchy_inverse_oracle(rates)
        fam = build_biortho(ExponentialSpan(tuple(rates), None), precision="extended")
        np.testing.assert_allclose(fam.coeffs.real, oracle, rtol=1e-10)


class TestPairings:
    def test_kronecker_column_at_span_rate(self):
        fam = build_biortho(ExponentialSpan((1.0, 2.0, 3.0), 1.0))
        col = pair_with_exponential(fam, 1.0, 0)
        np.testing.assert_allclose(col.real, [1.0, 0.0, 0.0], atol=1e-12)

    def test_exponential_moment_single_rate(self):
        fam = build_biortho(ExponentialSpan((1.0,), None))
        # q_1 = 2 e^{-t}: int e^{-3t} q_1 = 2/4
        assert pair_with_exponential(fam, 3.0, 0)[0].real == pytest.approx(0.5, abs=1e-12)
        # int t e^{-3t} q_1 = 2/16
        assert pair_with_exponential(fam, 3.0, 1)[0].real == pytest.approx(0.125, abs=1e-12)


class TestNormGrowth:
    def test_flat_norms_for_separated_rates(self):
        rates = tuple(k * k * PI2 for k in range(1, 13))
        fam = build_biortho(ExponentialSpan(rates, 0.5))
        rep = norm_growth_fit(fam, c_est=0.0)
        assert not rep.degenerate
        assert rep.slope <= 0.05

    def test_pair_decay_growth_rate(self):
        tau = 0.25
        rule = AppendixBRule(tau)
        rates = tuple(rule.mp_entries(20))
        fam = build_biortho(ExponentialSpan(rates, 1.0))
        rep = norm_growth_fit(fam, c_est=tau)
        assert 0.2 <= rep.slope <= 0.3
        assert rep.ok  # slope within c_est + slack

    def test_jordan_bound_on_pair_family(self):
        tau = 0.25
        rule = AppendixBRule(tau)
        rates = tuple(rule.mp_entries(12))
        fam = build_biortho_jordan(ExponentialSpan(rates, 1.0, jordan=True))
        rep = norm_growth_fit(fam, c_est=tau, window=12)
        assert rep.slope <= 4 * tau + 0.1

    def test_single_rate_degenerate(self):
        fam = build_biortho(ExponentialSpan((1.0,), 1.0))
        rep = norm_growth_fit(fam, c_est=0.0)
        assert rep.degenerate


class TestGapResolution:
    def test_min_log_rel_gap_escalates_precision(self):
        # pair gap e^{-900} sits far below any fixed working precision
        rule = AppendixBRule(1.0)
        rates = tuple(rule.mp_entries(60))
        span = ExponentialSpan(rates, 1.0)
        lg = span.min_log_rel_gap()
        # relative gap e^{-900} / (1 + 2*900)
        assert lg == pytest.approx(-900.0 - math.log(1 + 2 * 900.0), rel=1e-3)

    def test_auto_dps_saturates_for_unresolvable_gaps(self):
        from nullcontrol.precision import auto_dps_for_gaps

        assert auto_dps_for_gaps(float("-inf")) == 6000
        assert auto_dps_for_gaps(float("nan")) == 60
        assert auto_dps_for_gaps(0.0) == 60


class TestDpsPolicy:
    """Working digits chosen from the smallest relative rate gap and the
    system size; pinned at the values the package has always used."""

    @pytest.mark.parametrize("span,dps", [
        (ExponentialSpan(tuple(k * k * PI2 for k in range(1, 41)), 0.4), 115),
        (ExponentialSpan(tuple(k * k * PI2 for k in range(1, 17)), 0.5, jordan=True), 100),
        (ExponentialSpan(tuple(AppendixBRule(0.2).mp_entries(20)), 0.5), 99),
        (ExponentialSpan((1.0,), 1.0), 60),
    ])
    def test_auto_dps(self, span, dps):
        assert build_biortho(span).dps == dps
