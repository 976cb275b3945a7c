"""Time-biorthogonal families: Gram closed forms, solves, oracles, growth."""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from nullcontrol import (
    ExponentialSpan,
    build_biortho,
    cauchy_inverse_oracle,
)
from nullcontrol import biortho_time
from nullcontrol.biortho_time import (
    RESIDUAL_THRESHOLD, _pairing_mp, int_pow_exp, pair_with_exponential_mp,
)
from nullcontrol.cli import main
from nullcontrol.errors import IllConditioned, NumericalError
from nullcontrol.generators import AcademicLfRule, AppendixBRule
from nullcontrol.models import PiecewiseConstant, cascade_boundary_q
from nullcontrol.precision import DEFAULT_DPS, auto_dps_for_gaps, to_complex, to_mp, workdps

PI2 = math.pi**2


def _float_gram(span):
    """The span's Gram matrix at the default working digits, as complex128."""
    with workdps(DEFAULT_DPS):
        return np.array(_pairing_mp(span, None, True).tolist(), dtype=complex)


def _float_pairing(family, mu, a=0):
    """pair_with_exponential_mp as complex128."""
    return np.array([to_complex(v) for v in pair_with_exponential_mp(family, mu, a)])


class TestExpGram:
    def test_infinite_horizon_cauchy(self):
        G = _float_gram(ExponentialSpan((1.0, 2.0), None))
        np.testing.assert_allclose(G.real, [[0.5, 1 / 3], [1 / 3, 0.25]], rtol=1e-14)

    def test_single_rate_finite_horizon(self):
        G = _float_gram(ExponentialSpan((1.0,), 1.0))
        assert G[0, 0].real == pytest.approx((1 - math.exp(-2)) / 2, abs=1e-15)
        assert G[0, 0].real == pytest.approx(0.4323323583, abs=1e-9)

    def test_jordan_block_entries(self):
        G = _float_gram(ExponentialSpan((1.0,), 1.0, jordan=True))
        want_12 = (1 - 3 * math.exp(-2)) / 4  # int_0^1 t e^{-2t} dt
        assert G[0, 1].real == pytest.approx(want_12, abs=1e-15)
        assert G[0, 1].real == pytest.approx(0.1485, abs=5e-5)
        assert G[1, 0].real == pytest.approx(want_12, abs=1e-15)

    @pytest.mark.parametrize("span", [
        ExponentialSpan((1.0 + 1.0j, 2.0 - 0.5j, 3.0), 1.0),
        ExponentialSpan((1.0 + 2.0j, 0.5 + 0.1j), 0.7, jordan=True),
        ExponentialSpan((1.0 + 2.0j, 3.0 - 1.0j, 0.5), None),
    ], ids=["complex", "complex-jordan", "complex-infinite"])
    def test_hermitian_mirror_is_the_conjugated_closed_form(self, span):
        # the lower triangle is mirrored as conjugates: every entry still
        # equals the closed form with the left factor conjugated, to the bit
        with workdps(60):
            G, E = _pairing_mp(span, None, True), biortho_time._exp_table(span)
            for i, (ri, pi_) in enumerate(span.basis()):
                for j, (rj, pj) in enumerate(span.basis()):
                    assert G[i, j] == int_pow_exp(pi_ + pj, mp.conj(ri) + rj, span.T,
                                                  mp.conj(E[i]) * E[j]), (i, j)

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
        assert float(fam.mp_coeffs[0, 0]) == pytest.approx(2.0, abs=1e-12)
        assert fam.norms[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_two_rates_exact_inverse(self):
        fam = build_biortho(ExponentialSpan((1.0, 2.0), None))
        np.testing.assert_allclose(np.array(fam.mp_coeffs.tolist(), dtype=float), [[18.0, -24.0], [-24.0, 36.0]],
                                   rtol=1e-12)
        # biorthogonality by hand: int e^{-t} q_1 = 18/2 - 24/3 = 1
        assert 18 / 2 - 24 / 3 == 1 and 18 / 3 - 24 / 4 == 0

    def test_heat_rates_extended_precision_residual(self):
        rates = tuple(k * k * PI2 for k in range(1, 13))
        fam = build_biortho(ExponentialSpan(rates, 0.5))
        assert fam.residual <= 1e-8
        assert not fam.degraded

    def test_extended_precision_to_n20(self):
        rates = tuple(k * k * PI2 for k in range(1, 21))
        fam = build_biortho(ExponentialSpan(rates, 0.3))
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
        span = ExponentialSpan(rates, 0.7)
        span_s = ExponentialSpan(tuple(r / s for r in rates), 0.7 * s)
        fam, fam_s = build_biortho(span), build_biortho(span_s)
        np.testing.assert_allclose(_float_gram(span_s).real, s * _float_gram(span).real, rtol=1e-12)
        np.testing.assert_allclose(fam_s.norms, fam.norms / math.sqrt(s), rtol=1e-12)

    def test_rate_beyond_mpmath_exponent_range_is_numerical(self):
        # e^{-r T} with r = 2^(10^20) cannot be formed, not even as an underflow
        span = ExponentialSpan((mp.mpf(1), mp.ldexp(1, 10**20)), 1.0)
        with pytest.raises(NumericalError, match="out of range"):
            build_biortho(span)


class TestJordanFamily:
    def test_single_rate_exact_inverse(self):
        span = ExponentialSpan((1.0,), None, jordan=True)
        fam = build_biortho(span)
        np.testing.assert_allclose(_float_gram(span).real, [[0.5, 0.25], [0.25, 0.25]], rtol=1e-14)
        # inverse of [[1/2, 1/4], [1/4, 1/4]] (det 1/16) is [[4, -4], [-4, 8]]
        np.testing.assert_allclose(np.array(fam.mp_coeffs.tolist(), dtype=float), [[4.0, -4.0], [-4.0, 8.0]], rtol=1e-12)
        # q_{1,1} = 4 e^{-t} - 4 t e^{-t}: <e^{-t}, q11> = 4/2 - 4/4 = 1,
        # <t e^{-t}, q11> = 4 * 1/4 - 4 * 2/8 = 0
        assert 4 / 2 - 4 / 4 == 1 and 4 * (1 / 4) - 4 * (2 / 8) == 0

    def test_heat_rates_doubled_basis_residual(self):
        rates = tuple(k * k * PI2 for k in range(1, 9))
        fam = build_biortho(ExponentialSpan(rates, 0.5, jordan=True))
        assert fam.residual <= 1e-6

    def test_labels_interleave(self):
        fam = build_biortho(ExponentialSpan((1.0, 2.0), 1.0, jordan=True))
        assert fam.span.basis() == ((1, 0), (1, 1), (2, 0), (2, 1))


class TestDualGram:
    """mp_dual_gram is <q_i, q_j> = C G C^H at the family's digits, formed
    once by build_biortho and read by the plan's norm; G is the Gram formed
    at the solve digits, rounded to the family's.  On real spans G is the
    pairing M, so build_biortho keeps C itself (C M C^T = C): it matches
    the recomputed product up to the solve residual.  Complex spans keep
    the product."""

    @staticmethod
    def _product(fam):
        C = fam.mp_coeffs
        with workdps(_solve_dps(fam.span)):
            G = _pairing_mp(fam.span, None, True)
        with workdps(fam.dps):
            return C * G.apply(lambda x: +x) * C.transpose_conj()

    @pytest.mark.parametrize("span", [
        ExponentialSpan(tuple(k * k * PI2 for k in range(1, 9)), 0.5),
        ExponentialSpan((1.0, 2.0, 4.0), 1.0, jordan=True),
        ExponentialSpan(tuple(AcademicLfRule(0.2).mp_entries(20)), 0.5),
        ExponentialSpan(tuple(AppendixBRule(0.25).mp_entries(12)), 1.0, jordan=True),
    ], ids=["plain", "jordan", "academic_lf-N20", "appendixB-jordan"])
    def test_real_span_is_coeffs(self, span):
        fam = build_biortho(span)
        Q, want = fam.mp_dual_gram, self._product(fam)
        assert Q is fam.mp_coeffs
        with workdps(fam.dps):
            worst = max(abs(want[i, j] - Q[i, j]) / mp.sqrt(abs(Q[i, i] * Q[j, j]))
                        for i in range(fam.size) for j in range(fam.size))
        assert float(worst) <= 10 * fam.residual

    @pytest.mark.parametrize("jordan", [False, True], ids=["plain", "jordan"])
    def test_complex_span_is_product(self, jordan):
        fam = build_biortho(ExponentialSpan((1 + 1j, 2 - 0.5j, 3), 1.0, jordan=jordan))
        Q, want = fam.mp_dual_gram, self._product(fam)
        assert (Q.rows, Q.cols) == (fam.size, fam.size)
        for i in range(fam.size):
            for j in range(fam.size):
                assert Q[i, j] == want[i, j]


class TestStructuredSolve:
    """The O(n^2) displacement solve against the generic inverse of the
    pairing, at the family's digits (the squares span is also checked
    against the closed-form Cauchy inverse in TestCauchyOracle)."""

    @pytest.mark.parametrize("span", [
        ExponentialSpan(tuple(k * k * PI2 for k in range(1, 13)), 0.5),
        ExponentialSpan(tuple(k * k * PI2 for k in range(1, 9)), 0.5, jordan=True),
        ExponentialSpan(tuple(AppendixBRule(0.25).mp_entries(12)), 1.0, jordan=True),
        ExponentialSpan((1 + 1j, 2 - 0.5j, 3), 1.0),
        ExponentialSpan(tuple(float(k * k) for k in range(1, 9)), None),
    ], ids=["heat-N12", "heat-jordan-N8", "appendixB-jordan", "complex", "squares-inf"])
    def test_matches_generic_inverse(self, span):
        fam = build_biortho(span)
        assert fam.residual <= RESIDUAL_THRESHOLD
        C, n = fam.mp_coeffs, fam.size
        with workdps(fam.dps):
            ref = mp.inverse(_pairing_mp(span))
            scale = max(abs(ref[i, j]) for i in range(n) for j in range(n))
            worst = max(abs(C[i, j] - ref[i, j]) for i in range(n) for j in range(n)) / scale
        assert float(worst) <= 10 * fam.residual

    def test_builder_never_calls_generic_inverse(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generic inverse called")

        monkeypatch.setattr(mp, "inverse", refuse)
        monkeypatch.setattr(mp.mp, "inverse", refuse)
        for span in (ExponentialSpan(tuple(k * k * PI2 for k in range(1, 9)), 0.5),
                     ExponentialSpan((1.0, 2.0), 1.0, jordan=True),
                     ExponentialSpan((1 + 1j, 2.0), None)):
            assert build_biortho(span).residual <= RESIDUAL_THRESHOLD

    def test_builder_never_forms_matrix_products(self, monkeypatch):
        # the residual M C^T is formed from exact integer dot products
        def refuse(*args, **kwargs):
            raise AssertionError("mp matrix product formed")

        monkeypatch.setattr(mp.matrix, "__mul__", refuse)
        for span in (ExponentialSpan(tuple(k * k * PI2 for k in range(1, 9)), 0.5),
                     ExponentialSpan((1.0, 2.0), 1.0, jordan=True)):
            assert build_biortho(span).residual <= RESIDUAL_THRESHOLD

    def test_pairing_never_calls_fsum(self, monkeypatch):
        fam = build_biortho(ExponentialSpan(tuple(k * k * PI2 for k in range(1, 9)), 0.5))

        def refuse(*args, **kwargs):
            raise AssertionError("mp.fsum called")

        monkeypatch.setattr(mp, "fsum", refuse)
        monkeypatch.setattr(mp.mp, "fsum", refuse)
        col = pair_with_exponential_mp(fam, fam.span.rates[2], 0)
        assert abs(col[2] - 1) <= 10 * fam.residual
        pair_with_exponential_mp(fam, 3.0, 1)

    def test_zero_pivot_is_ill_conditioned(self, monkeypatch, tmp_path, capsys):
        # F(0) = F(T) = 0 makes every Schur column, hence the first pivot, zero
        monkeypatch.setattr(biortho_time, "_displacement",
                            lambda span, E: (list(span.rates), [0] * span.size,
                                             [0] * span.size, [0] * span.size))
        with pytest.raises(IllConditioned, match="singular"):
            build_biortho(ExponentialSpan((1.0, 2.0, 3.0), 1.0))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "biortho",
                                   "sequence": {"rule": "power", "c": 1.0, "p": 2.0},
                                   "params": {"N": 3}}))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ILL_CONDITIONED"


class TestCauchyOracle:
    def test_two_rates_exact(self):
        np.testing.assert_allclose(cauchy_inverse_oracle([1, 2]),
                                   [[18.0, -24.0], [-24.0, 36.0]], rtol=0)

    def test_single_rate(self):
        np.testing.assert_allclose(cauchy_inverse_oracle([1]), [[2.0]], rtol=0)

    def test_matches_solver_at_squares(self):
        rates = [float(k * k) for k in range(1, 9)]
        oracle = cauchy_inverse_oracle(rates)
        fam = build_biortho(ExponentialSpan(tuple(rates), None))
        np.testing.assert_allclose(np.array(fam.mp_coeffs.tolist(), dtype=float), oracle, rtol=1e-10)


def _fsum_pairing(fam, mu, a):
    """The earlier pair_with_exponential_mp, kept as the reference: one
    mp.exp per entry of the closed-form column, and an mp.fsum of products
    each rounded to the family's precision.  Returns the pairings and, per
    row, sum_j |C_kj col_j|."""
    span, n = fam.span, fam.size
    with workdps(fam.dps):
        col = []
        for r, p in span.basis():
            s = to_mp(mu) + r
            col.append(int_pow_exp(a + p, s, span.T, mp.exp(-s * span.T)))
        C = fam.mp_coeffs
        return ([mp.fsum(C[k, j] * col[j] for j in range(n)) for k in range(n)],
                [mp.fsum(abs(C[k, j] * col[j]) for j in range(n)) for k in range(n)])


class TestPairings:
    @pytest.mark.parametrize("span", [
        ExponentialSpan(tuple(k * k * PI2 for k in range(1, 41)), 0.4),
        ExponentialSpan(tuple(AcademicLfRule(0.2).mp_entries(20)), 0.5),
        ExponentialSpan((1 + 1j, 2 - 0.5j, 3), 1.0, jordan=True),
    ], ids=["heat-N40", "academic_lf-N20", "complex-jordan"])
    def test_exact_dot_matches_rounded_products(self, span):
        # the exact dot rounds once; the reference rounds each of n products
        # and its sum, so they differ by at most n 2^(1-prec) sum_j |C_kj col_j|
        fam = build_biortho(span)
        n = fam.size
        mus = list(span.rates[::7]) + [1.5 * span.rates[-1] + 0.25]
        with workdps(fam.dps):
            tol = n * mp.ldexp(1, 1 - mp.mp.prec)
            for mu in mus:
                for a in (0, 1):
                    got = pair_with_exponential_mp(fam, mu, a)
                    want, scale = _fsum_pairing(fam, mu, a)
                    for g, w, s in zip(got, want, scale):
                        assert abs(g - w) <= tol * s, (mu, a)

    def test_kronecker_column_at_span_rate(self):
        fam = build_biortho(ExponentialSpan((1.0, 2.0, 3.0), 1.0))
        col = _float_pairing(fam, 1.0, 0)
        np.testing.assert_allclose(col.real, [1.0, 0.0, 0.0], atol=1e-12)

    def test_exponential_moment_single_rate(self):
        fam = build_biortho(ExponentialSpan((1.0,), None))
        # q_1 = 2 e^{-t}: int e^{-3t} q_1 = 2/4
        assert _float_pairing(fam, 3.0, 0)[0].real == pytest.approx(0.5, abs=1e-12)
        # int t e^{-3t} q_1 = 2/16
        assert _float_pairing(fam, 3.0, 1)[0].real == pytest.approx(0.125, abs=1e-12)


def _tail_slope(family, window=10):
    """LS slope of ln||q_k|| against Re(lam_k) over the last ``window``
    family members (each rate counted twice on a Jordan span)."""
    xs = np.array([float(r.real) for r in family.span.rates])
    if family.span.jordan:
        xs = np.repeat(xs, 2)
    return float(np.polyfit(xs[-window:], family.ln_norms[-window:], 1)[0])


class TestNormGrowth:
    def test_flat_norms_for_separated_rates(self):
        rates = tuple(k * k * PI2 for k in range(1, 13))
        fam = build_biortho(ExponentialSpan(rates, 0.5))
        slope = _tail_slope(fam)
        assert math.isfinite(slope)
        assert slope <= 0.05

    def test_pair_decay_growth_rate(self):
        tau = 0.25
        rule = AppendixBRule(tau)
        rates = tuple(rule.mp_entries(20))
        fam = build_biortho(ExponentialSpan(rates, 1.0))
        slope = _tail_slope(fam)
        assert 0.2 <= slope <= 0.3
        assert slope <= tau + 0.1  # the clustering index plus slack

    def test_jordan_bound_on_pair_family(self):
        tau = 0.25
        rule = AppendixBRule(tau)
        rates = tuple(rule.mp_entries(12))
        fam = build_biortho(ExponentialSpan(rates, 1.0, jordan=True))
        assert _tail_slope(fam, window=12) <= 4 * tau + 0.1


class TestGapResolution:
    def test_min_log_rel_gap_escalates_precision(self):
        # pair gap e^{-900} sits far below any fixed working precision
        rule = AppendixBRule(1.0)
        rates = tuple(rule.mp_entries(60))
        span = ExponentialSpan(rates, 1.0)
        lg = span.min_log_rel_gap()
        # relative gap e^{-900} / (1 + 2*900)
        assert lg == pytest.approx(-900.0 - math.log(1 + 2 * 900.0), rel=1e-3)

    def test_min_log_rel_gap_far_below_working_precision(self):
        # a gap of 1e-3000 resolves at 50 digits: the difference is exact
        # before it is rounded
        with workdps(3100):
            rates = (mp.mpf(2), mp.mpf(2) + mp.mpf("1e-3000"))
        lg = ExponentialSpan(rates, 1.0).min_log_rel_gap()
        assert lg == pytest.approx(-3000 * math.log(10) - math.log(5), rel=1e-12)

    def test_auto_dps_saturates_for_unresolvable_gaps(self):
        from nullcontrol.precision import auto_dps_for_gaps

        assert auto_dps_for_gaps(float("-inf")) == 6000
        assert auto_dps_for_gaps(float("nan")) == 60
        assert auto_dps_for_gaps(0.0) == 60


_DPS_SPANS = [
    ExponentialSpan(tuple(k * k * PI2 for k in range(1, 41)), 0.4),
    ExponentialSpan(tuple(k * k * PI2 for k in range(1, 17)), 0.5, jordan=True),
    ExponentialSpan(tuple(AppendixBRule(0.2).mp_entries(20)), 0.5),
    ExponentialSpan((1.0,), 1.0),
    ExponentialSpan(tuple(AcademicLfRule(0.2).mp_entries(20)), 0.5),
]
_DPS_IDS = ["heat-N40", "heat-jordan-N16", "appendixB-N20", "single", "academic_lf-N20"]


def _solve_dps(span):
    """The digits build_biortho solves at before any residual retry."""
    return auto_dps_for_gaps(span.min_log_rel_gap(), scale=5.0 if span.jordan else 2.6,
                             size=span.size)


class TestDpsPolicy:
    """The solve runs at digits chosen from the smallest relative rate gap
    and the system size, pinned at the values the package has always
    used; the family is carried at min(solve digits, ceil(log10 cond) +
    CARRY_DIGITS)."""

    @pytest.mark.parametrize("span,dps", list(zip(_DPS_SPANS, [115, 100, 99, 60, 301])))
    def test_auto_dps(self, span, dps):
        assert _solve_dps(span) == dps

    @pytest.mark.parametrize("span,dps", zip(_DPS_SPANS, [72, 67, 70, 30, 222]),
                             ids=_DPS_IDS)
    def test_carried_digits(self, span, dps):
        fam = build_biortho(span)
        assert fam.dps == dps
        assert fam.dps == min(_solve_dps(span), math.ceil(math.log10(fam.cond_estimate)) + 30)
        assert fam.residual <= RESIDUAL_THRESHOLD
        # every mp number of the family is held at the carried digits
        with workdps(fam.dps):
            prec = mp.mp.prec
        for x in [x for row in fam.mp_coeffs.tolist() for x in row] + list(fam.exp_table):
            assert x._mpf_[3] <= prec   # the mantissa's bit count

    def test_cascade_jordan_carried_digits(self):
        model = cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),)))
        span = ExponentialSpan(tuple(m.lam_mp for m in model.modes(16)), 0.5, jordan=True)
        assert build_biortho(span).dps == 67

    def test_condition_beyond_float_range(self):
        # log10 cond = 384 is taken from the mp product; the float view overflows
        span = ExponentialSpan(tuple(AppendixBRule(1.0).mp_entries(40)), 1.0)
        fam = build_biortho(span)
        assert fam.cond_estimate == math.inf
        assert 383 < fam.cond_log10 < 384
        assert fam.dps == math.ceil(fam.cond_log10) + biortho_time.CARRY_DIGITS
        assert fam.dps == 384 + 30 < _solve_dps(span) == 570
        assert fam.residual <= RESIDUAL_THRESHOLD

    def test_condition_log10_matches_float_view(self):
        fam = build_biortho(ExponentialSpan(tuple(k * k * PI2 for k in range(1, 13)), 0.5))
        assert math.isfinite(fam.cond_estimate)
        assert 10**fam.cond_log10 == pytest.approx(fam.cond_estimate, rel=1e-12)

    @pytest.mark.parametrize("span", _DPS_SPANS[:3], ids=_DPS_IDS[:3])
    def test_pairing_formed_once_per_solve(self, span, monkeypatch):
        # the Gram of the condition estimate is rounded to the carried
        # digits, not formed again there
        pairings, solves = [], []
        pairing, solve_at = biortho_time._pairing_mp, biortho_time._solve_at
        monkeypatch.setattr(biortho_time, "_pairing_mp",
                            lambda *args: pairings.append(1) or pairing(*args))
        monkeypatch.setattr(biortho_time, "_solve_at",
                            lambda *args: solves.append(1) or solve_at(*args))
        fam = build_biortho(span)
        assert fam.dps < _solve_dps(span)
        assert len(pairings) == len(solves) == 1

    def test_carried_family_matches_one_kept_at_solve_digits(self, monkeypatch):
        span = _DPS_SPANS[0]
        fam = build_biortho(span)
        monkeypatch.setattr(biortho_time, "CARRY_DIGITS", 10**6)
        ref = build_biortho(span)
        assert ref.dps == 115 and fam.dps == 72
        assert fam.cond_estimate == ref.cond_estimate
        np.testing.assert_array_equal(fam.ln_norms, ref.ln_norms)
        with workdps(fam.dps):
            assert [[+x for x in row] for row in ref.mp_coeffs.tolist()] \
                == fam.mp_coeffs.tolist()
