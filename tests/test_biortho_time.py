"""Time-biorthogonal families: Gram closed forms, solves, oracles, growth."""

import json
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from mpmath import libmp

from nullcontrol import ExponentialSpan, build_biortho
from nullcontrol import biortho_time
from nullcontrol.biortho_time import (
    RESIDUAL_THRESHOLD, _pairing_mp, int_phi_exp, pair_with_exponential_mp,
)
from nullcontrol.cli import main
from nullcontrol.errors import IllConditioned, NumericalError
from nullcontrol.generators import AcademicLfRule, AppendixBRule, make_rule
from nullcontrol.models import (
    PiecewiseConstant, academic_lf, cascade_boundary_q, two_diffusion_boundary,
)
from nullcontrol.precision import DEFAULT_DPS, to_mp, workdps
from nullcontrol.spectral import from_rule
from tests.closed_forms import cauchy_inverse_oracle
from tests.exponential_reference import (
    auto_dps_for_gaps, exponential_span, int_pow_exp, min_log_rel_gap, reference_family,
    solve_dps,
)

PI2 = math.pi**2


def _twice(rates):
    """Every rate listed twice: the span of a Jordan chain per rate."""
    return tuple(r for r in rates for _ in range(2))


def _float_gram(span):
    """The span's Gram matrix at the default working digits, as complex128."""
    with workdps(DEFAULT_DPS):
        return np.array(_pairing_mp(span, None, True).tolist(), dtype=complex)


def _float_pairing(family, mu, a=0):
    """pair_with_exponential_mp as complex128."""
    return np.array([complex(v) for v in pair_with_exponential_mp(family, mu, a)])


@pytest.fixture
def solves(monkeypatch):
    """The digits of every dual solve, in call order."""
    seen, solve = [], biortho_time._solve
    monkeypatch.setattr(biortho_time, "_solve",
                        lambda span, dps: seen.append(dps) or solve(span, dps))
    return seen


class TestExpGram:
    def test_infinite_horizon_cauchy(self):
        G = _float_gram(ExponentialSpan((1.0, 2.0), None))
        np.testing.assert_allclose(G.real, [[0.5, 1 / 3], [1 / 3, 0.25]], rtol=1e-14)

    def test_single_rate_finite_horizon(self):
        G = _float_gram(ExponentialSpan((1.0,), 1.0))
        assert G[0, 0].real == pytest.approx((1 - math.exp(-2)) / 2, abs=1e-15)
        assert G[0, 0].real == pytest.approx(0.4323323583, abs=1e-9)

    def test_jordan_block_entries(self):
        G = _float_gram(ExponentialSpan((1.0, 1.0), 1.0))
        want_12 = (1 - 3 * math.exp(-2)) / 4  # int_0^1 t e^{-2t} dt
        assert G[0, 1].real == pytest.approx(want_12, abs=1e-15)
        assert G[0, 1].real == pytest.approx(0.1485, abs=5e-5)
        assert G[1, 0].real == pytest.approx(want_12, abs=1e-15)

    @pytest.mark.parametrize("span", [
        ExponentialSpan((1.0 + 1.0j, 2.0 - 0.5j, 3.0), 1.0),
        ExponentialSpan(_twice((1.0 + 2.0j, 0.5 + 0.1j)), 0.7),
        ExponentialSpan((1.0 + 2.0j, 3.0 - 1.0j, 0.5), None),
    ], ids=["complex", "complex-jordan", "complex-infinite"])
    def test_hermitian_mirror_is_the_conjugated_closed_form(self, span):
        # the lower triangle is mirrored as conjugates: every entry still
        # equals the closed form with the left factor conjugated, to the bit
        with workdps(60):
            G, E = _pairing_mp(span, None, True), biortho_time._exp_table(span)
            # every row is e^{-r t} or, on a Jordan span, t e^{-r t} (d = 0)
            powers = [0 if d is None else 1 for _, d in span.basis()]
            for i, (ri, _) in enumerate(span.basis()):
                for j, (rj, _) in enumerate(span.basis()):
                    assert G[i, j] == int_pow_exp(powers[i] + powers[j], mp.conj(ri) + rj,
                                                  span.T, mp.conj(E[i]) * E[j]), (i, j)

    def test_rejects_duplicate_rates(self):
        # a rate listed twice in a row is a Jordan chain; a third listing,
        # or a second one elsewhere, is a duplicate
        with pytest.raises(ValueError):
            ExponentialSpan((1.0, 2.0, 1.0), 1.0)
        with pytest.raises(ValueError):
            ExponentialSpan((1.0, 1.0, 1.0), 1.0)
        # a span of rates meant to be distinct refuses any repeat
        with pytest.raises(ValueError, match="duplicated rate"):
            ExponentialSpan.distinct((1.0, 1.0, 2.0), 1.0)
        assert ExponentialSpan.distinct((1.0, 1.0 + 1e-12, 2.0), 1.0).basis()[1][1] > 0

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
        span = ExponentialSpan((1.0, 1.0), None)
        fam = build_biortho(span)
        np.testing.assert_allclose(_float_gram(span).real, [[0.5, 0.25], [0.25, 0.25]], rtol=1e-14)
        # inverse of [[1/2, 1/4], [1/4, 1/4]] (det 1/16) is [[4, -4], [-4, 8]]
        np.testing.assert_allclose(np.array(fam.mp_coeffs.tolist(), dtype=float), [[4.0, -4.0], [-4.0, 8.0]], rtol=1e-12)
        # q_{1,1} = 4 e^{-t} - 4 t e^{-t}: <e^{-t}, q11> = 4/2 - 4/4 = 1,
        # <t e^{-t}, q11> = 4 * 1/4 - 4 * 2/8 = 0
        assert 4 / 2 - 4 / 4 == 1 and 4 * (1 / 4) - 4 * (2 / 8) == 0

    def test_heat_rates_doubled_basis_residual(self):
        rates = tuple(k * k * PI2 for k in range(1, 9))
        fam = build_biortho(ExponentialSpan(_twice(rates), 0.5))
        assert fam.residual <= 1e-6

    def test_labels_interleave(self):
        fam = build_biortho(ExponentialSpan((1.0, 1.0, 2.0, 2.0), 1.0))
        assert fam.span.basis() == ((1, None), (1, 0), (2, None), (2, 0))


class TestDualGram:
    """mp_dual_gram is <q_i, q_j> = C G C^H at the family's digits, formed
    once by build_biortho and read by the plan's norm; G is the Gram formed
    at the solve digits, rounded to the family's.  On real spans G is the
    pairing M, so build_biortho keeps C P (C M C^T = C; P the identity
    but on a pair's second row, so C P equals C when no pair of rates is
    close): it matches the recomputed product up to the solve residual.
    Complex spans keep the product."""

    @staticmethod
    def _product(fam, solved):
        """C G C^H, G formed at the ``solved`` digits of the family's solve,
        as mp matrix products."""
        C = mp.matrix(fam.mp_coeffs.tolist())
        with workdps(solved):
            G = mp.matrix(_pairing_mp(fam.span, None, True).tolist())
        with workdps(fam.dps):
            return C * G.apply(lambda x: +x) * C.transpose_conj()

    @pytest.mark.parametrize("span", [
        ExponentialSpan(tuple(k * k * PI2 for k in range(1, 9)), 0.5),
        ExponentialSpan(_twice((1.0, 2.0, 4.0)), 1.0),
        ExponentialSpan(tuple(AcademicLfRule(0.2).mp_entries(20)), 0.5),
        ExponentialSpan(_twice(AppendixBRule(0.25).mp_entries(12)), 1.0),
    ], ids=["plain", "jordan", "academic_lf-N20", "appendixB-jordan"])
    def test_real_span_is_coeffs(self, span, solves):
        fam = build_biortho(span)
        Q, want = fam.mp_dual_gram, self._product(fam, solves[-1])
        # the exponential duals' Gram P^T M^{-1} P, with C = P^T M^{-1}
        with workdps(fam.dps):
            assert Q.tolist() == [biortho_time._transpose_paired(span.basis(), row)
                                  for row in fam.mp_coeffs.tolist()]
        if not any(d for _, d in span.basis()):
            assert Q.tolist() == fam.mp_coeffs.tolist()
        with workdps(fam.dps):
            worst = max(abs(want[i, j] - Q[i, j]) / mp.sqrt(abs(Q[i, i] * Q[j, j]))
                        for i in range(fam.size) for j in range(fam.size))
        assert float(worst) <= 10 * fam.residual

    @pytest.mark.parametrize("jordan", [False, True], ids=["plain", "jordan"])
    def test_complex_span_is_product(self, jordan, solves):
        rates = (1 + 1j, 2 - 0.5j, 3)
        fam = build_biortho(ExponentialSpan(_twice(rates) if jordan else rates, 1.0))
        Q, want = fam.mp_dual_gram, self._product(fam, solves[-1])
        assert Q.shape == (fam.size, fam.size)
        for i in range(fam.size):
            for j in range(fam.size):
                assert Q[i, j] == want[i, j]


class TestFamilyArrays:
    """The family holds C and its dual Gram as read-only object arrays of
    mp scalars, one array when the two are equal."""

    @staticmethod
    def _heat():
        return ExponentialSpan(tuple(k * k * PI2 for k in range(1, 41)), 0.4)

    def test_unpaired_real_gram_is_coeffs(self):
        fam = build_biortho(self._heat())
        assert fam.mp_dual_gram is fam.mp_coeffs
        paired = build_biortho(ExponentialSpan(tuple(AcademicLfRule(0.2).mp_entries(20)), 0.5))
        assert any(d for _, d in paired.span.basis())
        assert paired.mp_dual_gram is not paired.mp_coeffs

    @pytest.mark.parametrize("rates", [(1.0, 2.0, 4.0), (1 + 1j, 2 - 0.5j, 3)],
                             ids=["real", "complex"])
    def test_read_only(self, rates):
        fam = build_biortho(ExponentialSpan(rates, 1.0))
        for A in (fam.mp_coeffs, fam.mp_dual_gram):
            assert A.dtype == object and A.shape == (3, 3)
            with pytest.raises(ValueError, match="read-only"):
                A[0, 0] = A[1, 1]
            with pytest.raises(ValueError, match="read-only"):
                A[1] = A[2]

    @pytest.mark.parametrize("span,cplx", [
        (lambda: ExponentialSpan(tuple(k * k * PI2 for k in range(1, 13)), 0.4), False),
        (lambda: ExponentialSpan((1 + 1j, 2 - 0.5j, 3), 1.0), True),
        (lambda: ExponentialSpan(tuple(AcademicLfRule(0.2).mp_entries(20)), 0.5), False),
        (lambda: ExponentialSpan(_twice((1.0, 2.0, 4.0)), 1.0), False),
    ], ids=["real", "complex", "close-pair", "jordan"])
    def test_int_rows_are_coeffs(self, span, cplx):
        # every row of the integer form holds its row of C exactly: on a
        # close-pair span, the rows of the exponential duals P^T C
        fam = build_biortho(span())
        C, rows = fam.mp_coeffs, fam.int_rows
        assert (rows.im is not None) == cplx
        assert rows.re.shape == C.shape and len(rows.exp) == fam.size
        for i, exp in enumerate(rows.exp):
            for j, c in enumerate(C[i]):
                assert libmp.from_man_exp(rows.re[i, j], exp) == mp.re(c)._mpf_
                im = 0 if rows.im is None else rows.im[i, j]
                assert libmp.from_man_exp(im, exp) == mp.im(c)._mpf_

    def test_retained_memory(self):
        # what the family keeps alive: 0.50 MB here, 0.78 MB with C held in
        # an mp.matrix (a dict keyed by index pairs) and its Gram a copy
        build_biortho(self._heat())   # mpmath's constant caches
        span = self._heat()
        tracemalloc.start()
        try:
            fam = build_biortho(span)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert fam.residual <= RESIDUAL_THRESHOLD
        assert retained < 0.65 * 2**20


class TestStructuredSolve:
    """The O(n^2) displacement solve against the generic inverse of the
    pairing, at the family's digits (the squares span is also checked
    against the closed-form Cauchy inverse in TestCauchyOracle)."""

    @pytest.mark.parametrize("span", [
        ExponentialSpan(tuple(k * k * PI2 for k in range(1, 13)), 0.5),
        ExponentialSpan(_twice(k * k * PI2 for k in range(1, 9)), 0.5),
        ExponentialSpan(_twice(AppendixBRule(0.25).mp_entries(12)), 1.0),
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
                     ExponentialSpan((1.0, 1.0, 2.0, 2.0), 1.0),
                     ExponentialSpan((1 + 1j, 2.0), None)):
            assert build_biortho(span).residual <= RESIDUAL_THRESHOLD

    def test_builder_never_forms_matrix_products(self, monkeypatch):
        # the residual M C^T is formed from exact integer dot products
        def refuse(*args, **kwargs):
            raise AssertionError("mp matrix product formed")

        monkeypatch.setattr(mp.matrix, "__mul__", refuse)
        for span in (ExponentialSpan(tuple(k * k * PI2 for k in range(1, 9)), 0.5),
                     ExponentialSpan((1.0, 1.0, 2.0, 2.0), 1.0)):
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

    def test_is_the_digit_predictors_diagonal(self):
        # the log-form product the solve digits are predicted from
        rates = [float(k * k) for k in range(1, 9)]
        ln_diag, _ = biortho_time._cauchy_log_diag(ExponentialSpan(tuple(rates), None))
        np.testing.assert_allclose(ln_diag, np.log(np.diag(cauchy_inverse_oracle(rates))),
                                   rtol=1e-12)


def _fsum_pairing(fam, mu, a):
    """The earlier pair_with_exponential_mp, kept as the reference: one
    mp.exp per entry of the closed-form column, and an mp.fsum of products
    each rounded to the family's precision.  Returns the pairings and, per
    row, sum_j |C_kj col_j|."""
    span, n = fam.span, fam.size
    with workdps(fam.dps):
        col = []
        for r, d in span.basis():
            s = to_mp(mu) + r
            factors = (0,) * a + (() if d is None else (d,))
            col.append(int_phi_exp(s, factors, span.T, mp.exp(-s * span.T)))
        C = fam.mp_coeffs
        return ([mp.fsum(C[k, j] * col[j] for j in range(n)) for k in range(n)],
                [mp.fsum(abs(C[k, j] * col[j]) for j in range(n)) for k in range(n)])


class TestPairings:
    @pytest.mark.parametrize("span", [
        ExponentialSpan(tuple(k * k * PI2 for k in range(1, 41)), 0.4),
        ExponentialSpan(tuple(AcademicLfRule(0.2).mp_entries(20)), 0.5),
        ExponentialSpan(_twice((1 + 1j, 2 - 0.5j, 3)), 1.0),
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
    family members (a Jordan span lists each rate twice)."""
    xs = np.array([float(r.real) for r in family.span.rates])
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
        fam = build_biortho(ExponentialSpan(_twice(rates), 1.0))
        assert _tail_slope(fam, window=12) <= 4 * tau + 0.1


class TestGapResolution:
    """The gap digits of the exponential-basis reference
    (tests/exponential_reference.py)."""

    def test_min_log_rel_gap_escalates_precision(self):
        # pair gap e^{-900} sits far below any fixed working precision
        rule = AppendixBRule(1.0)
        rates = tuple(rule.mp_entries(60))
        lg = min_log_rel_gap(ExponentialSpan(rates, 1.0).rates)
        # relative gap e^{-900} / (1 + 2*900)
        assert lg == pytest.approx(-900.0 - math.log(1 + 2 * 900.0), rel=1e-3)

    def test_min_log_rel_gap_far_below_working_precision(self):
        # a gap of 1e-3000 resolves at 50 digits: the difference is exact
        # before it is rounded
        with workdps(3100):
            rates = (mp.mpf(2), mp.mpf(2) + mp.mpf("1e-3000"))
        lg = min_log_rel_gap(ExponentialSpan(rates, 1.0).rates)
        assert lg == pytest.approx(-3000 * math.log(10) - math.log(5), rel=1e-12)

    def test_auto_dps_saturates_for_unresolvable_gaps(self):
        assert auto_dps_for_gaps(float("-inf")) == 6000
        assert auto_dps_for_gaps(float("nan")) == 60
        assert auto_dps_for_gaps(0.0) == 60


# (rates, T, jordan): a Jordan span lists every rate twice
_DPS_CASES = [
    (tuple(k * k * PI2 for k in range(1, 41)), 0.4, False),
    (tuple(k * k * PI2 for k in range(1, 17)), 0.5, True),
    (tuple(AppendixBRule(0.2).mp_entries(20)), 0.5, False),
    ((1.0,), 1.0, False),
    (tuple(AcademicLfRule(0.2).mp_entries(20)), 0.5, False),
]
_DPS_IDS = ["heat-N40", "heat-jordan-N16", "appendixB-N20", "single", "academic_lf-N20"]


def _span(rates, T, jordan):
    return ExponentialSpan(_twice(rates) if jordan else rates, T)


class TestDpsPolicy:
    """The family is carried at ceil(log10 cond) + CARRY_DIGITS digits, cond
    that of the basis's Gram, from one solve at the digits predicted for
    that carry; only on a miss, when the carried digits are more, is it
    solved again at them.  The exponential-basis
    reference ran at digits chosen from the smallest relative rate gap and
    the system size, pinned at the values the package used, and carried
    min(solve digits, ceil(log10 cond) + CARRY_DIGITS); spans without a
    close pair keep its carried digits."""

    @pytest.mark.parametrize("span,dps", list(zip(_DPS_CASES, [115, 100, 99, 60, 301])))
    def test_auto_dps(self, span, dps):
        rates, _, jordan = span
        assert solve_dps(rates, jordan) == dps

    @pytest.mark.parametrize("case,dps,carried", zip(_DPS_CASES, [72, 67, 70, 30, 222],
                                                      [72, 67, 58, 30, 55]),
                             ids=_DPS_IDS)
    def test_carried_digits(self, case, dps, carried):
        rates, T, jordan = case
        ref = reference_family(rates, T, jordan)
        assert ref.dps == dps
        assert ref.dps == min(solve_dps(rates, jordan),
                              math.ceil(math.log10(ref.cond_estimate)) + 30)
        fam = build_biortho(_span(*case))
        assert fam.dps == carried == math.ceil(fam.cond_log10) + biortho_time.CARRY_DIGITS
        if not any(d for _, d in fam.span.basis()):
            assert fam.dps == ref.dps
        assert fam.residual <= RESIDUAL_THRESHOLD
        # every mp number of the family is held at the carried digits
        with workdps(fam.dps):
            prec = mp.mp.prec
        for x in [x for row in fam.mp_coeffs.tolist() for x in row] + list(fam.exp_table):
            assert x._mpf_[3] <= prec   # the mantissa's bit count

    def test_cascade_jordan_carried_digits(self):
        model = cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),)))
        span = ExponentialSpan(_twice(m.lam_mp for m in model.modes(16)), 0.5)
        assert build_biortho(span).dps == 67

    def test_condition_beyond_float_range(self):
        # the exponential basis: log10 cond = 384 is taken from the mp
        # product; the float view overflows
        rates = tuple(AppendixBRule(1.0).mp_entries(40))
        ref = reference_family(rates, 1.0)
        assert ref.cond_estimate == math.inf
        assert 383 < ref.cond_log10 < 384
        assert ref.dps == math.ceil(ref.cond_log10) + biortho_time.CARRY_DIGITS
        assert ref.dps == 384 + 30 < solve_dps(rates) == 570
        assert ref.residual <= RESIDUAL_THRESHOLD
        # the pairs' divided differences bring it back into binary64
        fam = build_biortho(ExponentialSpan(rates, 1.0))
        assert math.isfinite(fam.cond_estimate)
        assert fam.dps == math.ceil(fam.cond_log10) + biortho_time.CARRY_DIGITS <= 90
        assert fam.residual <= RESIDUAL_THRESHOLD

    def test_condition_log10_matches_float_view(self):
        fam = build_biortho(ExponentialSpan(tuple(k * k * PI2 for k in range(1, 13)), 0.5))
        assert math.isfinite(fam.cond_estimate)
        assert 10**fam.cond_log10 == pytest.approx(fam.cond_estimate, rel=1e-12)

    @pytest.mark.parametrize("case,digits", zip(_DPS_CASES[:3], [74, 69, 60]), ids=_DPS_IDS[:3])
    def test_pairing_formed_once_per_solve(self, case, digits, monkeypatch, solves):
        # the Gram of the condition estimate is rounded to the carried
        # digits, not formed again there; the one solve runs at the digits
        # predicted for the carry
        pairings, pairing = [], biortho_time._pairing_mp
        monkeypatch.setattr(biortho_time, "_pairing_mp",
                            lambda *args: pairings.append(1) or pairing(*args))
        span = _span(*case)
        fam = build_biortho(span)
        assert fam.dps < solve_dps(case[0], case[2])
        assert solves == [digits] == [biortho_time._predicted_dps(span)]
        assert len(pairings) == len(solves) and fam.dps <= digits

    def test_carried_family_matches_one_kept_at_solve_digits(self, monkeypatch, solves):
        # heat N=12 is carried below the digits it was solved at; with the
        # carry raised to exactly those digits (and the prediction's margin
        # dropped, so that the solve stays at them) the same solve is kept
        # whole, and the family is that solve rounded
        span = ExponentialSpan(tuple(k * k * PI2 for k in range(1, 13)), 0.5)
        fam = build_biortho(span)
        monkeypatch.setattr(biortho_time, "CARRY_DIGITS",
                            DEFAULT_DPS - math.ceil(fam.cond_log10))
        monkeypatch.setattr(biortho_time, "PREDICT_MARGIN", 0)
        ref = build_biortho(span)
        assert solves == [DEFAULT_DPS, DEFAULT_DPS]
        assert ref.dps == DEFAULT_DPS and fam.dps == 43
        assert fam.cond_estimate == ref.cond_estimate
        np.testing.assert_array_equal(fam.ln_norms, ref.ln_norms)
        with workdps(fam.dps):
            assert [[+x for x in row] for row in ref.mp_coeffs.tolist()] \
                == fam.mp_coeffs.tolist()

    def test_unpaired_family_matches_the_gap_digit_solve(self):
        # heat N=40 has no close pair: solved at its 72 carried digits, its
        # condition estimate and norms are those of the exponential-basis
        # solve at 115 digits
        rates, T, _ = _DPS_CASES[0]
        fam = build_biortho(ExponentialSpan(rates, T))
        ref = reference_family(rates, T, carry=False)
        assert ref.dps == 115 and fam.dps == 72
        assert fam.cond_estimate == ref.cond_estimate
        np.testing.assert_array_equal(fam.ln_norms, ref.ln_norms)


def _direct_difference(x, deltas, T):
    """int_0^T e^{-x t} prod phi_d(t) dt as the divided difference of
    h(x) = (1 - e^{-x T}) / x (1/x for T = None), formed directly at the
    working precision; d = 0 is taken as 1e-700."""
    h = (lambda y: 1 / y) if T is None else (lambda y: -mp.expm1(-y * T) / y)
    ds = [d or mp.mpf("1e-700") for d in deltas]
    if len(ds) == 1:
        return (h(x) - h(x + ds[0])) / ds[0]
    a, b = ds
    return (h(x) - h(x + a) - h(x + b) + h(x + a + b)) / (a * b)


class TestDividedDifferences:
    """int_phi_exp against direct differences at 1500 digits, on pairs
    from far closer than any working precision to far apart."""

    @pytest.mark.parametrize("T", [mp.mpf("0.5"), None], ids=["T0.5", "inf"])
    @pytest.mark.parametrize("deltas", [
        ("1e-300",), ("1e-40",), ("1e-8",), ("1e-3",), ("0.5",), ("30",),
        ("1e-300", "1e-200"), ("1e-30", "1e-30"), ("1e-3", "40"), ("0.3", "2.5"),
        (0, "1e-20"), (0, "3"),
    ])
    def test_matches_direct_difference(self, T, deltas):
        deltas = tuple(mp.mpf(d) for d in deltas)
        for x in (mp.mpf("1.3"), mp.mpf("40.7")):
            with workdps(1500):
                want = _direct_difference(x, deltas, T)
            with workdps(60):
                E = None if T is None else mp.exp(-x * T)
                got = int_phi_exp(x, deltas, T, E)
                assert abs(got - want) <= mp.mpf("1e-55") * abs(want), (x, deltas)

    @pytest.mark.parametrize("dps", [60, 150])
    @pytest.mark.parametrize("span", [
        ExponentialSpan(_twice(k * k * PI2 for k in range(1, 5)), 0.5),
        ExponentialSpan(_twice((1.0 + 2.0j, 0.5 + 0.1j, 3.0)), 0.7),
        ExponentialSpan(_twice((1.0, 2.5, 4.0)), None),
    ], ids=["real", "complex", "infinite"])
    def test_jordan_rows_are_t_moments(self, span, dps):
        # a pair with d = 0 pairs as t e^{-r t}, to the bit
        powers = [0 if d is None else 1 for _, d in span.basis()]
        with workdps(dps):
            M, E = _pairing_mp(span), biortho_time._exp_table(span)
            e_mu = 0 if span.T is None else mp.exp(-3 * span.T)
            for i, (ri, di) in enumerate(span.basis()):
                for j, (rj, _) in enumerate(span.basis()):
                    assert M[i, j] == int_pow_exp(powers[i] + powers[j], ri + rj, span.T,
                                                  E[i] * E[j]), (i, j)
                # the a = 1 moment column of pair_with_exponential_mp
                factors = (0,) if di is None else (0, di)
                assert int_phi_exp(3 + ri, factors, span.T, e_mu * E[i]) \
                    == int_pow_exp(1 + powers[i], 3 + ri, span.T, e_mu * E[i])


class TestPairedFamily:
    """The exponential duals of a paired span, C P = P^T M^{-1} P, against
    the exponential basis's own inverse at 1500 digits."""

    @pytest.mark.parametrize("rates,T", [
        (tuple(AcademicLfRule(0.2).mp_entries(20)), 0.5),
        (tuple(AcademicLfRule(0.2).mp_entries(40)), 0.5),
        (tuple(AppendixBRule(1.0).mp_entries(40)), 0.5),
    ], ids=["academic_lf-N20", "academic_lf-N40", "appendixB-tau1-N40"])
    def test_matches_exponential_inverse(self, rates, T):
        fam = build_biortho(ExponentialSpan(rates, T))
        assert any(d for _, d in fam.span.basis())
        span = exponential_span(rates, T)
        with workdps(1500):
            ref = biortho_time._structured_inverse(
                *biortho_time._displacement(span, biortho_time._exp_table(span)))
        Q, n = fam.mp_dual_gram, fam.size
        with workdps(fam.dps):
            worst = max(abs(Q[i, j] - ref[i, j]) / abs(ref[i, j])
                        for i in range(n) for j in range(n))
        assert float(worst) <= 1e-50

    def test_ln_norms_match_the_exponential_family(self):
        rates = tuple(AcademicLfRule(0.2).mp_entries(20))
        fam, ref = build_biortho(ExponentialSpan(rates, 0.5)), reference_family(rates, 0.5)
        assert fam.dps <= 60 < 222 == ref.dps
        np.testing.assert_array_equal(fam.ln_norms, ref.ln_norms)


def _model_span(model, N, T):
    """The span synthesize builds for the first N modes: every rate twice
    once a mode is a Jordan chain."""
    modes = model.modes(N)
    step = 2 if any(m.kind == "jordan" for m in modes) else 1
    return ExponentialSpan(tuple(m.lam_mp for m in modes for _ in range(step)), T)


def _heat_span(N, T=0.4):
    return ExponentialSpan(tuple(k * k * PI2 for k in range(1, N + 1)), T)


def _power_span(p, N=30, T=0.5):
    return ExponentialSpan(tuple(from_rule(make_rule("power", c=PI2, p=p), N).values[:N]), T)


def _cascade_span(q, N, T=0.5):
    return _model_span(cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, q),))), N, T)


class TestPredictedDigits:
    """The solve digits are predicted from the infinite-horizon Gram's
    closed-form inverse before any solve: within PREDICT_MARGIN of the
    measured log10 cond, so each of these spans is solved once."""

    @pytest.mark.parametrize("make", [
        lambda: _heat_span(8), lambda: _heat_span(12), lambda: _heat_span(40),
        lambda: _heat_span(60), lambda: _power_span(1.5), lambda: _power_span(2.0),
        lambda: ExponentialSpan(tuple(AppendixBRule(0.25).mp_entries(40)), 1.0),
        lambda: ExponentialSpan(tuple(AppendixBRule(1.0).mp_entries(40)), 1.0),
        lambda: ExponentialSpan(tuple(AcademicLfRule(0.2).mp_entries(20)), 0.5),
        lambda: ExponentialSpan(tuple(AcademicLfRule(0.2).mp_entries(40)), 0.5),
        lambda: _cascade_span(0.5, 6), lambda: _cascade_span(2.0, 6),
        lambda: _cascade_span(0.5, 16), lambda: _cascade_span(2.0, 16),
    ], ids=["heat-N8", "heat-N12", "heat-N40", "heat-N60", "power-p1.5-N30",
            "power-p2-N30", "appendixB-0.25-N40", "appendixB-1-N40", "academic-N20",
            "academic-N40", "cascade-0.5-N6", "cascade-2-N6", "cascade-0.5-N16",
            "cascade-2-N16"])
    def test_within_margin_of_the_measured_condition(self, make, solves):
        span = make()
        fam = build_biortho(span)
        predicted = biortho_time._predicted_log10_cond(span)
        assert abs(predicted - fam.cond_log10) < biortho_time.PREDICT_MARGIN
        assert solves == [biortho_time._predicted_dps(span)]
        assert fam.dps == math.ceil(fam.cond_log10) + biortho_time.CARRY_DIGITS <= solves[0]

    def test_infinite_horizon_predicts_as_finite(self, solves):
        # the prediction reads no horizon; heat N=40 solves once at T = inf
        assert biortho_time._predicted_dps(_heat_span(40, None)) \
            == biortho_time._predicted_dps(_heat_span(40)) == 74
        assert build_biortho(_heat_span(40, None)).dps == 72 and solves == [74]

    @pytest.mark.parametrize("rate", [mp.ldexp(1, 10**20), mp.ldexp(1, -10**20)],
                             ids=["above", "below"])
    def test_rate_beyond_binary64_falls_back(self, rate):
        span = ExponentialSpan((mp.mpf(1), rate), 1.0)
        assert math.isnan(biortho_time._predicted_log10_cond(span))
        assert biortho_time._predicted_dps(span) == DEFAULT_DPS

    @pytest.mark.parametrize("make", [
        lambda g: (mp.mpc(1, 1), mp.mpc(1, 1) + g, mp.mpf(3)),
        lambda g: (mp.mpf(2), 2 + g, 2 + 2 * g, mp.mpf(5)),
    ], ids=["complex-unpaired", "real-after-pair"])
    def test_unresolved_float_gaps_use_mp(self, make):
        # rates 1e-20 apart share their binary64 view: on a complex span
        # they do not pair, and on a real one the third is left after the
        # first two pair.  Their rows of the diagonal match the inverse of
        # the infinite-horizon Gram at 200 digits; a pair's first row,
        # whose partner factor is dropped, is not compared.
        with workdps(60):
            span = ExponentialSpan(make(mp.mpf("1e-20")), None)
        assert len(set(map(complex, span.rates))) < span.size
        ln_diag, _ = biortho_time._cauchy_log_diag(span)
        with workdps(200):
            C = mp.inverse(_pairing_mp(span, None, not span.real))
            ref = [float(mp.log(abs(C[i, i]))) for i in range(span.size)]
        firsts = {i - 1 for i, (_, d) in enumerate(span.basis()) if d is not None}
        rows = [i for i in range(span.size) if i not in firsts]
        np.testing.assert_allclose(np.array(ln_diag)[rows], np.array(ref)[rows], rtol=1e-12)


class TestOneSolvePerSpan:
    """The spans of the benchmark's nine `moments` jobs (the cascade's
    coupling q, drawn in [0.5, 2], moves neither digit count): each is
    solved once; the six solved once at DEFAULT_DPS before the prediction
    still are, and every family is carried at the digits it was before."""

    @pytest.mark.parametrize("make,solved,carried", [
        (lambda: _heat_span(12), 60, 43),
        (lambda: _model_span(academic_lf(0.2), 8, 0.5), 60, 41),
        (lambda: _cascade_span(0.5, 6), 60, 45),
        (lambda: _heat_span(8), 60, 39),
        (lambda: _heat_span(40), 74, 72),
        (lambda: _model_span(academic_lf(0.2), 20, 0.5), 60, 55),
        (lambda: _cascade_span(2.0, 16), 69, 67),
        (lambda: _model_span(two_diffusion_boundary(2.0), 24, 0.5), 60, 57),
        (lambda: _power_span(2.0), 63, 62),
    ], ids=["heat-N12", "academic-N8", "cascade-N6", "heat-N8", "heat-N40", "academic-N20",
            "cascade-N16", "two_diffusion-N24", "power-N30"])
    def test_moments_span(self, make, solved, carried, solves):
        fam = build_biortho(make())
        assert solves == [solved]
        assert fam.dps == carried == math.ceil(fam.cond_log10) + biortho_time.CARRY_DIGITS

    def test_short_horizon_miss_solves_again(self, solves):
        # heat N=20 at T = 0.001: the horizon-free prediction (log10 cond
        # 20.2) misses the measured 63.8, so the carried digits are solved
        # at once more, as before the prediction
        span = _heat_span(20, 0.001)
        fam = build_biortho(span)
        assert solves[0] == biortho_time._predicted_dps(span) == DEFAULT_DPS
        assert fam.dps == math.ceil(fam.cond_log10) + biortho_time.CARRY_DIGITS == 94
        assert len(solves) == 2 and fam.dps <= solves[-1]
