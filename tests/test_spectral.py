"""Spectral core: ordering, hypotheses, clustering profiles, closed forms."""

import math

import mpmath as mp
import numpy as np
import pytest

from nullcontrol import (
    blaschke_profile,
    bohr_profile,
    check_hypotheses,
    condensation_profile,
    from_rule,
    make_rule,
)
from nullcontrol import spectral
from nullcontrol.errors import (
    DuplicateEntry,
    NonPositiveRealPart,
    TailBoundUnachievable,
    TooFewModes,
)
from nullcontrol.precision import workdps
from tests.closed_forms import log_eprime_single_family, log_eprime_two_family

PI2 = math.pi**2


def _log_abs(x):
    """ln|x| as a float, the log taken at the working precision: the
    references do not share ``mp_log_abs`` with the code they check."""
    return float(mp.log(abs(x)))


def _all_mp_log_E_prime(seq, k, rel_tail_tol):
    """Reference: every head factor in mpmath, the far tail as ln|1 - w^2|
    on complex float64."""
    lam = seq.entry(k)
    total = math.log(2.0) - math.log(float(abs(lam)))
    with workdps(seq.dps + 20):
        for j, other in enumerate(seq.values, start=1):
            if j != k:
                total += _log_abs(other - lam) + _log_abs(other + lam) - 2 * _log_abs(other)
    J = spectral._tail_start(seq, spectral._head_fit(seq), float(abs(lam)), rel_tail_tol)
    if J > len(seq):
        w = complex(lam) / seq.rule.float_range(0, J)[len(seq):]
        total += float(np.sum(np.log(np.abs(1.0 - w * w))))
    return total


def _direct_far_sum(seq, lam_c, n0, J):
    """Reference: the per-k far sum over entries n0..J-1, each factor as
    log1p(-w^2) (real rules) or Re ln(1 + z) = log1p(2x + x^2 + y^2)/2 with
    z = -w^2 = x + iy (complex rules).  ln|1 - w^2| would round 1 - w^2
    first and lose up to eps per factor: 1.3e-13 over J = 2.7e5."""
    if J <= n0:
        return 0.0
    total = 0.0
    chunk = 1 << 20
    vals = seq.rule.float_range(0, J)
    real = seq.rule.real
    if real:
        vals, lam_c = vals.real, lam_c.real
    for lo in range(n0, J, chunk):
        w = np.divide(lam_c, vals[lo:min(J, lo + chunk)])
        np.multiply(w, w, out=w)
        if real:
            np.negative(w, out=w)
            total += float(np.log1p(w, out=w).sum())
        else:
            x, y = -w.real, -w.imag
            total += 0.5 * float(np.log1p(x * (2.0 + x) + y * y).sum())
    return total


def _direct_blaschke_far_sum(seq, lam_c, n0, J):
    """Reference: the per-k W' far sum over entries n0..J-1, each factor as
    log1p(w) - log1p(-w) (real rules) or, for z = conj(lam)/l and z = -lam/l,
    Re ln(1 + z) = log1p(2x + x^2 + y^2)/2 (complex rules).  ln|1 -+ w|
    would round 1 -+ w first: 3.7e-12 over J = 65536 (power c=1+0.5j, k=30)."""
    if J <= n0:
        return 0.0
    vals = seq.rule.float_range(0, J)[n0:J]
    if seq.rule.real:
        lam = lam_c.real
        return float(np.sum(np.log1p(lam / vals.real) - np.log1p(-lam / vals.real)))

    def re_log1p(z):
        return 0.5 * np.log1p(z.real * (2.0 + z.real) + z.imag * z.imag)

    return float(np.sum(re_log1p(np.conj(lam_c) / vals) - re_log1p(-lam_c / vals)))


def _far_args(seq, ks, rel_tail_tol=1e-10):
    """Float entries and truncations J_k of ks, as log_E_primes passes them."""
    lams = np.array([complex(seq.entry(k)) for k in ks])
    fit = spectral._head_fit(seq)
    Js = np.array([spectral._tail_start(seq, fit, float(abs(seq.entry(k))), rel_tail_tol)
                   for k in ks])
    return (lams.real if seq.rule.real else lams), Js


def _all_mp_blaschke_log_wprime(seq, k, rel_tail_tol):
    """Reference: every head factor of ln P_k in mpmath."""
    lam = seq.entry(k)
    ln_pk = 0.0
    with workdps(seq.dps + 20):
        for j, other in enumerate(seq.values, start=1):
            if j != k:
                ln_pk += _log_abs(mp.conj(other) + lam) - _log_abs(other - lam)
    lam_c = complex(lam)
    tol_abs = rel_tail_tol * max(1.0, lam_c.real)
    J, rem = spectral._blaschke_tail(seq, {}, abs(lam_c), len(seq), tol_abs)
    ln_pk += _direct_blaschke_far_sum(seq, lam_c, len(seq), J) + rem
    return -math.log(2.0 * float(lam.real)) - ln_pk


def _all_pairs_bohr(seq, K):
    """Reference: nearest neighbour of every entry over all pairs in mpmath."""
    vs, partners = [], []
    with workdps(seq.dps + 20):
        for k in range(1, K + 1):
            lam = seq.values[k - 1]
            best, best_j = None, -1
            for j, other in enumerate(seq.values, start=1):
                if j != k and (best is None or abs(other - lam) < best):
                    best, best_j = abs(other - lam), j
            vs.append(-_log_abs(best) / float(lam.real))
            partners.append(best_j)
    return np.array(vs), np.array(partners)


def _explicit(values):
    """The finite sequence of ``values``, in normal order."""
    return from_rule(make_rule("explicit", values=values), len(values))


def _sub_eps_pair_sequence():
    # 2 and 2 + 1e-40 coincide in binary64; the rest is well separated
    with workdps(60):
        return _explicit([mp.mpf(1), mp.mpf(2), mp.mpf(2) + mp.mpf("1e-40"),
                          mp.mpf(5), mp.mpf(9) + 2j, mp.mpf(16)])


_HYBRID_CASES = {
    "appendixB-0.25": lambda: from_rule(make_rule("appendixB", tau=0.25), 40),
    "appendixB-1": lambda: from_rule(make_rule("appendixB", tau=1.0), 30),
    "academic_lf-0.2": lambda: from_rule(make_rule("academic_lf", tau=0.2), 30),
    "two_diffusion-2": lambda: from_rule(make_rule("two_diffusion", d=2.0, scale=PI2), 40),
    "power-complex": lambda: from_rule(make_rule("power", c=1 + 0.5j, p=2.0), 30),
    "finite-sub-eps": _sub_eps_pair_sequence,
}


class TestNormalOrder:
    """Finite sequences are put in normal order by the explicit rule."""

    def test_sorts_by_modulus(self):
        seq = _explicit([4, 1, 9])
        assert [float(v) for v in seq.values] == [1.0, 4.0, 9.0]

    def test_float_view_ends_with_the_sequence(self):
        seq = _explicit([9.0, 1.0, 4.0])
        assert list(seq.floats) == [1.0, 4.0, 9.0]

    def test_modulus_then_argument(self):
        seq = _explicit([1 + 1j, 1 - 1j, 1])
        got = [complex(v) for v in seq.values]
        assert got == [1 + 0j, 1 - 1j, 1 + 1j]

    def test_already_ordered_untouched(self):
        vals = [k * k * PI2 for k in range(1, 6)]
        seq = _explicit(vals)
        assert [float(v) for v in seq.values] == vals

    def test_rejects_nonpositive_real_part(self):
        with pytest.raises(NonPositiveRealPart):
            _explicit([1.0, -2.0])
        with pytest.raises(NonPositiveRealPart):
            _explicit([1j])

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateEntry):
            _explicit([3.0, 3.0])

    def test_entries_keep_their_own_digits(self):
        # 1 and 1 + 1e-80 built at 100 digits: validated at 60 + 10 digits
        # they would coincide
        with workdps(100):
            pair = [mp.mpf(1), 1 + mp.mpf("1e-80")]
        seq = _explicit(pair)
        assert seq.dps >= 100
        assert list(seq.values) == pair and seq.values[0] != seq.values[1]
        # binary64 entries keep the 60-digit floor
        assert _explicit([3.0, 1.0, 2.0 + 1j]).dps == 60

    def test_permutation_invariance_of_profiles(self):
        rng = np.random.default_rng(7)
        vals = [k * k * PI2 for k in range(1, 25)]
        shuffled = list(vals)
        rng.shuffle(shuffled)
        a = bohr_profile(_explicit(vals), 16)
        b = bohr_profile(_explicit(shuffled), 16)
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12)


class TestCheckHypotheses:
    def test_quadratic_growth_summable(self):
        seq = from_rule(make_rule("power", c=PI2, p=2.0), 100)
        rep = check_hypotheses(seq, 100)
        assert abs(rep.summability_exponent - 2.0) < 0.05
        assert rep.summable and rep.warnings == []

    def test_linear_growth_flags_failure(self):
        seq = _explicit([2 * k - 1 for k in range(1, 101)])
        rep = check_hypotheses(seq, 100)
        assert abs(rep.summability_exponent - 1.0) < 0.05
        assert not rep.summable
        assert "HYP_SUMMABILITY_FAIL" in rep.warnings

    def test_sector_estimate_constant_argument(self):
        c = (1 + 1j) / math.sqrt(2.0)
        seq = from_rule(make_rule("power", c=c, p=2.0), 40)
        rep = check_hypotheses(seq, 40)
        assert abs(rep.sector_delta_est - 1 / math.sqrt(2.0)) < 1e-12

    def test_too_few_modes(self):
        seq = _explicit([1.0, 2.0, 3.0])
        with pytest.raises(TooFewModes):
            check_hypotheses(seq, 3)


class TestLogEPrime:
    def test_single_entry_exact(self):
        # E(z) = 1 - z^2, E'(1) = -2
        seq = _explicit([1.0])
        assert spectral.log_E_primes(seq, [1])[0] == pytest.approx(math.log(2.0), abs=1e-14)

    def test_sine_product_oracle_symbolic(self):
        # independent oracle: differentiate sin(sqrt z) sinh(sqrt z)/z symbolically
        import sympy

        z = sympy.symbols("z")
        expr = sympy.sin(sympy.sqrt(z)) * sympy.sinh(sympy.sqrt(z)) / z
        dE = sympy.diff(expr, z)
        lam3 = 9 * sympy.pi**2
        want = float(sympy.log(sympy.Abs(dE.subs(z, lam3))).evalf(40))
        seq = from_rule(make_rule("power", c=PI2, p=2.0), 400)
        got = spectral.log_E_primes(seq, [3], rel_tail_tol=1e-9)[0]
        assert got == pytest.approx(want, rel=1e-6)

    def test_sine_product_closed_form_helper(self):
        seq = from_rule(make_rule("power", c=PI2, p=2.0), 400)
        for k in (1, 2, 5):
            got = spectral.log_E_primes(seq, [k], rel_tail_tol=1e-9)[0]
            assert got == pytest.approx(log_eprime_single_family(k, scale=PI2), rel=1e-7)

    def test_large_scale_closed_form(self):
        # the tail bounds work in lam/c: c^2 lam^2 would overflow at c = 1e200
        seq = from_rule(make_rule("power", c=1e200, p=2.0), 12)
        got = spectral.log_E_primes(seq, [1, 2, 5])
        want = [log_eprime_single_family(k, scale=1e200) for k in (1, 2, 5)]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_blaschke_scale_covariance(self):
        # P_k is scale free, so ln|W'(lam_k)| moves by -ln c; c^3 lam^3 of
        # the tail's cubic term would overflow at c = 1e200
        one = spectral.blaschke_log_wprimes(from_rule(make_rule("power", c=1.0, p=2.0), 12),
                                            [1, 2, 5])
        big = spectral.blaschke_log_wprimes(from_rule(make_rule("power", c=1e200, p=2.0), 12),
                                            [1, 2, 5])
        np.testing.assert_allclose(big + math.log(1e200), one, rtol=1e-12)

    @pytest.mark.parametrize("d", [2.0, 5.0])
    def test_two_family_closed_form(self, d):
        seq = from_rule(make_rule("two_diffusion", d=d, scale=1.0), 4000)
        floats = np.real(seq.rule.float_range(0, 4000))
        for k in (1, 2, 7, 20):
            idx = int(np.searchsorted(floats, k * k) + 1)
            assert abs(floats[idx - 1] - k * k) < 1e-9
            got = spectral.log_E_primes(seq, [idx], rel_tail_tol=1e-8)[0]
            want = log_eprime_two_family(k, d, scale=1.0)
            assert got == pytest.approx(want, rel=1e-6)

    def test_truncation_doubling_stability(self):
        seq = from_rule(make_rule("power", c=1.0, p=2.0), 64)
        tol = 1e-8
        a = spectral.log_E_primes(seq, [5], rel_tail_tol=tol)[0]
        b = spectral.log_E_primes(seq, [5], rel_tail_tol=tol / 4)[0]
        assert abs(a - b) < tol

    def test_finite_list_is_exact_product(self):
        vals = [1.0, 4.0, 9.0]
        seq = _explicit(vals)
        lam = 4.0
        want = math.log(2.0 / lam) + sum(
            math.log(abs(1 - lam**2 / v**2)) for v in vals if v != lam)
        assert spectral.log_E_primes(seq, [2])[0] == pytest.approx(want, abs=1e-12)

    def test_tail_unachievable_for_linear_growth(self):
        seq = from_rule(make_rule("power", c=1.0, p=1.0), 64)
        with pytest.raises(TailBoundUnachievable):
            spectral.log_E_primes(seq, [3])


class TestFarTail:
    """Batched far sums against the per-k direct log1p loop."""

    _CASES = {
        "power": lambda: from_rule(make_rule("power", c=1.0, p=2.0), 40),
        "power-complex": lambda: from_rule(make_rule("power", c=1 + 0.5j, p=2.0), 30),
        "appendixB-0.25": lambda: from_rule(make_rule("appendixB", tau=0.25), 40),
        "two_diffusion-2": lambda: from_rule(make_rule("two_diffusion", d=2.0, scale=PI2), 40),
    }

    @staticmethod
    def _check(seq, lams, Js):
        got = spectral._far_sums(seq, lams, len(seq), Js, 2)
        want = [_direct_far_sum(seq, complex(lam), len(seq), int(J)) for lam, J in zip(lams, Js)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        return got

    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_matches_direct_loop(self, case):
        seq = self._CASES[case]()
        lams, Js = _far_args(seq, range(1, len(seq) + 1))
        assert Js.max() > 10 * len(seq)  # the far zone is reached
        self._check(seq, lams, Js)

    def test_shared_empty_and_near_truncations(self):
        seq = from_rule(make_rule("appendixB", tau=0.25), 20)
        n0 = len(seq)
        lams, _ = _far_args(seq, [2, 5, 9, 14, 20, 3, 7, 11])
        # J0: first entry with |lam_j| >= max_k |lam_k| / sqrt(rho)
        J0 = int(np.searchsorted(seq.rule.float_range(0, 1 << 16),
                                 np.abs(lams).max() / math.sqrt(spectral._RHO)))
        assert n0 + 3 < J0
        # shared J_k, J_k == J0 (empty far segment, twice), J_k inside the
        # near zone, J_k <= n0, and truncations across chunk boundaries
        Js = np.array([J0, J0, n0 + 3, J0 + 1000, J0 + 1000, n0 - 2,
                       J0 + (1 << 20) + 17, 3 << 19])
        self._check(seq, lams, Js)

    def test_finite_and_untruncated(self):
        seq = from_rule(make_rule("power", c=1.0, p=2.0), 30)
        lams, _ = _far_args(seq, [1, 30])
        assert not spectral._far_sums(seq, lams, len(seq), np.array([30, 12]), 2).any()
        finite = _explicit([1.0, 4.0, 9.0, 16.0])
        got = spectral.log_E_primes(finite, [3, 1])
        want = [math.log(2.0 / lam) + sum(math.log(abs(1 - lam**2 / v**2))
                                          for v in (1.0, 4.0, 9.0, 16.0) if v != lam)
                for lam in (9.0, 1.0)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_single_k(self):
        seq = self._CASES["two_diffusion-2"]()
        for k in (1, 17, 40):
            lams, Js = _far_args(seq, [k])
            self._check(seq, lams, Js)

    @pytest.mark.parametrize("case", ["appendixB-0.25", "power-complex"])
    def test_unsorted_and_sparse_ks(self, case):
        seq = self._CASES[case]()
        ks = np.array([19, 3, 27, 8])
        got = spectral.log_E_primes(seq, ks)
        order = np.argsort(ks)
        assert np.array_equal(spectral.log_E_primes(seq, ks[order]), got[order])
        for k, v in zip(ks, got):
            assert abs(v - spectral.log_E_primes(seq, [k])[0]) <= 1e-13
            assert abs(v - _all_mp_log_E_prime(seq, k, 1e-10)) <= 1e-10

    def test_small_chunks(self, monkeypatch):
        # 1000-entry chunks: many far-zone chunks and several near-zone blocks
        seq = self._CASES["power-complex"]()
        lams, Js = _far_args(seq, range(1, len(seq) + 1, 3))
        want = spectral._far_sums(seq, lams, len(seq), Js, 2)
        monkeypatch.setattr(spectral, "_CHUNK", 1000)
        np.testing.assert_allclose(self._check(seq, lams, Js), want, rtol=0, atol=1e-13)

    def test_log1p_cost(self, monkeypatch):
        # appendixB K=100: J_100 ~ 1.1e6, so a per-k log1p pass over the
        # far tail would take ~47e6 evaluations
        count = [0]
        log1p = np.log1p

        def counting(x, *args, **kwargs):
            count[0] += np.size(x)
            return log1p(x, *args, **kwargs)

        monkeypatch.setattr(spectral.np, "log1p", counting)
        K = 100
        condensation_profile(from_rule(make_rule("appendixB", tau=0.25), K), K)
        assert 0 < count[0] < 1_000_000


class TestBlaschkeFarTail:
    """Batched W' far sums against the per-k direct loop."""

    _CASES = {
        "appendixB-0.25": (lambda: from_rule(make_rule("appendixB", tau=0.25), 40), 1e-10),
        "appendixB-1": (lambda: from_rule(make_rule("appendixB", tau=1.0), 40), 1e-10),
        "power-pi2": (lambda: from_rule(make_rule("power", c=PI2, p=2.0), 40), 1e-9),
        "power-complex": (lambda: from_rule(make_rule("power", c=1 + 0.5j, p=2.0), 30), 1e-4),
    }

    @staticmethod
    def _args(seq, ks, tol):
        """Float entries and work-zone ends J_k of ks, as blaschke_log_wprimes passes them."""
        lams = np.array([complex(seq.entry(k)) for k in ks])
        fits = {}
        Js = np.array([spectral._blaschke_tail(seq, fits, abs(lam), len(seq),
                                               tol * max(1.0, lam.real))[0] for lam in lams])
        return lams, Js

    @staticmethod
    def _check(seq, lams, Js):
        got = spectral._far_sums(seq, lams, len(seq), Js, 1)
        want = [_direct_blaschke_far_sum(seq, lam, len(seq), int(J)) for lam, J in zip(lams, Js)]
        np.testing.assert_allclose(got, want, rtol=2e-15, atol=1e-13)
        return got

    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_matches_direct_loop(self, case):
        make, tol = self._CASES[case]
        seq = make()
        lams, Js = self._args(seq, range(1, len(seq) + 1, 3), tol)
        assert Js.min() > 100 * len(seq)  # the far zone is reached
        self._check(seq, lams, Js)

    def test_crafted_truncations(self):
        # shared J_k, J_k == J0, inside the near zone, <= n0, across chunks
        seq = from_rule(make_rule("appendixB", tau=0.25), 20)
        n0 = len(seq)
        lams, _ = self._args(seq, [2, 5, 9, 14, 20, 3, 7, 11], 1e-10)
        J0 = int(np.searchsorted(seq.rule.float_range(0, 1 << 16),
                                 np.abs(lams).max() / math.sqrt(spectral._RHO)))
        assert n0 + 3 < J0
        Js = np.array([J0, J0, n0 + 3, J0 + 1000, J0 + 1000, n0 - 2,
                       J0 + (1 << 20) + 17, 3 << 19])
        self._check(seq, lams, Js)

    @pytest.mark.parametrize("case", ["appendixB-0.25", "power-complex"])
    def test_series_zone_alone(self, case):
        # n0 = J0: every factor comes from the cut series, those with
        # |w| near 2^-4 weigh most (13 -> 10 terms moves appendixB by 3e-14)
        make, tol = self._CASES[case]
        seq = make()
        lams, _ = self._args(seq, [2, 5, 9, 14, 20], tol)
        J0 = int(np.searchsorted(np.abs(seq.rule.float_range(0, 1 << 16)),
                                 np.abs(lams).max() / math.sqrt(spectral._RHO)))
        Js = J0 + np.array([1, 10, 100, 1000, 30000])
        got = spectral._far_sums(seq, lams, J0, Js, 1)
        want = [_direct_blaschke_far_sum(seq, lam, J0, int(J)) for lam, J in zip(lams, Js)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("case", ["appendixB-0.25", "power-complex"])
    def test_unsorted_and_sparse_ks(self, case):
        make, tol = self._CASES[case]
        seq = make()
        ks = np.array([19, 3, 27, 8])
        got = spectral.blaschke_log_wprimes(seq, ks, tol)
        order = np.argsort(ks)
        assert np.array_equal(spectral.blaschke_log_wprimes(seq, ks[order], tol), got[order])
        for k, v in zip(ks, got):
            one = spectral.blaschke_log_wprimes(seq, [k], tol)[0]
            assert abs(v - one) <= 1e-12
            want = _all_mp_blaschke_log_wprime(seq, k, tol)
            assert abs(v - want) <= tol * max(1.0, float(mp.re(seq.entry(k))))

    @pytest.mark.parametrize("case", ["power-pi2", "power-complex"])
    def test_small_chunks(self, monkeypatch, case):
        # 1000-entry chunks: many far-zone chunks and several near-zone blocks
        make, tol = self._CASES[case]
        seq = make()
        lams, Js = self._args(seq, range(1, len(seq) + 1, 3), tol)
        want = spectral._far_sums(seq, lams, len(seq), Js, 1)
        monkeypatch.setattr(spectral, "_CHUNK", 1000)
        np.testing.assert_allclose(self._check(seq, lams, Js), want, rtol=2e-15, atol=1e-13)

    def test_log1p_cost(self, monkeypatch):
        # appendixB K=100: every J_k is 2^21, so a per-k log1p pass over
        # the work zone would take ~4e8 evaluations
        count = [0]
        log1p = np.log1p

        def counting(x, *args, **kwargs):
            count[0] += np.size(x)
            return log1p(x, *args, **kwargs)

        monkeypatch.setattr(spectral.np, "log1p", counting)
        K = 100
        blaschke_profile(from_rule(make_rule("appendixB", tau=0.25), K), K)
        assert 0 < count[0] < 1_000_000

    def test_complex_blaschke_tail_doubles_J(self):
        # the plain-truncation bound misses 3e-5 at the first J and meets it
        # at J = 2^18; 1e-6 would need J past the cap
        seq = from_rule(make_rule("power", c=1 + 0.5j, p=2.0), 30)
        tol_abs = 3e-5 * float(mp.re(seq.entry(30)))
        lam_abs = abs(complex(seq.entry(30)))
        assert spectral._blaschke_tail(seq, {}, lam_abs, len(seq), tol_abs) == (1 << 18, 0.0)
        got = spectral.blaschke_log_wprimes(seq, [30], 3e-5)[0]
        assert got == pytest.approx(-86.6603, abs=1e-4)
        assert abs(got - spectral.blaschke_log_wprimes(seq, [30], 1e-4)[0]) <= tol_abs
        with pytest.raises(TailBoundUnachievable, match="J="):
            spectral.blaschke_log_wprimes(seq, [30], 1e-6)


class TestHybridHead:
    """Float64 head factors against the all-mp head loop."""

    @pytest.mark.parametrize("case", sorted(_HYBRID_CASES))
    def test_log_E_prime_matches_all_mp(self, case):
        seq = _HYBRID_CASES[case]()
        tol = 1e-10
        for k in range(1, min(len(seq), 30) + 1):
            got = spectral.log_E_primes(seq, [k], tol)[0]
            assert abs(got - _all_mp_log_E_prime(seq, k, tol)) <= tol, (case, k)

    @pytest.mark.parametrize("case", sorted(_HYBRID_CASES))
    def test_blaschke_matches_all_mp(self, case):
        seq = _HYBRID_CASES[case]()
        # complex zeros: the far tail is a plain truncation, which cannot
        # reach 1e-10 within the entry cap
        tol = 1e-4 if case == "power-complex" else 1e-10
        for k in range(1, min(len(seq), 30) + 1, 1 if not seq.rule.infinite else 3):
            got = spectral.blaschke_log_wprimes(seq, [k], tol)[0]
            want = _all_mp_blaschke_log_wprime(seq, k, tol)
            assert abs(got - want) <= tol * max(1.0, float(mp.re(seq.entry(k)))), (case, k)

    def test_mp_log_count(self, monkeypatch):
        # only factors whose float error bound is too large reach mpmath:
        # for appendixB that is about one pair partner per k
        calls = [0]
        real_log = spectral.mp_log_abs

        def counting(x):
            calls[0] += 1
            return real_log(x)

        monkeypatch.setattr(spectral, "mp_log_abs", counting)
        K = 100
        condensation_profile(from_rule(make_rule("appendixB", tau=0.25), K), K)
        assert calls[0] <= 3 * K

    @pytest.mark.parametrize("case", ["appendixB-0.25", "appendixB-1", "finite-sub-eps",
                                      "tie", "float-tie"])
    def test_bohr_float_candidates_match_all_pairs(self, case):
        if case == "tie":
            # lam = 2 has both neighbours at distance exactly 1: the first wins
            seq, partner_of_2 = _explicit([1.0, 2.0, 3.0, 5.0, 7.0]), 1
        elif case == "float-tie":
            # both gaps of lam = 2 round to 1.0; the right one is smaller
            with workdps(60):
                seq = _explicit([mp.mpf(1) + mp.mpf("1e-20"), mp.mpf(2),
                                 mp.mpf(3) - mp.mpf("2e-20"), mp.mpf(5), mp.mpf(7)])
            partner_of_2 = 3
        else:
            seq, partner_of_2 = _HYBRID_CASES[case](), None
        K = len(seq) if not seq.rule.infinite else 30
        prof = bohr_profile(seq, K)
        vs, partners = _all_pairs_bohr(seq, K)
        assert np.array_equal(prof.values, vs)
        assert np.array_equal(prof.extras["partner"], partners)
        if partner_of_2 is not None:
            assert partners[1] == partner_of_2


class TestRepeatedCalls:
    @pytest.mark.parametrize("case", sorted(_HYBRID_CASES))
    def test_second_call_bit_identical(self, case):
        # every tail fit lives in the call that makes it: nothing carries over
        seq = _HYBRID_CASES[case]()
        ks = range(1, min(len(seq), 20) + 1)
        tol = 1e-4 if case == "power-complex" else 1e-10
        for log_derivatives in (spectral.log_E_primes, spectral.blaschke_log_wprimes):
            first = log_derivatives(seq, ks, tol)
            assert log_derivatives(seq, ks, tol).tobytes() == first.tobytes(), log_derivatives


def _explicit_sub_1e80_pair():
    with workdps(100):
        return _explicit([mp.mpf(1), 1 + mp.mpf("1e-80")])


_FACTOR_DIGIT_CASES = {
    "appendixB-0.25-K100": (lambda: from_rule(make_rule("appendixB", tau=0.25), 100), 100),
    "appendixB-1-K250": (lambda: from_rule(make_rule("appendixB", tau=1.0), 250), 250),
    "academic_lf-0.2-K60": (lambda: from_rule(make_rule("academic_lf", tau=0.2), 60), 60),
    "explicit-1e-80": (_explicit_sub_1e80_pair, 2),
}


class TestFactorDigits:
    """Head factors formed at DEFAULT_DPS against the same factors formed
    at the stored digits + 20, the precision they were formed at while the
    rules published their head digits: every value bit-identical."""

    @staticmethod
    def _profiles(seq, K, monkeypatch=None):
        digits = []
        if monkeypatch is not None:
            def at_head_digits(dps):
                digits.append(dps)
                return workdps(seq.dps + 20)
            monkeypatch.setattr(spectral, "workdps", at_head_digits)
        profiles = [condensation_profile(seq, K), bohr_profile(seq, K)]
        if K <= 100:
            profiles.append(blaschke_profile(seq, K))
        return profiles, digits

    @pytest.mark.parametrize("case", sorted(_FACTOR_DIGIT_CASES))
    def test_profiles_bit_identical(self, monkeypatch, case):
        make_seq, K = _FACTOR_DIGIT_CASES[case]
        seq = make_seq()
        shipped, _ = self._profiles(seq, K)
        raised, digits = self._profiles(seq, K, monkeypatch)
        assert digits and set(digits) == {spectral.DEFAULT_DPS} and seq.dps > spectral.DEFAULT_DPS
        for got, want in zip(shipped, raised):
            assert got.values.tobytes() == want.values.tobytes(), (case, got.name)
            assert np.array_equal(got.extras.get("partner", []), want.extras.get("partner", []))


class TestProfiles:
    def test_condensation_gap_sequence_tail_small(self):
        seq = from_rule(make_rule("power", c=PI2, p=2.0), 30)
        prof = condensation_profile(seq, 30, rel_tail_tol=1e-8)
        assert abs(prof.tail_estimate) < 0.02

    def test_running_sup_monotone_and_tail_below_sup(self):
        seq = from_rule(make_rule("appendixB", tau=0.25), 40)
        prof = condensation_profile(seq, 40, rel_tail_tol=1e-8)
        assert np.all(np.diff(prof.running_sup) >= 0)
        assert prof.tail_estimate <= prof.running_sup[-1] + 1e-15

    @pytest.mark.parametrize("tau", [0.25, 1.0])
    def test_condensation_converges_to_pair_decay_rate(self, tau):
        # approaches tau from below: -2pi/k from the sinh-type mass of the
        # product, + O(log k / k^2) polynomial corrections
        seq = from_rule(make_rule("appendixB", tau=tau), 60)
        prof = condensation_profile(seq, 60, rel_tail_tol=1e-8)
        ks = ((prof.ks + 1) // 2).astype(float)[20:]
        model = tau - 2 * math.pi / ks \
            + (4 * np.log(ks) + 2 * np.log(8 * math.pi * ks) - 2 * math.log(2.0)) / ks**2
        np.testing.assert_allclose(prof.values[20:], model, atol=0.05)

    def test_bohr_profile_gap_sequence(self):
        seq = from_rule(make_rule("power", c=PI2, p=2.0), 40)
        prof = bohr_profile(seq, 30)
        k = np.arange(1, 31, dtype=float)
        # nearest neighbor of k^2 pi^2 sits on the left for k >= 2:
        # gap (2k-1) pi^2, growing, so the tail vanishes
        gap = np.where(k == 1, 3.0, 2 * k - 1) * PI2
        want = -np.log(gap) / (k * k * PI2)
        assert np.all(prof.values < 0)
        assert abs(prof.tail_estimate) < 0.01
        np.testing.assert_allclose(prof.values, want, rtol=1e-12)

    @pytest.mark.parametrize("tau", [0.25, 1.0])
    def test_bohr_tail_is_exactly_pair_rate(self, tau):
        seq = from_rule(make_rule("appendixB", tau=tau), 60)
        prof = bohr_profile(seq, 60)
        assert prof.tail_estimate == pytest.approx(tau, rel=1e-9)
        # partner of each first member is its pair partner
        partners = prof.extras["partner"]
        assert partners[28] == 30 and partners[29] == 29

    def test_bohr_partner_two_diffusion_nearest_integer(self):
        d = 2.0
        seq = from_rule(make_rule("two_diffusion", d=d, scale=PI2), 60)
        prof = bohr_profile(seq, 40)
        floats = np.real(seq.floats[:60])
        for k in (7, 12):
            idx = int(np.searchsorted(floats, k * k * PI2 * (1 - 1e-12)) + 1)
            j = round(k / math.sqrt(d))
            partner_val = floats[prof.extras["partner"][idx - 1] - 1]
            assert partner_val == pytest.approx(d * j * j * PI2, rel=1e-12)


class TestBlaschke:
    def test_single_entry(self):
        seq = _explicit([1.0])
        assert spectral.blaschke_log_wprimes(seq, [1])[0] == pytest.approx(-math.log(2.0), abs=1e-14)

    def test_tail_agrees_with_condensation_limit_direction(self):
        # both profiles converge to the same index from opposite sides
        seq = from_rule(make_rule("appendixB", tau=0.25), 60)
        cond = condensation_profile(seq, 60, rel_tail_tol=1e-8)
        bla = blaschke_profile(seq, 60, rel_tail_tol=1e-8)
        assert np.all(bla.values[10:] >= cond.values[10:])
        ks = ((bla.ks + 1) // 2).astype(float)[20:]
        model = 0.25 + 2 * math.pi / ks
        np.testing.assert_allclose(bla.values[20:], model, atol=0.12)

    def test_gap_sequence_cross_check(self):
        # exact finite-k link between the two representations for k^2 pi^2:
        # v_W - v_E = [2 ln 2 + 2 ln(sinh(k pi)/(2 k pi))] / lam_k, both -> 0
        seq = from_rule(make_rule("power", c=PI2, p=2.0), 400)
        k = 2
        lam = k * k * PI2
        v_b = -spectral.blaschke_log_wprimes(seq, [k], rel_tail_tol=1e-9)[0] / lam
        cond = condensation_profile(seq, 4, rel_tail_tol=1e-9)
        gap_model = (2 * math.log(2.0) + 2 * (k * math.pi - math.log(2.0)
                                              - math.log(2 * k * math.pi))) / lam
        assert v_b - cond.values[k - 1] == pytest.approx(gap_model, abs=1e-6)
