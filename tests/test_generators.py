"""Sequence rules: merge correctness, precision heads, float ranges and lookups."""

import bisect
import copy
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from nullcontrol import generators, models
from nullcontrol.errors import NumericalError, TailBoundUnachievable
from nullcontrol.generators import (
    MAX_HEAD_DPS, AcademicLfRule, AppendixBRule, ExplicitRule, PowerRule, TwoDiffusionRule,
    make_rule,
)
from nullcontrol.spectral import blaschke_profile, bohr_profile, condensation_profile, from_rule

PI2 = math.pi**2


def _exact_merge(d, scale, n):
    """Reference: (family, k, value) of the first n two_diffusion entries, a
    two-pointer merge of s k^2 and fl(s d) k^2 by exact Fraction value,
    family 1 first on a tie."""
    factors, ks, out = (Fraction(scale), Fraction(scale * d)), [1, 1], []
    while len(out) < n:
        v1, v2 = factors[0] * ks[0] ** 2, factors[1] * ks[1] ** 2
        fam = 1 if v1 <= v2 else 2
        out.append((fam, ks[fam - 1], v1 if fam == 1 else v2))
        ks[fam - 1] += 1
    return out


class TestTwoDiffusionMerge:
    @pytest.mark.parametrize("d", [0.037, 0.3, 2.0, 7.0, 55.0])
    def test_merge_matches_brute_force(self, d):
        rule = make_rule("two_diffusion", d=d, scale=1.0)
        n = 200
        got = [float(v) for v in rule.mp_entries(n)]
        big = sorted([k * k for k in range(1, 400)] + [d * k * k for k in range(1, 400)])
        np.testing.assert_allclose(got, big[:n], rtol=1e-12)
        np.testing.assert_allclose(np.real(rule.float_range(0, n)), big[:n], rtol=1e-12)

    def test_float_and_mp_views_agree(self):
        rule = make_rule("two_diffusion", d=2.0, scale=math.pi**2)
        mp_vals = [float(v) for v in rule.mp_entries(60)]
        np.testing.assert_allclose(np.real(rule.float_range(0, 60)), mp_vals, rtol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, PI2], ids=["1", "pi2"])
    @pytest.mark.parametrize("d", [0.25, 0.3, 2.0, 2.25, 4.0, 7.3, 9.0, 1 + 1e-7])
    def test_tags_match_exact_merge(self, d, scale):
        # the family-1 count against the merge, exact ties (d = 0.25, 2.25,
        # 4 and 9 at scale 1) included; the float view is the exact order rounded
        n = 3000
        want = _exact_merge(d, scale, n)
        rule = TwoDiffusionRule(d, scale)
        for j in range(n, 0, -1):  # largest first, on a fresh rule
            fam, k, value = want[j - 1]
            assert rule.tag(j) == (fam, k), j
            x = rule.mp_entry(j)
            assert x.man * Fraction(2) ** x.exp == value, j
        assert rule.float_range(0, n).tolist() == [float(v) for _, _, v in want]


class TestEntryAlone:
    @pytest.mark.parametrize("name, params", [
        ("power", {"c": math.pi**2, "p": 2.0}),
        ("power", {"c": 1 + 0.5j, "p": 1.5}),
        ("two_diffusion", {"d": 3.7, "scale": math.pi**2}),
        ("two_diffusion", {"d": 0.3, "scale": 1.0}),
        ("academic_lf", {"tau": 0.2}),
    ])
    def test_entry_matches_every_head(self, name, params):
        # entry j does not depend on how many entries are asked for
        heads = [make_rule(name, **params).mp_entries(n) for n in (1, 7, 40)]
        rule = make_rule(name, **params)
        for j in range(40, 0, -1):  # largest first: no entry before j is asked for
            got = rule.mp_entry(j)
            for head in heads:
                if j <= len(head):
                    assert got == head[j - 1] and repr(got) == repr(head[j - 1]), j

    @pytest.mark.parametrize("tau", [0.25, 1.0])
    def test_appendix_entry_independent_of_head_length(self, tau):
        # each pair is computed at its own digits, so a short head, a long
        # head and the entry alone agree to the last bit
        rule = AppendixBRule(tau)
        short, long_ = rule.mp_entries(12), rule.mp_entries(108)
        for j in range(12):
            assert short[j]._mpf_ == long_[j]._mpf_ == rule.mp_entry(j + 1)._mpf_, j

    def test_appendix_entry_defaults_to_its_head(self):
        rule = make_rule("appendixB", tau=0.5)
        for j in (1, 2, 9, 30):
            assert repr(rule.mp_entry(j)) == repr(rule.mp_entries(j)[j - 1])

    def test_two_diffusion_tags(self):
        rule = make_rule("two_diffusion", d=2.0, scale=1.0)
        # 1, 2, 4, 8, 9, 16
        assert [rule.tag(j) for j in range(1, 7)] == [(1, 1), (2, 1), (1, 2), (2, 2),
                                                       (1, 3), (1, 4)]


# every rule of make_rule, and the harmonic oscillator's
_STATELESS = {
    "power": lambda: PowerRule(PI2, 1.5),
    "appendixB": lambda: AppendixBRule(0.25),
    "two_diffusion": lambda: TwoDiffusionRule(2.0, PI2),
    "academic_lf": lambda: AcademicLfRule(0.2),
    "explicit": lambda: ExplicitRule([9.0, 1.0, 4.0 + 1j, 16.0, 2.0, 25.0, 36.0, 49.0, 64.0]),
    "odd": models._OddRule,
}


class TestStatelessRules:
    """A rule is a pure function of its constructor arguments."""

    def test_every_rule_covered(self):
        assert set(generators._RULES) <= set(_STATELESS)

    @pytest.mark.parametrize("name", sorted(_STATELESS))
    def test_attributes_fixed_at_construction(self, name):
        rule = _STATELESS[name]()
        before = copy.deepcopy(vars(rule))
        K = 9
        seq = from_rule(rule, K)
        profiles = [condensation_profile, bohr_profile]
        if rule.infinite:
            profiles.append(blaschke_profile)
        for profile in profiles:
            try:
                profile(seq, K)
            except TailBoundUnachievable:  # 2k - 1 grows too slowly for a tail bound
                assert name == "odd"
        if isinstance(rule, TwoDiffusionRule):
            assert [rule.tag(j) for j in (K, 1)] == [(2, 4), (1, 1)]  # 32 = 2 * 4^2 pi^2
        n = len(seq)
        rule.float_range(0, n)
        assert rule.index_at_or_above(abs(seq.floats[K - 1]), 0, n) == K - 1
        assert vars(rule) == before


class TestPairRules:
    def test_appendix_pairs_resolved_at_head_precision(self):
        rule = make_rule("appendixB", tau=1.0)
        vals = rule.mp_entries(60)
        with mp.workdps(rule._dps(30) + 10):
            gap = vals[59] - vals[58]  # pair 30: e^{-900}
            assert float(mp.log(gap)) == pytest.approx(-900.0, rel=1e-12)

    def test_academic_pairs_ordered(self):
        rule = make_rule("academic_lf", tau=0.2)
        vals = rule.mp_entries(12)
        with mp.workdps(rule._dps(6) + 10):
            assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("name", ["appendixB", "academic_lf"])
    def test_pair_digits_capped(self, name):
        # the gap e^{-tau lam} takes tau lam / ln 10 + 50 digits; past
        # MAX_HEAD_DPS the head is refused before any mp work
        lam1 = 1.0 if name == "appendixB" else math.pi**2
        tau = (MAX_HEAD_DPS - 50) * math.log(10) / lam1 * 0.999
        assert make_rule(name, tau=tau)._dps(1) <= MAX_HEAD_DPS
        for big in (tau * 1.01, 1e134, 1e300):
            with pytest.raises(NumericalError, match="digits"):
                make_rule(name, tau=big).mp_entries(2)

    def test_float_view_collapses_harmlessly(self):
        rule = make_rule("appendixB", tau=1.0)
        f = np.real(rule.float_range(0, 60))
        assert f[58] == f[59]  # pair gap under float resolution

    def test_power_rule_complex(self):
        c = (1 + 1j) / math.sqrt(2.0)
        rule = make_rule("power", c=c, p=2.0)
        v = rule.float_range(0, 5)
        np.testing.assert_allclose(v[2], 9 * c, rtol=1e-15)

    def test_explicit_rule_bounds(self):
        rule = make_rule("explicit", values=[1.0, 2.0, 5.0])
        assert len(rule.mp_entries(3)) == 3
        with pytest.raises(IndexError):
            rule.mp_entries(4)


class TestPairAlign:
    @pytest.mark.parametrize("name, params, align", [
        ("power", {"c": 1.0, "p": 2.0}, 1),
        ("appendixB", {"tau": 0.25}, 2),
        ("two_diffusion", {"d": 2.0}, 2),
        ("academic_lf", {"tau": 0.2}, 2),
    ])
    def test_stored_head_length(self, name, params, align):
        # from_rule stores K + 8 entries, rounded up to the rule's pair_align
        rule = make_rule(name, **params)
        assert rule.pair_align == align
        for K in (1, 2, 7, 12):
            n = K + 8
            assert len(from_rule(rule, K)) == n + (n % 2 if align == 2 else 0)


class TestFloatView:
    def test_explicit_rule_real_follows_values(self):
        rule = make_rule("explicit", values=[1 + 1j, 2 - 0.5j, 3])
        assert not rule.real
        np.testing.assert_array_equal(rule.float_range(0, 3), [1 + 1j, 2 - 0.5j, 3])
        assert make_rule("explicit", values=[3.0, 1.0, 2.0]).real

    @pytest.mark.parametrize("name, params, dtype", [
        ("power", {"c": 1 + 0j, "p": 2.0}, np.float64),
        ("appendixB", {"tau": 0.25}, np.float64),
        ("power", {"c": 1 + 0.5j, "p": 2.0}, np.complex128),
        ("explicit", {"values": [1 + 1j, 2.0]}, np.complex128),
    ])
    def test_float_cache_dtype(self, name, params, dtype):
        # real rules give contiguous float64 ranges, complex ones complex128
        v = make_rule(name, **params).float_range(0, 2)
        assert v.dtype == dtype and v.flags.c_contiguous


# whole-block float formulas, kept as the references of the rules' ranges

def _ref_two_diffusion_block(rule, n):
    m = n + 4
    ks = np.arange(1, m + 1, dtype=float) ** 2
    vals = np.concatenate([rule.scale * ks, rule.scale * rule.d * ks])
    vals.sort(kind="stable")
    return vals[:n]


def _ref_paired_block(rule, n):
    lam = math.pi**rule.pi_power * (np.arange(n) // 2 + 1.0) ** 2
    with np.errstate(under="ignore"):
        f = np.exp(-rule.tau * lam)
    f[::2] *= -rule.lower
    lam += f
    return lam


def _ref_power_block(rule, n):
    c = rule.c.real if rule.real else rule.c
    with np.errstate(over="ignore"):
        return c * np.arange(1, n + 1, dtype=float) ** rule.p


_LENGTHS = (1, 2, 3, 7, 8, 9, 1023, 4097, 100_001)


class TestFloatBlocks:
    """Each rule's first n float entries against the reference block, bit for bit."""

    @staticmethod
    def _same(got, want):
        return got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [2.0, 0.5, 4.0001, 1.5, 100.0, 0.01])
    def test_two_diffusion(self, d):
        for scale in (1.0, PI2):
            rule = TwoDiffusionRule(d, scale)
            for n in _LENGTHS + (1_109_823,):
                assert self._same(rule.float_range(0, n), _ref_two_diffusion_block(rule, n)), \
                    (scale, n)

    @pytest.mark.parametrize("cls", [AppendixBRule, AcademicLfRule])
    @pytest.mark.parametrize("tau", [0.25, 1.0, 1e-4, 1e134])
    def test_paired(self, cls, tau):
        rule = cls(tau)
        for n in _LENGTHS + (2_174_154,):
            assert self._same(rule.float_range(0, n), _ref_paired_block(rule, n)), n

    @pytest.mark.parametrize("c", [1.0, PI2, 1e300, 1e-300, 3.0, 2.0, 1 + 0.5j])
    @pytest.mark.parametrize("p", [2.0, 1.5, 1.01, 3.0])
    def test_power(self, c, p):
        rule = PowerRule(c, p)
        for n in _LENGTHS:
            assert self._same(rule.float_range(0, n), _ref_power_block(rule, n)), n

    def test_paired_entries_unchanged(self):
        # appendixB forms no power of pi; its entries are those of k^2 pi^0
        rule = AppendixBRule(0.25)
        for k in (1, 2, 17, 50):
            with mp.workdps(rule._dps(k)):
                lam = mp.mpf(k) ** 2 * mp.pi**0
                f = mp.e ** (-mp.mpf(rule.tau) * lam)
                assert rule._pair(k) == (lam, lam + f)

    @pytest.mark.parametrize("rule,ks", [
        (AppendixBRule(0.25), range(1, 130)),
        (AppendixBRule(1.0), (1, 2, 3, 17, 50, 125)),
        (AcademicLfRule(0.2), range(1, 21)),
    ], ids=["appendixB-0.25", "appendixB-1", "academic_lf-0.2"])
    def test_pair_within_one_ulp_of_power_of_e(self, rule, ks):
        # f_k = exp(-tau lam) against the earlier e ** (-tau lam), kept here
        # as the reference: each entry within one unit in the last place
        for k in ks:
            with mp.workdps(rule._dps(k)):
                lam = mp.mpf(k) ** 2
                if rule.pi_power:
                    lam *= mp.pi**rule.pi_power
                f = mp.e ** (-mp.mpf(rule.tau) * lam)
                for got, want in zip(rule._pair(k), (lam - rule.lower * f, lam + f)):
                    assert abs(got - want) <= mp.ldexp(abs(want), 1 - mp.mp.prec), k


def _ref_explicit_block(rule, n):
    block = np.array([complex(v) for v in rule.values[:n]])
    return block.real.copy() if rule.real else block


_N_REF = 5000
# (i0, i1): empty, single entries and short ranges at odd and even starts,
# ranges across pair and merge boundaries, and the last entries
_RANGES = ((0, 0), (0, 1), (1, 2), (2, 3), (0, 7), (1, 8), (3, 10), (4, 9), (5, 5),
           (17, 1018), (998, 1001), (1000, 4097), (4095, _N_REF), (_N_REF - 1, _N_REF))
_RULES = {
    "power": lambda: PowerRule(PI2, 2.0),
    "power-complex": lambda: PowerRule(1 + 0.5j, 1.5),
    "power-1e300": lambda: PowerRule(1e300, 2.0),   # entries past k = 1e4 overflow to inf
    "appendixB-0.25": lambda: AppendixBRule(0.25),
    "appendixB-1e-4": lambda: AppendixBRule(1e-4),  # e^{-tau lam} above 0.0 on every entry
    "academic_lf-0.2": lambda: AcademicLfRule(0.2),
    "academic_lf-1e-4": lambda: AcademicLfRule(1e-4),
    "two_diffusion-2": lambda: TwoDiffusionRule(2.0, PI2),
    "two_diffusion-0.3": lambda: TwoDiffusionRule(0.3, 1.0),
    "two_diffusion-4": lambda: TwoDiffusionRule(4.0, 1.0),  # d k^2 = (2k)^2: ties, family 1 first
    "two_diffusion-0.25": lambda: TwoDiffusionRule(0.25, PI2),
}


def _ref_block(rule, n):
    if isinstance(rule, PowerRule):
        return _ref_power_block(rule, n)
    if isinstance(rule, TwoDiffusionRule):
        return _ref_two_diffusion_block(rule, n)
    return _ref_paired_block(rule, n)


class TestFloatRanges:
    """float_range(i0, i1) against a slice of the reference block, bit for
    bit, and index_at_or_above against bisect_left over that block."""

    @staticmethod
    def _same(got, want):
        return got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(_RULES))
    def test_range_is_block_slice(self, name):
        rule = _RULES[name]()
        ref = _ref_block(rule, _N_REF)
        for i0, i1 in _RANGES:
            assert self._same(rule.float_range(i0, i1), ref[i0:i1]), (i0, i1)

    @pytest.mark.parametrize("d", [0.5, 2.0])
    def test_two_diffusion_far_ranges(self, d):
        # chunks at the offsets of the spectra two_diffusion job's far zone
        rule = TwoDiffusionRule(d, PI2)
        n = 1_109_823
        ref = _ref_two_diffusion_block(rule, n)
        for i0 in (1_000_000, 1_000_001, 1_044_287):
            assert self._same(rule.float_range(i0, n), ref[i0:]), i0
            assert self._same(rule.float_range(i0, i0 + 65_536), ref[i0:i0 + 65_536]), i0

    def test_explicit(self):
        for values in ([9.0, 1.0, 4.0, 4.5], [1 + 1j, 2 - 0.5j, 3.0]):
            rule = ExplicitRule(values)
            ref = _ref_explicit_block(rule, len(values))
            for i0 in range(len(values) + 1):
                for i1 in range(i0, len(values) + 1):
                    assert self._same(rule.float_range(i0, i1), ref[i0:i1]), (i0, i1)
            with pytest.raises(IndexError):
                rule.float_range(0, len(values) + 1)

    @pytest.mark.parametrize("name", sorted(_RULES))
    def test_index_matches_bisect(self, name):
        rule = _RULES[name]()
        ref = _ref_block(rule, _N_REF)
        mods = np.abs(ref)
        finite = mods[np.isfinite(mods)]
        xs = [0.0, float(finite[0]) / 2, math.inf, float(finite[-1]) * 2]
        for i in (0, 1, 2, 3, 10, 11, 998, 999, 1000, len(finite) - 1):
            x = float(finite[min(i, len(finite) - 1)])
            xs += [x, np.nextafter(x, 0.0), np.nextafter(x, math.inf), x * (1 + 1e-3)]
        for x in xs:
            for lo, hi in ((0, _N_REF), (7, _N_REF), (0, 1001), (998, 1001), (40, 40), (100, 99)):
                want = bisect.bisect_left(ref, x, lo, max(lo, hi), key=abs)
                assert rule.index_at_or_above(x, lo, hi) == want, (x, lo, hi)

    def test_index_past_overflow(self):
        # c = 1e300: entries overflow to inf past k = 1e4, so x = inf finds
        # the first of them, while a finite rule's inf bound finds hi
        rule = PowerRule(1e300, 2.0)
        ref = _ref_power_block(rule, 20_000)
        first_inf = int(np.argmax(np.isinf(ref)))
        assert 0 < first_inf < 20_000
        assert rule.index_at_or_above(math.inf, 0, 20_000) == first_inf \
            == bisect.bisect_left(ref, math.inf, key=abs)
        assert rule.index_at_or_above(1e308, 0, 20_000) == bisect.bisect_left(ref, 1e308, key=abs)
        assert PowerRule(PI2, 2.0).index_at_or_above(math.inf, 3, 8_000_000) == 8_000_000
        assert AppendixBRule(0.25).index_at_or_above(math.inf, 3, 8_000_000) == 8_000_000
        assert TwoDiffusionRule(2.0, PI2).index_at_or_above(math.inf, 3, 8_000_000) == 8_000_000


class TestStreamedFarZone:
    @pytest.mark.parametrize("name, params", [
        ("appendixB", {"tau": 0.25}),
        ("two_diffusion", {"d": 2.0, "scale": PI2}),
    ])
    def test_condensation_peak(self, name, params):
        # K = 100 truncates at J_k up to about 1.1 million entries (8.9 MB as
        # one float64 array); the far zone is read in chunks, so the peak
        # stays near one chunk's arrays: 2.2-2.5 MB measured
        rule = make_rule(name, **params)
        tracemalloc.start()
        try:
            condensation_profile(from_rule(rule, 100), 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6
