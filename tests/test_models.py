"""Model gallery: spectra, observations, coupling integrals, closed forms."""

import math
import sys
import threading
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from nullcontrol import (
    PiecewiseConstant,
    academic_lf,
    block_2x2,
    cascade_boundary_q,
    cascade_internal_q,
    check_hypotheses,
    harmonic_oscillator,
    pointwise_heat,
    synthesize,
    tstar_estimate,
    two_diffusion_boundary,
    two_diffusion_pointwise,
)
from nullcontrol import spectral
from nullcontrol.errors import DegenerateB, RationalRootWarning, SupportOverlap, UnobservableMode
from nullcontrol.models import _psi_coefficients

PI2 = math.pi**2
SQRT2 = math.sqrt(2.0)


class TestPointwiseHeat:
    def test_half_point_kills_even_modes(self):
        model = pointwise_heat(0.5)
        modes = model.modes(4)
        assert modes[1].unobservable and modes[3].unobservable
        assert not modes[0].unobservable

    def test_third_point_kills_multiples_of_three(self):
        model = pointwise_heat(1.0 / 3.0)
        modes = model.modes(9)
        for m in modes:
            assert m.unobservable == (m.k % 3 == 0)

    def test_quadratic_irrational_tail_small(self):
        model = pointwise_heat(math.sqrt(2.0) - 1.0)
        prof = model.tmin_profile(200)
        assert np.all(np.isfinite(prof.values))
        assert prof.tail_estimate <= 0.05

    def test_rejects_bad_point(self):
        with pytest.raises(ValueError):
            pointwise_heat(0.0)


class TestPiecewiseConstant:
    def test_sin2_integral_closed_form(self):
        q = PiecewiseConstant(((0.0, 0.2, 1.0),))
        for k in (1, 2, 9):
            want = 0.2 - math.sin(0.4 * k * math.pi) / (2 * k * math.pi)
            assert q.integral_sin2(k) == pytest.approx(want, abs=1e-14)

    def test_integrals_against_quadrature(self):
        q = PiecewiseConstant(((0.0, 0.15, 2.0), (0.3, 0.45, -1.0)))
        for k, m in [(1, 1), (2, 5), (3, 3), (7, 2)]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want, _ = quad(lambda x: q.evaluate(x) * 2 * math.sin(k * math.pi * x)
                               * math.sin(m * math.pi * x), 0, 1, limit=300)
            got = q.integral_sin2(k) if k == m else q.integral_cross(k, m)
            assert got == pytest.approx(want, abs=1e-10)

    def test_breakpoints_constructor(self):
        q = PiecewiseConstant.from_breakpoints([0.0, 0.5, 1.0], [1.0, 2.0])
        assert q.segments == ((0.0, 0.5, 1.0), (0.5, 1.0, 2.0))


class TestCascadeInternal:
    def test_support_overlap_rejected(self):
        q = PiecewiseConstant(((0.1, 0.6, 1.0),))
        with pytest.raises(SupportOverlap):
            cascade_internal_q(q, (0.5, 0.7))

    def test_zero_coupling_flags_not_approx_controllable(self):
        q = PiecewiseConstant(((0.0, 0.2, 0.0),))
        model = cascade_internal_q(q, (0.5, 0.7))
        modes = model.modes(3)
        assert all(m.kind == "multiple" for m in modes)
        assert all(not m.meta["approx_controllable"] for m in modes)
        assert model.tmin_profile(3).values[0] == math.inf

    def test_jordan_coupling_closed_form(self):
        q = PiecewiseConstant(((0.0, 0.2, 1.0),))
        model = cascade_internal_q(q, (0.5, 0.7))
        for k in (1, 2, 5):
            mode = model.modes(k)[k - 1]
            want = 0.2 - math.sin(0.4 * k * math.pi) / (2 * k * math.pi)
            assert mode.kind == "jordan"
            assert mode.mu.real == pytest.approx(want, abs=1e-14)

    def test_solvability_residual_vanishes(self):
        q = PiecewiseConstant(((0.0, 0.2, 1.0), (0.9, 1.0, -2.0)))
        model = cascade_internal_q(q, (0.5, 0.7))
        for m in model.modes(8):
            assert abs(m.meta["solvability_residual"]) <= 1e-12

    def test_xi_bound_stable_over_modes(self):
        # ||xi_k|| <= C (|I_k| + |I1_k|) with a stable fitted constant
        q = PiecewiseConstant(((0.0, 0.2, 1.0),))
        model = cascade_internal_q(q, (0.5, 0.7))
        ratios = []
        for m in model.modes(30):
            denom = abs(m.meta["I_k"]) + abs(m.meta["I1_k"])
            ratios.append(m.meta["xi_norm"] / denom)
        assert max(ratios) < 10 * np.median(ratios)

    def test_window_below_binary64_is_unobservable(self):
        # int_omega sin^2 underflows to 0 on omega = (0, 1e-79): the mode is
        # built with tau_k = 0 and synthesis refuses it as unobservable
        q = PiecewiseConstant(((0.0, 1e-79, 0.0),))
        model = cascade_internal_q(q, (0.0, 1e-79))
        mode = model.modes(1)[0]
        assert mode.meta["tau_k"] == 0.0
        with pytest.raises(UnobservableMode):
            synthesize(model, 0.5, 1)

    def test_psi_tail_bound_reported(self):
        q = PiecewiseConstant(((0.0, 0.2, 1.0),))
        model = cascade_internal_q(q, (0.5, 0.7), M=150)
        assert 0 < model.modes(1)[0].meta["psi_tail_bound"] < 1e-6


class TestCascadeBoundary:
    def test_coupling_closed_form_and_nonvanishing(self):
        q = PiecewiseConstant(((0.2, 0.8, 1.0),))
        model = cascade_boundary_q(q)
        for k in range(1, 51):
            want = 0.6 + (math.sin(0.4 * k * math.pi) - math.sin(1.6 * k * math.pi)) \
                / (2 * k * math.pi)
            I_k = model.coupling(k)
            assert I_k == pytest.approx(want, abs=1e-14)
            assert abs(I_k) > 0

    def test_first_observation_value(self):
        model = cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),)))
        mode = model.modes(3)[2]
        assert mode.obs[0].value == pytest.approx(3 * SQRT2 * math.pi, abs=1e-12)

    def test_gamma_consistency(self):
        model = cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),)))
        for m in model.modes(6):
            assert m.obs[1].value == pytest.approx(m.gamma * m.obs[0].value, abs=1e-10)

    def test_tail_bounds_past_the_truncation(self):
        # k = 10 > M = 8: both tail sums run over m > M and must skip m = k
        q = PiecewiseConstant(((0.2, 0.8, 1.0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            short = cascade_boundary_q(q, M=8).modes(10)[9]
            _, _, _, psi_tail = _psi_coefficients(q, 10, 8)
        ms, cs, _, _ = _psi_coefficients(q, 10, 400)
        long = cascade_boundary_q(q, M=400).modes(10)[9]
        bound = short.meta["obs2_tail_bound"]
        assert math.isfinite(bound) and math.isfinite(psi_tail)
        assert abs(short.obs[1].value - long.obs[1].value) <= bound
        assert float(np.sum(cs[ms > 8] ** 2)) <= psi_tail

    @pytest.mark.parametrize("k", [1, 7, 30])
    def test_tail_bounds_cover_the_whole_tail(self, k):
        # the obs2 summands fall like 1/m^2: a bound summed to M + 20000
        # alone is 1% short at M = 200; each bound must exceed the same
        # series summed to M + 2e6
        q = PiecewiseConstant(((0.2, 0.8, 1.0), (0.9, 1.0, -0.5)))
        M = 200
        g = 4.0 * q.total_variation() / math.pi
        obs2_sum = psi_sum = 0.0
        for lo in range(M + 1, M + 2_000_001, 100_000):
            mm = np.arange(lo, lo + 100_000, dtype=float)
            mm = mm[mm != k]
            obs2_sum += float(np.sum(g / (mm - k) * (SQRT2 * mm * math.pi)
                                     / ((mm * mm - k * k) * PI2)))
            psi_sum += float(np.sum((g / (mm - k) / ((mm * mm - k * k) * PI2)) ** 2))
        mode = cascade_boundary_q(q, M=M).modes(k)[-1]
        assert mode.meta["obs2_tail_bound"] >= obs2_sum
        assert _psi_coefficients(q, k, M)[3] >= psi_sum

    def test_tmin_tail_vanishes(self):
        model = cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),)))
        prof = model.tmin_profile(40)
        assert prof.tail_estimate == pytest.approx(0.0, abs=0.01)


class TestTwoDiffusion:
    def test_boundary_observations_first_pair(self):
        model = two_diffusion_boundary(2.0)
        modes = model.modes(2)
        lams = sorted(m.lam.real for m in modes)
        assert lams == pytest.approx([PI2, 2 * PI2])
        slow = next(m for m in modes if m.meta["family"] == 1)
        fast = next(m for m in modes if m.meta["family"] == 2)
        assert slow.obs[0].value == pytest.approx(SQRT2, abs=1e-14)
        assert fast.obs[0].value == pytest.approx(SQRT2 * PI2, abs=1e-12)

    def test_rational_root_warning(self):
        with pytest.warns(RationalRootWarning):
            two_diffusion_boundary(4.0)

    @pytest.mark.parametrize("d,root", [(2.25, "3/2"), (100.0, "10/1")])
    def test_rational_root_named_in_lowest_terms(self, d, root):
        with pytest.warns(RationalRootWarning, match=f"within 1e-09 of {root}: "):
            two_diffusion_boundary(d)

    def test_rational_root_names_both_entries(self):
        with pytest.warns(RationalRootWarning,
                          match="within 1e-09 of 1000000/1: s k\\^2 at k = 1000000 meets "
                                "s d m\\^2 at m = 1"):
            two_diffusion_boundary(1e12)

    def test_root_past_reach_no_warning(self):
        # sqrt(1e100) = 1e50 is an integer in binary64, but the first pair
        # it makes coincide, k = 1e50, lies far past any profile
        with warnings.catch_warnings():
            warnings.simplefilter("error", RationalRootWarning)
            two_diffusion_boundary(1e100)

    def test_irrational_root_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RationalRootWarning)
            two_diffusion_boundary(2.0)

    def test_rational_root_spectrum_collides(self):
        from nullcontrol.errors import DuplicateEntry

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RationalRootWarning)
            model = two_diffusion_boundary(4.0)
        with pytest.raises(DuplicateEntry):
            model.spectrum(10)  # 4 * k^2 = (2k)^2 collide exactly

    def test_random_irrational_spectra_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = float(rng.uniform(0.3, 5.0))
            if abs(d - 1.0) < 0.05 or abs(math.sqrt(d) - round(math.sqrt(d))) < 1e-6:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RationalRootWarning)
                model = two_diffusion_boundary(d)
            seq = model.spectrum(40)  # construction validates the invariants
            mods = np.abs(seq.floats[:40])
            assert np.all(np.diff(mods) > 0)

    def test_condensation_tail_matches_closed_form_profile(self):
        from tests.closed_forms import log_eprime_two_family

        model = two_diffusion_boundary(2.0)
        prof = model.tmin_profile(30)
        seq = model.spectrum(30)
        floats = np.real(seq.floats[:30])
        # closed-form-based profile at the slow-family entries
        vals = []
        for k in range(1, 12):
            idx = int(np.searchsorted(floats, k * k * PI2 * (1 - 1e-12)))
            if idx >= 30:
                break
            vals.append(-log_eprime_two_family(k, 2.0, scale=PI2) / (k * k * PI2))
        slow_profile = [prof.values[int(np.searchsorted(floats, k * k * PI2 * (1 - 1e-12)))]
                        for k in range(1, len(vals) + 1)]
        np.testing.assert_allclose(slow_profile, vals, atol=5e-3)

    def test_pointwise_unobservable_even_modes(self):
        model = two_diffusion_pointwise(2.0, 0.5)
        for m in model.modes(12):
            assert m.unobservable == (m.meta["underlying_k"] % 2 == 0)

    def test_pointwise_profile_tracks_condensation(self):
        from nullcontrol import condensation_profile

        model = two_diffusion_pointwise(2.0, math.sqrt(2.0) - 1.0)
        prof = model.tmin_profile(30)
        cond = condensation_profile(model.spectrum(30), 30)
        # sine factor contributes -ln|sin(k pi x0)| / lam -> 0
        assert abs(prof.tail_estimate - cond.tail_estimate) < 0.05

    def test_pointwise_tmin_matches_per_mode_loop(self):
        from nullcontrol.observations import VANISH_TOL
        from nullcontrol.spectral import log_E_primes

        # x0 = 1/2: every even-k mode of both families vanishes
        model = two_diffusion_pointwise(2.0, 0.5)
        K = 40
        prof = model.tmin_profile(K)
        seq = model.spectrum(K)
        modes = model.modes(K)
        even = [m.meta["underlying_k"] % 2 == 0 for m in modes]
        assert 0 < sum(even) < K
        for j, (m, vanished) in enumerate(zip(modes, even), start=1):
            s = SQRT2 * math.sin(m.meta["underlying_k"] * math.pi * 0.5)
            assert (abs(s) < VANISH_TOL) == vanished
            if vanished:
                assert prof.values[j - 1] == math.inf
                continue
            want = (-math.log(abs(s)) - log_E_primes(seq, [j])[0]) / float(seq.entry(j).real)
            assert abs(prof.values[j - 1] - want) <= 1e-15, j


class TestAcademicLf:
    def test_pair_gap(self):
        model = academic_lf(0.2)
        seq = model.spectrum(6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k in (1, 2, 3):
                gap = float(seq.values[2 * k - 1] - seq.values[2 * k - 2])
                lam = k * k * PI2
                assert gap == pytest.approx(2 * math.exp(-0.2 * lam), rel=1e-10)

    def test_observation_norms_exact(self):
        model = academic_lf(0.2)
        for m in model.modes(8):
            assert m.obs[0].norm() == pytest.approx(1 / SQRT2, abs=1e-15)

    def test_pair_sum_in_kernel(self):
        # B*(phi^+ + phi^-) = 0: the two branch observations cancel
        model = academic_lf(0.2)
        modes = model.modes(2)
        both = modes[0].obs[0].plus(modes[1].obs[0])
        assert both.norm() <= 1e-15

    def test_mode_eigenvalue_matches_rule_head(self):
        # each mode builds its own entry; it must equal the j-th entry of
        # the rule's head at that head's precision, bit for bit
        model = academic_lf(0.2)
        for j, m in enumerate(model.modes(70), start=1):
            want = model.rule.mp_entries(j)[j - 1]
            assert m.lam_mp == want and repr(m.lam_mp) == repr(want)

    def test_tmin_profile_constant(self):
        prof = academic_lf(0.3).tmin_profile(10)
        assert np.all(prof.values == 0.3)


class TestHarmonicOscillator:
    def test_eigenvalues(self):
        model = harmonic_oscillator()
        assert model.modes(5)[4].lam.real == 9.0

    def test_summability_diagnostic_fails(self):
        model = harmonic_oscillator()
        rep = check_hypotheses(model.spectrum(100), 100)
        assert not rep.summable
        assert "HYP_SUMMABILITY_FAIL" in rep.warnings

    def test_caveat_recorded(self):
        assert "caveat" in harmonic_oscillator().metadata


def _gallery():
    q = PiecewiseConstant(((0.0, 0.2, 1.0),))
    return [
        pointwise_heat(math.sqrt(2.0) - 1.0),
        cascade_internal_q(q, (0.5, 0.7)),
        cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.0),))),
        two_diffusion_boundary(2.0),
        two_diffusion_boundary(3.7),
        two_diffusion_pointwise(3.7, math.sqrt(2.0) - 1.0),
        academic_lf(0.2),
        harmonic_oscillator(),
    ]


class TestOneSpectrum:
    """modes() and spectrum() read the same entries of the model's rule."""

    @pytest.mark.parametrize("model", _gallery(), ids=lambda m: f"{m.name}")
    def test_modes_carry_the_spectrum_entries(self, model):
        K = 100
        seq = model.spectrum(K)
        for j, m in enumerate(model.modes(K), start=1):
            entry = seq.entry(j)
            assert m.lam_mp == entry and repr(m.lam_mp) == repr(entry), j
            assert m.lam == complex(entry), j

    def test_heat_rates_are_exact(self):
        # fl(pi^2) k^2, whatever precision is in force when a mode is built
        for dps in (15, 40):
            model = pointwise_heat(0.3)
            with mp.workdps(dps):
                modes = model.modes(50)
            with mp.workdps(100):
                for k, m in enumerate(modes, start=1):
                    assert m.lam_mp == mp.mpf(PI2) * k * k
                    assert m.lam == k * k * PI2

    def test_null_coupling_keeps_multiplicity(self):
        model = cascade_internal_q(PiecewiseConstant(((0.0, 0.2, 0.0),)), (0.5, 0.7))
        seq = model.spectrum(20)
        assert set(seq.r) == {2}
        assert check_hypotheses(seq, 20).sup_rk == 2

    def test_spectrum_keeps_spare_entries(self):
        # the rule's buffer: 16 entries for K = 8, as check_hypotheses needs
        seq = pointwise_heat(0.3).spectrum(8)
        assert len(seq) == 16 and seq.rule is not None
        assert check_hypotheses(seq, 8).summable

    def test_spectrum_built_once_per_k(self, monkeypatch):
        # the tstar command's gap profile and tmin profile share one head
        built, from_rule = [], spectral.from_rule
        monkeypatch.setattr(spectral, "from_rule",
                            lambda rule, K: built.append(K) or from_rule(rule, K))
        model = two_diffusion_pointwise(3.7, SQRT2 - 1.0)
        assert "gap" in tstar_estimate(model, 30).profiles
        model.tmin_profile(30)
        assert built == [30]
        seq = model.spectrum(30)
        assert model.spectrum(30) is seq and built == [30]
        # shared, so its float view is read-only
        with pytest.raises(ValueError, match="read-only"):
            seq.floats[0] = 0.0
        model.spectrum(20)
        assert built == [30, 20]

    def test_spectrum_built_once_across_threads(self, monkeypatch):
        built, from_rule = [], spectral.from_rule
        monkeypatch.setattr(spectral, "from_rule",
                            lambda rule, K: built.append(K) or from_rule(rule, K))
        model = two_diffusion_pointwise(3.7, SQRT2 - 1.0)
        seqs = []
        threads = [threading.Thread(target=lambda: seqs.append(model.spectrum(30)))
                   for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert built == [30] and len(seqs) == 8 and all(seq is seqs[0] for seq in seqs)


class TestBlock2x2:
    @pytest.mark.parametrize("lam1,lam2,b", [
        (1.0, 2.0, (1.0, 1.0)),
        (1.0, 1.01, (1.0, 1.0)),
        (PI2, 2 * PI2, (1.0, -1.0)),
    ])
    def test_valid_parameterizations(self, lam1, lam2, b):
        blk = block_2x2(lam1, lam2, b)
        assert blk.lam1 < blk.lam2

    def test_degenerate_b(self):
        with pytest.raises(DegenerateB):
            block_2x2(1.0, 2.0, (0.0, 1.0))

    def test_ordering_required(self):
        with pytest.raises(ValueError):
            block_2x2(2.0, 1.0, (1.0, 1.0))
