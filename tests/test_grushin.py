"""Cross-section eigenproblem: bounds, symmetry, observation decay."""

import importlib.machinery
import math

import numpy as np
import pytest
import scipy.linalg

from nullcontrol import grushin, grushin_tstar_profile, observation_integral, solve_mode
from nullcontrol.errors import GridTooCoarse, GridTooFine
from nullcontrol.grushin import (
    _assemble,
    _factor,
    _factor_below,
    _solve_eig,
    expected_observation_asymptote,
)
from tests.grushin_reference import blas_reductions

H = 2e-4


class TestSolveMode:
    def test_ground_eigenvalue_bracket_n1(self):
        mode = solve_mode(1, H)
        assert math.pi < mode.lam < math.pi + 3.0

    def test_eigenvalue_above_n_pi_all_frequencies(self):
        # conforming discretization: discrete lambda >= true lambda >= n pi
        for n in (1, 5, 10, 25, 40):
            mode = solve_mode(n, H)
            assert mode.lam - n * math.pi > 0.0
            assert mode.lam - n * math.pi <= 5.0

    def test_even_symmetry(self):
        mode = solve_mode(7, H)
        assert mode.meta["symmetry_defect"] <= 1e-6

    def test_normalized_and_positive(self):
        mode = solve_mode(3, H)
        assert np.trapezoid(mode.vec**2, mode.grid) == pytest.approx(1.0, abs=1e-8)
        assert np.min(mode.vec) > -1e-8

    def test_richardson_consistency(self):
        mode = solve_mode(10, H)
        assert mode.meta["richardson_err"] / mode.lam <= 1e-6

    def test_grid_too_coarse_raises(self, monkeypatch):
        monkeypatch.setattr(grushin, "RICHARDSON_TOL", 1e-9)
        with pytest.raises(GridTooCoarse):
            solve_mode(40, 1e-3)

    def test_grid_too_fine_raises(self):
        # binary64 rounding of the pencil at h = 1e-5 exceeds lambda_20 - 20 pi
        with pytest.raises(GridTooFine) as exc:
            solve_mode(20, 1e-5)
        assert (exc.value.code, exc.value.exit_code) == ("GRID_TOO_FINE", 3)

    def test_fine_grid_still_above_n_pi(self):
        assert solve_mode(10, 1e-5).lam > 10 * math.pi

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            solve_mode(61, H)
        with pytest.raises(ValueError):
            solve_mode(1, 2e-3)
        for h in (1e-7, 1e-12, 1e-300):  # checked before a grid of 2/h nodes is built
            with pytest.raises(ValueError, match="h must lie in"):
                solve_mode(1, h)


class TestPencilBisection:
    """Definiteness test and certified bracket against a dense generalized
    eigensolver on a small grid (h = 0.02, 99 interior nodes)."""

    @staticmethod
    def _dense_smallest(kd, ke, md, me):
        K = np.diag(kd) + np.diag(ke, 1) + np.diag(ke, -1)
        # the mass matrix comes as its constant diagonal and off-diagonal
        md, me = np.full(len(kd), md), np.full(len(ke), me)
        M = np.diag(md) + np.diag(me, 1) + np.diag(me, -1)
        lam, vec = scipy.linalg.eigh(K, M, subset_by_index=[0, 0])
        return lam[0], vec[:, 0]

    @pytest.mark.parametrize("n", [1, 5, 20, 40])
    def test_definite_switches_at_dense_eigenvalue(self, n):
        _, kd, ke, md, me = _assemble(n, 0.02)
        assert len(kd) == 99
        lam0, _ = self._dense_smallest(kd, ke, md, me)
        assert _factor(kd, ke, md, me, lam0 * (1 - 1e-8)) is not None
        assert _factor(kd, ke, md, me, lam0 * (1 + 1e-8)) is None

    @pytest.mark.parametrize("n", [1, 5, 20, 40])
    def test_smallest_eig_brackets_dense_eigenvalue(self, n):
        _, kd, ke, md, me = _assemble(n, 0.02)
        lam0, vec0 = self._dense_smallest(kd, ke, md, me)
        _, lo, hi, v, _ = _solve_eig(n, 0.02)
        assert lo < lam0 <= hi
        assert hi - lo <= 1e-10 * hi
        vec0 = vec0 / np.linalg.norm(vec0) * np.sign(vec0 @ v)
        assert np.max(np.abs(v - vec0)) <= 1e-8


class TestFlapackLoader:
    """dpttrf/dpttrs from the _flapack extension loaded by itself are
    scipy.linalg.lapack's, bit for bit, on both sides of the switch."""

    @pytest.mark.parametrize("side", [1 - 1e-8, 1 + 1e-8], ids=["below", "above"])
    @pytest.mark.parametrize("n", [1, 5, 20, 40])
    def test_factor_and_solve_bitwise_equal(self, n, side):
        _, kd, ke, md, me = _assemble(n, 0.02)
        lam0, _ = TestPencilBisection._dense_smallest(kd, ke, md, me)
        sigma = lam0 * side
        flapack = grushin._flapack()
        got = flapack.dpttrf(kd - sigma * md, ke - sigma * me)
        want = scipy.linalg.lapack.dpttrf(kd - sigma * md, ke - sigma * me)
        assert got[2] == want[2] and (got[2] == 0) == (side < 1)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        if got[2] == 0:
            rhs = np.linspace(-1.0, 2.0, len(kd))
            x, info = flapack.dpttrs(got[0], got[1], rhs)
            x_want, info_want = scipy.linalg.lapack.dpttrs(want[0], want[1], rhs)
            assert info == info_want == 0
            assert x.tobytes() == x_want.tobytes()

    def test_missing_extension_names_the_path(self, monkeypatch):
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            classmethod(lambda cls, name, path=None, target=None: None))
        with pytest.raises(ImportError, match=r"_flapack not found in .*linalg"):
            grushin._flapack.__wrapped__()


class TestCertifiedBracket:
    """Every reported lambda is the upper end of an LDL^T-inertia bracket."""

    @pytest.mark.parametrize("h", [H, H / 2])
    def test_every_reported_lambda_certified(self, h):
        for n in range(1, 41):
            mode = solve_mode(n, h)
            _, kd, ke, md, me = _assemble(n, h)
            lo = mode.meta["lam_lower"]
            assert mode.meta["lam_upper"] == mode.lam
            assert _factor(kd, ke, md, me, mode.lam) is None
            assert _factor(kd, ke, md, me, lo) is not None
            assert mode.lam - lo <= 1e-10 * mode.lam

    def test_fallback_when_binary64_rejects_n_pi(self):
        n, h = 20, 1e-5
        _, kd, ke, md, me = _assemble(n, h)
        assert _factor(kd, ke, md, me, n * math.pi) is None  # the case under test
        _, lo, hi, _, _ = _solve_eig(n, h)
        assert _factor(kd, ke, md, me, lo) is not None
        assert _factor(kd, ke, md, me, hi) is None
        assert hi - lo <= 1e-10 * hi

    def test_profile_factorization_budget(self):
        total = sum(solve_mode(n, H).meta["dpttrf_calls"] for n in range(1, 41))
        assert total <= 300

    @pytest.mark.parametrize("rel", [1 - 1e-6, 1 + 1e-6], ids=["walk-up", "walk-down"])
    @pytest.mark.parametrize("n,h", [(1, H), (5, H), (20, H), (40, H), (20, 1e-5)])
    def test_bracket_certified_from_off_centre_quotient(self, monkeypatch, n, h, rel):
        # a quotient 1e-6 off forces the walk away from it in one direction
        shifted = grushin._shifted_rayleigh

        def off_centre(*args):
            w, rq = shifted(*args)
            return w, rq * rel

        _, kd, ke, md, me = _assemble(n, h)
        shift = _factor_below(kd, ke, md, me, n * math.pi)[0]
        monkeypatch.setattr(grushin, "_shifted_rayleigh", off_centre)
        _, lo, hi, _, _ = _solve_eig(n, h)
        assert lo >= shift
        assert _factor(kd, ke, md, me, lo) is not None
        assert _factor(kd, ke, md, me, hi) is None
        assert hi - lo <= 1e-10 * hi


class TestRichardsonPartner:
    """lambda(h/2) is a Rayleigh quotient from the prolonged h eigenvector;
    the certified h/2 bisection it replaces is the oracle."""

    @pytest.mark.parametrize("h", [H, H / 2])
    def test_partner_matches_certified_half_step(self, h):
        for n in range(1, 41):
            mode = solve_mode(n, h)
            ref = _solve_eig(n, h / 2)[2]
            assert abs(mode.meta["lam_half_step"] - ref) <= 5e-8 * ref
            assert abs(mode.meta["richardson_err"] - abs(mode.lam - ref)) <= 5e-8 * ref


class TestBlasReference:
    """The numpy-sum reductions against the BLAS dots they replace
    (tests/grushin_reference.py): the outputs move only by rounding."""

    @pytest.mark.parametrize("a", [0.25, 0.3, 0.398582, 0.45])
    def test_profile_matches_blas_reductions(self, a):
        new = grushin_tstar_profile(a, a + 0.2, 40, H)
        with blas_reductions():
            ref = grushin_tstar_profile(a, a + 0.2, 40, H)
        for got, want, rtol in ((new.extras["lambda"], ref.extras["lambda"], 1e-11),
                                (new.values, ref.values, 1e-11),
                                (new.extras["integral"], ref.extras["integral"], 1e-14)):
            np.testing.assert_allclose(got, want, rtol=rtol, atol=0)


class TestObservationIntegral:
    def test_half_mass_on_positive_side(self):
        mode = solve_mode(5, H)
        assert observation_integral(mode, 0.0, 1.0) == pytest.approx(0.5, abs=1e-3)

    def test_asymptotic_ratio_window(self):
        for n in (20, 30, 40):
            mode = solve_mode(n, H)
            ratio = observation_integral(mode, 0.3, 0.5) / expected_observation_asymptote(n, 0.3)
            assert 0.8 <= ratio <= 1.2

    def test_monotone_decrease_in_frequency(self):
        vals = [observation_integral(solve_mode(n, H), 0.4, 0.6) for n in range(5, 30, 5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("a,b", [(0.29999, 0.30001), (0.30001, 0.30002)])
    def test_window_below_two_nodes_rejected(self, a, b):
        # one node (0.3) and no node of the h = 2e-4 grid: no trapezoid
        with pytest.raises(ValueError, match="fewer than two grid nodes"):
            observation_integral(solve_mode(1, H), a, b)

    def test_two_node_window_is_one_trapezoid(self):
        mode = solve_mode(1, H)
        i = np.searchsorted(mode.grid, 0.3 - 1e-9)
        want = H / 2 * (mode.vec[i] ** 2 + mode.vec[i + 1] ** 2)
        assert observation_integral(mode, mode.grid[i], mode.grid[i + 1]) == pytest.approx(
            want, rel=1e-15)

    @pytest.mark.parametrize("h", [1e-3, H])
    def test_smallest_integral_far_inside_binary64(self, h):
        # the last two nodes before x = 1 carry the least mass; a direct
        # trapezoid needs no log-domain fallback for any accepted n
        smallest = min(observation_integral(solve_mode(n, h), 1.0 - h, 1.0)
                       for n in range(1, 61))
        assert smallest > 1e-100


class TestTstarProfile:
    def test_profile_approaches_target_from_above(self):
        prof = grushin_tstar_profile(0.3, 0.5, 40, H)
        target = prof.extras["target"]
        assert target == pytest.approx(0.045)
        tail = prof.values[24:]
        assert np.all(tail > target)
        assert np.all(np.diff(tail) < 0)  # slow ln(n)/n decay toward target

    def test_known_values_against_direct_formula(self):
        prof = grushin_tstar_profile(0.3, 0.5, 30, H)
        mode = solve_mode(30, H)
        integ = observation_integral(mode, 0.3, 0.5)
        want = (math.log(mode.lam) - math.log(2 * integ)) / (2 * mode.lam)
        assert prof.values[29] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("a,b", [(0.3, 0.5), (0.7, 0.72)])
    def test_horizons_match_log_domain_trapezoid(self, a, b):
        # oracle: the log-domain trapezoid the profile used to take its
        # ln int_a^b v_n^2 from
        def log_trapezoid(logs, h):
            w = np.full(len(logs), h)
            w[0] = w[-1] = h / 2.0
            m = np.max(logs)
            return float(m + math.log(np.sum(w * np.exp(logs - m))))

        prof = grushin_tstar_profile(a, b, 40, H)
        for n in range(1, 41):
            mode = solve_mode(n, H)
            mask = (mode.grid >= a - 1e-15) & (mode.grid <= b + 1e-15)
            li = log_trapezoid(2.0 * np.log(np.abs(mode.vec[mask])), H)
            want = (math.log(mode.lam) - (math.log(2.0) + li)) / (2.0 * mode.lam)
            assert prof.values[n - 1] == pytest.approx(want, rel=1e-14, abs=0)
            assert prof.extras["integral"][n - 1] == observation_integral(mode, a, b)

    @pytest.mark.parametrize("n_max", [0, 61, 10**12])
    def test_n_max_checked_before_any_work(self, n_max, monkeypatch):
        monkeypatch.setattr(grushin, "solve_mode", None)  # reaching it would fail
        with pytest.raises(ValueError, match="n_max must lie in 1..60"):
            grushin_tstar_profile(0.3, 0.5, n_max, H)

    def test_degenerate_window_unbounded(self):
        # shrinking the window drives the per-mode horizon up, past the
        # cap of 1.0 at which the grushin command reports "unbounded"
        wide = grushin_tstar_profile(0.5, 0.9, 3, H)
        thin = grushin_tstar_profile(0.5, 0.52, 3, H)
        assert np.all(thin.values > wide.values)
        prof = grushin_tstar_profile(0.97, 0.99, 12, H)
        assert prof.running_sup[-1] > 1.0
