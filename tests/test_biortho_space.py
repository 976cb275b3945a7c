"""Spatial Gram biorthogonalization and the sqrt(r)/sigma bound.

The duals of vectors v_1..v_r (rows of V, coordinates in an orthonormal
basis) are the rows of mix @ V, with (mix, sigma) from
``biorthogonalize_gram`` applied to their Gram V V^H."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullcontrol.errors import DegenerateFamily, NotHermitian
from nullcontrol.synthesis import biorthogonalize_gram, smallest_eigenvalue


def _duals(vecs):
    """(duals, mix, sigma, max |<v_i, w_j> - delta_ij|) of the rows of vecs."""
    vecs = np.asarray(vecs, dtype=complex)
    mix, sigma = biorthogonalize_gram(vecs @ vecs.conj().T)
    duals = mix @ vecs
    pair = vecs @ duals.conj().T  # <v_i, w_j>
    return duals, mix, sigma, float(np.max(np.abs(pair - np.eye(len(vecs)))))


class TestGram:
    def test_orthonormal_pair_gives_identity(self):
        mix, sigma = biorthogonalize_gram(np.eye(2))
        np.testing.assert_allclose(mix.real, np.eye(2), atol=1e-15)
        assert sigma == pytest.approx(1.0, abs=1e-15)

    def test_angled_pair(self):
        vecs = np.array([[1.0, 0.0], [1.0, 1.0]]) / np.array([[1.0], [math.sqrt(2)]])
        G = vecs @ vecs.T
        np.testing.assert_allclose(G, [[1, 1 / math.sqrt(2)], [1 / math.sqrt(2), 1]],
                                   atol=1e-15)
        mix, sigma = biorthogonalize_gram(G)
        np.testing.assert_allclose(mix.real, [[2, -math.sqrt(2)], [-math.sqrt(2), 2]],
                                   atol=1e-12)
        assert sigma == pytest.approx(math.sqrt(1 - 1 / math.sqrt(2)), abs=1e-12)

    def test_rank_one(self):
        vecs = np.array([[3.0, 4.0]]) / 5.0
        mix, sigma = biorthogonalize_gram(vecs @ vecs.T)
        np.testing.assert_allclose(mix.real, [[1.0]], atol=1e-15)
        assert sigma == pytest.approx(1.0, abs=1e-15)


class TestSmallestEigenvalue:
    def test_identity(self):
        assert smallest_eigenvalue(np.eye(4)) == pytest.approx(1.0, abs=1e-13)

    def test_two_by_two_closed_form(self):
        G = np.array([[1.0, 1 / math.sqrt(2)], [1 / math.sqrt(2), 1.0]])
        assert smallest_eigenvalue(G) == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)

    def test_diagonal(self):
        assert smallest_eigenvalue(np.diag([2.0, 5.0, 0.1])) == pytest.approx(0.1, abs=1e-13)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            smallest_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_complex_hermitian_embedding(self):
        G = np.array([[2.0, 1j], [-1j, 2.0]])
        assert smallest_eigenvalue(G) == pytest.approx(1.0, abs=1e-12)

    def test_matches_numpy_on_random_hermitian(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            G = A @ A.conj().T
            assert smallest_eigenvalue(G) == pytest.approx(
                float(np.linalg.eigvalsh(G)[0]), rel=1e-9, abs=1e-11)


class TestBiorthogonalize:
    def test_orthonormal_family_self_dual(self):
        duals, *_ = _duals(np.eye(3))
        np.testing.assert_allclose(duals.real, np.eye(3), atol=1e-13)

    def test_angled_pair_exact(self):
        v1 = np.array([1.0, 0.0])
        v2 = np.array([1.0, 1.0]) / math.sqrt(2)
        duals, *_ = _duals(np.vstack([v1, v2]))
        # G^{-1} = [[2, -sqrt2], [-sqrt2, 2]]; w_1 = 2 v1 - sqrt2 v2 = (1, -1)
        np.testing.assert_allclose(duals[0].real, [1.0, -1.0], atol=1e-12)
        assert np.vdot(duals[0], v1).real == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(duals[0], v2).real == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_family_rejected(self):
        vecs = np.array([[1.0, 0.0, 0.0], [1.0, 1e-9, 0.0]])
        with pytest.raises(DegenerateFamily):
            _duals(vecs)

    @pytest.mark.parametrize("seed", range(50))
    def test_seeded_random_families_delta_and_bound(self, seed):
        rng = np.random.default_rng(1000 + seed)
        vecs = rng.normal(size=(4, 8))
        duals, mix, sigma, delta_residual = _duals(vecs)
        assert delta_residual <= 1e-10
        wnorms = np.linalg.norm(duals, axis=1)
        assert np.all(wnorms <= math.sqrt(4) / sigma + 1e-10)
        # brute-force Gram inverse oracle
        G = vecs @ vecs.T
        np.testing.assert_allclose(mix.real, np.linalg.inv(G), rtol=1e-8, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        vecs = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        vecs_u = vecs @ q.T
        G, Gu = vecs @ vecs.conj().T, vecs_u @ vecs_u.conj().T
        np.testing.assert_allclose(G, Gu, atol=1e-10)
        assert smallest_eigenvalue(G) == pytest.approx(smallest_eigenvalue(Gu), rel=1e-9, abs=1e-12)
        duals, *_ = _duals(vecs)
        duals_u, *_ = _duals(vecs_u)
        pair = vecs @ duals.conj().T
        pair_u = vecs_u @ duals_u.conj().T
        np.testing.assert_allclose(pair, pair_u, atol=1e-9)
