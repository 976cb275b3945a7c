"""Gram-matrix biorthogonalization of finitely many Hilbert-space vectors.

For a linearly independent family v_1..v_r with Gram G, the duals are
w^t = G^{-1} v^t; they satisfy <v_i, w_j> = delta_ij and the norm bound
||w_i|| <= sqrt(r)/sigma where sigma^2 is the smallest eigenvalue of G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFamily, NotHermitian

SIGMA_SQ_TOL = 1e-12


@dataclass(frozen=True)
class VectorFamily:
    """r vectors given by coordinates in an orthonormal reference basis."""

    vectors: np.ndarray  # shape (r, dim)

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=complex))
        if v.shape[0] > v.shape[1]:
            raise ValueError("more vectors than dimensions")
        object.__setattr__(self, "vectors", v)

    @property
    def r(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def gram(fam: VectorFamily) -> np.ndarray:
    """G_ij = <v_i, v_j> (conjugation on the second argument)."""
    v = fam.vectors
    return v @ v.conj().T


def smallest_eigenvalue(G: np.ndarray) -> float:
    """sigma^2: smallest eigenvalue of a hermitian Gram matrix."""
    G = np.atleast_2d(np.asarray(G, dtype=complex))
    if G.shape[0] != G.shape[1] or np.max(np.abs(G - G.conj().T)) > 1e-10 * (np.max(np.abs(G)) or 1.0):
        raise NotHermitian("Gram matrix must be hermitian")
    return float(np.linalg.eigvalsh(G)[0])


@dataclass(frozen=True)
class BiorthogonalVectors:
    duals: np.ndarray        # w_i coordinates, shape (r, dim)
    mix: np.ndarray          # G^{-1}: w_i = sum_j mix[i, j] v_j
    sigma: float             # sqrt of smallest Gram eigenvalue
    bound_ok: bool           # ||w_i|| <= sqrt(r)/sigma for all i
    delta_residual: float    # max |<v_i, w_j> - delta_ij|


def biorthogonalize(fam: VectorFamily) -> BiorthogonalVectors:
    """Duals w with <v_i, w_j> = delta_ij via one Gram solve."""
    mix, sigma = biorthogonalize_gram(gram(fam))
    duals = mix @ fam.vectors
    pair = fam.vectors @ duals.conj().T  # <v_i, w_j>
    delta_res = float(np.max(np.abs(pair - np.eye(fam.r))))
    wnorms = np.linalg.norm(duals, axis=1)
    bound_ok = bool(np.all(wnorms <= np.sqrt(fam.r) / sigma + 1e-10))
    return BiorthogonalVectors(duals, mix, sigma, bound_ok, delta_res)


def biorthogonalize_gram(G: np.ndarray):
    """Coefficient-level variant for vectors known only through their Gram:
    returns (G^{-1}, sigma).  w_i = sum_j (G^{-1})_ij v_j has
    ||w_i||^2 = (G^{-1})_ii.
    """
    G = np.atleast_2d(np.asarray(G, dtype=complex))
    sig_sq = smallest_eigenvalue(G)
    if sig_sq <= SIGMA_SQ_TOL:
        raise DegenerateFamily(f"smallest Gram eigenvalue {sig_sq:.3e} <= {SIGMA_SQ_TOL:g}")
    mix = np.linalg.solve(G, np.eye(G.shape[0], dtype=complex))
    return mix, float(np.sqrt(sig_sq))
