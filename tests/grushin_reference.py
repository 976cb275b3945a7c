"""The Grushin solve with BLAS reductions: the reference the numpy-sum
reductions of ``grushin`` are checked against.

Before every norm and Rayleigh quotient became a numpy pairwise sum,
``_inverse_iteration`` normalized by ``np.linalg.norm`` and the Rayleigh
quotient took ``v @ w``, both BLAS dots, through ``scipy.linalg.lapack``'s
dpttrs.  Here ``_shifted_rayleigh``, which yields every Rayleigh quotient
of the solve, takes its two dots and its norm the same way.  A BLAS dot's
rounding depends on its kernel and, above OpenBLAS's threading threshold,
on the thread count, so this reference is only reproducible to that
rounding.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
from scipy.linalg.lapack import dpttrs

from nullcontrol import grushin
from nullcontrol.grushin import _tridiag_times


def inverse_iteration(factor, md, me, v):
    v = dpttrs(*factor, _tridiag_times(md, me, v))[0]
    v /= np.linalg.norm(v)
    return v


def shifted_rayleigh(factor, sigma, md, me, v):
    mv = _tridiag_times(md, me, v)
    w = dpttrs(*factor, mv)[0]
    rq = sigma + float(w @ mv) / float(w @ _tridiag_times(md, me, w))
    w /= np.linalg.norm(w)
    return w, rq


@contextmanager
def blas_reductions():
    """Within the block, ``grushin`` solves with the BLAS reductions."""
    with mock.patch.object(grushin, "_inverse_iteration", inverse_iteration), \
            mock.patch.object(grushin, "_shifted_rayleigh", shifted_rayleigh):
        yield
