"""Control sampling on raw mpf tuples through libmp: the reference the
integer kernel of ``synthesis.sample_plan`` is checked against.

Before the basis recurrence ran on signed integer mantissas, every sample
stepped the basis values with ``libmp.mpf_mul``, ``mpf_sub`` and
``mpc_mul`` rounded to nearest at the carried precision, converted them
to aligned integers and took one exact dot product per term and sample,
rounded by libmp.  Both paths round the same exact values the same way,
so the kernel must reproduce these samples bit for bit.  The conversion,
its spread refusal and the dot are written out here, not imported from
``precision``.
"""

from typing import NamedTuple

import mpmath as mp
import numpy as np
from mpmath import libmp

from nullcontrol.errors import NumericalError
from nullcontrol.precision import MAX_SPREAD_BITS, workdps


class IntVector(NamedTuple):
    """Exact integer form of one vector: value_j = (re[j] + i im[j]) 2^exp;
    ``im`` is empty when no value is complex."""

    re: list
    im: list
    exp: int


def _int_parts_raw(flat, cplx: bool) -> IntVector:
    """The exact integer form of raw mpf tuples: one per value, or (re, im)
    pairs laid out flat when ``cplx``, aligned to their lowest set bit."""
    exps = [x[2] for x in flat if x[1]]
    if len(exps) < len(flat) and any(x[3] for x in flat if not x[1]):
        raise ValueError("exact integer form of a non-finite value")
    exp = min(exps, default=0)
    spread = max(exps, default=0) - exp
    if spread > MAX_SPREAD_BITS:
        raise NumericalError(f"exact sum over values spread across {spread} bits, "
                             f"more than {MAX_SPREAD_BITS}")
    ints = [0 if not man else -(man << (e - exp)) if sign else man << (e - exp)
            for sign, man, e, _ in flat]
    if cplx:
        return IntVector(ints[0::2], ints[1::2], exp)
    return IntVector(ints, [], exp)


def _int_parts(values) -> IntVector:
    """``_int_parts_raw`` of mp scalars."""
    values = list(values)
    cplx = any(isinstance(v, mp.mpc) for v in values)
    if not cplx:
        return _int_parts_raw([v._mpf_ for v in values], False)
    return _int_parts_raw([x for v in values for x in
                           (v._mpc_ if isinstance(v, mp.mpc) else (v._mpf_, libmp.fzero))], True)


def _dot_real(a: IntVector, b: IntVector, prec: int) -> float:
    """Re(sum_j a_j b_j), summed exactly, rounded to ``prec`` bits and then to float."""
    man = sum(x * y for x, y in zip(a.re, b.re)) - sum(x * y for x, y in zip(a.im, b.im))
    return libmp.to_float(libmp.from_man_exp(man, a.exp + b.exp, prec, "n"), rnd="n")


def basis_samples(basis, T: float, ts, prec: int):
    """Yield the basis values e^{-r s} and e^{-r s} phi_d(s) at each
    s_i = T - t_i, one ``IntVector`` per sample.

    e^{-r s} is evaluated once, at s_0, and then follows the recurrence
    e^{-r s_i} = e^{-r s_(i-1)} e^{r d_i} over the exact grid steps
    d_i = s_(i-1) - s_i, with one cached e^{r d} per rate and distinct
    step (np.linspace has a dozen or two).  A pair's phi_d(s) =
    (1 - e^{-d s}) / d follows phi <- e^{d d_i} phi - expm1(d d_i) / d,
    with one cached pair of factors per d > 0 and distinct step; at d = 0
    (a Jordan chain) phi is s itself.  Both are carried with
    len(ts).bit_length() + 1 guard bits, so that the drift after len(ts)
    steps stays below one unit in the last place at ``prec`` bits, of the
    value for e^{-r s} and of the pair's scale T for phi.

    Per sample the recurrence costs two exact subtractions (s and d), one
    product per rate and per paired row, and a product and a difference
    per distinct d > 0, rounded to nearest at the carried precision, all
    on raw mpf tuples (mpc pairs for a complex rate) through ``libmp``: no
    mp scalar and no precision context is built per sample.  s is exact
    (T and t are doubles of nearby magnitude, so s has far fewer bits than
    are carried), so s e^{-r s} is the rounded s e^{-r s}.  A d > 0 pairs
    real rates only.
    """
    rates = list(dict.fromkeys(r for r, _ in basis))
    deltas = list(dict.fromkeys(d for _, d in basis if d))
    # per row: its rate, and None (e^{-r s}), -1 (s e^{-r s}) or its d's index
    slots = [(rates.index(r), None if d is None else deltas.index(d) if d else -1)
             for r, d in basis]
    cplx = [type(r) is mp.mpc for r in rates]
    mul = [libmp.mpc_mul if c else libmp.mpf_mul for c in cplx]
    smul = [libmp.mpc_mul_mpf if c else libmp.mpf_mul for c in cplx]   # s is real
    flat_c = any(cplx)
    wp = prec + len(ts).bit_length() + 1

    def factors(x):
        """e^{r x} per rate, and (e^{d x}, expm1(d x) / d) per d > 0, as raw
        tuples, for a raw mpf x."""
        with mp.workprec(wp):
            x = mp.make_mpf(x)
            vals = [mp.exp(r * x) for r in rates]
            em1 = [mp.expm1(d * x) for d in deltas]
            pairs = [((m + 1)._mpf_, (m / d)._mpf_) for m, d in zip(em1, deltas)]
        return [v._mpc_ if c else v._mpf_ for v, c in zip(vals, cplx)], pairs

    T_raw = libmp.from_float(float(T))
    steps = {}
    prev = None
    for t in ts:
        s = libmp.mpf_sub(T_raw, libmp.from_float(float(t)))   # exact
        if prev is None:
            e, phi = factors(libmp.mpf_neg(s))
            phi = [libmp.mpf_neg(c) for _, c in phi]   # phi_d(s) = -expm1(-d s) / d
        else:
            d = libmp.mpf_sub(prev, s)   # exact
            step = steps.get(d)
            if step is None:
                step = steps[d] = factors(d)
            e = [m(a, b, wp, "n") for m, a, b in zip(mul, e, step[0])]
            phi = [libmp.mpf_sub(libmp.mpf_mul(f, p, wp, "n"), c, wp, "n")
                   for p, (f, c) in zip(phi, step[1])]
        prev = s
        values = [e[k] if j is None else smul[k](e[k], s, wp, "n") if j < 0
                  else libmp.mpf_mul(e[k], phi[j], wp, "n") for k, j in slots]
        if flat_c:
            # an (re, im) pair has length 2, an mpf tuple 4: a value of a
            # real rate takes a zero imaginary part
            values = [x for v in values for x in (v if len(v) == 2 else (v, libmp.fzero))]
        yield _int_parts_raw(values, flat_c)


def sample_plan(plan, n: int = 2000):
    """(t, term_matrix, u) as ``synthesis.sample_plan`` returns them: one
    ``_dot_real`` per term and sample against ``basis_samples``."""
    T = float(plan.T)
    ts = np.linspace(0.0, T, n)
    family = plan.family
    with workdps(family.dps):
        prec = mp.mp.prec
        rows = [_int_parts([term.coeff_mp * c for c in family.mp_coeffs[term.basis_index, :]])
                for term in plan.terms]
    samples = [[_dot_real(a, f, prec) for a in rows]
               for f in basis_samples(family.span.basis(), T, ts, prec)]
    cols = np.array(samples, dtype=float).reshape(n, len(rows)).T.copy()
    scalars = [getattr(t.direction, "value", None) for t in plan.terms]
    u = None
    if all(v is not None and np.imag(v) == 0 for v in scalars):
        u = np.sum(cols * np.array([float(np.real(v)) for v in scalars])[:, None], axis=0)
    return ts, cols, u
