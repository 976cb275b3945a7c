"""Spectral sequences: materialization, hypothesis checks, clustering indices.

The two clustering diagnostics are windowed finite surrogates of
limsup-type indices of a normally ordered sequence (lam_k):

* condensation: v_k = -ln|E'(lam_k)| / Re(lam_k) for the canonical product
  E(z) = prod(1 - z^2/lam_k^2);
* pairwise (Bohr-type): v_k = -ln inf_{j!=k} |lam_k - lam_j| / Re(lam_k).

All products are evaluated as sums of ln|.| with an adaptively truncated
far tail.  Head factors are summed in binary64 from the stored head's float
view unless their float error bound is too large (``_head_split``); those
near-coincident factors are formed in mpmath at DEFAULT_DPS and logged at
128 bits (``mp_log_abs``).  The digits of the entries are chosen by their
rule alone: a difference of two stored entries is exact before mpmath
rounds it once, to DEFAULT_DPS, so pair gaps far below binary64
resolution still contribute their logarithm, correct to the float.  The far
tails of E' and W' are summed for every k of a profile at once by one
kernel, which reads the entries past the head from the rule in uncached
chunks (``SequenceRule.float_range``) and finds its zone bounds with
``SequenceRule.index_at_or_above``, so no float array of the truncation
length is held: factors with |lam_k/lam_j| above 2^-4 directly through
log1p, the rest from power sums of (s/lam_j)^2 (E') or s/lam_j (W') shared
by all k (s = max_k |lam_k|), whose series truncation stays below
2 eps sum_j |lam_k/lam_j|^2 resp. 2 eps sum_j |lam_k/lam_j|.  W' keeps an
Euler-Maclaurin completion past its work zone on real sequences.  The
power laws fitted for the truncations live only in the call that fits
them: the rule keeps no cache, so a repeated call repeats the same work
and returns the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from mpmath import libmp

from .errors import DuplicateEntry, NonPositiveRealPart, TailBoundUnachievable, TooFewModes
from .generators import SequenceRule
from .precision import DEFAULT_DPS, mp_log_abs, workdps
from .report import DEFAULT_WINDOW, ProfileReport, make_profile

_HEAD_BUFFER = 8
_J_MAX = 8_000_000
_FIT_TOL = 0.05  # summable once the fitted growth exponent exceeds 1 + _FIT_TOL


@dataclass(frozen=True)
class SpectralSequence:
    """Normally ordered eigenvalues with their multiplicities.

    ``values`` are mpf/mpc scalars; multiplicity is carried by ``r``,
    never by repetition.  ``rule`` is the sequence the values came from:
    an infinite rule extends it lazily past the stored head for tail
    evaluations, a finite one is stored whole.  ``floats`` is the binary64
    view of the stored values (``rule.float_range``), the only float array
    kept; entries past the head are read from the rule.  ``dps``, the digits
    of the longest stored mantissa (at least DEFAULT_DPS), is read by
    validation.
    """

    values: tuple
    r: tuple
    rule: SequenceRule
    floats: np.ndarray = field(repr=False, compare=False)
    dps: int = DEFAULT_DPS

    def __len__(self) -> int:
        return len(self.values)

    def entry(self, k: int):
        """1-based access, matching the eigenvalue numbering."""
        if not 1 <= k <= len(self.values):
            raise IndexError(f"index k={k} outside 1..{len(self.values)}")
        return self.values[k - 1]

    @property
    def re(self) -> np.ndarray:
        return self.floats.real


def _validate(values, context_dps) -> None:
    # entries live at context_dps digits: reject only gaps the stored
    # precision cannot resolve
    with workdps(context_dps):
        resolvable = mp.mpf(10) ** (-(context_dps - 5))
        for z in values:
            if not (z.real > 0):
                raise NonPositiveRealPart(f"Re(lambda) <= 0 for entry {z}")
        for a, b in zip(values, values[1:]):
            if abs(b - a) < resolvable * (1 + abs(a)):
                raise DuplicateEntry(f"entries near {complex(a)} coincide at working precision")
            ma, mb = abs(a), abs(b)
            ordered = ma < mb or (ma == mb and mp.arg(a) < mp.arg(b))
            if not ordered:
                raise DuplicateEntry(f"ordering violated between {a} and {b}")


def from_rule(rule: SequenceRule, K: int) -> SpectralSequence:
    """Materialize the first K entries of an infinite rule (plus a small
    buffer), or every entry of a finite one (at least K)."""
    if K < 1:
        raise TooFewModes("K must be >= 1")
    if rule.infinite:
        n = K + _HEAD_BUFFER
        n += (-n) % rule.pair_align
    else:
        n = len(rule.values)
        if n < K:
            raise TooFewModes(f"rule {rule.name!r} has {n} entries, fewer than K={K}")
    vals = rule.mp_entries(n)
    # the longest stored mantissa: entries built past DEFAULT_DPS stay distinct
    bits = max(x[3] for v in vals for x in (v._mpc_ if isinstance(v, mp.mpc) else (v._mpf_,)))
    dps = max(libmp.prec_to_dps(bits), DEFAULT_DPS)
    _validate(vals, dps + 10)
    floats = rule.float_range(0, n)
    floats.flags.writeable = False  # the sequence is frozen, and models share it
    return SpectralSequence(tuple(vals), (1,) * len(vals), rule, floats, dps)


@dataclass(frozen=True)
class HypothesisReport:
    sector_delta_est: float
    summability_exponent: float
    summable: bool
    sup_rk: int
    warnings: list = field(default_factory=list)


def _power_fit(moduli: np.ndarray, lo: int) -> tuple[float, float]:
    """LS fit ln|lam_k| ~ ln c + p ln k, ``moduli`` those of 1-based k = lo, lo + 1, ..."""
    ks = np.arange(lo, lo + len(moduli), dtype=float)
    p, lnc = np.polyfit(np.log(ks), np.log(moduli), 1)
    return float(math.exp(lnc)), float(p)


def check_hypotheses(seq: SpectralSequence, K: int) -> HypothesisReport:
    """Sector constant and summability exponent of the first K moduli."""
    if len(seq) < max(K, 16):
        raise TooFewModes(f"need at least max(K, 16) = {max(K, 16)} entries, have {len(seq)}")
    vals = seq.floats[:K]
    moduli = np.abs(vals)
    delta = float(np.min(vals.real / moduli))
    lo = max(1, K // 2)
    _, p = _power_fit(moduli[lo - 1:], lo)
    summable = p > 1.0 + _FIT_TOL
    warnings = [] if summable else ["HYP_SUMMABILITY_FAIL"]
    return HypothesisReport(delta, p, summable, int(max(seq.r)), warnings)


def _head_fit(seq: SpectralSequence) -> tuple[float, float] | None:
    """Power law (c, p) fitted to the moduli of entries n/2..n, n = max(len, 64),
    of an infinite rule; None for a finite one, whose products have no tail."""
    if not seq.rule.infinite:
        return None
    n = max(len(seq), 64)
    lo = max(1, n // 2)
    return _power_fit(np.abs(seq.rule.float_range(lo - 1, n)), lo)


def _tail_start(seq: SpectralSequence, fit, lam_abs: float, tol: float) -> int:
    """Smallest J with a proven bound sum_{j>J} |ln|1-lam^2/lam_j^2|| < tol,
    from the head ``fit`` of ``_head_fit``."""
    n0 = len(seq)
    if fit is None:
        return n0  # finite sequence: the product is exact, no tail
    c, p = fit
    c *= 0.8  # fit safety margin
    if p <= 1.0:
        raise TailBoundUnachievable(f"fitted growth exponent p={p:.3f} <= 1")
    # need c J^p >= sqrt(2) lam_abs so |w| <= 1/2, then
    # sum_{j>J} 2 |w_j| <= 2 lam^2 / (c^2 (2p-1) J^(2p-1)); both in the
    # ratio lam/c, so that a large scale c does not overflow lam^2
    ratio = lam_abs / c
    j_sep = (math.sqrt(2.0) * ratio) ** (1.0 / p) * 1.2
    j_tail = (2.0 * ratio**2 / ((2 * p - 1) * tol)) ** (1.0 / (2 * p - 1))
    J = int(math.ceil(max(j_sep, j_tail, n0)))
    if J > _J_MAX:
        raise TailBoundUnachievable(f"truncation J={J} exceeds cap {_J_MAX} for tol {tol:g}")
    return J


# Far-tail factors with |w| = |lam_k/lam_j| <= rho^(1/2) = 2^-4 for every k of
# a call are summed from power sums shared by all k.  With s = max_k |lam_k|,
# a = lam_k/s and u = s/lam_j, both log-factors are power series in u^step:
#   E' (step 2):  ln(1 - w^2) = -sum_q a^(2q) u^(2q) / q,
#   W' (step 1):  ln(1 + conj(a) u) - ln(1 - a u) = sum_q [(-1)^(q+1) conj(a)^q + a^q] u^q / q
# (real parts; on real rules the even-q W' coefficients are exactly 0), cut
# after n terms with (rho^(step/2))^n <= eps: below eps |w|^step per factor.
# Each power sum stops once its terms are below eps |u|^step (see _far_sums):
# the far sum is off by at most 2 eps sum |w|^step, at most 2 eps of its own
# magnitude on a real sequence.  2^-8 was the fastest rho of 2^-4 .. 2^-18
# on the indices and tmin profiles.
_RHO = 2.0**-8
_EPS = float(np.finfo(float).eps)
_CHUNK = 1 << 16


def _far_sums(seq, lams: np.ndarray, n0: int, Js: np.ndarray, step: int) -> np.ndarray:
    """sum_{n0 <= j < J_k} (0-based j) for every k of the log-factor at
    w = lam_k/lam_j: Re ln(1 - w^2) for E' (step 2), Re[ln(1 + conj(lam_k)/lam_j)
    - ln(1 - w)] for W' (step 1); float64 on real rules, else complex128.

    Near zone [n0, J0), J0 the first entry with |lam_j| >= s/sqrt(rho):
    each factor directly through log1p.  Far zone [J0, J_k): the series
    above from the power sums P_q = sum u^(step q) over the segments
    between the sorted distinct J_k, one reduceat pass per q.  Pass q stops
    where |u|^(step (q-1)) <= eps: the terms dropped there are below
    eps |u|^step each.
    """
    out = np.zeros(len(lams))
    J_max = int(Js.max(initial=n0))
    if J_max <= n0:
        return out
    rule = seq.rule
    if rule.real:
        lams = lams.real
    s = float(np.abs(lams).max())
    J0 = rule.index_at_or_above(s / math.sqrt(_RHO), n0, J_max)

    if J0 > n0:
        near = rule.float_range(n0, J0)
        rows = max(1, _CHUNK // (J0 - n0))  # ks per near-zone block
        for r0 in range(0, len(lams), rows):
            r = slice(r0, r0 + rows)
            w = lams[r, None] / near[None, :]
            if step == 2:
                np.multiply(w, w, out=w)
                np.negative(w, out=w)
                f = np.log1p(w, out=w).real
            else:
                f = (np.log1p(np.conj(lams[r, None]) / near[None, :]) - np.log1p(-w)).real
            f[np.arange(n0, J0)[None, :] >= Js[r, None]] = 0.0
            out[r] += f.sum(axis=1)
    if J_max <= J0:
        return out

    q = np.arange(1, math.ceil(2 * math.log(_EPS) / (step * math.log(_RHO))) + 1)
    # pass m sums P_{m+1} over [J0, ends[m]); Python floats take a bound past binary64 to inf
    ends = [J_max] + [rule.index_at_or_above(s * _EPS ** (-1.0 / (step * m)), J0, J_max)
                      for m in range(1, len(q))]
    edges = np.sort(np.concatenate(([J0], Js[Js > J0], np.arange(J0, J_max, _CHUNK))))
    edges = edges[np.diff(edges, prepend=J0 - 1) > 0]  # np.unique would import numpy.ma
    sums = np.zeros((len(q), len(edges)), dtype=lams.dtype)  # column i: [edges[i], edges[i+1])
    p_buf = np.empty(min(_CHUNK, J_max - J0), dtype=lams.dtype)
    for c0 in range(J0, J_max, _CHUNK):
        c1 = min(c0 + _CHUNK, J_max)
        i0, i1 = np.searchsorted(edges, (c0, c1))
        starts = edges[i0:i1] - c0
        u = rule.float_range(c0, c1)
        np.divide(s, u, out=u)
        if step == 2:
            np.multiply(u, u, out=u)
        p = u
        for m in range(len(q)):
            n = min(ends[m], c1) - c0
            if n <= 0:
                break
            if m:
                p = np.multiply(p[:n], u[:n], out=p_buf[:n])
            seg = starts[starts < n]
            sums[m, i0:i0 + len(seg)] = np.add.reduceat(p, seg)

    prefix = np.zeros_like(sums)  # column i: [J0, edges[i]); J_k <= J0 reads column 0
    np.cumsum(sums[:, :-1], axis=1, out=prefix[:, 1:])
    powers = np.cumprod(np.repeat(((lams / s) ** step)[:, None], len(q), axis=1), axis=1)
    sign = np.where(q % 2, 1.0, -1.0)
    coefs = -powers / q if step == 2 else (sign * np.conj(powers) + powers) / q
    out += (coefs * prefix[:, np.searchsorted(edges, Js)].T).sum(axis=1).real
    return out


def _head_split(seq: SpectralSequence, k: int, tol: float):
    """Split the head factors j != k between float64 and mpmath.

    The float64 error of ln|lam_j -+ lam_k| from the float view is at most
    about 4 eps (|lam_j| + |lam_k|) / |fl(lam_j) -+ fl(lam_k)| (+inf when
    the float gap is 0 or an entry overflows).  Factors go to mpmath,
    largest bound first, until the bounds left in float sum to at most
    tol / 2.  Returns the float view of the head, 0-based indices of the
    float factors and of the mp factors (the latter in increasing order).
    """
    vals = seq.floats
    lam_f = vals[k - 1]
    others = np.delete(np.arange(len(vals)), k - 1)
    f = vals[others]
    scale = 4.0 * np.finfo(float).eps * (np.abs(f) + abs(lam_f))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # |lam_j + lam_k| and |conj(lam_j) + lam_k| both exceed Re(lam_j + lam_k)
        bound = scale / np.abs(f - lam_f) + scale / (f.real + lam_f.real)
    bound[~np.isfinite(bound)] = np.inf
    order = np.argsort(bound, kind="stable")
    n_float = int(np.searchsorted(np.cumsum(bound[order]), 0.5 * tol, side="right"))
    return vals, others[order[:n_float]], np.sort(others[order[n_float:]])


def log_E_primes(seq: SpectralSequence, ks, rel_tail_tol: float = 1e-10) -> np.ndarray:
    """ln|E'(lam_k)| for every k in ``ks`` (1-based, any order), with
    E(z) = prod_j (1 - z^2/lam_j^2) truncated so the neglected log-sum is
    below ``rel_tail_tol``.

    The factor at j = k differentiates to -2 lam_k / lam_k^2, hence the
    leading ln(2/|lam_k|).  Stored neighbors are summed in float64 unless
    their float error bound is too large; those (pair gaps below float
    resolution in particular) are handled in mpmath and keep their exact
    logarithm.  The far tails of all ks are summed in one batch.
    """
    n0 = len(seq)
    fit = _head_fit(seq)
    totals, lams, Js = [], [], []
    for k in ks:
        lam = seq.entry(k)
        lam_abs = float(abs(lam))
        total = math.log(2.0) - math.log(lam_abs)
        vals, fl_js, mp_js = _head_split(seq, k, rel_tail_tol)
        f, lam_f = vals[fl_js], vals[k - 1]
        total += float(np.sum(np.log(np.abs(f - lam_f)) + np.log(np.abs(f + lam_f))
                              - 2.0 * np.log(np.abs(f))))
        with workdps(DEFAULT_DPS):
            for j in mp_js:
                other = seq.values[j]
                total += mp_log_abs((other - lam) * (other + lam) / (other * other))
        totals.append(total)
        lams.append(complex(lam))
        Js.append(_tail_start(seq, fit, lam_abs, rel_tail_tol))
    return np.array(totals) + _far_sums(seq, np.array(lams), n0, np.array(Js, dtype=np.int64), 2)


def _log_derivative_profile(name: str, log_derivatives, seq: SpectralSequence, K: int,
                            rel_tail_tol: float, window: int) -> ProfileReport:
    """The profile of -ln|D(lam_k)| / Re(lam_k), k = 1..K, ln|D| from ``log_derivatives``."""
    if K > len(seq):
        raise TooFewModes(f"profile needs K={K} stored entries, have {len(seq)}")
    re = seq.re[:K]
    vs = -log_derivatives(seq, range(1, K + 1), rel_tail_tol) / re
    return make_profile(name, np.arange(1, K + 1), vs, window)


def condensation_profile(seq: SpectralSequence, K: int,
                         rel_tail_tol: float = 1e-10,
                         window: int = DEFAULT_WINDOW) -> ProfileReport:
    """Windowed surrogate of the condensation index."""
    return _log_derivative_profile("condensation", log_E_primes, seq, K, rel_tail_tol, window)


def bohr_profile(seq: SpectralSequence, K: int,
                 window: int = DEFAULT_WINDOW) -> ProfileReport:
    """Windowed surrogate of the nearest-neighbor (Bohr-type) index."""
    if K < 2:
        raise TooFewModes("pairwise profile needs K >= 2")
    if K > len(seq):
        raise TooFewModes(f"profile needs K={K} stored entries, have {len(seq)}")
    vs = np.empty(K)
    partners = np.empty(K, dtype=int)
    vals = seq.floats
    eps4 = 4.0 * np.finfo(float).eps
    with workdps(DEFAULT_DPS):
        for k in range(1, K + 1):
            lam = seq.values[k - 1]
            # candidates: every j whose true gap may be the minimum, given
            # a float gap error of at most 4 eps (|lam_j| + |lam_k|)
            with np.errstate(invalid="ignore", over="ignore"):
                g = np.abs(vals - vals[k - 1])
                err = eps4 * (np.abs(vals) + abs(vals[k - 1]))
                lo, hi = g - err, g + err
            lo[~np.isfinite(lo)] = -np.inf
            hi[~np.isfinite(hi)] = np.inf
            lo[k - 1], hi[k - 1] = np.inf, np.inf
            best, best_j = None, -1
            for j in np.flatnonzero(lo <= hi.min()):
                gap = abs(seq.values[j] - lam)
                if best is None or gap < best:
                    best, best_j = gap, int(j) + 1
            vs[k - 1] = -mp_log_abs(best) / float(lam.real)
            partners[k - 1] = best_j
    return make_profile("bohr", np.arange(1, K + 1), vs, window,
                        extras={"partner": partners})


def _blaschke_tail(seq, fits: dict, lam_abs: float, n0: int,
                   tol_abs: float) -> tuple[int, float]:
    """End J of the W' far zone [n0, J) and the closed-form remainder past J.

    The factors ln|(1 + lam/conj(l)) / (1 - lam/l)| only decay like
    2|lam|/|l|, so a hard truncation meeting tol would need J ~ |lam|/tol
    entries; real sequences add instead an Euler-Maclaurin completion of the
    fitted power-law tail, with its error held below tol.  Complex ones are
    truncated plainly under the 2|lam|/(|l| - |lam|) bound (remainder 0).
    Either way J doubles until the error meets tol, up to _J_MAX.  The
    power law of the entries J/2..J is fitted once per J into ``fits``,
    which the caller shares between its ks.
    """
    if not seq.rule.infinite:
        return n0, 0.0
    J = max(4 * n0, 1 << 16)
    while True:
        if J > _J_MAX:
            raise TailBoundUnachievable(f"tail completion still above tolerance at J={J}")
        if J not in fits:
            moduli = np.abs(seq.rule.float_range(J // 2 - 1, J))
            c, p = _power_fit(moduli, J // 2)
            fit_resid = float(np.max(np.abs(
                np.log(moduli) - (math.log(c) + p * np.log(np.arange(J // 2, J + 1))))))
            fits[J] = (c, p, fit_resid)
        c, p, fit_resid = fits[J]
        if p <= 1.0:
            raise TailBoundUnachievable(f"fitted growth exponent p={p:.3f} <= 1")
        if seq.rule.real:
            # remainder of sum 2 artanh(lam/l): first-order + cubic term, in
            # the ratio lam/c so that a large scale c does not overflow
            ratio = lam_abs / c
            lead = 2.0 * ratio * (J ** (1 - p) / (p - 1) + 0.5 * J ** (-p))
            cubic = (2.0 * ratio**3 / 3.0) * J ** (1 - 3 * p) / (3 * p - 1)
            rem = lead + cubic
            err = rem * fit_resid * (2.0 + math.log(J)) \
                + 2.0 * ratio * p * J ** (-p - 1) * 5.0
        else:
            rem, err = 0.0, 4.0 * lam_abs / (0.8 * c * (p - 1)) * J ** (1 - p)
        if err < tol_abs:
            return J, rem
        J *= 2


def blaschke_log_wprimes(seq: SpectralSequence, ks, rel_tail_tol: float = 1e-10) -> np.ndarray:
    """ln|W'(lam_k)| of the half-plane inner function with zeros lam_j, for
    every k in ``ks`` (1-based, any order).

    |W'(lam_k)| = P_k^{-1} / (2 Re lam_k) with
    P_k = prod_{l != k} |(1 + lam_k/conj(lam_l)) / (1 - lam_k/lam_l)|;
    unimodular normalizing factors drop out of the modulus.  The error
    budget rel_tail_tol is applied to the Re(lam_k)-normalized quantity.
    Head as in ``log_E_primes``; far zones in one batch, tails by ``_blaschke_tail``.
    """
    n0 = len(seq)
    fits: dict = {}  # tail fits by J, shared by the ks of this call
    totals, lams, Js = [], [], []
    for k in ks:
        lam = seq.entry(k)
        lam_c = complex(lam)
        tol_abs = rel_tail_tol * max(1.0, lam_c.real)
        vals, fl_js, mp_js = _head_split(seq, k, tol_abs)
        f, lam_f = vals[fl_js], vals[k - 1]
        ln_pk = float(np.sum(np.log(np.abs(np.conj(f) + lam_f)) - np.log(np.abs(f - lam_f))))
        with workdps(DEFAULT_DPS):
            for j in mp_js:
                other = seq.values[j]
                ln_pk += mp_log_abs((mp.conj(other) + lam) / (other - lam))
        J, rem = _blaschke_tail(seq, fits, abs(lam_c), n0, tol_abs)
        totals.append(-math.log(2.0 * float(lam.real)) - ln_pk - rem)
        lams.append(lam_c)
        Js.append(J)
    return np.array(totals) - _far_sums(seq, np.array(lams), n0, np.array(Js, dtype=np.int64), 1)


def blaschke_profile(seq: SpectralSequence, K: int,
                     rel_tail_tol: float = 1e-10,
                     window: int = DEFAULT_WINDOW) -> ProfileReport:
    """Condensation surrogate computed through |W'| instead of |E'|."""
    return _log_derivative_profile("blaschke", blaschke_log_wprimes, seq, K, rel_tail_tol, window)

