"""Named eigenvalue-sequence rules.

Rules generate normally ordered spectra lazily: mpmath entries for the
head (the window actually profiled) plus uncached binary64 ranges of any
entries, which truncated-product evaluations read chunk by chunk, and the
index of the first entry at or above a modulus, found from a closed-form
estimate without generating the entries before it.  Pair perturbations like
k^2 + e^{-tau k^2} collapse in binary64 long before they stop mattering,
so the head is kept in mpmath.  Generation alone chooses the digits: both
paired rules, appendixB and academic_lf, compute each pair at the digits
its own gap needs, power and two_diffusion at DEFAULT_DPS, and explicit
entries keep the digits they were given.  ``spectral`` forms its factors
at DEFAULT_DPS from exact differences of stored entries.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from .errors import NumericalError
from .precision import DEFAULT_DPS, to_complex, to_mp, workdps

# most digits a paired rule may form a pair at: only generating a pair needs
# its gap's digits, the spectral factors run at DEFAULT_DPS.  The cost grows
# more than linearly in the digits: the ten pairs of an academic_lf K = 12
# head take 0.29 s at 12,900 digits and 0.53-0.60 s at 19,300, and `indices`
# on appendixB tau = 1 at K = 250 (7277 digits) takes 0.55 s (fresh process,
# 2-core x86-64 box)
MAX_HEAD_DPS = 20_000


def _pair_dps(tau_lam: float) -> int:
    """Digits that resolve the pair gap e^{-tau lam} next to lam, at most MAX_HEAD_DPS."""
    digits = tau_lam / math.log(10)
    if digits >= MAX_HEAD_DPS - 49:  # int(digits) + 50 > MAX_HEAD_DPS, also for inf
        raise NumericalError(f"a pair gap e^(-{tau_lam:.6g}) needs {digits + 50:.6g} digits, "
                             f"more than {MAX_HEAD_DPS}")
    return int(digits) + 50


def _first_true(pred, lo: int, hi: int, guess: float) -> int:
    """First i in [lo, hi) with pred(i), for pred false and then true over
    the range; hi if there is none.  Probes outward from ``guess`` (any
    float, clamped into the range) in doubling steps, then bisects the
    bracket: a few probes when the guess is close, O(log(hi - lo)) at worst."""
    if lo >= hi:
        return lo
    g = lo if not guess >= lo else int(min(guess, hi - 1))  # nan -> lo, inf -> hi - 1
    step = 1
    if pred(g):
        hi = g
        while hi > lo:
            a = max(lo, hi - step)
            if not pred(a):
                lo = a + 1
                break
            hi, step = a, 2 * step
    else:
        lo = g + 1
        while lo < hi:
            b = lo - 1 + step
            if b >= hi:
                break
            if pred(b):
                hi = b
                break
            lo, step = b + 1, 2 * step
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


class SequenceRule:
    """Base class: normally ordered, Re > 0 eigenvalue stream."""

    name = "rule"
    infinite = True
    real = True  # every entry real: float ranges are float64, else complex128
    # spectral.from_rule rounds the stored head of an infinite rule up to a
    # multiple of this: 2 on the two-branch rules
    pair_align = 1

    def __init__(self):
        self.fit_cache: dict = {}

    def mp_entries(self, n: int):
        """First n entries as mpf/mpc, normally ordered.  Every rule defines
        ``mp_entry(j)``, entry j alone: it depends neither on the caller's
        precision nor on which other entries were asked for."""
        return [self.mp_entry(j) for j in range(1, n + 1)]

    def float_range(self, i0: int, i1: int) -> np.ndarray:
        """Entries i0..i1-1 (0-based) in binary64, float64 for real rules,
        else complex128; pair splittings may collapse.  Not cached: each
        entry comes from its own float operations, whatever the range."""
        raise NotImplementedError

    def _index_guess(self, x: float) -> float:
        """Closed-form estimate of the 0-based index of the first entry
        with modulus >= x (any float; only the search's speed depends on it)."""
        return 0.0

    def index_at_or_above(self, x: float, lo: int, hi: int) -> int:
        """``bisect_left(entries, x, lo, hi, key=abs)`` over the float
        entries, without generating them: probes single entries outward
        from ``_index_guess``.  hi when no entry below hi reaches x (also
        for x = inf unless the entries overflow to inf)."""
        try:
            guess = self._index_guess(x)
        except OverflowError:  # a power rule's (x / |c|)^(1/p) past binary64, p < 1
            guess = math.inf
        return _first_true(lambda i: abs(self.float_range(i, i + 1)[0]) >= x, lo, hi, guess)


class PowerRule(SequenceRule):
    """lambda_k = c * k^p with Re(c) > 0."""

    name = "power"

    def __init__(self, c=1.0, p=2.0):
        super().__init__()
        self.c = complex(c)
        self.p = float(p)
        self.real = self.c.imag == 0.0

    def mp_entry(self, j):
        with workdps(DEFAULT_DPS):
            return to_mp(self.c) * mp.mpf(j) ** self.p

    def float_range(self, i0, i1):
        ks = np.arange(i0 + 1, i1 + 1, dtype=float)
        with np.errstate(over="ignore"):  # entries past binary64 become inf
            if not self.real:
                return self.c * ks ** self.p
            ks **= self.p  # in place: a real rule's range stays real
            ks *= self.c.real
        return ks

    def _index_guess(self, x):
        return (x / abs(self.c)) ** (1.0 / self.p) - 1.0


class _PairedRule(SequenceRule):
    """Paired sequence {b_k - a f_k, b_k + f_k}, b_k = s k^2, f_k = e^{-tau b_k},
    merged in order.  Each pair is computed at the digits its own gap needs,
    so an entry does not depend on how many entries are asked for."""

    pair_align = 2
    pi_power = 0  # s = pi^pi_power, formed at the working digits in mpmath
    lower = 0     # a: 0 keeps b_k itself, 1 splits the pair symmetrically

    def __init__(self, tau):
        if tau <= 0:
            raise ValueError("tau must be positive")
        super().__init__()
        self.tau = float(tau)

    def _dps(self, k):
        return _pair_dps(self.tau * math.pi**self.pi_power * k * k)

    def _pair(self, k):
        """(b_k - a f_k, b_k + f_k) at the digits pair k needs."""
        with workdps(self._dps(k)):
            lam = mp.mpf(k) ** 2
            if self.pi_power:
                lam *= mp.pi**self.pi_power
            f = mp.exp(-mp.mpf(self.tau) * lam)
            return lam - self.lower * f, lam + f

    def mp_entries(self, n):
        return [x for k in range(1, (n + 1) // 2 + 1) for x in self._pair(k)][:n]

    def mp_entry(self, j):
        return self._pair((j + 1) // 2)[(j + 1) % 2]

    def float_range(self, i0, i1):
        lam = np.arange(i0, i1) // 2 + 1.0
        lam **= 2
        lam *= math.pi**self.pi_power
        # in place, and only where e^{-tau lam} is not 0.0 in binary64
        # (tau lam <= 746)
        m = int(np.searchsorted(lam, 746.0 / self.tau, side="right"))
        with np.errstate(under="ignore"):
            f = np.exp(-self.tau * lam[:m])
        f[i0 % 2::2] *= -self.lower  # the lower entries: even 0-based indices
        lam[:m] += f
        return lam

    def _index_guess(self, x):
        # pair k, b_k = s k^2, holds the 0-based entries 2k - 2 and 2k - 1
        return 2.0 * math.sqrt(x / math.pi**self.pi_power) - 2.0


class AppendixBRule(_PairedRule):
    """Paired sequence {k^2, k^2 + e^{-tau k^2}}."""

    name = "appendixB"

    def __init__(self, tau=1.0):
        super().__init__(tau)


class TwoDiffusionRule(SequenceRule):
    """Merged families {s k^2} and {s d k^2}, d > 0, d != 1."""

    name = "two_diffusion"
    pair_align = 2

    def __init__(self, d, scale=1.0):
        if d <= 0 or abs(d - 1.0) <= 1e-9:
            raise ValueError("need d > 0 and d != 1")
        super().__init__()
        self.d = float(d)
        self.scale = float(scale)
        self._tags: list = []

    def _value(self, family, k):
        # a binary64 factor times k^2: exact at DEFAULT_DPS
        return (self.scale if family == 1 else self.scale * self.d) * mp.mpf(k) ** 2

    def tag(self, j):
        """(family, k) of entry j: family 1 is {s k^2}, family 2 {s d k^2}."""
        if len(self._tags) < j:
            # two-pointer merge by exact value, family 1 first on a tie
            m, tags, ks = max(j, 2 * len(self._tags)), [], [1, 1]
            with workdps(DEFAULT_DPS):
                while len(tags) < m:
                    fam = 1 if self._value(1, ks[0]) <= self._value(2, ks[1]) else 2
                    tags.append((fam, ks[fam - 1]))
                    ks[fam - 1] += 1
            self._tags = tags
        return self._tags[j - 1]

    def mp_entry(self, j):
        with workdps(DEFAULT_DPS):
            return self._value(*self.tag(j))

    def _family1_count(self, i):
        """Members of {s k^2} among the first i float entries: the largest
        a <= i with s a^2 <= s d (i - a + 1)^2, both sides the float
        products of ``float_range`` (family 1 first on a tie).  Starts from
        the root of a = sqrt(d) (i - a + 1)."""
        s1, s2, rd = self.scale, self.scale * self.d, math.sqrt(self.d)
        return _first_true(lambda a: s1 * float(a * a) > s2 * float((i - a + 1) ** 2),
                           1, i + 1, rd * (i + 1) / (1.0 + rd)) - 1

    def float_range(self, i0, i1):
        a0, a1 = self._family1_count(i0), self._family1_count(i1)
        vals = np.empty(i1 - i0)
        # each family's members among entries i0..i1-1, family 1 first
        for out, k0, k1, s in ((vals[:a1 - a0], a0, a1, self.scale),
                               (vals[a1 - a0:], i0 - a0, i1 - a1, self.scale * self.d)):
            np.square(np.arange(k0 + 1, k1 + 1, dtype=float), out=out)
            out *= s
        vals.sort(kind="stable")  # timsort merges the two sorted runs, family 1 first on a tie
        return vals

    def _index_guess(self, x):
        # the members of both families below x
        return math.sqrt(x / self.scale) + math.sqrt(x / (self.scale * self.d))


class AcademicLfRule(_PairedRule):
    """Paired sequence {lam_k - f, lam_k + f}, lam_k = k^2 pi^2, f = e^{-tau lam_k}."""

    name = "academic_lf"
    pi_power = 2
    lower = 1


class ExplicitRule(SequenceRule):
    """A finite, explicitly listed sequence (assumed already orderable)."""

    name = "explicit"
    infinite = False

    def __init__(self, values):
        super().__init__()
        vals = [to_mp(v) for v in values]
        vals.sort(key=lambda z: (abs(z), mp.arg(z)))
        self.values = vals
        self.real = all(mp.im(v) == 0 for v in vals)

    def mp_entry(self, j):
        if not 1 <= j <= len(self.values):
            raise IndexError("explicit sequence exhausted")
        return self.values[j - 1]

    def float_range(self, i0, i1):
        if i1 > len(self.values):
            raise IndexError("explicit sequence exhausted")
        block = np.array([to_complex(v) for v in self.values[i0:i1]], dtype=complex)
        return np.ascontiguousarray(block.real) if self.real else block


_RULES = {
    "power": PowerRule,
    "appendixB": AppendixBRule,
    "two_diffusion": TwoDiffusionRule,
    "academic_lf": AcademicLfRule,
    "explicit": ExplicitRule,
}


def make_rule(name: str, **params) -> SequenceRule:
    try:
        cls = _RULES[name]
    except KeyError:
        raise ValueError(f"unknown sequence rule {name!r}; known: {sorted(_RULES)}") from None
    return cls(**params)
