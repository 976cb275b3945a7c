"""Named eigenvalue-sequence rules.

Rules generate normally ordered spectra lazily: mpmath entries for the
head (the window actually profiled) plus a cheap float view of the far
tail used by truncated-product evaluations.  Pair perturbations like
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


class SequenceRule:
    """Base class: normally ordered, Re > 0 eigenvalue stream."""

    name = "rule"
    infinite = True
    real = True  # every entry real: the float view is float64, else complex128
    # spectral.from_rule rounds the stored head of an infinite rule up to a
    # multiple of this: 2 on the two-branch rules
    pair_align = 1

    def __init__(self):
        self._float_cache = np.zeros(0)
        self.fit_cache: dict = {}

    def mp_entries(self, n: int):
        """First n entries as mpf/mpc, normally ordered.  Every rule defines
        ``mp_entry(j)``, entry j alone: it depends neither on the caller's
        precision nor on which other entries were asked for."""
        return [self.mp_entry(j) for j in range(1, n + 1)]

    def _float_block_impl(self, n: int) -> np.ndarray:
        """First n entries in binary64 (pair splittings may collapse)."""
        raise NotImplementedError

    def float_entries(self, n: int) -> np.ndarray:
        """First n entries in binary64: float64 for real rules, else complex128."""
        if len(self._float_cache) < n:
            grow = max(n, 2 * len(self._float_cache), 1024)
            block = np.asarray(self._float_block_impl(grow))
            self._float_cache = (np.ascontiguousarray(block.real, dtype=np.float64) if self.real
                                 else np.asarray(block, dtype=np.complex128))
        return self._float_cache[:n]


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

    def _float_block_impl(self, n):
        ks = np.arange(1, n + 1, dtype=float)
        with np.errstate(over="ignore"):  # entries past binary64 become inf
            if not self.real:
                return self.c * ks ** self.p
            ks **= self.p  # in place: a real rule's block stays real
            ks *= self.c.real
        return ks


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

    def _float_block_impl(self, n):
        lam = np.arange(n) // 2 + 1.0
        lam **= 2
        lam *= math.pi**self.pi_power
        # in place, and only where e^{-tau lam} is not 0.0 in binary64
        # (tau lam <= 746): a block can hold millions of entries
        m = int(np.searchsorted(lam, 746.0 / self.tau, side="right"))
        with np.errstate(under="ignore"):
            f = np.exp(-self.tau * lam[:m])
        f[::2] *= -self.lower
        lam[:m] += f
        return lam


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

    def _float_block_impl(self, n):
        # the members each family can have among the first n entries, with
        # a margin for the floors and for rounding
        rd = math.sqrt(self.d)
        m1 = min(n, int(n * rd / (1.0 + rd)) + 4)
        m2 = min(n, n - m1 + 8)
        ks = np.arange(1, max(m1, m2) + 1, dtype=float)
        ks **= 2
        vals = np.empty(m1 + m2)
        np.multiply(self.scale, ks[:m1], out=vals[:m1])
        np.multiply(self.scale * self.d, ks[:m2], out=vals[m1:])
        del ks  # freed before the sort's merge buffer and the copy
        vals.sort(kind="stable")  # timsort merges the two sorted runs, family 1 first on a tie
        return vals[:n].copy()  # not a view: the cache would pin the whole array


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

    def _float_block_impl(self, n):
        return np.array([to_complex(v) for v in self.values[:n]])

    def float_entries(self, n):
        if n > len(self.values):
            raise IndexError("explicit sequence exhausted")
        return super().float_entries(n)


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
