"""The exact-integer matrix product against mp.fdot, and the dual solve's
residual against the matrix product it replaces."""

import math
import random
import struct
import sys
import tracemalloc
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath import libmp

from nullcontrol import biortho_time, spectral
from nullcontrol.biortho_time import ExponentialSpan, _pairing_mp, build_biortho
from nullcontrol.generators import make_rule
from nullcontrol.models import PiecewiseConstant, cascade_boundary_q
from nullcontrol.errors import NumericalError
from nullcontrol.precision import (
    MAX_SPREAD_BITS, exact_matmul, float_matmul, int_matmul, int_rows, mp_log_abs,
    round_half_even, round_to_float, signed_rows, workdps,
)

PI2 = math.pi**2


def _bits(x):
    """The exact representation of an mp scalar, type included."""
    return (type(x), x._mpc_ if isinstance(x, mp.mpc) else x._mpf_)


def _real(rng, prec, spread, short):
    """A random mpf with a zero (probability 0.1), a short (``short``) or a
    full mantissa, its exponent drawn over ``spread`` bits."""
    kind = rng.random()
    if kind < 0.1:
        return mp.mpf(0)
    bits = rng.randint(1, 8) if kind < 0.1 + short else prec
    man = rng.getrandbits(bits) | 1
    return mp.mpf((rng.choice((-1, 1)) * man, rng.randint(-spread // 2, spread // 2) - bits))


def _vector(rng, prec, n, spread, kind, short=0.2):
    """``kind``: "real" (mpf), "complex" (mpc) or "mixed" (both, some mpc
    with a zero imaginary part)."""
    out = []
    for _ in range(n):
        re = _real(rng, prec, spread, short)
        if kind == "real" or (kind == "mixed" and rng.random() < 0.5):
            out.append(re)
        else:
            im = mp.mpf(0) if kind == "mixed" else _real(rng, prec, spread, short)
            out.append(mp.mpc(re, im))
    return out


def _shifted(row, k):
    """The values x 2^k, exactly, of the same types."""
    return [mp.mpc(mp.ldexp(x.real, k), mp.ldexp(x.imag, k)) if isinstance(x, mp.mpc)
            else mp.ldexp(x, k) for x in row]


def _rows(rng, prec, n, spread, kinds, short=0.2, shift=None):
    """One ``_vector`` per kind, each scaled by its own power of two drawn
    from [-shift, shift] (default spread + 50), so that the rows' exponents
    differ; a dot's terms all move alike."""
    shift = spread + 50 if shift is None else shift
    return [_shifted(_vector(rng, prec, n, spread, kind, short), rng.randint(-shift, shift))
            for kind in kinds]


def _fraction(x):
    sign, man, exp, _ = x
    return Fraction((-1) ** sign * man) * Fraction(2) ** exp


def _exact(a, b, cplx=False):
    """sum_j a_j b_j in Fractions, rounded once to the working precision;
    an mpc when ``cplx`` or when a or b holds one."""
    parts = [v._mpc_ if isinstance(v, mp.mpc) else (v._mpf_, None) for v in a]
    qarts = [v._mpc_ if isinstance(v, mp.mpc) else (v._mpf_, None) for v in b]
    re = im = Fraction(0)
    for (ar, ai), (br, bi) in zip(parts, qarts):
        ar, br = _fraction(ar), _fraction(br)
        ai = Fraction(0) if ai is None else _fraction(ai)
        bi = Fraction(0) if bi is None else _fraction(bi)
        re += ar * br - ai * bi
        im += ar * bi + ai * br
    prec = mp.mp.prec
    rnd = [libmp.from_rational(x.numerator, x.denominator, prec, "n") for x in (re, im)]
    if cplx or any(isinstance(v, mp.mpc) for v in a + b):
        return mp.make_mpc(tuple(rnd))
    return mp.make_mpf(rnd[0])


def _product(A, B):
    return exact_matmul(int_rows(A), int_rows(B))


def _complex(*matrices):
    """Whether any entry is an mpc: exact_matmul then returns mpc entries."""
    return any(isinstance(v, mp.mpc) for rows in matrices for row in rows for v in row)


def _as_type(x, cplx):
    """x as an mpc when ``cplx``, with the same parts."""
    return mp.mpc(x) if cplx and not isinstance(x, mp.mpc) else x


class TestIntDot:
    """exact_matmul over several rows of different exponents, each entry
    against the exact sum rounded once, and against mp.fdot."""

    @pytest.mark.parametrize("dps", [60, 115, 301])
    @pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
    @pytest.mark.parametrize("spread", [0, 64, 400, 900])
    def test_rounds_the_exact_sum_once(self, dps, kind, spread):
        rng = random.Random(f"{dps}:{kind}:{spread}")
        with workdps(dps):
            prec = mp.mp.prec
            for n in range(1, 41):
                A = _rows(rng, prec, n, spread, (kind, "real"))
                B = _rows(rng, prec, n, spread, [rng.choice(("real", kind)) for _ in range(3)])
                cplx = _complex(A, B)
                for a, got_row in zip(A, _product(A, B)):
                    for b, got in zip(B, got_row):
                        assert _bits(got) == _bits(_exact(a, b, cplx)), (n, a, b)

    # full mantissas whose magnitudes spread over at most prec bits: the
    # least significant bits of all products then lie within 2 prec bits
    # of each other, and mp.fdot drops no term either
    @pytest.mark.parametrize("dps,spread", [
        (60, 0), (60, 64), (60, 200), (115, 0), (115, 64), (115, 380),
        (301, 0), (301, 400), (301, 900),
    ])
    @pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
    def test_bit_identical_to_fdot(self, dps, spread, kind):
        rng = random.Random(f"fdot:{dps}:{kind}:{spread}")
        with workdps(dps):
            prec = mp.mp.prec
            assert spread <= prec
            for n in range(1, 41):
                A = _rows(rng, prec, n, spread, (kind, "real"), short=0, shift=prec)
                B = _rows(rng, prec, n, spread, [rng.choice(("real", kind)) for _ in range(3)],
                          short=0, shift=prec)
                cplx = _complex(A, B)
                for a, got_row in zip(A, _product(A, B)):
                    for b, got in zip(B, got_row):
                        assert _bits(got) == _bits(_as_type(mp.fdot(a, b), cplx)), (n, a, b)

    def test_keeps_terms_fdot_drops(self):
        # 1 + 2^-300 - 1 loses everything when rounded term by term at 60
        # digits (203 bits); the exact sum keeps 2^-300
        with workdps(60):
            a = [mp.mpf(1), mp.ldexp(1, -300), mp.mpf(-1)]
            ones = [mp.mpf(1)] * 3
            assert (a[0] + a[1]) + a[2] == 0
            # 2^500 + 1 - 2^500: mp.fdot drops the 1, which lies more than
            # 2 prec bits below the partial sum
            b = [mp.ldexp(1, 500), mp.mpf(1), -mp.ldexp(1, 500)]
            assert mp.fdot(b, ones) == 0
            assert _product([a, b], [ones]) == [[mp.ldexp(1, -300)], [1]]

    @pytest.mark.parametrize("bad", [mp.inf, -mp.inf, mp.nan, mp.mpc(1, mp.inf)])
    def test_non_finite_values_raise(self, bad):
        with workdps(60), pytest.raises(ValueError, match="non-finite"):
            int_rows([[mp.mpf(1), mp.mpf(2)], [mp.mpf(1), bad]])

    def test_parts_are_exact(self):
        with workdps(60):
            rows = [[mp.mpf(3) / 7, mp.mpc(-1.5, 2) / 3, mp.mpf(0)],
                    [mp.ldexp(5, 300), mp.ldexp(mp.mpf(-1) / 3, 300),
                     mp.mpc(0, mp.ldexp(1, 300)) / 7]]
            form = int_rows(rows)
            assert form.re.shape == form.im.shape == (2, 3)
            for row, re, im, exp in zip(rows, form.re, form.im, form.exp):
                for v, x, y in zip(row, re, im):
                    assert type(x) is int and type(y) is int
                    assert mp.ldexp(x, exp) == mp.re(v)
                    assert mp.ldexp(y, exp) == mp.im(v)
            assert form.exp[0] != form.exp[1]
            assert int_rows([rows[0][:1]]).im is None

    def test_conj(self):
        with workdps(60):
            rows = [[mp.mpc(1, 2) / 3, mp.mpf(-5) / 7], [mp.mpf(11), mp.mpc(-2, 1) / 9]]
            form = int_rows(rows)
            assert form.conj().re is form.re and int_rows([rows[0][1:]]).conj().im is None
            conj = [[mp.conj(v) for v in row] for row in rows]
            assert _product(rows, conj) == exact_matmul(form, form.conj())

    def test_signed_rows_match_mp_rows(self):
        # the same values as signed (mantissa, exponent) pairs, unnormalized
        # (even mantissas) and complex as re parts then im parts
        with workdps(60):
            rows = [[mp.mpc(1, 2) / 3, mp.mpf(-5) / 7, mp.mpf(0)],
                    [mp.mpf(11), mp.mpc(-2, 1) / 9, mp.ldexp(3, -90)]]
            raw = [[v._mpc_ if isinstance(v, mp.mpc) else (v._mpf_, libmp.fzero) for v in r]
                   for r in rows]

            def pair(x):
                sign, man, exp, _ = x
                return ((-man if sign else man) << 3), exp - 3

            form = signed_rows([[pair(x[0]) for x in r] + [pair(x[1]) for x in r]
                                for r in raw], cplx=True)
            assert exact_matmul(form, form) == _product(rows, rows)

    def test_real_part_as_float(self):
        with workdps(60):
            prec = mp.mp.prec
            a = [mp.mpc(1, 2) / 3, mp.mpf(-5) / 7, mp.ldexp(1, -400)]
            b = [mp.mpc(-2, 1) / 9, mp.mpf(11), mp.mpf(1)]
            pa, pb = int_rows([a]), int_rows([b])
            re, im = int_matmul(pa, pb, imag=False)
            assert im is None
            assert round_to_float(re[0, 0], pa.exp[0] + pb.exp[0], prec) \
                == float(mp.re(_exact(a, b)))
            assert float_matmul(pa, pb, prec) == [[float(mp.re(_exact(a, b)))]]


def _float_bits(x):
    """The binary64 encoding, so that -0.0 and 0.0 differ."""
    return struct.pack("<d", x)


def _tie_cases(prec):
    """(man, exp) pairs whose prec-bit rounding lands exactly on a 53-bit
    tie, so that rounding once to 53 bits would give another float."""
    rng = random.Random(prec)
    out = []
    for odd in (1, 0):
        # v: a 53-bit mantissa and a half unit of it, at prec bits
        m53 = (1 << 52) | rng.getrandbits(51) << 1 | odd
        v = (m53 << (prec - 53)) | (1 << (prec - 54))
        exp = rng.randint(-200, 200) - prec
        # below v (rounds up to the tie, then to even: m53 + 1 if odd) or
        # above it (rounds down to the tie, then to even: m53 if even)
        out.append(((v << 10) - 1 if odd else (v << 10) + 1, exp))
        # halfway between v and its odd neighbour at prec bits, below
        # (m53 odd) or above (m53 even): the first rounding is a tie too,
        # and goes to the even v
        out.append((((v - 1) << 1) + 1 if odd else (v << 1) + 1, exp))
    return out


def _edge_cases(prec):
    rng = random.Random(-prec)
    return [
        # all ones: the prec-bit rounding carries into a power of two
        ((1 << (prec + 7)) - 1, -prec),
        # fewer bits than prec: no first rounding, and a 53-bit tie
        ((1 << 60) | (1 << 6), -30),
        (rng.getrandbits(prec - 20) | 1, -prec),
        (0, 0),
        (0, -5000),
        # overflow, also after rounding up to 2^1024
        ((1 << 60) + 1, 1000),
        ((1 << 60) - 1, 1024 - 60),
        # subnormal results, rounded once more into the subnormal range
        (rng.getrandbits(prec + 40) | 1 << (prec + 39), -1074 - prec - 60),
        (3, -1076),
        ((1 << 53) + 3, -1074 - 53 - 1),
        # underflow to zero
        (1, -1100),
    ]


class TestSpreadBudget:
    def test_spread_up_to_the_budget_is_exact(self):
        a = int_rows([[mp.mpf(1), mp.ldexp(1, -MAX_SPREAD_BITS)]])
        assert a.exp == [-MAX_SPREAD_BITS] and a.re.tolist() == [[1 << MAX_SPREAD_BITS, 1]]

    @pytest.mark.parametrize("spread", [MAX_SPREAD_BITS + 1, 10**22])
    def test_wider_spread_refused(self, spread):
        # the aligned integer would take spread bits (at 1e22, more than
        # CPython can shift to)
        with pytest.raises(NumericalError, match=f"spread across {spread} bits"):
            int_rows([[mp.mpf(3), mp.ldexp(1, -spread)]])

    def test_spread_per_row(self):
        # each row is aligned to its own exponent: rows far apart are fine
        a = int_rows([[mp.mpf(1)], [mp.ldexp(1, -2 * MAX_SPREAD_BITS)]])
        assert a.exp == [0, -2 * MAX_SPREAD_BITS] and a.re.tolist() == [[1], [1]]


class TestRoundHalfEven:
    """round_half_even, the step of the sampling recurrence, against
    libmp's rounding to nearest, bit for bit."""

    @pytest.mark.parametrize("bits", [53, 150, 1037])
    def test_matches_libmp(self, bits):
        rng = random.Random(bits)
        cases = _edge_cases(bits)
        cases += [(rng.getrandbits(rng.randint(1, 3 * bits)), rng.randint(-3000, 3000))
                  for _ in range(300)]
        for _ in range(100):
            # halfway between two bits-bit neighbours, m even or odd
            m, k = rng.getrandbits(bits) | 1 << (bits - 1), rng.randint(1, 80)
            cases.append(((m << k) | 1 << (k - 1), rng.randint(-3000, 3000)))
        for man, exp in cases:
            for sign in (1, -1):
                m, e = round_half_even(sign * man, exp, bits)
                assert abs(m).bit_length() <= bits + 1
                want = libmp.from_man_exp(sign * man, exp, bits, "n")
                assert libmp.from_man_exp(m, e) == want, (sign * man, exp)


class TestIntDotReal:
    """round_to_float, which rounds the real parts of int_matmul for the
    sampler, against the mpmath rounding it replaces, bit for bit."""

    @staticmethod
    def _reference(man, exp, prec):
        return libmp.to_float(libmp.from_man_exp(man, exp, prec, "n"), rnd="n")

    @pytest.mark.parametrize("prec", [203, 385, 1100])
    def test_double_rounding_ties(self, prec):
        for man, exp in _tie_cases(prec):
            for sign in (1, -1):
                got = round_to_float(sign * man, exp, prec)
                want = self._reference(sign * man, exp, prec)
                assert _float_bits(got) == _float_bits(want)
                # rounding the exact sum once would give the other neighbour
                assert got != self._reference(sign * man, exp, 53)

    @pytest.mark.parametrize("prec", [203, 385, 1100])
    def test_carry_short_zero_overflow_subnormal(self, prec):
        kinds = set()
        for man, exp in _edge_cases(prec):
            for sign in (1, -1):
                got = round_to_float(sign * man, exp, prec)
                want = self._reference(sign * man, exp, prec)
                assert _float_bits(got) == _float_bits(want), (sign * man, exp)
                kinds.add("inf" if math.isinf(got) else "zero" if got == 0
                          else "subnormal" if abs(got) < sys.float_info.min else "normal")
        assert kinds == {"inf", "zero", "subnormal", "normal"}

    @pytest.mark.parametrize("dps", [60, 115, 301, 400])
    @pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
    def test_random_sums(self, dps, kind):
        rng = random.Random(f"real:{dps}:{kind}")
        with workdps(dps):
            prec = mp.mp.prec
            for n in range(1, 41):
                A = int_rows(_rows(rng, prec, n, 900, (kind, "real")))
                B = int_rows(_rows(rng, prec, n, 900,
                                   [rng.choice(("real", kind)) for _ in range(3)]))
                mans, _ = int_matmul(A, B, imag=False)
                floats = float_matmul(A, B, prec)
                a_im = [[0] * n] * 2 if A.im is None else A.im.tolist()
                b_im = [[0] * n] * 3 if B.im is None else B.im.tolist()
                for i, row in enumerate(mans.tolist()):
                    for j, man in enumerate(row):
                        re = sum(x * y for x, y in zip(A.re[i], B.re[j])) \
                            - sum(x * y for x, y in zip(a_im[i], b_im[j]))
                        assert man == re
                        want = self._reference(re, A.exp[i] + B.exp[j], prec)
                        got = round_to_float(man, A.exp[i] + B.exp[j], prec)
                        assert _float_bits(got) == _float_bits(want)
                        assert _float_bits(floats[i][j]) == _float_bits(want)


def _cascade_jordan_span(N=16, T=0.5):
    model = cascade_boundary_q(PiecewiseConstant(((0.2, 0.8, 1.3),)))
    modes = model.modes(N)
    assert any(m.kind == "jordan" for m in modes)
    return ExponentialSpan(tuple(m.lam_mp for m in modes for _ in range(2)), T)


class TestResidual:
    """The dual solve's residual max|M C^T - I| against the matrix product
    M * C.T (mp.fdot per entry) that it replaces, bit for bit.  M is the
    one the residual reads: on a real span the Gram formed at the solve
    digits and rounded to the carried ones (heat N=40 solves at 74 digits
    and carries 72), on a complex span the pairing formed at the carried
    digits."""

    @staticmethod
    def _matrix_product_residual(fam, solved):
        n = fam.size
        with workdps(solved):
            M = mp.matrix(_pairing_mp(fam.span).tolist())
        with workdps(fam.dps):
            if fam.span.real:
                M = M.apply(lambda x: +x)
            else:
                M = mp.matrix(_pairing_mp(fam.span).tolist())
            R = M * mp.matrix(fam.mp_coeffs.tolist()).T
            return max(float(abs(R[i, j] - (1 if i == j else 0)))
                       for i in range(n) for j in range(n))

    @pytest.mark.parametrize("make", [
        lambda: ExponentialSpan(tuple(k * k * PI2 for k in range(1, 41)), 0.4),
        _cascade_jordan_span,
        lambda: ExponentialSpan((1 + 1j, 2 - 0.5j, 3), 1.0),
        lambda: ExponentialSpan((1 + 1j, 1 + 1j, 2 - 0.5j, 2 - 0.5j, 3, 3), 1.0),
    ], ids=["heat-N40", "cascade-jordan-N16", "complex", "complex-jordan"])
    def test_matches_matrix_product(self, make, monkeypatch):
        solves, solve = [], biortho_time._solve
        monkeypatch.setattr(biortho_time, "_solve",
                            lambda span, dps: solves.append(dps) or solve(span, dps))
        fam = build_biortho(make())
        assert fam.residual == self._matrix_product_residual(fam, solves[-1])

    def test_streamed_memory(self):
        # the residual is formed one row of M at a time: no n^2 rounded
        # entries are alive at once (0.81 MB here, 1.17 MB with the family
        # in mp matrices; 1.58 MB with the whole M C^T formed first)
        make = lambda: ExponentialSpan(tuple(k * k * PI2 for k in range(1, 41)), 0.4)  # noqa: E731
        build_biortho(make())   # mpmath's constant caches
        span = make()
        tracemalloc.start()
        try:
            build_biortho(span)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 2**20


class TestLogAbs:
    """mp_log_abs takes |x| at the caller's precision and the log at 128
    bits; its float is that of the log taken at x's own precision."""

    @staticmethod
    def _full(x):
        """float(ln|x|) with the log at the working precision."""
        return float(mp.log(abs(x)))

    @pytest.mark.parametrize("tau", [0.25, 1.0])
    def test_spectral_factors_and_gaps(self, tau, monkeypatch):
        # every mp head factor of E' and W' and every nearest gap of the
        # appendixB K = 100 profiles, each at the precision it is logged at
        seen = []
        real = spectral.mp_log_abs

        def recording(x):
            seen.append((x, mp.mp.prec))
            return real(x)

        monkeypatch.setattr(spectral, "mp_log_abs", recording)
        K = 100
        seq = spectral.from_rule(make_rule("appendixB", tau=tau), K)
        spectral.condensation_profile(seq, K)
        spectral.blaschke_profile(seq, K)
        spectral.bohr_profile(seq, K)
        assert len(seen) > 2 * K
        for x, prec in seen:
            with mp.workprec(prec):
                assert real(x) == self._full(x)

    @pytest.mark.parametrize("scale", [-1000, -3000])
    def test_near_one(self, scale):
        # mpmath's log widens its working bits by the cancellation near 1,
        # so the 128-bit log keeps its relative accuracy
        with workdps(1200):
            t = mp.mpf(2) ** scale
            cases = [1 + t / 3, 1 - t / 7, mp.mpc(1 - t / 5, t / 3), mp.mpc(t / 9, 1 + t / 11)]
            for x in cases:
                a = abs(x)
                assert mp_log_abs(x) == self._full(x)
                with mp.workprec(128):
                    got = mp.log(a)
                want = mp.log(a)
                assert want != 0 and abs(got - want) <= mp.mpf(2) ** -120 * abs(want)

    def test_far_exponents(self):
        with workdps(1200):
            cases = [mp.mpf(3) / 7 * mp.mpf(2) ** 20000, mp.mpf(5) / 3 * mp.mpf(2) ** -20000,
                     mp.mpc(2, -3) ** 9000, -mp.mpf(10) ** -4000]
            assert all(abs(mp.mag(x)) > 10000 for x in cases)
            for x in cases:
                assert mp_log_abs(x) == self._full(x)

    def test_zero(self):
        assert mp_log_abs(mp.mpf(0)) == -math.inf
        assert mp_log_abs(mp.mpc(0)) == -math.inf

    def test_spectral_logs_run_at_128_bits(self, monkeypatch):
        # the appendixB tau = 1, K = 100 head carries 1316 digits; its
        # factor and gap logs run at 128 bits
        K = 100
        seq = spectral.from_rule(make_rule("appendixB", tau=1.0), K)
        precs = []
        real_log = mp.log

        def recording(*args, **kwargs):
            precs.append(mp.mp.prec)
            return real_log(*args, **kwargs)

        monkeypatch.setattr(mp, "log", recording)
        spectral.condensation_profile(seq, K)
        spectral.bohr_profile(seq, K)
        assert len(precs) > K
        assert max(precs) <= 128
