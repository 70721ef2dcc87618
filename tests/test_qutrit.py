import math
from fractions import Fraction

import numpy as np
import pytest

from entkit import (
    NormalFormCoefficients,
    NumericError,
    QutritInvariantReport,
    ValidationError,
    build_normal_form_state,
    fundamental_invariants,
    hyperdeterminant_333,
    phi_family,
)


def exact_invariants(a1: Fraction, a2: Fraction, a3: Fraction):
    """Exact-rational oracle for real rational coefficient triples."""
    c1, c2, c3 = a1**3, a2**3, a3**3
    i6 = a1**6 + a2**6 + a3**6 - 10 * (c1 * c2 + c1 * c3 + c2 * c3)
    i9 = -(c1 - c2) * (c1 - c3) * (c2 - c3)
    s = c1 + c2 + c3
    i12 = -s * (s**3 + 216 * (a1 * a2 * a3) ** 3)
    j12 = (-i12 - i6**2) / 24
    delta = (
        i6**3 * i9**2
        - i6**2 * j12**2
        + 36 * i6 * i9**2 * j12
        + 108 * i9**4
        - 32 * j12**3
    )
    return i6, i9, i12, j12, delta


FROZEN = {
    (1, 0, 0): (1, 0, -1, 0, 0),
    (1, 1, 1): (-27, 0, -729, 0, 0),
    (1, 1, 0): (-8, 0, -16, -2, 0),
    (2, 1, 1): (-104, 0, -27280, 686, -15420489728),
}


class TestInvariants:
    @pytest.mark.parametrize("triple", sorted(FROZEN))
    def test_frozen_exact_values(self, triple):
        r = fundamental_invariants(NormalFormCoefficients(*triple))
        want = FROZEN[triple]
        got = (r.i6, r.i9, r.i12, r.j12, r.delta)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-12)

    def test_frozen_values_match_oracle(self):
        for triple, want in FROZEN.items():
            exact = exact_invariants(*(Fraction(v) for v in triple))
            assert tuple(int(v) for v in exact) == want

    def test_rational_triples_against_oracle(self, rng):
        worst = 0.0
        for _ in range(60):
            nums = rng.integers(-8, 9, size=3)
            dens = rng.choice([1, 2, 4], size=3)
            if not np.any(nums):
                nums[0] = 1
            fr = [Fraction(int(n), int(d)) for n, d in zip(nums, dens)]
            r = fundamental_invariants(
                NormalFormCoefficients(*(float(f) for f in fr))
            )
            exact = exact_invariants(*fr)
            for got, want in zip((r.i6, r.i9, r.i12, r.j12, r.delta), exact):
                w = complex(want)
                if w == 0:
                    scale = (1.0 + sum(abs(float(f)) for f in fr)) ** 36
                    assert abs(got) <= 1e-9 * scale
                else:
                    worst = max(worst, abs(got - w) / abs(w))
        assert worst < 1e-9

    def test_j12_relation_holds(self, rng):
        for _ in range(20):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            r = fundamental_invariants(NormalFormCoefficients(*a))
            resid = abs(-r.i12 - r.i6**2 - 24.0 * r.j12)
            assert resid <= 1e-9 * max(abs(r.i12), abs(r.i6) ** 2, 1.0)

    def test_delta_vanishes_on_degenerate_triples(self):
        for triple in [(1, 0, 0), (1, 1, 0), (1, 1, 1), (3, 3, 3)]:
            r = fundamental_invariants(NormalFormCoefficients(*triple))
            assert abs(r.delta) < 1e-9

    def test_overflow_raises_numeric(self):
        with pytest.raises(NumericError):
            fundamental_invariants(NormalFormCoefficients(1e200, 1.0, 1.0))

    def test_underflow_raises_numeric(self):
        # Delta of (1, 2, 3) is -5.9e16; scaled by 1e-30 it is ~1e-1064
        with pytest.raises(NumericError, match="underflowed"):
            fundamental_invariants(NormalFormCoefficients(1e-30, 2e-30, 3e-30))

    def test_scaling_is_exact(self):
        # a power-of-two scale factors out of every invariant exactly
        r = fundamental_invariants(NormalFormCoefficients(1, 2, 3))
        s = fundamental_invariants(NormalFormCoefficients(2.0**-20, 2.0**-19, 3 * 2.0**-20))
        for got, want, degree in zip(
            (s.i6, s.i9, s.i12, s.j12, s.delta),
            (r.i6, r.i9, r.i12, r.j12, r.delta),
            (6, 9, 12, 12, 36),
        ):
            assert got == want * 2.0 ** (-20 * degree)

    def test_exact_zeros_stay_zero(self):
        # a zero factor of the product forms (a1 = a2, a3 = 0, or two
        # linear forms at a1 = a2 = a3), and J12 at equal coefficients or a
        # single nonzero one, where -I12 - I6^2 would leave a residue (one
        # below the normal range at (1e-25, 0, 0))
        equal = [(1, 1, 1), (1e-9, 1e-9, 1e-9), (3 - 2j, 3 - 2j, 3 - 2j)]
        for triple in [(1e-20, 1e-20, 0), (1, 1, 0), *equal]:
            r = fundamental_invariants(NormalFormCoefficients(*triple))
            assert r.i9 == 0 and r.delta == 0
        for triple in [(1, 0, 0), (1e-25, 0, 0), (-2.45e-26, 0, 0), *equal]:
            assert fundamental_invariants(NormalFormCoefficients(*triple)).j12 == 0

    def test_product_form_rounding_to_zero_raises_numeric(self):
        # a2^3 and a3^3 underflow, so (a2^3 - a3^3) and I9 round to 0;
        # the true I9 and Delta are nonzero and below the smallest normal float
        with pytest.raises(NumericError, match="underflowed"):
            fundamental_invariants(NormalFormCoefficients(1, 1e-200, 2e-200))

    def test_product_form_lost_in_scaling_is_recomputed(self):
        # scaled by 2**-81, a2^3 and a3^3 would underflow, and a float I9
        # and Delta would come out 0; the true values are normal floats
        a = (Fraction(2) ** 80, Fraction(2) ** -300, Fraction(2) ** -299)
        r = fundamental_invariants(NormalFormCoefficients(*(float(x) for x in a)))
        _, i9, _, _, delta = exact_invariants(*a)
        assert r.i9 == pytest.approx(float(i9), rel=1e-12)
        assert r.delta == pytest.approx(float(delta), rel=1e-12)

    def test_real_triples_are_correctly_rounded(self):
        # every field is the exact value rounded once (float() of a
        # Fraction rounds correctly), on triples spanning 10**-300 to
        # 10**300 and the one where J12 of the scaled triple lost bits
        rng = np.random.default_rng(38)
        triples = [[2.0, 1.0, 1.0], [7.368867096304708e-94, 4.150060491358418e-95, 562137878751.676]]
        triples += [[v.real for v in t] for t in _sweep_numbers(rng, 300, 3) if not any(v.imag for v in t)]
        returned = 0
        for t in triples:
            try:
                r = fundamental_invariants(NormalFormCoefficients(*t))
            except NumericError:
                continue
            returned += 1
            exact = exact_invariants(*(Fraction(v) for v in t))
            got = (r.i6, r.i9, r.i12, r.j12, r.delta)
            assert got == tuple(complex(float(v)) for v in exact), t
        assert returned > 50

    @pytest.mark.parametrize("triple", [(1, 0, 0), (1, 1, 0), (2, 1, 1), (-3.5, 0.25, 1e-3)])
    def test_real_triples_give_zero_imaginary_parts(self, triple):
        r = fundamental_invariants(NormalFormCoefficients(*triple))
        for v in (r.i6, r.i9, r.i12, r.j12, r.delta):
            assert math.copysign(1.0, v.imag) == 1.0 and v.imag == 0, (triple, v)

    def test_combination_overflow_raises_numeric(self):
        # every field is finite and -I12 - I6^2 = 24 J12 holds exactly,
        # but I6^3 I9^2 = 1e500 and the rounded Delta combination are not
        r = QutritInvariantReport(i6=1e100, i9=1e100, i12=-1e200, j12=0, delta=0)
        with pytest.raises(NumericError, match="combination overflowed"):
            hyperdeterminant_333(r)

    def test_coefficient_validation(self):
        with pytest.raises(ValidationError):
            NormalFormCoefficients(0, 0, 0)
        with pytest.raises(ValidationError):
            NormalFormCoefficients(float("inf"), 1, 0)

    def test_int_beyond_float_range_rejected(self):
        # complex(10**400) raised a bare OverflowError
        with pytest.raises(ValidationError, match="a1 is not finite"):
            NormalFormCoefficients(10**400, 1, 1)
        with pytest.raises(ValidationError, match="i6 is not finite"):
            QutritInvariantReport(10**400, 0, 0, 0, 0)


class TestCombination:
    def test_combination_on_exact_integer_report(self):
        r = fundamental_invariants(NormalFormCoefficients(2, 1, 1))
        assert hyperdeterminant_333(r) == pytest.approx(-15420489728.0, rel=1e-12)

    # the exact combinations, about 1.08e-358 and 1.08e-318, were returned
    # as 0j and as a subnormal
    @pytest.mark.parametrize(
        "fields", [(1e-80, 1e-90, -1e-160, 0, 0), (1e-70, 1e-80, -1e-140, 0, 0)], ids=str
    )
    def test_combination_underflow_raises_numeric(self, fields):
        with pytest.raises(NumericError, match="the Delta combination underflowed"):
            hyperdeterminant_333(QutritInvariantReport(*fields))

    def test_residual_overflow_is_numeric(self):
        # I6^2 = 1e400 overflows while the J12 relation is checked
        with pytest.raises(NumericError, match="J12 relation"):
            hyperdeterminant_333(QutritInvariantReport(1e200, 0, -1e300, 0, 0))

    @pytest.mark.parametrize("field", ["i6", "i9", "i12", "j12", "delta"])
    @pytest.mark.parametrize("bad", [math.nan, complex(1, math.inf)])
    def test_non_finite_report_rejected(self, field, bad):
        values = {"i6": 1.0, "i9": 0.0, "i12": -1.0, "j12": 0.0, "delta": 0.0, field: bad}
        with pytest.raises(ValidationError, match=f"{field} is not finite"):
            hyperdeterminant_333(QutritInvariantReport(**values))

    def test_inconsistent_report_rejected(self):
        with pytest.raises(ValidationError):
            hyperdeterminant_333(
                QutritInvariantReport(i6=1.0, i9=0.0, i12=0.0, j12=1.0, delta=0.0)
            )

    def test_matches_factored_delta_on_rationals(self, rng):
        for _ in range(30):
            nums = rng.integers(-4, 5, size=3)
            if not np.any(nums):
                nums[0] = 1
            r = fundamental_invariants(NormalFormCoefficients(*(float(n) for n in nums)))
            combo = hyperdeterminant_333(r)
            scale = max(abs(r.delta), (1.0 + float(np.sum(np.abs(nums)))) ** 36 * 1e-12)
            assert abs(combo - r.delta) <= 1e-6 * scale


class TestNormalFormState:
    def test_layout(self):
        s = build_normal_form_state(NormalFormCoefficients(1, 2, 3))
        t = s.tensor()
        w = 1.0 / math.sqrt(3 * (1 + 4 + 9))
        assert t[0, 0, 0] == pytest.approx(w)
        assert t[1, 1, 1] == pytest.approx(w)
        assert t[0, 1, 2] == pytest.approx(2 * w)
        assert t[1, 2, 0] == pytest.approx(2 * w)
        assert t[0, 2, 1] == pytest.approx(3 * w)
        assert t[2, 1, 0] == pytest.approx(3 * w)
        assert t[0, 0, 1] == 0

    def test_normalized(self):
        s = build_normal_form_state(NormalFormCoefficients(1j, 0.5, 0))
        assert s.norm() == pytest.approx(1.0, abs=1e-12)


class TestPhiFamily:
    def test_unit_case_both_routes(self):
        res = phi_family(1, 1)
        want = 4096.0 / 27.0
        assert res.delta == pytest.approx(want, rel=1e-9)
        assert res.report.delta == pytest.approx(want, rel=1e-9)
        assert res.report.i6 == pytest.approx(-8.0, rel=1e-12)
        assert res.report.i9 == pytest.approx(0.0, abs=1e-12)
        assert res.report.i12 == pytest.approx(0.0, abs=1e-12)

    def test_general_closed_form(self):
        for alpha, beta in [(2.0, 1.0), (1.5, -0.5), (1j, 1.0)]:
            res = phi_family(alpha, beta)
            assert res.report.i6 == pytest.approx(
                -8.0 * alpha**2 * beta**4, rel=1e-12
            )
            want = (4096.0 / 27.0) * (alpha * beta**2) ** 12
            assert res.delta == pytest.approx(want, rel=1e-9)
            assert res.report.delta == pytest.approx(want, rel=1e-9)

    def test_state_is_normalized_six_terms(self):
        res = phi_family(1.0, 2.0)
        assert res.state.dims == (3, 3, 3)
        assert res.state.norm() == pytest.approx(1.0, abs=1e-12)
        assert int(np.sum(np.abs(res.state.amplitudes) > 1e-12)) == 6

    def test_rejects_both_zero(self):
        with pytest.raises(ValidationError):
            phi_family(0, 0)

    @pytest.mark.parametrize("alpha,beta", [(1e100, 1), (1e154, 1), (1, 1e100)])
    def test_overflow_is_numeric(self, alpha, beta):
        with pytest.raises(NumericError, match="overflowed"):
            phi_family(alpha, beta)

    @pytest.mark.parametrize("alpha,beta", [(1e-200, 1), (1, 1e-100), (1e-160, 1), (1e300, 1e-300)])
    def test_underflow_is_numeric(self, alpha, beta):
        # I6 = -8 alpha^2 beta^4 lies below the smallest normal float (at
        # (1e300, 1e-300) it is 8e-600, although alpha^2 alone overflows)
        with pytest.raises(NumericError, match="underflowed"):
            phi_family(alpha, beta)

    @pytest.mark.parametrize("alpha,beta", [(1e-200, 1e100), (2.0**-600, 2.0**300), (1e250, 1e-125)])
    def test_invariants_in_range_despite_extreme_parameters(self, alpha, beta):
        # alpha^2 underflows or beta^4 overflows, but I6 = -8, J12 = -8/3 and
        # Delta = 4096/27 (alpha beta^2)^12 are ordinary floats
        res = phi_family(alpha, beta)
        scale = alpha * beta**2
        assert res.report.i6 == pytest.approx(-8.0 * scale, rel=1e-12)
        assert res.report.j12 == pytest.approx(-8.0 / 3.0 * scale**2, rel=1e-12)
        want = 4096.0 / 27.0 * scale**12
        assert res.delta == pytest.approx(want, rel=1e-12)
        assert res.report.delta == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(0, 1), (1, 0)])
    def test_zero_parameter_gives_zero_invariants(self, alpha, beta):
        res = phi_family(alpha, beta)
        assert res.report.i6 == res.report.j12 == res.delta == 0


def _part(rng, span):
    """0 with probability 0.15, else a signed float of magnitude 10**u, |u| <= span."""
    if rng.random() < 0.15:
        return 0.0
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.uniform(-span, span))


def _sweep_numbers(rng, count, size):
    """``count`` lists of ``size`` numbers, real or complex, spanning 10**-300 to 10**300."""
    out = []
    while len(out) < count:
        span = rng.choice((3, 10, 30, 100, 300))
        cplx = rng.random() < 0.5
        t = [complex(_part(rng, span), _part(rng, span) if cplx else 0.0) for _ in range(size)]
        if rng.random() < 0.1:  # a repeated entry
            i, j = rng.choice(size, 2, replace=False)
            t[i] = t[j]
        if any(t):
            out.append(t)
    return out


class TestProductFormSweep:
    """All five invariants and phi's monomials against exact and 400-bit references.

    Coefficient parts span 10**-300 to 10**300, with zeros and repeated
    entries.  Each value must be within 1e-12 of the reference, and a
    NumericError is allowed only where some invariant's reference lies
    outside the normal float range, with a factor-2 band at each edge.
    """

    @pytest.fixture
    def mp(self):
        mp = pytest.importorskip("mpmath")
        with mp.workprec(400):
            yield mp

    @staticmethod
    def _check(mp, values, want, context):
        for got, w in zip(values, want):
            if w == 0:
                assert got == 0, context
            else:
                assert abs(mp.mpc(got) - w) <= 1e-12 * abs(w), context

    @staticmethod
    def _outside(mp, z):
        """Nonzero and outside the normal float range narrowed by 2 at each end."""
        m = max(abs(mp.re(z)), abs(mp.im(z)))
        return m != 0 and not mp.mpf(2) ** -1021 <= m <= mp.mpf(2) ** 1023

    def test_triples(self, mp):
        w = mp.exp(2j * mp.pi / 3)
        rng = np.random.default_rng(36)
        returned = 0
        found = [7.368867096304708e-94, 4.150060491358418e-95, 562137878751.676]
        for t in [[2.0**40, 1e-40, 3e-40], found] + _sweep_numbers(rng, 400, 3):
            if not any(complex(v).imag for v in t):
                exact = exact_invariants(*(Fraction(complex(v).real) for v in t))
                i6, i9, i12, j12, delta = (mp.mpf(v.numerator) / v.denominator for v in exact)
            else:
                a1, a2, a3 = map(mp.mpc, t)
                # exact: a degree-12 term of these binary inputs has a
                # 636-bit mantissa, and the exponents of all terms lie within
                # 12 times the exponent span of the parts, so -I12 - I6^2
                # cancels without loss (products, as mpmath's integer powers
                # may go through exp and log)
                exps = [math.frexp(x)[1] for v in t for x in (v.real, v.imag) if x]
                with mp.workprec(700 + 12 * (max(exps) - min(exps))):
                    c1, c2, c3 = a1 * a1 * a1, a2 * a2 * a2, a3 * a3 * a3
                    i6 = c1 * c1 + c2 * c2 + c3 * c3 - 10 * (c1 * c2 + c1 * c3 + c2 * c3)
                    i9 = -(c1 - c2) * (c1 - c3) * (c2 - c3)
                    s = c1 + c2 + c3
                    i12 = -s * (s * s * s + 216 * c1 * c2 * c3)
                    j12 = (-i12 - i6 * i6) / 24
                delta = -4 * (a1 * a2 * a3) ** 3
                for j in range(3):
                    for k in range(3):
                        delta *= (a1 + w**j * a2 + w**k * a3) ** 3
            try:
                r = fundamental_invariants(NormalFormCoefficients(*t))
            except NumericError:
                exact = (i6, i9, i12, j12, delta)
                assert any(self._outside(mp, v) for v in exact), t
                continue
            returned += 1
            got = (r.i6, r.i9, r.i12, r.j12, r.delta)
            self._check(mp, got, (i6, i9, i12, j12, delta), t)
        assert returned > 150

    def test_phi_pairs(self, mp):
        rng = np.random.default_rng(37)
        returned = 0
        for alpha, beta in [(1e-200, 1e100)] + _sweep_numbers(rng, 300, 2):
            al, be = mp.mpc(alpha), mp.mpc(beta)
            i6 = -8 * al**2 * be**4
            want = (i6, -(i6**2) / 24, mp.mpf(4096) / 27 * (al * be**2) ** 12)
            try:
                res = phi_family(alpha, beta)
            except NumericError:
                assert any(self._outside(mp, v) for v in want), (alpha, beta)
                continue
            returned += 1
            self._check(mp, (res.report.i6, res.report.j12, res.delta), want, (alpha, beta))
        assert returned > 100
