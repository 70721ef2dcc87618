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
        # a zero factor of the product forms (a1 = a2, a3 = 0), and J12's
        # cancelling difference at (1, 0, 0)
        for triple in [(1e-20, 1e-20, 0), (1, 1, 0)]:
            r = fundamental_invariants(NormalFormCoefficients(*triple))
            assert r.i9 == 0 and r.delta == 0
        assert fundamental_invariants(NormalFormCoefficients(1, 0, 0)).j12 == 0

    def test_product_form_rounding_to_zero_raises_numeric(self):
        # a2^3 and a3^3 underflow, so (a2^3 - a3^3) and I9 round to 0;
        # the true I9 and Delta are nonzero and below the smallest normal float
        with pytest.raises(NumericError, match="underflowed"):
            fundamental_invariants(NormalFormCoefficients(1, 1e-200, 2e-200))

    def test_product_form_lost_in_scaling_is_recomputed(self):
        # scaled by 2**-81, a2^3 and a3^3 underflow and the float I9 and
        # Delta come out 0; their factors carry the true, normal values
        a = (Fraction(2) ** 80, Fraction(2) ** -300, Fraction(2) ** -299)
        r = fundamental_invariants(NormalFormCoefficients(*(float(x) for x in a)))
        _, i9, _, _, delta = exact_invariants(*a)
        assert r.i9 == pytest.approx(float(i9), rel=1e-12)
        assert r.delta == pytest.approx(float(delta), rel=1e-12)

    def test_combination_overflow_raises_numeric(self):
        # every invariant is finite, but the rounded Delta combination is not
        r = fundamental_invariants(NormalFormCoefficients(1e10, 1.0, 1.0))
        with pytest.raises(NumericError, match="combination overflowed"):
            hyperdeterminant_333(r)

    def test_coefficient_validation(self):
        with pytest.raises(ValidationError):
            NormalFormCoefficients(0, 0, 0)
        with pytest.raises(ValidationError):
            NormalFormCoefficients(float("inf"), 1, 0)


class TestCombination:
    def test_combination_on_exact_integer_report(self):
        r = fundamental_invariants(NormalFormCoefficients(2, 1, 1))
        assert hyperdeterminant_333(r) == pytest.approx(-15420489728.0, rel=1e-12)

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

    @pytest.mark.parametrize("alpha,beta", [(1e100, 1), (1e154, 1), (1, 1e100), (1e300, 1e-300)])
    def test_overflow_is_numeric(self, alpha, beta):
        with pytest.raises(NumericError, match="overflowed"):
            phi_family(alpha, beta)

    @pytest.mark.parametrize("alpha,beta", [(1e-200, 1), (1, 1e-100), (1e-160, 1)])
    def test_underflow_is_numeric(self, alpha, beta):
        # I6 = -8 alpha^2 beta^4 rounds to 0 (or to a subnormal at 1e-160)
        with pytest.raises(NumericError, match="underflowed"):
            phi_family(alpha, beta)

    @pytest.mark.parametrize("alpha,beta", [(0, 1), (1, 0)])
    def test_zero_parameter_gives_zero_invariants(self, alpha, beta):
        res = phi_family(alpha, beta)
        assert res.report.i6 == res.report.j12 == res.delta == 0
