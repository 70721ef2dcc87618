import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entkit import (
    DickeExpansion,
    LocalUnitary,
    MajoranaConstellation,
    NotSymmetricError,
    NumericError,
    SpherePoint,
    StateVector,
    SymmetricClassification,
    ValidationError,
    apply_local_unitary,
    bell_state,
    binary_discriminant,
    classify_symmetric,
    coherent_state,
    dicke_state,
    find_stars,
    ghz_state,
    majorana_polynomial,
    make_state,
    symmetrize_check,
    w_state,
)
from entkit.majorana import _exactly_symmetric, _noise_radius, _padded, _representative
from entkit.majorana import _floor, _polish, _scaled_core, _taylor
from entkit.majorana import _single_linkage_clusters
from entkit.sampling import random_su2, trial_rng

R2 = 1.0 / math.sqrt(2.0)


def xyz(theta, phi):
    return np.array(
        [
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ]
    )


def star_points(con):
    """Flattened (multiplicity-repeated) xyz list of a constellation."""
    pts = []
    for s in con.stars:
        pts.extend([xyz(s.theta, s.phi)] * s.multiplicity)
    return pts


def match_sets(got, want, tol):
    """Greedy chordal matching between two equal-size point lists."""
    assert len(got) == len(want)
    remaining = list(want)
    for g in got:
        dists = [np.linalg.norm(g - w) for w in remaining]
        k = int(np.argmin(dists))
        assert dists[k] <= tol, f"star off by {dists[k]:.3e}"
        remaining.pop(k)


def poly_from_stars(stars, n):
    """Ascending coefficients with prescribed stars; theta=pi means infinity."""
    roots = []
    for theta, phi, mult in stars:
        if theta == math.pi:
            continue
        roots.extend([math.tan(theta / 2.0) * np.exp(1j * phi)] * mult)
    return np.polynomial.polynomial.polyfromroots(roots) if roots else np.array([1.0])


def corpus_state(n, change, eps):
    """A seeded n-qubit Dicke state, with one amplitude changed as ``change`` names.

    "first", "middle" and "last" add ``eps`` to an amplitude in that
    2**12-amplitude block of the exact test (one block up to n = 12);
    "signed-zero" gives one amplitude of an empty weight class the parts
    -0.0, beside the class's 0.0.
    """
    rng = np.random.default_rng(3100 + n)
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    c[rng.integers(n + 1)] = 0
    amps = dicke_state(DickeExpansion(n=n, coeffs=c / np.linalg.norm(c))).amplitudes.copy()
    size = 2**n
    if change == "signed-zero":
        amps[np.flatnonzero(amps == 0)[-1]] = complex(-0.0, -0.0)
    elif change is not None:
        index = {"first": 2, "middle": size // 2 + 5, "last": size - 2}[change]
        amps[min(index, size - 1)] += eps * (1 - 0.5j)
    return StateVector((2,) * n, amps / np.linalg.norm(amps))


EXACT_SYMMETRY_CASES = (
    [(n, None, 0.0) for n in [*range(1, 17), 20]]
    + [(n, "signed-zero", 0.0) for n in [*range(1, 17), 20]]
    + [
        (n, change, eps)
        for n in (2, 5, 12, 13, 16)
        for change in ("first", "middle", "last")
        for eps in (1e-13, 1e-10, 1e-7)
    ]
    + [(20, "last", 1e-10)]
)


class TestSymmetrizeCheck:
    def test_ghz_coefficients(self):
        d = symmetrize_check(ghz_state(3))
        np.testing.assert_allclose(d.coeffs, [R2, 0, 0, R2], atol=1e-12)

    def test_w_coefficients(self):
        d = symmetrize_check(w_state())
        np.testing.assert_allclose(d.coeffs, [0, 1, 0, 0], atol=1e-12)

    def test_projection_vanishes(self):
        # |10> passes at tolerance 2 (its one transposition moves it by 1),
        # but its representative amplitudes at 00, 01 and 11 are all 0
        with pytest.raises(NumericError, match="symmetric projection vanished"):
            symmetrize_check(make_state((2, 2), {(1, 0): 1}), 2.0)

    def test_asymmetric_rejected(self):
        s = make_state([2, 2], {(0, 1): 1.0})
        with pytest.raises(NotSymmetricError) as err:
            symmetrize_check(s)
        assert err.value.drift == 1.0

    def test_tolerance_loosens(self):
        s = make_state([2, 2], {(0, 1): 1.0, (1, 0): 1.0 + 1e-7})
        with pytest.raises(NotSymmetricError):
            symmetrize_check(s)
        assert symmetrize_check(s, tolerance=1e-6).n == 2

    def test_non_qubit_rejected(self):
        with pytest.raises(ValidationError):
            symmetrize_check(make_state([3, 3], {(0, 0): 1.0}))

    @pytest.mark.parametrize(
        "tolerance",
        [math.nan, math.inf, -math.inf, -1, -1e-300, np.float64("nan"), "1e-9", None, True,
         False, np.True_, 1e-9 + 0j],
        ids=repr,
    )
    @pytest.mark.parametrize("check", [symmetrize_check, classify_symmetric])
    def test_tolerance_must_be_finite_and_nonnegative(self, check, tolerance):
        # NaN and inf once let the non-symmetric state pass; -1 raised
        # NotSymmetricError and strings or None a raw TypeError
        s = make_state((2, 2, 2), {(0, 0, 1): 1, (1, 0, 0): 2})
        with pytest.raises(ValidationError, match="tolerance") as info:
            check(s, tolerance=tolerance)
        assert info.type is ValidationError

    @pytest.mark.parametrize("tolerance", [0, np.int64(0), np.float32(1e-9), 1e-9])
    def test_tolerance_accepts_real_numbers(self, tolerance):
        assert symmetrize_check(ghz_state(3), tolerance=tolerance).n == 3

    @staticmethod
    def full_swap_drifts(state):
        """Drift of each adjacent transposition over the whole swapped tensor."""
        t = state.tensor()
        return [
            float(np.max(np.abs(np.swapaxes(t, k, k + 1) - t)))
            for k in range(state.n_parties - 1)
        ]

    @staticmethod
    def full_swap_outcome(state, drifts, tolerance):
        """Message of the first failing transposition, else the Dicke coefficients."""
        for k, drift in enumerate(drifts):
            if drift > tolerance:
                return f"swap of qubits {k} and {k + 1} moves amplitudes by {drift:.3e}"
        n = state.n_parties
        flat = state.amplitudes
        coeffs = np.array([math.sqrt(math.comb(n, k)) * flat[2**k - 1] for k in range(n + 1)])
        return coeffs / np.linalg.norm(coeffs)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_pair_drifts_equal_full_swap_bit_for_bit(self, n):
        rng = np.random.default_rng(1500 + n)
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        dicke = dicke_state(DickeExpansion(n=n, coeffs=c / np.linalg.norm(c))).amplitudes
        variants = [dicke]
        for eps in (1e-12, 1e-9, 1e-6):
            noise = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            variants.append(dicke + eps * noise)
            one = dicke.copy()
            one[rng.integers(2**n)] += eps * (1 + 1j)
            variants.append(one)
        for amps in variants:
            state = StateVector((2,) * n, amps / np.linalg.norm(amps))
            drifts = self.full_swap_drifts(state)
            tolerances = [1e-9]
            # the worst drift and the float below it pin that drift bit for bit
            worst = max(drifts, default=0.0)
            if worst > 0.0:
                tolerances += [worst, np.nextafter(worst, 0.0)]
            for tol in tolerances:
                want = self.full_swap_outcome(state, drifts, tol)
                try:
                    got = symmetrize_check(state, tol).coeffs
                except NotSymmetricError as exc:
                    got = str(exc)
                if isinstance(want, str):
                    assert got == want
                else:
                    assert isinstance(got, np.ndarray) and np.array_equal(got, want)

    @pytest.mark.parametrize(
        "n,change,eps",
        EXACT_SYMMETRY_CASES,
        ids=[f"{n}-{c}-{e:g}" for n, c, e in EXACT_SYMMETRY_CASES],
    )
    def test_exact_class_test_keeps_every_outcome(self, n, change, eps):
        # the Hamming-class test holds iff every transposition drift is 0.0,
        # and symmetrize_check's result, message and drift stay the loop's
        state = corpus_state(n, change, eps)
        drifts = self.full_swap_drifts(state)
        rep = state.amplitudes[(1 << np.arange(n + 1)) - 1]
        assert _exactly_symmetric(state.amplitudes, rep) == (max(drifts, default=0.0) == 0.0)
        for tol in (0.0, 1e-12, 1e-9, 1e-6):
            want = self.full_swap_outcome(state, drifts, tol)
            try:
                got = symmetrize_check(state, tol).coeffs
            except NotSymmetricError as exc:
                assert str(exc) == want
                assert exc.drift == next(d for d in drifts if d > tol)
            else:
                assert not isinstance(want, str) and np.array_equal(got, want)

    def test_exact_class_test_peak_memory(self):
        state = ghz_state(20)
        tracemalloc.start()
        try:
            symmetrize_check(state, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the state holds 16 MiB; the transposition loop alone peaked at 4 MiB
        assert peak <= 2**21

    @staticmethod
    def dicke_reference(d: DickeExpansion) -> np.ndarray:
        """Amplitudes built one basis index at a time, from the definition."""
        n = d.n
        entries = {}
        for k, c in enumerate(d.coeffs):
            if c == 0:
                continue
            w = c / math.sqrt(math.comb(n, k))
            for ones in itertools.combinations(range(n), k):
                entries[tuple(1 if j in ones else 0 for j in range(n))] = w
        return make_state((2,) * n, entries).amplitudes

    @pytest.mark.parametrize("n", range(1, 11))
    def test_dicke_state_matches_reference(self, rng, n):
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        c[rng.integers(n + 1)] = 0
        d = DickeExpansion(n=n, coeffs=c / np.linalg.norm(c))
        assert np.array_equal(dicke_state(d).amplitudes, self.dicke_reference(d))

    def test_dicke_state_round_trip(self, rng):
        for n in [1, 2, 4, 6]:
            c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            d = DickeExpansion(n=n, coeffs=c / np.linalg.norm(c))
            back = symmetrize_check(dicke_state(d))
            # global phase may differ; align on the largest coefficient
            k = int(np.argmax(np.abs(d.coeffs)))
            phase = back.coeffs[k] / d.coeffs[k]
            np.testing.assert_allclose(back.coeffs, phase * d.coeffs, atol=1e-10)


class TestPolynomial:
    def test_ghz_is_z_cubed_minus_one(self):
        a = majorana_polynomial(symmetrize_check(ghz_state(3)))
        np.testing.assert_allclose(a, [-R2, 0, 0, R2], atol=1e-12)

    def test_w_is_minus_sqrt3_z_squared(self):
        a = majorana_polynomial(symmetrize_check(w_state()))
        np.testing.assert_allclose(a, [0, 0, -math.sqrt(3.0), 0], atol=1e-12)

    def test_alternating_signs(self):
        d = DickeExpansion(n=2, coeffs=np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0))
        a = majorana_polynomial(d)
        r3 = 1.0 / math.sqrt(3.0)
        np.testing.assert_allclose(a, [r3, -math.sqrt(2.0) * r3, r3], atol=1e-12)


class TestFindStars:
    def test_ghz_equatorial_cube_roots(self):
        con = find_stars(majorana_polynomial(symmetrize_check(ghz_state(3))), 3)
        assert con.partition == (1, 1, 1)
        want = [xyz(math.pi / 2.0, 2.0 * math.pi * k / 3.0) for k in range(3)]
        match_sets(star_points(con), want, 1e-8)

    def test_w_partition(self):
        con = find_stars(majorana_polynomial(symmetrize_check(w_state())), 3)
        assert con.partition == (2, 1)
        assert con.stars[0].theta == 0.0 and con.stars[0].multiplicity == 2
        assert con.stars[1].theta == math.pi and con.stars[1].multiplicity == 1

    def test_bell_antipodal(self):
        con = find_stars(majorana_polynomial(symmetrize_check(bell_state("phi+"))), 2)
        assert con.partition == (1, 1)
        a, b = (xyz(s.theta, s.phi) for s in con.stars)
        assert float(a @ b) == pytest.approx(-1.0, abs=1e-10)

    def test_all_zeros_state(self):
        s = make_state([2] * 4, {(0, 0, 0, 0): 1.0})
        con = find_stars(majorana_polynomial(symmetrize_check(s)), 4)
        assert con.partition == (4,)
        assert con.stars[0].theta == 0.0

    def test_all_ones_state(self):
        s = make_state([2] * 4, {(1, 1, 1, 1): 1.0})
        con = find_stars(majorana_polynomial(symmetrize_check(s)), 4)
        assert con.partition == (4,)
        assert con.stars[0].theta == math.pi

    @pytest.mark.parametrize(
        "stars,n",
        [
            ([(0.7, 0.3, 3), (2.1, 4.0, 2)], 5),
            ([(0.4, 1.0, 2), (1.8, 2.5, 2), (2.7, 5.5, 1)], 5),
            ([(1.2, 0.0, 4), (2.9, 3.3, 1)], 5),
            ([(0.9, 5.9, 2), (1.5, 1.1, 1), (2.2, 2.2, 1), (0.3, 3.0, 1)], 5),
            ([(0.8, 0.5, 2), (1.9, 3.9, 2), (math.pi, 0.0, 1)], 5),
            ([(0.0, 0.0, 2), (1.3, 2.0, 1), (2.4, 0.7, 3)], 6),
        ],
    )
    def test_constructed_multiplets(self, stars, n):
        con = find_stars(poly_from_stars(stars, n), n)
        assert con.partition == tuple(sorted((m for _, _, m in stars), reverse=True))
        want = []
        for theta, phi, mult in stars:
            want.extend([xyz(theta, phi)] * mult)
        match_sets(star_points(con), want, 1e-6)

    def test_degree_deficit_counts_infinity(self):
        # z^2 - 1 read as a 4-qubit polynomial: two equator stars, two at the pole
        con = find_stars(np.array([-1.0, 0.0, 1.0]), 4)
        assert con.partition == (2, 1, 1)
        assert con.stars[0].theta == math.pi

    def test_close_pair_stays_split(self):
        sep = 1e-4
        con = find_stars(
            poly_from_stars([(1.0, 0.0, 1), (1.0 + sep, 0.0, 1)], 2), 2
        )
        assert con.partition == (1, 1)

    def test_n200_coherent_state(self):
        # the acceptance radius and the discriminant stay finite past n = 171
        con = find_stars(majorana_polynomial(coherent_state((0.7, 1.0), 200)), 200)
        assert con.partition == (200,)
        assert math.isfinite(abs(con.discriminant))

    @pytest.mark.parametrize(
        "poly,n,theta",
        [([1e-320, 0.0, 1.0], 2, 0.0), ([-1e-320, 1.0], 1, 0.0), ([1.0, -1e-320], 1, math.pi)],
    )
    def test_subnormal_coefficients(self, poly, n, theta):
        # the star lies beyond the float range of z, within rounding of a pole
        con = find_stars(np.array(poly), n)
        assert con.partition == (n,)
        assert con.stars[0].theta == pytest.approx(theta, abs=1e-150)

    def test_subnormal_end_coefficients_are_pole_stars(self):
        # |00> and |11> at 1e-310 beside |01> + |10>: both end coefficients stay
        # subnormal after scaling, and a companion matrix dividing by them overflows
        e = symmetrize_check(
            make_state([2, 2], {(0, 0): 1e-310, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1e-310})
        )
        con = find_stars(majorana_polynomial(e), 2)
        assert con.partition == (1, 1)
        assert sorted(s.theta for s in con.stars) == [0.0, math.pi]

    @pytest.mark.parametrize("theta", [0.001, math.pi - 0.001])
    def test_subnormal_coherent_coefficients(self, theta):
        # from n = 94 on the coefficients far from the star's pole are
        # subnormal; the stars split (the near-pole clustering fault) but
        # every one stays on the direction
        con = find_stars(majorana_polynomial(coherent_state((theta, 0.4), 94)), 94)
        assert sum(s.multiplicity for s in con.stars) == 94
        for s in con.stars:
            assert np.linalg.norm(xyz(s.theta, s.phi) - xyz(theta, 0.4)) < 0.02

    def test_degenerate_polynomial(self):
        with pytest.raises(NumericError):
            find_stars(np.array([1e-16, 1e-15]), 2)

    def test_too_long_polynomial(self):
        with pytest.raises(ValidationError):
            find_stars(np.ones(4), 2)

    def test_bad_n(self):
        with pytest.raises(ValidationError):
            find_stars(np.ones(2), 0)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-6, float("inf")])
    def test_bad_cluster_tol(self, tol):
        coherent = coherent_state((1.0, 0.5), 6)
        with pytest.raises(ValidationError, match="cluster_tol"):
            find_stars(majorana_polynomial(coherent), 6, cluster_tol=tol)
        with pytest.raises(ValidationError, match="cluster_tol"):
            classify_symmetric(dicke_state(coherent), cluster_tol=tol)


class TestPoleMembers:
    """Stars at the poles are members with u-chart value 0 (north) or inf (south)."""

    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_north_pole_coherent_state_is_a_degree_zero_core(self, n):
        a = majorana_polynomial(coherent_state((0.0, 0.7), n))
        bb, _, south, north = _scaled_core(a)
        assert (len(bb), south, north) == (1, 0, n)
        con = find_stars(a, n)
        assert con.partition == (n,)
        assert con.stars[0] == SpherePoint(0.0, 0.0, n)

    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_south_pole_stars(self, n):
        # cos(pi / 2) is 6e-17, not 0, so theta = pi leaves tiny coefficients
        # beside the pole one; the exact expansion c_n = 1 has only that one
        con = find_stars(majorana_polynomial(coherent_state((math.pi, 0.7), n)), n)
        assert con.partition == (n,)
        assert con.stars[0].theta == math.pi
        c = np.zeros(n + 1)
        c[n] = 1.0
        a = majorana_polynomial(DickeExpansion(n, c))
        bb, _, south, north = _scaled_core(a)
        assert (len(bb), south, north) == (1, n, 0)
        assert find_stars(a, n).stars == (SpherePoint(math.pi, 0.0, n),)

    def test_exact_zeros_at_both_ends(self):
        # z^2 (z^2 - 1) read as a 6-qubit polynomial
        a = np.array([0.0, 0.0, -1.0, 0.0, 1.0])
        _, _, south, north = _scaled_core(_padded(a, 6))
        assert (south, north) == (2, 2)
        con = find_stars(a, 6)
        assert con.partition == (2, 2, 1, 1)
        assert con.stars[:2] == (SpherePoint(0.0, 0.0, 2), SpherePoint(math.pi, 0.0, 2))
        want = [xyz(math.pi / 2, 0.0), xyz(math.pi / 2, math.pi)]
        match_sets([xyz(s.theta, s.phi) for s in con.stars[2:]], want, 1e-12)

    def test_cluster_holding_both_poles(self):
        # a cluster with stars at both poles is read in the v chart, where
        # the north pole is the far one and is dropped from the average
        con = find_stars(np.array([0.0, 1.0]), 2, cluster_tol=2.0)
        assert con.stars == (SpherePoint(math.pi, 0.0, 2),)
        members, bb = np.array([1.0, np.inf, 0.0]), np.array([1.0, 1.0])
        assert _noise_radius(members, bb, 1.0, 3) == 0.0
        want = (math.pi - 2.0 * math.atan(0.5), 0.0)
        assert _representative(members, bb, 1.0, 3) == want

    def test_root_polished_to_infinity_is_a_south_star(self, monkeypatch):
        # z^2 - 1 read as a 3-qubit polynomial, with one companion root overflowing
        polyroots = np.polynomial.polynomial.polyroots

        def overflowing(c):
            return np.concatenate(([complex(np.inf, np.nan)], polyroots(c)[1:]))

        monkeypatch.setattr(np.polynomial.polynomial, "polyroots", overflowing)
        con = find_stars(np.array([-1.0, 0.0, 1.0]), 3)
        assert con.partition == (2, 1)
        assert con.stars[0] == SpherePoint(math.pi, 0.0, 2)
        assert con.stars[1].theta == pytest.approx(math.pi / 2, abs=1e-12)


def _gaussian_dicke_polynomial(n, seed):
    rng = np.random.default_rng([seed, n])
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return majorana_polynomial(DickeExpansion(n, c / np.linalg.norm(c)))


def _wide_range_polynomial(seed):
    """Roots of random phase with moduli 10**u, u uniform in [-20, 20], n from 4 to 12."""
    rng = np.random.default_rng([seed, 40])
    n = int(rng.integers(4, 13))
    z = 10.0 ** rng.uniform(-20.0, 20.0, n) * np.exp(2j * math.pi * rng.random(n))
    a = np.poly(z)[::-1]
    return a / a[np.argmax(np.abs(a))]


class TestStarOracle:
    """Every root of the polynomial, from mpmath at 60 digits, lies within
    1e-6 chordal of a found star."""

    @staticmethod
    def check(a):
        mp = pytest.importorskip("mpmath")
        n = len(a) - 1
        with mp.workdps(60):
            roots = mp.polyroots([mp.mpc(v) for v in a[::-1]], maxsteps=200, extraprec=100)
            want = [
                [float(v / (1 + abs(r) ** 2)) for v in (2 * r.real, 2 * r.imag, 1 - abs(r) ** 2)]
                for r in roots
            ]
        found = np.array([s.xyz() for s in find_stars(a, n).stars])
        for w in want:
            assert np.min(np.linalg.norm(found - w, axis=1)) <= 1e-6

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_gaussian_dicke(self, n):
        self.check(_gaussian_dicke_polynomial(n, 5))

    @pytest.mark.parametrize("seed", range(16))
    def test_wide_range(self, seed):
        self.check(_wide_range_polynomial(seed))

    @pytest.mark.parametrize("seed", [23, 74])
    def test_newton_step_that_raises_the_residual_is_not_taken(self, seed):
        # at these seeds one noisy root's Newton step would raise |p| (at
        # seed 23 its second step, at seed 74 its first): _polish keeps the
        # root it has, so no root leaves with a larger residual than the
        # companion matrix gave it, and the stars still meet the oracle
        a = _wide_range_polynomial(seed)
        n = len(a) - 1
        bb = _scaled_core(_padded(a, n))[0]
        roots = np.polynomial.polynomial.polyroots(bb)
        polished = _polish(roots, bb, n)
        residual = np.abs(_taylor(bb, polished, 0))
        assert np.all(residual <= np.abs(_taylor(bb, roots, 0)))
        step = polished - _taylor(bb, polished, 0) / ((len(bb) - 1) * _taylor(bb, polished, 1))
        rejected = (residual > 8.0 * _floor(bb, polished, n)) & (
            np.abs(_taylor(bb, step, 0)) >= residual
        )
        assert rejected.any()
        self.check(a)


class TestClusterMachinery:
    @staticmethod
    def agglomerative(dist, accept):
        """Merge the two closest clusters until one is left, then cut the tree top-down."""
        active = [(i,) for i in range(len(dist))]
        halves = {}
        while len(active) > 1:
            a, b = min(
                itertools.combinations(active, 2),
                key=lambda pair: dist[np.ix_(pair[0], pair[1])].min(),
            )
            active.remove(a)
            active.remove(b)
            active.append(a + b)
            halves[a + b] = (a, b)
        out = []
        while active:
            mem = active.pop()
            if len(mem) == 1 or accept(list(mem)):
                out.append(sorted(mem))
            else:
                active.extend(halves[mem])
        return sorted(out)

    @pytest.mark.parametrize("m", [1, 2, 5, 12, 30])
    def test_mst_split_matches_agglomeration(self, rng, m):
        pts = rng.standard_normal((m, 3))
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        for t in (0.3, 0.8, 1.5, 3.0):

            def accept(mem):
                return dist[np.ix_(mem, mem)].max() <= t

            got = sorted(sorted(c) for c in _single_linkage_clusters(dist, accept))
            assert got == self.agglomerative(dist, accept)

    def test_taylor_coefficient_is_scaled_derivative(self, rng):
        b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        c = 0.3 - 0.7j
        for m in range(9):
            want = np.polynomial.Polynomial(b).deriv(m)(c) / math.factorial(m)
            got = _taylor(b, c, m) * math.comb(8, m)
            assert got == pytest.approx(want, rel=1e-12)


class TestCoherent:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_round_trip_direction(self, n, rng):
        for _ in range(6):
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            d = coherent_state((theta, phi), n)
            con = find_stars(majorana_polynomial(d), n)
            assert con.partition == (n,)
            err = np.linalg.norm(xyz(con.stars[0].theta, con.stars[0].phi) - xyz(theta, phi))
            assert err < 1e-8

    def test_near_pole(self):
        theta = math.pi - 1e-6
        d = coherent_state((theta, 0.3), 6)
        con = find_stars(majorana_polynomial(d), 6)
        assert con.partition == (6,)
        err = np.linalg.norm(xyz(con.stars[0].theta, con.stars[0].phi) - xyz(theta, 0.3))
        assert err < 1e-8

    def test_sphere_point_input(self):
        d = coherent_state(SpherePoint(theta=0.5, phi=1.0), 3)
        assert d.n == 3

    def test_phi_zero_direction(self):
        # the mean root angle can round to a small negative value (about
        # -5e-16 at n = 3), whose modulus by 2 pi lands just below 2 pi;
        # the star must come back with phi = 0
        for n in (2, 3, 5):
            d = coherent_state((0.3, 0.0), n)
            con = find_stars(majorana_polynomial(d), n)
            assert con.partition == (n,)
            assert con.stars[0].phi == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize(
        "theta, ns",
        [(2.9, (3, 5)), (0.3, range(6, 41)), (2.9, range(6, 41, 2))],
        ids=["v-chart", "u-chart-large-n", "v-chart-large-n"],
    )
    def test_phi_zero_direction_other_charts(self, theta, ns):
        # the same wrap in the v chart (theta > pi/2) and at larger n,
        # where the angle error of the averaged root grows to ~1e-13
        for n in ns:
            d = coherent_state((theta, 0.0), n)
            con = find_stars(majorana_polynomial(d), n)
            assert con.partition == (n,)
            assert con.stars[0].phi == pytest.approx(0.0, abs=1e-8)

    def test_state_is_product(self):
        from entkit import is_product_multipartite

        assert is_product_multipartite(dicke_state(coherent_state((1.0, 2.0), 3)))

    def test_bad_n(self):
        with pytest.raises(ValidationError):
            coherent_state((0.5, 0.5), 0)

    @pytest.mark.parametrize("direction", [(math.inf, 0.5), (math.nan, 0.5), (0.5, math.inf)])
    def test_non_finite_angles(self, direction):
        with pytest.raises(ValidationError, match="must be a finite real number"):
            coherent_state(direction, 3)

    @pytest.mark.parametrize("n", [1030, 1100, 10**20])
    def test_binomial_overflow_is_numeric(self, n):
        with pytest.raises(NumericError, match="float range"):
            coherent_state((0.3, 0.0), n)


class TestRotationCovariance:
    def test_stars_rotate_with_the_state(self, rng):
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        d = DickeExpansion(n=5, coeffs=c / np.linalg.norm(c))
        state = dicke_state(d)
        base = classify_symmetric(state).constellation
        for t in range(5):
            u = random_su2(trial_rng(4242, t))
            rotated = apply_local_unitary(
                state, LocalUnitary(factors=(u,) * 5)
            )
            got = classify_symmetric(rotated).constellation
            want = []
            for s in base.stars:
                spinor = u @ np.array(
                    [math.cos(s.theta / 2.0), np.exp(1j * s.phi) * math.sin(s.theta / 2.0)]
                )
                th = 2.0 * math.atan2(abs(spinor[1]), abs(spinor[0]))
                ph = float(np.angle(spinor[1]) - np.angle(spinor[0]))
                want.extend([xyz(th, ph)] * s.multiplicity)
            match_sets(star_points(got), want, 1e-7)


class TestDiscriminant:
    def test_n_one_is_unity(self):
        assert binary_discriminant(np.array([1.0, 2.0]), 1) == 1.0

    def test_repeated_roots_vanish(self):
        a = poly_from_stars([(0.9, 1.0, 2), (2.0, 3.0, 1)], 3)
        assert abs(binary_discriminant(a, 3)) < 1e-10

    def test_repeated_infinity_vanishes(self):
        # degree deficit 2 on a degree-4 form
        a = poly_from_stars([(0.9, 1.0, 1), (2.0, 3.0, 1)], 4)
        assert abs(binary_discriminant(a, 4)) < 1e-10

    def test_distinct_roots_do_not_vanish(self):
        a = majorana_polynomial(symmetrize_check(ghz_state(3)))
        assert abs(binary_discriminant(a, 3)) > 1e-3

    def test_underflows_to_zero_at_large_n(self):
        # a Gaussian Dicke state's 100 roots are distinct (closest pair
        # 0.04 apart), yet the normalized discriminant is below the float range
        a = _gaussian_dicke_polynomial(100, 0)
        roots = np.polynomial.polynomial.polyroots(a)
        gaps = np.abs(roots[:, None] - roots[None, :]) + np.eye(100)
        assert gaps.min() > 0.01
        assert binary_discriminant(a, 100) == 0

    def test_scale_invariant(self):
        a = majorana_polynomial(symmetrize_check(ghz_state(3)))
        d1 = binary_discriminant(a, 3)
        d2 = binary_discriminant(17.0 * a, 3)
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_quadratic_formula_agreement(self, rng):
        for _ in range(20):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            an = a / np.linalg.norm(a)
            classic = an[1] ** 2 - 4.0 * an[2] * an[0]
            got = binary_discriminant(a, 2)
            assert got == pytest.approx(classic, rel=1e-10)

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            binary_discriminant(np.ones(2), 0)
        with pytest.raises(ValidationError):
            binary_discriminant(np.ones(5), 3)
        with pytest.raises(NumericError):
            binary_discriminant(np.zeros(3), 2)

    def test_extreme_scales_match_rescaled_form(self):
        # np.linalg.norm of these coefficients alone overflows at 1e300 and
        # underflows at 1e-300
        assert find_stars([1e300, 1e300, 1], 2).discriminant == pytest.approx(0.5, rel=1e-12)
        assert find_stars([1, 1, 1e-300], 2).discriminant == pytest.approx(0.5, rel=1e-12)
        tiny = binary_discriminant([1e-300, 1e-300, 1e-310], 2)
        assert tiny == pytest.approx(binary_discriminant([1, 1, 1e-10], 2), rel=1e-12)

    def test_power_of_two_scale_keeps_bits(self, rng):
        for n in (2, 3, 7, 20):
            a = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            want = binary_discriminant(a, n)
            for k in (-1000, -1, 1, 1000):
                assert binary_discriminant(a * 2.0**k, n) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.inf)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_non_finite_coefficients_raise(self, bad, n):
        with pytest.raises(NumericError, match="not finite"):
            binary_discriminant([1.0, bad], n)
        with pytest.raises(NumericError, match="not finite"):
            find_stars([1.0, bad], n)


class TestClassification:
    def test_onion_levels(self):
        ghz = classify_symmetric(ghz_state(3))
        w = classify_symmetric(w_state())
        coh = classify_symmetric(dicke_state(coherent_state((1.0, 0.5), 3)))
        assert ghz.onion_level == 3
        assert w.onion_level == 2
        assert coh.onion_level == 1
        assert coh.precedes(w) and w.precedes(ghz) and coh.precedes(ghz)
        assert not ghz.precedes(coh)
        assert not ghz.precedes(ghz)

    def test_precedes_needs_equal_n(self):
        a = classify_symmetric(bell_state("phi+"))
        b = classify_symmetric(ghz_state(3))
        with pytest.raises(ValidationError):
            a.precedes(b)

    def test_constellation_invariants_enforced(self):
        # n, the partition and the distinct count are read off the stars,
        # so a constellation that contradicts its stars cannot be written
        star = SpherePoint(theta=0.0, phi=0.0, multiplicity=2)
        con = MajoranaConstellation(stars=(star,), discriminant=0.0)
        assert (con.n, con.partition, con.distinct_count) == (2, (2,), 1)
        with pytest.raises(ValidationError):
            MajoranaConstellation(stars=(), discriminant=0.0)

    def test_constellation_derives_from_unsorted_stars(self):
        stars = [SpherePoint(0.3, 0.2), SpherePoint(1.0, 0.5, 3), SpherePoint(2.0, 1.0, 2)]
        con = MajoranaConstellation(stars, 0j)
        assert con.stars == tuple(stars)
        assert con.partition == (3, 2, 1)
        assert con.n == 6 and con.distinct_count == 3
        assert SymmetricClassification(con).onion_level == con.distinct_count == 3
        assert list(dataclasses.asdict(con)) == [
            "n", "stars", "distinct_count", "partition", "discriminant"
        ]

    def test_sphere_point_validation(self):
        with pytest.raises(ValidationError):
            SpherePoint(theta=-0.1, phi=0.0)
        with pytest.raises(ValidationError):
            SpherePoint(theta=0.1, phi=7.0)
        with pytest.raises(ValidationError):
            SpherePoint(theta=0.1, phi=0.0, multiplicity=0)

    def test_dicke_expansion_validation(self):
        with pytest.raises(ValidationError):
            DickeExpansion(n=2, coeffs=np.array([1.0, 0.0]))
        with pytest.raises(ValidationError):
            DickeExpansion(n=2, coeffs=np.array([1.0, 0.0, 1.0]))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(0, 2**31 - 1),
)
def test_star_count_conservation(n, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    d = DickeExpansion(n=n, coeffs=c / np.linalg.norm(c))
    con = find_stars(majorana_polynomial(d), n)
    assert sum(s.multiplicity for s in con.stars) == n
    assert con.partition == tuple(sorted(con.partition, reverse=True))
    assert con.distinct_count == len(con.stars)
    for s in con.stars:
        assert 0.0 <= s.theta <= math.pi
        assert 0.0 <= s.phi < 2.0 * math.pi
