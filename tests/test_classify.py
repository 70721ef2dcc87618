import math

import numpy as np
import pytest
from conftest import rand_state

import entkit.classify

from entkit import (
    DefinitionCheck,
    DickeExpansion,
    NotSymmetricError,
    StateVector,
    ValidationError,
    bell_state,
    binary_discriminant,
    bipartite_determinant,
    cayley_hyperdeterminant,
    classify_state,
    classify_symmetric,
    ghz_state,
    majorana_polynomial,
    make_state,
    schmidt_decompose,
    symmetrize_check,
    w_state,
)
from entkit.majorana import coherent_state, dicke_state

EPS = np.finfo(float).eps


def by_def(report, k):
    return next(c for c in report.checks if c.definition == k)


class TestGhz:
    def test_full_report(self):
        rep = classify_state(ghz_state(3), "ghz3")
        assert rep.state_id == "ghz3"
        assert [c.definition for c in rep.checks] == [1, 2, 3, 4]

        d1 = by_def(rep, 1)
        assert d1.verdict == "entangled"
        assert d1.evidence["single_cut_ranks"] == [2, 2, 2]

        d2 = by_def(rep, 2)
        assert d2.verdict == "entangled"
        assert d2.evidence["ranks"] == {"cut_0": 2, "cut_1": 2, "cut_2": 2}

        d3 = by_def(rep, 3)
        assert d3.verdict == "GHZClass"
        assert d3.evidence["abs_hyperdeterminant"] == pytest.approx(0.25, abs=1e-12)

        d4 = by_def(rep, 4)
        assert d4.verdict == "level-3"
        assert d4.evidence["distinct_stars"] == 3


class TestProduct:
    def test_all_negative(self):
        rep = classify_state(make_state([2, 2, 2], {(0, 0, 0): 1.0}), "zero")
        assert by_def(rep, 1).verdict == "product"
        assert by_def(rep, 2).verdict == "product"
        d3 = by_def(rep, 3)
        assert d3.verdict == "DegenerateClass"
        assert d3.evidence["abs_hyperdeterminant"] == pytest.approx(0.0, abs=1e-12)
        d4 = by_def(rep, 4)
        assert d4.verdict == "level-1"
        assert d4.evidence["partition"] == [3]


class TestBell:
    def test_det_evidence_and_warning(self):
        rep = classify_state(bell_state("phi+"), "bell")
        d3 = by_def(rep, 3)
        assert d3.verdict == "entangled"
        assert d3.evidence["det"] == pytest.approx(0.5, abs=1e-12)
        assert d3.evidence["two_det"] == pytest.approx(1.0, abs=1e-12)
        assert len(rep.warnings) == 1
        assert "2*det" in rep.warnings[0]

    def test_psi_minus(self):
        rep = classify_state(bell_state("psi-"), "psim")
        assert by_def(rep, 3).evidence["det"] == pytest.approx(0.5, abs=1e-12)


class TestW:
    def test_degenerate_but_entangled(self):
        rep = classify_state(w_state(), "w")
        assert by_def(rep, 1).verdict == "entangled"
        assert by_def(rep, 3).verdict == "DegenerateClass"
        d4 = by_def(rep, 4)
        assert d4.verdict == "level-2"
        assert d4.evidence["partition"] == [2, 1]
        assert d4.evidence["abs_discriminant"] < 1e-8


class TestOtherShapes:
    def test_two_qutrit_uses_schmidt_invariant(self, rng):
        rep = classify_state(rand_state(rng, (3, 3)), "q33")
        d3 = by_def(rep, 3)
        assert d3.verdict == "entangled"
        assert "schmidt_coefficients" in d3.evidence

    def test_five_qubit_coherent(self):
        rep = classify_state(dicke_state(coherent_state((1.0, 2.0), 5)), "coh5")
        assert by_def(rep, 1).verdict == "product"
        assert by_def(rep, 3).verdict == "not-evaluated"
        assert by_def(rep, 4).verdict == "level-1"

    def test_qutrit_triple_not_applicable_def4(self, rng):
        rep = classify_state(rand_state(rng, (3, 3, 3)), "q333")
        assert by_def(rep, 3).verdict == "not-evaluated"
        assert by_def(rep, 4).verdict == "not-applicable"

    def test_asymmetric_qubits_def4(self):
        rep = classify_state(make_state([2, 2], {(0, 1): 1.0}), "asym")
        d4 = by_def(rep, 4)
        assert d4.verdict == "not-applicable"
        assert "symmetric" in d4.evidence["note"]

    def test_single_party_rejected(self):
        with pytest.raises(ValidationError):
            classify_state(make_state([2], {(0,): 1.0}))


def count_calls(monkeypatch, state, targets):
    """Calls of each ``module.name`` in ``targets`` during one ``classify_state``."""
    calls = {name: 0 for _, name in targets}
    for module, name in targets:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)

        monkeypatch.setattr(module, name, counted)
    report = classify_state(state)
    return calls, report


class TestOnePass:
    """Definitions 1-3 share one factorization of every single-party cut.

    An exactly symmetric state has one decomposition in all, cut 0's;
    any other state has one call that factors all of its cuts.
    """

    @staticmethod
    def count_calls(monkeypatch, state):
        names = ("schmidt_decompose", "_cut_lambdas", "cayley_hyperdeterminant")
        return count_calls(monkeypatch, state, [(entkit.classify, n) for n in names])[0]

    def test_ghz3(self, monkeypatch):
        calls = self.count_calls(monkeypatch, ghz_state(3))
        want = {"schmidt_decompose": 1, "_cut_lambdas": 0, "cayley_hyperdeterminant": 1}
        assert calls == want

    def test_product3(self, monkeypatch):
        calls = self.count_calls(monkeypatch, make_state([2, 2, 2], {(0, 0, 0): 1.0}))
        want = {"schmidt_decompose": 1, "_cut_lambdas": 0, "cayley_hyperdeterminant": 1}
        assert calls == want

    def test_non_symmetric3(self, monkeypatch, rng):
        calls = self.count_calls(monkeypatch, rand_state(rng, (2, 2, 2)))
        want = {"schmidt_decompose": 0, "_cut_lambdas": 1, "cayley_hyperdeterminant": 1}
        assert calls == want

    def test_two_qutrit(self, monkeypatch, rng):
        calls = self.count_calls(monkeypatch, rand_state(rng, (3, 3)))
        want = {"schmidt_decompose": 0, "_cut_lambdas": 1, "cayley_hyperdeterminant": 0}
        assert calls == want


def random_expansion(n, seed):
    """Dicke expansion with seeded complex-Gaussian coefficients, normalized."""
    rng = np.random.default_rng([seed, n])
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return DickeExpansion(n, c / np.linalg.norm(c))


def random_dicke(n, seed):
    return dicke_state(random_expansion(n, seed))


def moved(state, index, delta):
    """``state`` with ``delta`` added to one amplitude, renormalized."""
    amps = state.amplitudes.copy()
    amps[index] += delta
    return StateVector(state.dims, amps / np.linalg.norm(amps))


SYMMETRIC = (
    [(f"dicke{n}", random_dicke(n, 23)) for n in range(2, 17)]
    + [(f"ghz{n}", ghz_state(n)) for n in (2, 5, 16)]
    + [("zero12", make_state([2] * 12, {(0,) * 12: 1.0}))]
    + [("coherent9", dicke_state(coherent_state((0.7, 1.9), 9)))]
)


class TestSymmetricCuts:
    """An exactly symmetric state is factored at cut 0 only; any drift keeps every cut."""

    TARGETS = [
        (entkit.classify, "schmidt_decompose"),
        (entkit.classify, "_cut_lambdas"),
        (entkit.majorana, "symmetrize_check"),
    ]

    @staticmethod
    def assert_cuts_match(report, state, tol):
        d2 = by_def(report, 2).evidence
        for k in range(state.n_parties):
            want = schmidt_decompose(state, (k,))
            assert d2["ranks"][f"cut_{k}"] == want.rank
            got = np.array(d2["schmidt_coefficients"][f"cut_{k}"])
            np.testing.assert_allclose(got, want.lambdas, rtol=0, atol=tol)

    @pytest.mark.parametrize("state", [s for _, s in SYMMETRIC], ids=[i for i, _ in SYMMETRIC])
    def test_cut_zero_stands_for_every_cut(self, monkeypatch, state):
        calls, report = count_calls(monkeypatch, state, self.TARGETS)
        assert calls == {"schmidt_decompose": 1, "_cut_lambdas": 0, "symmetrize_check": 1}
        # the per-cut factorizations differ among themselves by rounding in
        # their inner products over L = 2^(n-1) entries.  Cuts 0 and n - 1
        # sum one row of L, the others sum blocks of at least 2^(n // 2):
        # the spread is up to about 0.005 L eps over 60 seeds per n (1.2e-14
        # at n = 16, 1.3e-13 at n = 18).  The bound is 1e-13, or L eps / 8
        # where that is larger
        n = state.n_parties
        self.assert_cuts_match(report, state, max(1e-13, 2.0 ** (n - 1) * EPS / 8))

    def test_near_symmetric_keeps_every_cut(self, monkeypatch):
        n = 6
        # index 2^(n-2) reads (0, 1) on qubits 0, 1: the first transposition moves
        state = moved(random_dicke(n, 5), 2 ** (n - 2), 1e-12)
        with pytest.raises(NotSymmetricError):
            symmetrize_check(state, 0.0)
        calls, report = count_calls(monkeypatch, state, self.TARGETS)
        assert calls == {"schmidt_decompose": 0, "_cut_lambdas": 1, "symmetrize_check": 2}
        assert by_def(report, 4).verdict.startswith("level-")
        self.assert_cuts_match(report, state, 0.0)

    def test_last_transposition_broken(self, monkeypatch):
        n = 7
        # index 1 reads (0, 1) on qubits n - 2, n - 1 and (0, 0) on every
        # other adjacent pair, so only the last transposition moves it
        state = moved(random_dicke(n, 9), 1, 0.1)
        for k in range(n - 1):
            pairs = state.amplitudes.reshape(2**k, 2, 2, -1)
            assert np.array_equal(pairs[:, 0, 1], pairs[:, 1, 0]) == (k < n - 2)
        calls, report = count_calls(monkeypatch, state, self.TARGETS)
        assert calls == {"schmidt_decompose": 0, "_cut_lambdas": 1, "symmetrize_check": 1}
        d4 = by_def(report, 4)
        assert d4.verdict == "not-applicable"
        assert f"swap of qubits {n - 2} and {n - 1}" in d4.evidence["note"]
        self.assert_cuts_match(report, state, 0.0)

    def test_second_pass_stops_at_last_transposition(self, monkeypatch):
        n = 7
        # only the last transposition moves index 1, by 0.1, and the first
        # moves index 2^(n-2) by 1e-12: the pass at 0 stops at that first
        # drift, within the tolerance, and the pass at the tolerance stops
        # at the last transposition
        state = moved(moved(random_dicke(n, 9), 1, 0.1), 2 ** (n - 2), 1e-12)
        check, tolerances = entkit.majorana.symmetrize_check, []

        def recorded(s, tolerance):
            tolerances.append(tolerance)
            return check(s, tolerance)

        monkeypatch.setattr(entkit.majorana, "symmetrize_check", recorded)
        d4 = by_def(classify_state(state), 4)
        assert tolerances == [0.0, 1e-9]
        assert d4.verdict == "not-applicable"
        assert f"swap of qubits {n - 2} and {n - 1}" in d4.evidence["note"]


class TestAllCuts:
    """A state that is not exactly symmetric has all its single-party cuts factored at once.

    Each qubit party's two rows are read in place, from the amplitude
    tensor for k < n // 2 and from one reversed copy of it otherwise,
    and one stacked 2 x 2 SVD serves every qubit cut; the coefficients
    equal ``schmidt_decompose``'s cut by cut, bit for bit.
    """

    @staticmethod
    def assert_cuts_equal(state, tolerance=1e-9):
        d2 = by_def(classify_state(state, tolerance=tolerance), 2).evidence
        for k in range(state.n_parties):
            want = schmidt_decompose(state, (k,), tolerance).lambdas
            assert d2["schmidt_coefficients"][f"cut_{k}"] == want.tolist(), k
        return d2

    @pytest.mark.parametrize("n", range(2, 13))
    def test_qubits_match_single_cuts_bit_for_bit(self, n):
        rng = np.random.default_rng([n, 26])
        self.assert_cuts_equal(rand_state(rng, (2,) * n))

    @pytest.mark.parametrize("dims", [(2, 3, 2, 2), (3, 2, 2, 2, 2)], ids=str)
    def test_mixed_dims_match_single_cuts_bit_for_bit(self, rng, dims):
        self.assert_cuts_equal(rand_state(rng, dims))

    @pytest.mark.parametrize("tiny_first", [False, True])
    def test_underflowing_rows_are_scaled(self, tiny_first):
        # the two basis states differ on every qubit, so each cut has one row
        # holding only the 1e-170 amplitude (squared norm below _TINY), on both
        # sides of n // 2; the state is not symmetric, so every cut is factored
        n = 8
        one_zero, zero_one = (1, 0) * (n // 2), (0, 1) * (n // 2)
        first, second = (1e-170, 1.0) if tiny_first else (1.0, 1e-170)
        state = make_state([2] * n, {one_zero: first, zero_one: second})
        d2 = self.assert_cuts_equal(state, tolerance=1e-300)
        for k in range(n):
            assert d2["schmidt_coefficients"][f"cut_{k}"] == [1.0, 1e-170], k

    def test_no_gather_and_one_svd(self, factor_calls, rng):
        n = 10
        state = rand_state(rng, (2,) * n)
        gathers, shapes = factor_calls
        classify_state(state)
        assert gathers == [] and shapes == [(n, 2, 2)]


class TestCrossDefinition:
    """A warning appears when Definitions 1 and 4 disagree (the goldens pin its absence)."""

    @pytest.mark.parametrize(
        "state,verdict",
        [(ghz_state(3), "level-1"), (dicke_state(coherent_state((1.0, 2.0), 3)), "level-2")],
    )
    def test_disagreement_warns(self, monkeypatch, state, verdict):
        check = DefinitionCheck(definition=4, verdict=verdict, evidence={"partition": []})
        monkeypatch.setattr(entkit.classify, "_definition_4", lambda expansion: check)
        rep = classify_state(state)
        assert sum("definitions disagree" in w for w in rep.warnings) == 1

    @staticmethod
    def probe(n, e):
        """sqrt(1 - e^2) |0...0> + e |1...1>: GHZ-like, with product as e -> 0."""
        return make_state([2] * n, {(0,) * n: math.sqrt(1.0 - e * e), (1,) * n: e})

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("e", [10.0**-j for j in range(2, 15)], ids=lambda e: f"{e:g}")
    def test_no_silent_contradiction(self, n, e):
        # for symmetric n = 2 and 3, TestIdentities makes Definition 3's
        # invariant a multiple of the discriminant: entangled (n = 2) and
        # GHZClass (n = 3) mean no repeated star, which is level n
        rep = classify_state(self.probe(n, e))
        d1, d3, d4 = (by_def(rep, k).verdict for k in (1, 3, 4))
        top = "entangled" if n == 2 else "GHZClass"
        contradiction = (d1 == "product") != (d4 == "level-1")
        contradiction |= (d3 == top) != (d4 == f"level-{n}")
        warned = [w for w in rep.warnings if "definitions disagree" in w]
        assert len(warned) == int(contradiction)

    def test_definition_3_contradiction_warns(self):
        rep = classify_state(self.probe(3, 1e-6))
        assert [by_def(rep, k).verdict for k in (1, 3, 4)] == [
            "entangled", "DegenerateClass", "level-3"
        ]
        (warning,) = [w for w in rep.warnings if "definitions disagree" in w]
        assert warning.startswith(
            "definitions disagree: Definition 3 finds the state DegenerateClass but "
            "Definition 4 gives level-3"
        )


class TestIdentities:
    """For symmetric n = 2 and 3, Definition 3's invariant is Definition 4's discriminant.

    With ``a = majorana_polynomial(e)`` and ``Disc = binary_discriminant(a, n)
    |a|^(2n - 2)``, which undoes its unit-norm scaling, a symmetric state
    has ``det = -Disc / 4`` for n = 2 and ``Det = -Disc / 27`` for n = 3.
    The Sylvester determinant of ``binary_discriminant`` shares no code
    with ``_det2`` or ``_cayley``, so each side checks the other.
    """

    @pytest.mark.parametrize(
        "n,invariant,factor",
        [(2, bipartite_determinant, -1 / 4), (3, cayley_hyperdeterminant, -1 / 27)],
        ids=["det", "hyperdet"],
    )
    def test_invariant_is_scaled_discriminant(self, n, invariant, factor):
        worst = 0.0
        for seed in range(200):
            e = random_expansion(n, seed)
            a = majorana_polynomial(e)
            want = factor * binary_discriminant(a, n) * np.linalg.norm(a) ** (2 * n - 2)
            worst = max(worst, abs(invariant(dicke_state(e)) - want) / abs(want))
        # measured: 2.4e-15 for n = 2, 3.0e-15 for n = 3
        assert worst <= 1e-12


def dicke(n, k):
    """The Dicke state D(n, k), built exactly from one unit coefficient."""
    coeffs = np.zeros(n + 1)
    coeffs[k] = 1.0
    return dicke_state(DickeExpansion(n, coeffs))


def product_state(n, seed):
    """A product of n seeded random qubit states, no two alike."""
    rng = np.random.default_rng(seed)
    amps = np.ones(1, dtype=complex)
    for _ in range(n):
        q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps = np.kron(amps, q / np.linalg.norm(q))
    return StateVector((2,) * n, amps)


class TestSymmetricLadder:
    """All four verdicts on exactly built states up to n = 22, whose answers are known.

    GHZ_n has n distinct stars and rank 2 at every cut; D(n, k) has
    stars of multiplicities n - k and k at the poles; a product of
    distinct qubit states is not symmetric.
    """

    @pytest.mark.parametrize("n", [8, 16, 20, 22])
    def test_ghz(self, n):
        rep = classify_state(ghz_state(n))
        assert by_def(rep, 1).evidence["single_cut_ranks"] == [2] * n
        assert by_def(rep, 4).verdict == f"level-{n}"

    @pytest.mark.parametrize("n", [8, 16, 20, 22])
    @pytest.mark.parametrize("k", ["1", "n/2"])
    def test_dicke(self, n, k):
        k = 1 if k == "1" else n // 2
        d4 = by_def(classify_state(dicke(n, k)), 4)
        assert d4.evidence["partition"] == sorted([n - k, k], reverse=True)

    @pytest.mark.parametrize("n", [8, 16, 20])
    def test_product(self, n):
        rep = classify_state(product_state(n, 1700 + n))
        assert by_def(rep, 1).verdict == "product"
        assert by_def(rep, 4).verdict == "not-applicable"


class TestHilbertCriterion:
    """A symmetric state is in the null cone iff some star has multiplicity above n/2.

    Hilbert's criterion (Mumford-Fogarty-Kirwan, GIT ch. 4) on exactly
    built inputs: D(n, k) has stars of multiplicities k and n - k at the
    poles, so it is null iff k != n/2.  For n = 2 and 3 the null cone is
    where ``bipartite_determinant`` and ``cayley_hyperdeterminant``
    vanish.
    """

    @staticmethod
    def is_null(state, n):
        stars = classify_symmetric(state).constellation.stars
        return max(s.multiplicity for s in stars) > n / 2

    @pytest.mark.parametrize("n", range(1, 17))
    def test_dicke_null_iff_unbalanced(self, n):
        for k in range(n + 1):
            assert self.is_null(dicke(n, k), n) == (2 * k != n), (n, k)

    def test_w_is_d31(self):
        # so D(n, 1), null for n >= 3 above, is W_n
        assert np.array_equal(dicke(3, 1).amplitudes, w_state().amplitudes)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_ghz_has_n_distinct_stars(self, n):
        constellation = classify_symmetric(ghz_state(n)).constellation
        assert constellation.partition == (1,) * n
        assert not self.is_null(ghz_state(n), n)

    @pytest.mark.parametrize(
        "invariant,state,null",
        [
            (bipartite_determinant, dicke(2, 0), True),
            (bipartite_determinant, dicke(2, 2), True),
            (bipartite_determinant, dicke(2, 1), False),
            (bipartite_determinant, ghz_state(2), False),
            (cayley_hyperdeterminant, dicke(3, 0), True),
            (cayley_hyperdeterminant, dicke(3, 1), True),
            (cayley_hyperdeterminant, dicke(3, 2), True),
            (cayley_hyperdeterminant, dicke(3, 3), True),
            (cayley_hyperdeterminant, w_state(), True),
            (cayley_hyperdeterminant, ghz_state(3), False),
        ],
        ids=["D20", "D22", "D21", "ghz2", "D30", "D31", "D32", "D33", "w", "ghz3"],
    )
    def test_invariant_vanishes_exactly_on_null_inputs(self, invariant, state, null):
        assert (invariant(state) == 0) == null
        assert self.is_null(state, state.n_parties) == null


class TestCheckType:
    def test_definition_range(self):
        with pytest.raises(ValidationError):
            DefinitionCheck(definition=5, verdict="x", evidence={"a": 1})

    @pytest.mark.parametrize("definition", [True, 2.0, "2", None])
    def test_definition_must_be_an_integer(self, definition):
        # a bool or a float would serialize as true or 2.0
        with pytest.raises(ValidationError, match="the definition number must be an integer"):
            DefinitionCheck(definition=definition, verdict="x", evidence={"a": 1})

    @pytest.mark.parametrize("state_id", [None, 5, b"bell"])
    def test_state_id_must_be_a_string(self, state_id):
        # None would reach the report's JSON as "state_id": null
        with pytest.raises(ValidationError, match="the state id must be a str"):
            classify_state(bell_state("phi+"), state_id=state_id)

    def test_evidence_required(self):
        with pytest.raises(ValidationError):
            DefinitionCheck(definition=1, verdict="x", evidence={})
