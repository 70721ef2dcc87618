import pytest
from conftest import rand_state

import entkit.classify

from entkit import (
    DefinitionCheck,
    ValidationError,
    bell_state,
    classify_state,
    ghz_state,
    make_state,
    w_state,
)
from entkit.majorana import coherent_state, dicke_state


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


class TestOnePass:
    """Definitions 1-3 share one Schmidt decomposition per single-party cut."""

    @staticmethod
    def count_calls(monkeypatch, state):
        calls = {"schmidt_decompose": 0, "cayley_hyperdeterminant": 0}
        for name in calls:
            fn = getattr(entkit.classify, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(entkit.classify, name, counted)
        classify_state(state)
        return calls

    def test_ghz3(self, monkeypatch):
        calls = self.count_calls(monkeypatch, ghz_state(3))
        assert calls == {"schmidt_decompose": 3, "cayley_hyperdeterminant": 1}

    def test_product3(self, monkeypatch):
        calls = self.count_calls(monkeypatch, make_state([2, 2, 2], {(0, 0, 0): 1.0}))
        assert calls == {"schmidt_decompose": 3, "cayley_hyperdeterminant": 1}

    def test_two_qutrit(self, monkeypatch, rng):
        calls = self.count_calls(monkeypatch, rand_state(rng, (3, 3)))
        assert calls == {"schmidt_decompose": 2, "cayley_hyperdeterminant": 0}


class TestCrossDefinition:
    """A warning appears when Definitions 1 and 4 disagree (the goldens pin its absence)."""

    @pytest.mark.parametrize(
        "state,verdict",
        [(ghz_state(3), "level-1"), (dicke_state(coherent_state((1.0, 2.0), 3)), "level-2")],
    )
    def test_disagreement_warns(self, monkeypatch, state, verdict):
        check = DefinitionCheck(definition=4, verdict=verdict, evidence={"partition": []})
        monkeypatch.setattr(entkit.classify, "_definition_4", lambda state, tolerance: check)
        rep = classify_state(state)
        assert sum("definitions disagree" in w for w in rep.warnings) == 1


class TestCheckType:
    def test_definition_range(self):
        with pytest.raises(ValidationError):
            DefinitionCheck(definition=5, verdict="x", evidence={"a": 1})

    def test_evidence_required(self):
        with pytest.raises(ValidationError):
            DefinitionCheck(definition=1, verdict="x", evidence={})
