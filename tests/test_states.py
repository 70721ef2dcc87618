import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entkit import (
    LocalUnitary,
    StateVector,
    ValidationError,
    apply_local_unitary,
    bell_state,
    fidelity,
    ghz_state,
    inner_product,
    make_state,
    pauli,
    w_state,
)
from conftest import rand_state

import entkit.states
from entkit.majorana import DickeExpansion, coherent_state, dicke_state, find_stars
from entkit.states import make_state_raw

R2 = 1.0 / math.sqrt(2.0)


class TestConstructors:
    def test_bell_phi_plus(self):
        s = bell_state("phi+")
        assert s.dims == (2, 2)
        assert s.amplitude((0, 0)) == pytest.approx(R2)
        assert s.amplitude((1, 1)) == pytest.approx(R2)
        assert s.amplitude((0, 1)) == 0
        assert s.amplitude((1, 0)) == 0

    def test_bell_signs(self):
        assert bell_state("phi-").amplitude((1, 1)) == pytest.approx(-R2)
        assert bell_state("psi+").amplitude((0, 1)) == pytest.approx(R2)
        assert bell_state("psi+").amplitude((1, 0)) == pytest.approx(R2)
        assert bell_state("psi-").amplitude((1, 0)) == pytest.approx(-R2)

    def test_bell_unknown_kind(self):
        with pytest.raises(ValidationError):
            bell_state("sigma+")

    def test_ghz(self):
        s = ghz_state(4)
        assert s.dims == (2, 2, 2, 2)
        assert s.amplitude((0, 0, 0, 0)) == pytest.approx(R2)
        assert s.amplitude((1, 1, 1, 1)) == pytest.approx(R2)
        assert abs(s.amplitude((0, 1, 0, 0))) == 0

    def test_ghz_two_parties_is_bell(self):
        np.testing.assert_allclose(
            ghz_state(2).amplitudes, bell_state("phi+").amplitudes, atol=1e-15
        )

    def test_ghz_needs_two_parties(self):
        with pytest.raises(ValidationError):
            ghz_state(1)

    def test_w(self):
        s = w_state()
        third = 1.0 / math.sqrt(3.0)
        for idx in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            assert s.amplitude(idx) == pytest.approx(third)
        assert s.amplitude((1, 1, 1)) == 0

    def test_make_state_normalizes(self):
        s = make_state([2, 2], {(0, 0): 3.0, (1, 1): 4.0})
        assert s.norm() == pytest.approx(1.0)
        assert s.amplitude((0, 0)) == pytest.approx(0.6)

    def test_make_state_raw_reports_norm(self):
        arr, norm = make_state_raw([2, 2], {(0, 0): 3.0, (1, 1): 4.0})
        assert norm == pytest.approx(5.0)
        assert arr[0] == 3.0

    def test_extreme_finite_amplitudes_normalize(self):
        for scale in (1e308, 1e-320):
            arr, norm = make_state_raw([2, 2], {(0, 0): scale, (1, 1): scale})
            assert norm == pytest.approx(math.sqrt(2.0) * scale, rel=1e-3)
            s = make_state([2, 2], {(0, 0): scale, (1, 1): scale})
            assert s.norm() == pytest.approx(1.0, abs=1e-15)
            assert s.amplitude((1, 1)) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_rejects_zero_state(self):
        with pytest.raises(ValidationError):
            make_state([2, 2], {(0, 0): 0.0})

    def test_rejects_bad_index(self):
        with pytest.raises(ValidationError):
            make_state([2, 2], {(0, 2): 1.0})
        with pytest.raises(ValidationError):
            make_state([2, 2], {(0, 0, 0): 1.0})

    @pytest.mark.parametrize("build", [make_state, make_state_raw])
    def test_rejects_repeated_index(self, build):
        # the later pair used to overwrite the earlier one without a word
        with pytest.raises(ValidationError, match=r"\[0\] is listed twice"):
            build((2,), [((0,), 1), ((0,), 5), ((1,), 1)])
        with pytest.raises(ValidationError, match="listed twice"):
            build([2, 2], [((0, 1), 1.0), (np.array([0, 1]), 2.0)])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            make_state([2, 2], {(0, 0): float("nan")})

    def test_rejects_small_dims(self):
        with pytest.raises(ValidationError):
            make_state([2, 1], {(0, 0): 1.0})

    def test_size_cap_checked_before_allocation(self, monkeypatch):
        monkeypatch.setattr(entkit.states, "MAX_ENTRIES", 2**10)
        with pytest.raises(ValidationError, match="storage cap"):
            make_state_raw((2,) * 12, {(0,) * 12: 1.0})
        with pytest.raises(ValidationError, match="storage cap"):
            dicke_state(coherent_state((0.4, 1.0), 12))
        assert make_state_raw((2,) * 10, {(0,) * 10: 1.0})[1] == 1.0
        assert dicke_state(coherent_state((0.4, 1.0), 10)).dims == (2,) * 10

    @pytest.mark.parametrize("build", [make_state, make_state_raw])
    def test_size_cap_message_for_a_huge_size(self, build):
        # the decimal form of 2**15000 is longer than int-to-str allows
        with pytest.raises(ValidationError, match=r"at least 2\*\*15000 amplitudes"):
            build((2,) * 15000, {(0,) * 15000: 1.0})

    @pytest.mark.parametrize("n", [25, 100000, 10**20])
    def test_qubit_count_checked_before_building(self, n):
        # 2**n is never formed: at n = 100000 its decimal form is too long to print
        with pytest.raises(ValidationError, match="storage cap"):
            ghz_state(n)

    def test_dicke_qubit_count_checked_before_building(self):
        c = np.zeros(100001)
        c[0] = 1.0
        with pytest.raises(ValidationError, match="storage cap"):
            dicke_state(DickeExpansion(100000, c))

    @pytest.mark.parametrize("entries", [[(0, 1.0)], [((0.5,), 1.0)], [("a", 1.0)]])
    def test_rejects_index_that_is_not_integers(self, entries):
        with pytest.raises(ValidationError, match="not a sequence of integers"):
            make_state((2,), entries)


class TestStateVector:
    def test_amplitudes_read_only(self):
        s = bell_state("phi+")
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_tensor_shape(self):
        s = ghz_state(3)
        assert s.tensor().shape == (2, 2, 2)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            StateVector((2,), np.array([np.inf, 0.0]))

    def test_strided_amplitudes_accepted(self):
        s = StateVector((2,), np.array([1, 0, 0, 0], dtype=complex)[::2])
        assert s.amplitudes.tolist() == [1, 0]

    @pytest.mark.parametrize("amps", [[3, 0, 0, 0], [0, 0, 0, 0], [1, 1e-4, 0, 0]])
    def test_non_unit_norm_rejected(self, amps):
        with pytest.raises(ValidationError, match="norm"):
            StateVector((2, 2), np.array(amps, dtype=complex))


# each call takes one integer parameter v = 2; floats used to be truncated
# (dims (2, 2) from 2.7, three qubits from ghz_state(3.9)) or to fail with a
# bare TypeError further in (coherent_state, find_stars after DickeExpansion)
INTEGER_PARAMETERS = {
    "make_state dims": lambda v: make_state([v, 2], {(0, 0): 1.0}),
    "StateVector dims": lambda v: StateVector((v, 2), np.array([1, 0, 0, 0], dtype=complex)),
    "make_state_raw dims": lambda v: make_state_raw((2, v), {(1, 1): 1.0}),
    "ghz_state n": lambda v: ghz_state(v),
    "DickeExpansion n": lambda v: DickeExpansion(v, np.array([1, 0, 0], dtype=complex)),
    "coherent_state n": lambda v: coherent_state((0.3, 0.2), v),
    "find_stars n": lambda v: find_stars([1.0, 0.0, 1.0], v),
}


@pytest.mark.parametrize("bad", [2.0, 2.7, 3.9, "2", True, None])
@pytest.mark.parametrize("call", INTEGER_PARAMETERS.values(), ids=INTEGER_PARAMETERS.keys())
def test_integer_parameters_reject_non_integers(call, bad):
    with pytest.raises(ValidationError, match="must be an integer"):
        call(bad)
    for v in (2, np.int64(2), np.uint8(2)):
        call(v)


class TestLocalUnitary:
    def test_pauli_x_on_phi_plus_gives_psi_plus(self):
        u = LocalUnitary(factors=(pauli("X"), np.eye(2)))
        out = apply_local_unitary(bell_state("phi+"), u)
        assert fidelity(out, bell_state("psi+")) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            LocalUnitary(factors=(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2)))

    def test_dims_mismatch(self):
        u = LocalUnitary(factors=(np.eye(2), np.eye(3)))
        with pytest.raises(ValidationError):
            apply_local_unitary(bell_state("phi+"), u)

    def test_preserves_norm_and_overlaps(self, rng):
        a = rand_state(rng, (3, 2, 2))
        b = rand_state(rng, (3, 2, 2))
        theta = 0.4
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        f3 = np.diag(np.exp(1j * np.array([0.1, 0.7, -0.3])))
        u = LocalUnitary(factors=(f3, rot, pauli("Y")))
        ua, ub = apply_local_unitary(a, u), apply_local_unitary(b, u)
        assert ua.norm() == pytest.approx(1.0, abs=1e-12)
        assert inner_product(ua, ub) == pytest.approx(inner_product(a, b), abs=1e-12)


class TestInnerProduct:
    def test_orthonormal_bells(self):
        kinds = ["phi+", "phi-", "psi+", "psi-"]
        for i, a in enumerate(kinds):
            for j, b in enumerate(kinds):
                want = 1.0 if i == j else 0.0
                got = inner_product(bell_state(a), bell_state(b))
                assert got == pytest.approx(want, abs=1e-12)

    def test_conjugates_first_argument(self):
        a = make_state([2], {(0,): 1.0})
        b = make_state([2], {(0,): 1j})
        assert inner_product(a, b) == pytest.approx(1j)

    def test_dims_mismatch(self):
        with pytest.raises(ValidationError):
            inner_product(bell_state("phi+"), ghz_state(3))

    def test_pauli_names(self):
        for name, trace in [("I", 2), ("X", 0), ("Y", 0), ("Z", 0)]:
            assert np.trace(pauli(name)) == pytest.approx(trace)
        np.testing.assert_allclose(pauli("X") @ pauli("X"), np.eye(2), atol=1e-15)
        with pytest.raises(ValidationError):
            pauli("Q")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_states_are_normalized(seed):
    s = rand_state(np.random.default_rng(seed), (2, 3))
    assert s.norm() == pytest.approx(1.0, abs=1e-12)
    assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)
