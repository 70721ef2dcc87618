import itertools
import math

import numpy as np
import pytest
from conftest import rand_product_state, rand_state

from entkit import (
    LocalUnitary,
    StateVector,
    ThreeQubitClass,
    ValidationError,
    apply_local_unitary,
    cayley_hyperdeterminant,
    classify_three_qubit,
    ghz_state,
    make_state,
    pauli,
    w_state,
)
from entkit.sampling import random_su2, trial_rng


def pencil_oracle(state: StateVector) -> complex:
    """Hyperdeterminant as the discriminant of the matrix pencil.

    det(A0 + x A1) of the two slices along the first party is the
    quadratic c2 x^2 + c1 x + c0; the hyperdeterminant equals its
    discriminant c1^2 - 4 c2 c0.  The library evaluates the same
    identity, so this oracle checks only how it is evaluated: here the
    determinants come from ``np.linalg.det`` and the mixed coefficient
    from det(A0 + A1) - c0 - c2.  :func:`ckw_oracle` does not use the
    identity.
    """
    t = state.tensor()
    a0, a1 = t[0], t[1]
    c0 = complex(np.linalg.det(a0))
    c2 = complex(np.linalg.det(a1))
    c1 = complex(np.linalg.det(a0 + a1)) - c0 - c2
    return c1 * c1 - 4.0 * c2 * c0


def concurrence(rho: np.ndarray) -> float:
    """Wootters' concurrence of a two-qubit density matrix.

    max(0, l1 - l2 - l3 - l4) over the square roots l1 >= ... >= l4 of
    the eigenvalues of rho (Y x Y) rho* (Y x Y).
    """
    yy = np.kron(pauli("Y"), pauli("Y"))
    ev = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy).real
    lam = np.sort(np.sqrt(np.clip(ev, 0.0, None)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def ckw_oracle(state: StateVector) -> float:
    """4 |Det| from the Coffman-Kundu-Wootters identity.

    The three-tangle 4 |Det| equals 4 det rho_A - C(rho_AB)^2 - C(rho_AC)^2
    (Coffman, Kundu and Wootters 2000), with the reduced density
    matrices of the normalized state and C Wootters' concurrence.
    """
    t = state.tensor()
    rho_a = np.einsum("ijk,ljk->il", t, t.conj())
    rho_ab = np.einsum("ijk,lmk->ijlm", t, t.conj()).reshape(4, 4)
    rho_ac = np.einsum("ijk,ljm->iklm", t, t.conj()).reshape(4, 4)
    tangle_a = 4.0 * np.linalg.det(rho_a).real
    return tangle_a - concurrence(rho_ab) ** 2 - concurrence(rho_ac) ** 2


class TestValues:
    def test_ghz_quarter(self):
        assert cayley_hyperdeterminant(ghz_state(3)) == pytest.approx(0.25, abs=1e-12)

    def test_w_zero(self):
        assert cayley_hyperdeterminant(w_state()) == pytest.approx(0.0, abs=1e-12)

    def test_products_zero(self, rng):
        for _ in range(20):
            s = rand_product_state(rng, (2, 2, 2))
            assert abs(cayley_hyperdeterminant(s)) < 1e-12

    def test_wrong_dims(self):
        with pytest.raises(ValidationError):
            cayley_hyperdeterminant(ghz_state(4))


class TestOracle:
    def test_agrees_with_pencil_discriminant(self, rng):
        worst = 0.0
        for _ in range(300):
            s = rand_state(rng, (2, 2, 2))
            worst = max(worst, abs(cayley_hyperdeterminant(s) - pencil_oracle(s)))
        assert worst < 1e-12

    def test_agrees_with_ckw_three_tangle(self, rng):
        # square roots of the near-zero eigenvalues in the concurrence limit the accuracy
        states = [ghz_state(3), w_state()] + [rand_state(rng, (2, 2, 2)) for _ in range(300)]
        worst = max(abs(4.0 * abs(cayley_hyperdeterminant(s)) - ckw_oracle(s)) for s in states)
        assert worst < 1e-6

    def test_permutation_of_parties_preserves_modulus(self, rng):
        s = rand_state(rng, (2, 2, 2))
        base = abs(cayley_hyperdeterminant(s))
        t = s.tensor()
        for perm in itertools.permutations(range(3)):
            p = StateVector((2, 2, 2), np.transpose(t, perm).reshape(-1))
            assert abs(cayley_hyperdeterminant(p)) == pytest.approx(base, abs=1e-12)

    def test_su2_cubed_invariance(self, rng):
        s = rand_state(rng, (2, 2, 2))
        base = cayley_hyperdeterminant(s)
        for t in range(25):
            g = trial_rng(17, t)
            u = LocalUnitary(factors=(random_su2(g), random_su2(g), random_su2(g)))
            moved = cayley_hyperdeterminant(apply_local_unitary(s, u))
            assert moved == pytest.approx(base, abs=1e-9)


class TestClassification:
    def test_ghz_class(self):
        assert classify_three_qubit(ghz_state(3)) is ThreeQubitClass.GHZ
        assert ThreeQubitClass.GHZ.value == "GHZClass"

    def test_w_and_products_degenerate(self, rng):
        assert classify_three_qubit(w_state()) is ThreeQubitClass.DEGENERATE
        assert ThreeQubitClass.DEGENERATE.value == "DegenerateClass"
        assert (
            classify_three_qubit(rand_product_state(rng, (2, 2, 2)))
            is ThreeQubitClass.DEGENERATE
        )

    def test_tolerance_boundary(self):
        # amplitudes (1, eps) on 000/111 give Det = eps^2 / (1 + eps^2)^2
        eps = math.sqrt(2e-10)
        s = make_state([2, 2, 2], {(0, 0, 0): 1.0, (1, 1, 1): eps})
        assert classify_three_qubit(s) is ThreeQubitClass.GHZ
        assert classify_three_qubit(s, tolerance=1e-9) is ThreeQubitClass.DEGENERATE

    def test_wrong_dims(self):
        with pytest.raises(ValidationError):
            classify_three_qubit(make_state([2, 2], {(0, 0): 1.0}))
