import math

import numpy as np
import pytest
from conftest import rand_product_state, rand_state

from entkit import (
    LocalUnitary,
    SchmidtDecomposition,
    StateVector,
    ValidationError,
    apply_local_unitary,
    bell_state,
    bipartite_determinant,
    classify_state,
    det_squared,
    ghz_state,
    is_entangled_bipartite,
    is_product_multipartite,
    make_state,
    schmidt_decompose,
    w_state,
)
from entkit.sampling import haar_unitary, random_su2, trial_rng
from entkit.schmidt import bipartition_matrix

R2 = 1.0 / math.sqrt(2.0)


class TestDecomposition:
    def test_bell_lambdas(self):
        dec = schmidt_decompose(bell_state("phi+"), (0,))
        assert dec.rank == 2
        np.testing.assert_allclose(dec.lambdas, [R2, R2], atol=1e-12)

    def test_product_rank_one(self):
        dec = schmidt_decompose(make_state([2, 2], {(0, 0): 1.0}), (0,))
        assert dec.rank == 1
        np.testing.assert_allclose(dec.lambdas[:1], [1.0], atol=1e-12)

    def test_ghz_both_cuts_rank_two(self):
        s = ghz_state(3)
        assert schmidt_decompose(s, (0,)).rank == 2
        assert schmidt_decompose(s, (0, 1)).rank == 2

    def test_lambdas_sorted_and_normalized(self, rng):
        for _ in range(20):
            dec = schmidt_decompose(rand_state(rng, (3, 4)), (0,))
            lam = dec.lambdas
            assert np.all(np.diff(lam) <= 1e-15)
            assert np.sum(lam**2) == pytest.approx(1.0, abs=1e-10)

    def test_reconstruction_matches_bipartition(self, rng):
        for dims, cut in [((2, 3), (0,)), ((2, 3, 4), (1,)), ((2, 2, 3, 2), (0, 2))]:
            s = rand_state(rng, dims)
            dec = schmidt_decompose(s, cut)
            mat, _ = bipartition_matrix(s, cut)
            np.testing.assert_allclose(dec.reconstruct(), mat, atol=1e-10)

    def test_tiny_singular_value_below_tolerance(self):
        eps = 1e-12
        s = make_state([2, 2], {(0, 0): 1.0, (1, 1): eps})
        assert schmidt_decompose(s, (0,)).rank == 1
        assert schmidt_decompose(s, (0,), tolerance=1e-14).rank == 2

    # floats, strings and bools used to be truncated or parsed into a party
    # index, and a scalar cut raised TypeError
    @pytest.mark.parametrize(
        "cut", [(), (0, 1), (2,), (0, 0), (0.7,), ("1",), (True,), (False,), 0, "0"]
    )
    def test_invalid_cuts(self, cut):
        with pytest.raises(ValidationError):
            schmidt_decompose(bell_state("phi+"), cut)

    def test_numpy_integer_cuts_accepted(self):
        s = ghz_state(3)
        assert schmidt_decompose(s, (np.int64(2), np.uint8(0))).cut == (0, 2)
        assert schmidt_decompose(s, np.array([1])).cut == (1,)

    def test_invalid_tolerance(self):
        with pytest.raises(ValidationError):
            schmidt_decompose(bell_state("phi+"), (0,), tolerance=0.0)

    def test_cut_order_irrelevant(self, rng):
        s = rand_state(rng, (2, 2, 3))
        a = schmidt_decompose(s, (0, 1))
        b = schmidt_decompose(s, (1, 0))
        np.testing.assert_allclose(a.lambdas, b.lambdas, atol=1e-12)


def _state_with_spectrum(rng, n_left, n_right, lambdas):
    """Qubit state whose cut (0, ..., n_left - 1) has Schmidt coefficients ``lambdas``."""
    d_left, d_right, r = 2**n_left, 2**n_right, len(lambdas)

    def isometry(d):
        g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        return np.linalg.qr(g)[0]

    m = (isometry(d_left) * lambdas) @ isometry(d_right).T
    return StateVector((2,) * (n_left + n_right), m.reshape(-1))


class TestSpectrumRoute:
    """Coefficients from the R factor; bases computed when first read."""

    # (qubits on the left, qubits on the right): wide, tall, 4 x 256, square
    SHAPES = [(1, 10), (10, 1), (2, 8), (5, 5)]

    @staticmethod
    def _spectrum(r):
        lam = np.logspace(0, -8, r)  # every coefficient above the 1e-9 cutoff
        return lam / np.linalg.norm(lam)

    @pytest.mark.parametrize("n_left, n_right", SHAPES)
    def test_constructed_spectra(self, rng, n_left, n_right):
        lam = self._spectrum(2 ** min(n_left, n_right))
        s = _state_with_spectrum(rng, n_left, n_right, lam)
        dec = schmidt_decompose(s, range(n_left))
        assert dec.rank == lam.size
        np.testing.assert_allclose(dec.lambdas, lam, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n_left, n_right", SHAPES)
    def test_bases_read_after_the_fact(self, rng, n_left, n_right):
        s = _state_with_spectrum(rng, n_left, n_right, self._spectrum(2 ** min(n_left, n_right)))
        dec = schmidt_decompose(s, range(n_left))
        u, v = dec.left_basis, dec.right_basis
        assert u.shape == (dec.rank, 2**n_left) and v.shape == (dec.rank, 2**n_right)
        eye = np.eye(dec.rank)
        np.testing.assert_allclose(u.conj() @ u.T, eye, rtol=0, atol=1e-12)
        np.testing.assert_allclose(v.conj() @ v.T, eye, rtol=0, atol=1e-12)
        mat, _ = bipartition_matrix(s, range(n_left))
        np.testing.assert_allclose(dec.reconstruct(), mat, rtol=0, atol=1e-12)
        assert dec.left_basis is u and not u.flags.writeable  # cached, read-only

    @pytest.mark.parametrize("n_left, n_right", [(1, 10), (10, 1)])
    @pytest.mark.parametrize("ratio, rank", [(5e-10, 1), (2e-9, 2)])
    def test_rank_at_the_cutoff(self, rng, n_left, n_right, ratio, rank):
        lam = np.array([1.0, ratio]) / math.hypot(1.0, ratio)
        s = _state_with_spectrum(rng, n_left, n_right, lam)
        assert schmidt_decompose(s, range(n_left)).rank == rank

    def test_classify_reports_the_decomposition_lambdas(self, rng):
        s = rand_state(rng, (2, 3, 2, 2))
        coeffs = classify_state(s).checks[1].evidence["schmidt_coefficients"]
        for k in range(s.n_parties):
            want = [float(v) for v in schmidt_decompose(s, (k,)).lambdas]
            assert coeffs[f"cut_{k}"] == want

    def test_classify_computes_no_bases(self, rng, monkeypatch):
        # forming the 2^11-long singular vectors per cut is what made
        # classify slow; it needs only the coefficients
        def refuse(self):
            raise AssertionError("classify_state read the Schmidt bases")

        monkeypatch.setattr(SchmidtDecomposition, "_bases", property(refuse))
        s = rand_state(rng, (2,) * 12)
        with pytest.raises(AssertionError):
            schmidt_decompose(s, (0,)).left_basis
        assert classify_state(s).checks[1].verdict == "entangled"


class TestPredicates:
    def test_entangled_bipartite(self):
        assert is_entangled_bipartite(bell_state("phi+"), (0,))
        assert not is_entangled_bipartite(make_state([2, 2], {(0, 1): 1.0}), (0,))

    def test_plus_minus_product(self):
        s = make_state(
            [2, 2], {(0, 0): 0.5, (0, 1): -0.5, (1, 0): 0.5, (1, 1): -0.5}
        )
        assert not is_entangled_bipartite(s, (0,))

    def test_product_multipartite(self, rng):
        assert is_product_multipartite(make_state([2, 2, 2], {(0, 1, 0): 1.0}))
        assert not is_product_multipartite(ghz_state(3))
        assert not is_product_multipartite(w_state())
        for _ in range(10):
            assert is_product_multipartite(rand_product_state(rng, (2, 3, 2)))

    def test_partially_product(self):
        # Bell pair on parties 0,1 with a spectator qubit
        s = make_state([2, 2, 2], {(0, 0, 0): 1.0, (1, 1, 0): 1.0})
        assert not is_product_multipartite(s)


class TestDeterminant:
    def test_phi_plus(self):
        assert bipartite_determinant(bell_state("phi+")) == pytest.approx(0.5, abs=1e-12)
        assert bipartite_determinant(bell_state("phi+"), rescale=True) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_product_zero(self):
        assert bipartite_determinant(make_state([2, 2], {(0, 0): 1.0})) == 0

    def test_squares_of_phi_minus_psi_minus_agree(self):
        a = det_squared(bell_state("phi-"))
        b = det_squared(bell_state("psi-"))
        assert a == pytest.approx(b, abs=1e-12)
        assert a == pytest.approx(0.25, abs=1e-12)

    def test_wrong_dims(self):
        with pytest.raises(ValidationError):
            bipartite_determinant(ghz_state(3))

    def test_su2_invariance(self, rng):
        s = rand_state(rng, (2, 2))
        base = bipartite_determinant(s)
        for t in range(25):
            g = trial_rng(99, t)
            u = LocalUnitary(factors=(random_su2(g), random_su2(g)))
            moved = bipartite_determinant(apply_local_unitary(s, u))
            assert moved == pytest.approx(base, abs=1e-9)

    def test_u2_preserves_modulus(self, rng):
        s = rand_state(rng, (2, 2))
        base = abs(bipartite_determinant(s))
        for t in range(25):
            g = trial_rng(7, t)
            u = LocalUnitary(factors=(haar_unitary(2, g), haar_unitary(2, g)))
            moved = abs(bipartite_determinant(apply_local_unitary(s, u)))
            assert moved == pytest.approx(base, abs=1e-9)
