import json
import math
import warnings

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
    read_state,
    schmidt_decompose,
    w_state,
    write_state,
)
from entkit.cli import main
from entkit.sampling import haar_unitary, named_invariant, random_su2, trial_rng
from entkit.schmidt import _singular_values, bipartition_matrix

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


def _isometry(rng, d, r):
    """``d x r`` matrix with orthonormal columns, from the QR of a Gaussian draw."""
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    return np.linalg.qr(g)[0]


def _matrix_with_spectrum(rng, d_left, d_right, lambdas):
    """``d_left x d_right`` matrix whose singular values are ``lambdas``."""
    r = len(lambdas)
    return (_isometry(rng, d_left, r) * lambdas) @ _isometry(rng, d_right, r).T


def _state_with_spectrum(rng, n_left, n_right, lambdas):
    """Qubit state whose cut (0, ..., n_left - 1) has Schmidt coefficients ``lambdas``."""
    m = _matrix_with_spectrum(rng, 2**n_left, 2**n_right, lambdas)
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


def _blocked_svd(m):
    """Singular values of a two-row matrix ``m[2, L]``, ``L`` eight times a power of 4.

    The tall orientation is cut into blocks of eight rows, each block is
    replaced by the R factor of its QR until eight rows are left, and
    those go to ``np.linalg.svd``.  Every sum then runs over a few terms:
    ``np.linalg.svd`` of a whole 2 x 32768 matrix is itself off by up to
    about 1.1e-14 sigma_1 against a long-double Gram-Schmidt, as much as
    the bound the two-row factor is held to.
    """
    t = m.T
    while len(t) > 8:
        t = np.linalg.qr(t.reshape(-1, 8, 2), mode="r").reshape(-1, 2)
    return np.linalg.svd(t, compute_uv=False)


class TestTwoRowFactor:
    """Cuts with a short side of 2 take R from one Gram-Schmidt step on the two rows."""

    @pytest.mark.parametrize("length", [8, 512, 32768])
    @pytest.mark.parametrize("ratio", [1.0, 0.5, 1e-4, 1e-8, 1e-12, 1e-15, 0.0])
    def test_matches_svd_oracle(self, rng, length, ratio):
        lam = np.array([1.0, ratio]) / math.hypot(1.0, ratio)
        for scale in (1.0, 1e-12, 1e-300):
            m = _matrix_with_spectrum(rng, 2, length, lam)
            m[0] *= scale
            want = _blocked_svd(m)
            for got in (_singular_values(m), _singular_values(m.T)):
                assert np.max(np.abs(got - want)) <= 1e-14 * want[0], (scale, got, want)

    def test_stack_equals_its_members_bit_for_bit(self, rng):
        length = 64
        members = [_matrix_with_spectrum(rng, 2, length, [0.8, 0.6]) for _ in range(3)]
        members[1][0] *= 1e-300  # a first row whose squared norm underflows
        members[2][1] = 0.0
        members.append(np.zeros((2, length), complex))
        members.append(np.outer([1.0, 1e-320], np.ones(length, complex)) / math.sqrt(length))
        rank_one_plus_tiny = np.zeros((2, length), complex)
        rank_one_plus_tiny[0, 0], rank_one_plus_tiny[1, 1] = 1.0, 1e-200
        members.append(rank_one_plus_tiny)
        stack = np.stack(members)
        got = _singular_values(stack)
        assert got.shape == (len(members), 2)
        for k, m in enumerate(members):
            assert np.array_equal(got[k], _singular_values(m)), k
        assert np.array_equal(got[3], [0.0, 0.0])
        assert np.array_equal(got[5], [1.0, 1e-200])

    def test_check_invariance_trials_replay(self, rng, tmp_path, capsys):
        # cut (0,) of this three-qubit state has sigma_2 / sigma_1 = 1e-9, on
        # the rank cutoff, so rounding decides each trial's rank and the
        # engine's (trials, 2, 4) stack must round as one state does
        lam = np.array([1.0, 1e-9]) / math.hypot(1.0, 1e-9)
        path = tmp_path / "edge.json"
        write_state(_state_with_spectrum(rng, 1, 2, lam), path)
        argv = ["check-invariance", str(path), "--invariant", "schmidt-rank",
                "--trials", "40", "--seed", "3", "--json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        state = read_state(path).state
        _, rank = named_invariant("schmidt-rank")
        drifts = []
        for t in range(40):
            draw = trial_rng(3, t)
            lu = LocalUnitary(tuple(random_su2(draw) for _ in range(3)))
            drifts.append(abs(rank(apply_local_unitary(state, lu)) - rank(state)))
        assert 0 < np.mean(drifts) < 1  # some trials flip, some do not
        assert doc["max_abs_drift"] == max(drifts)
        assert doc["mean_abs_drift"] == np.mean(drifts)

    @pytest.mark.parametrize(
        "coefficient, rank", [(1e-170, 2), (1e-200, 2), (1e-310, 1), (1e-320, 1)]
    )
    @pytest.mark.parametrize("tiny_row", [0, 1])
    def test_tiny_coefficient(self, coefficient, rank, tiny_row):
        # squares of these coefficients underflow; dims (2, 4) keeps both
        # cuts off the square SVD
        entries = {(tiny_row, 1): coefficient, (1 - tiny_row, 0): 1.0}
        s = make_state((2, 4), entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decs = [schmidt_decompose(s, cut, tolerance=1e-300) for cut in ((0,), (1,))]
        for dec in decs:
            assert dec.rank == rank
            assert dec.lambdas[0] == 1.0
            if rank == 2:
                assert dec.lambdas[1] == coefficient


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

    def test_one_party(self):
        # a single party has no cut to decompose, and is trivially a product
        one = make_state([3], {(1,): 1.0})
        with pytest.raises(ValidationError, match="at least two parties"):
            schmidt_decompose(one, (0,))
        assert is_product_multipartite(one) is True

    def test_partially_product(self):
        # Bell pair on parties 0,1 with a spectator qubit
        s = make_state([2, 2, 2], {(0, 0, 0): 1.0, (1, 1, 0): 1.0})
        assert not is_product_multipartite(s)

    @pytest.mark.parametrize(
        "product,shapes", [(True, [(1, 2, 2), (10, 2, 2)]), (False, [(1, 2, 2)])],
        ids=["product", "haar"],
    )
    def test_product_check_reads_cuts_in_place(self, factor_calls, rng, product, shapes):
        # cut 0 alone, then every cut by one stacked SVD that shares one
        # reversed copy; no cut matrix is gathered
        state = (rand_product_state if product else rand_state)(rng, (2,) * 10)
        assert is_product_multipartite(state) == product
        assert factor_calls == ([], shapes)


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
