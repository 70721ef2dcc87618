import math

import numpy as np
import pytest
from conftest import rand_product_state, rand_state
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entkit.sampling as sampling
import entkit.states
from entkit import (
    InvarianceReport,
    LocalUnitary,
    NormalFormCoefficients,
    NumericError,
    StateVector,
    ValidationError,
    apply_local_unitary,
    bell_state,
    bipartite_determinant,
    build_normal_form_state,
    ghz_state,
    haar_unitary,
    invariance_suite,
    make_state,
    random_su2,
    random_sud,
    schmidt_decompose,
    trial_rng,
)
from entkit.sampling import named_invariant

#: largest local dimension the trial-vectorized kernels serve
SMALL_D = sampling._SMALL_D

#: (dims, group token) pairs the stacked draws are checked on; the last two
#: put a party on each side of the kernels' dimension cut
DIMS_GROUPS = [
    ((2, 2), "su"), ((2, 2), "u"), ((2, 2), "su2"),
    ((2, 2, 2), "su"), ((2, 2, 2), "u"), ((2, 2, 2), "su2"),
    ((4, 4), "su"), ((4, 4), "u"),
    ((3, 3, 3), "su"), ((3, 3, 3), "u"), ((3, 3, 3), "u3"),
    ((2, SMALL_D + 2), "u"), ((SMALL_D + 1, 2), "su"),
]

#: the benchmark's five state/invariant/group cases
REFERENCE_CASES = [
    (ghz_state(3), "hyperdet3q", "su"),
    (bell_state("psi-"), "det", "su"),
    (rand_state(np.random.default_rng(3), (4, 4)), "schmidt-rank", "u"),
    (build_normal_form_state(NormalFormCoefficients(2, 1, 1)), "norm", "su"),
    (ghz_state(3), "amp00", "su"),
]

#: state/invariant/group cases with a party above the kernels' dimension cut
ABOVE_CUT_CASES = [
    (rand_state(np.random.default_rng(4), (2, SMALL_D + 2)), "schmidt-rank", "u"),
    (rand_state(np.random.default_rng(5), (SMALL_D + 1, 2)), "norm", "su"),
]


def schmidt_rank(state: StateVector) -> int:
    return schmidt_decompose(state, (0,)).rank


#: (dims, group, invariant, the same invariant as a custom callable)
CUSTOM_CASES = [((2, 2), g, "det", bipartite_determinant) for g in ("su", "u", "su2")] + [
    ((2, SMALL_D + 2), "u", "schmidt-rank", schmidt_rank),
    ((SMALL_D + 1, 2), "su", "schmidt-rank", schmidt_rank),
]


def single_draw(token: str, d: int, rng) -> np.ndarray:
    """The public one-trial sampler a group token stands for, chosen by the token alone."""
    return random_sud(d, rng) if token.startswith("su") else haar_unitary(d, rng)


#: dims whose trials are replayed alone; each holds a qubit party, whose
#: "su" draw is the unit quaternion
REPLAY_DIMS = [(2, 2), (2, 3), (2, 3, 4), (5, 2), (2, 2, 2)]


class TestTrialRng:
    def test_deterministic(self):
        a = trial_rng(123, 5).standard_normal(8)
        b = trial_rng(123, 5).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_counters_disjoint(self):
        a = trial_rng(123, 0).standard_normal(8)
        b = trial_rng(123, 1).standard_normal(8)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_seeds_disjoint(self):
        a = trial_rng(1, 0).standard_normal(8)
        b = trial_rng(2, 0).standard_normal(8)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_negative_counter_rejected(self):
        with pytest.raises(ValidationError):
            trial_rng(0, -1)

    @pytest.mark.parametrize("seed,counter", [(-1, 0), (2**64, 0), (0, 2**64)])
    def test_out_of_range_rejected(self, seed, counter):
        with pytest.raises(ValidationError):
            trial_rng(seed, counter)

    def test_top_of_range_accepted(self):
        a = trial_rng(2**64 - 1, 2**64 - 1).standard_normal(8)
        assert np.all(np.isfinite(a))

    @pytest.mark.parametrize(
        "seed,counter", [(1.7, 0), (2.0, 0), (0, 1.0), (np.float64(3.0), 0)]
    )
    def test_float_rejected_not_truncated(self, seed, counter):
        with pytest.raises(ValidationError, match="must be an integer"):
            trial_rng(seed, counter)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.uint8(7)])
    def test_integer_types_accepted(self, seed):
        a = trial_rng(seed, np.int32(2)).standard_normal(8)
        np.testing.assert_array_equal(a, trial_rng(int(seed), 2).standard_normal(8))

    @pytest.mark.parametrize("seed,counter", [(True, 0), (0, False)])
    def test_bool_rejected(self, seed, counter):
        with pytest.raises(ValidationError, match="must be an integer"):
            trial_rng(seed, counter)


class TestRandomSu2:
    def test_unitary_det_one(self):
        for t in range(50):
            u = random_su2(trial_rng(5, t))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
            assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)

    def test_trace_moment(self):
        # Haar: E |tr U|^2 = 1
        acc = 0.0
        for t in range(10_000):
            acc += abs(np.trace(random_su2(trial_rng(11, t)))) ** 2
        assert acc / 10_000 == pytest.approx(1.0, abs=0.05)


class TestRandomSud:
    def test_unitary_det_one_d3(self):
        for t in range(25):
            u = random_sud(3, trial_rng(6, t))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
            assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-12)

    def test_d2_moments_agree_with_su2(self):
        m_qr = np.mean(
            [abs(np.trace(random_sud(2, trial_rng(21, t)))) ** 2 for t in range(4000)]
        )
        m_quat = np.mean(
            [abs(np.trace(random_su2(trial_rng(22, t)))) ** 2 for t in range(4000)]
        )
        assert m_qr == pytest.approx(m_quat, abs=0.15)

    def test_haar_unitary_is_unitary(self):
        u = haar_unitary(4, trial_rng(0, 0))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    def test_d_below_two_rejected(self):
        with pytest.raises(ValidationError):
            random_sud(1, trial_rng(0, 0))

    @pytest.mark.parametrize("sampler", [haar_unitary, random_sud])
    @pytest.mark.parametrize("d", [4097, 10**6])
    def test_d_beyond_dense_cap_rejected(self, sampler, d):
        # a d x d factor with d > 4096 has more than 2**24 entries; raised before any draw
        with pytest.raises(ValidationError, match=f"the dimension d must be <= 4096, got {d}"):
            sampler(d, trial_rng(0, 0))


class TestInvarianceSuite:
    def test_norm_invariant_trivially(self, rng):
        s = rand_state(rng, (2, 3, 2))
        rep = invariance_suite(s, "norm", "u", trials=40, seed=3)
        assert rep.max_abs_drift <= 1e-12

    def test_det_su2_pair(self):
        rep = invariance_suite(bell_state("phi+"), "det", "su", trials=100, seed=0)
        assert rep.max_abs_drift < 1e-9
        assert rep.invariant_name == "det"

    def test_hyperdet_su2_cubed(self):
        rep = invariance_suite(ghz_state(3), "hyperdet3q", "su", trials=100, seed=0)
        assert rep.max_abs_drift < 1e-9

    def test_negative_control_detects(self):
        rep = invariance_suite(bell_state("phi+"), "amp00", "su", trials=100, seed=0)
        assert rep.max_abs_drift > 0.01

    def test_reports_reproducible(self):
        a = invariance_suite(bell_state("phi+"), "det", "su", trials=30, seed=9)
        b = invariance_suite(bell_state("phi+"), "det", "su", trials=30, seed=9)
        assert a == b

    def test_custom_callable_and_label(self, rng):
        s = rand_state(rng, (3, 3))
        rep = invariance_suite(
            s, ("purity", lambda st: st.norm() ** 2), "u", trials=20, seed=1
        )
        assert rep.invariant_name == "purity"
        assert rep.max_abs_drift <= 1e-12

    def test_group_token_forms(self):
        s = bell_state("phi+")
        for group in ["su", "u", ("su2", "su2"), ("u2", "u2"), "su02", " U ", ("SU2", "u02")]:
            rep = invariance_suite(s, "norm", group, trials=5, seed=0)
            assert rep.trials == 5

    def test_group_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            invariance_suite(bell_state("phi+"), "norm", ("su3", "su2"), trials=5)
        with pytest.raises(ValidationError):
            invariance_suite(bell_state("phi+"), "norm", ("su2",), trials=5)
        with pytest.raises(ValidationError):
            invariance_suite(bell_state("phi+"), "norm", "sp2", trials=5)

    @pytest.mark.parametrize("digits", ["0", "9" * 5000], ids=["0", "9x5000"])
    def test_group_token_digits_compared_as_text(self, digits):
        # 5000 digits pass Python's int() limit of 4300
        with pytest.raises(ValidationError, match="does not match party dimension 2"):
            invariance_suite(bell_state("phi+"), "det", "su" + digits, trials=3)

    @pytest.mark.parametrize("group", ["su", ("su2", "u4097")])
    def test_party_beyond_dense_cap_rejected(self, group):
        # a 4097 x 4097 factor has more than 2**24 entries; raised before any draw
        state = make_state((2, 4097), {(0, 0): 1.0})
        with pytest.raises(ValidationError, match="dimension of party 1 must be <= 4096, got 4097"):
            invariance_suite(state, "norm", group, trials=3)

    def test_unknown_invariant_rejected(self):
        with pytest.raises(ValidationError):
            invariance_suite(bell_state("phi+"), "entropy", "su", trials=5)

    @pytest.mark.parametrize("seed", [1.7, 2.0])
    def test_float_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="must be an integer"):
            invariance_suite(bell_state("phi+"), "norm", trials=3, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        report = invariance_suite(bell_state("phi+"), "amp00", trials=3, seed=np.uint64(5))
        assert report == invariance_suite(bell_state("phi+"), "amp00", trials=3, seed=5)
        assert type(report.seed) is int

    def test_nan_drift_rejected(self):
        with pytest.raises(ValidationError, match="not finite"):
            invariance_suite(bell_state("phi+"), ("bad", lambda s: float("nan")), trials=3)

    @pytest.mark.parametrize(
        "value,message",
        [
            (None, "must be a number, got None"),
            ("x", "must be a number, got 'x'"),
            (np.ones(3), "must be a number, got array"),
            (float("inf"), "is not finite"),
        ],
        ids=["none", "str", "array", "inf"],
    )
    def test_custom_value_must_be_a_finite_number(self, value, message):
        # checked on the baseline, before any drift is formed
        with pytest.raises(ValidationError, match=f"the value of invariant f {message}"):
            invariance_suite(bell_state("phi+"), ("f", lambda s: value), trials=3)

    @pytest.mark.parametrize(
        "f",
        [
            lambda s: math.copysign(1e308, s.amplitudes[0].real),  # the difference overflows
            lambda s: 1e308 * s.amplitudes[0].real,  # each drift is finite, their mean is not
        ],
        ids=["drift", "mean"],
    )
    def test_overflowing_drift_is_numeric(self, f):
        # raised a bare RuntimeWarning, or without the warning filter gave inf
        with pytest.raises(NumericError, match="the drift of invariant h overflowed"):
            invariance_suite(bell_state("phi+"), ("h", f), trials=20, seed=1)

    def test_custom_trial_value_checked(self):
        values = iter([0.5, 0.5, None])
        with pytest.raises(ValidationError, match="invariant f must be a number, got None"):
            invariance_suite(bell_state("phi+"), ("f", lambda s: next(values)), trials=3)

    @pytest.mark.parametrize(
        "loose,named",
        [
            ({"trials": True}, "trials"),
            ({"trials": 2.0}, "trials"),
            ({"trials": "10"}, "trials"),
            ({"trials": None}, "trials"),
            ({"seed": True}, "seed"),
            ({"group": None}, "group"),
            ({"invariant": ("x",)}, "invariant"),
            ({"invariant": None}, "invariant"),
            ({"trials": np.int64(5)}, None),
        ],
        ids=lambda v: ",".join(f"{k}={x!r}" for k, x in v.items()) if isinstance(v, dict) else None,
    )
    def test_loose_arguments(self, loose, named):
        args = {"invariant": "hyperdet3q", "group": "su", "trials": 3, "seed": 1, **loose}
        if named is None:  # a numpy integer is an integer, and the report holds an int
            assert type(invariance_suite(ghz_state(3), **args).trials) is int
            return
        with pytest.raises(ValidationError, match=named):
            invariance_suite(ghz_state(3), **args)

    def test_trials_validated(self):
        with pytest.raises(ValidationError):
            invariance_suite(bell_state("phi+"), "norm", "su", trials=0)

    def test_trials_capped_before_allocation(self, monkeypatch):
        monkeypatch.setattr(entkit.states, "MAX_ENTRIES", 8)
        with pytest.raises(ValidationError, match="trials must be <= 8, got 9"):
            invariance_suite(bell_state("phi+"), "norm", "su", trials=9)
        assert invariance_suite(bell_state("phi+"), "norm", "su", trials=8).trials == 8

    def test_named_invariant_registry(self):
        label, fn = named_invariant("schmidt-rank")
        assert label == "schmidt-rank"
        assert fn(bell_state("phi+")) == 2.0

    def test_schmidt_rank_needs_two_parties(self):
        with pytest.raises(ValidationError, match="at least two parties"):
            invariance_suite(StateVector((2,), [1.0, 0.0]), "schmidt-rank", trials=3)


class TestStackedTrials:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(DIMS_GROUPS),
        st.one_of(st.sampled_from([2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        st.one_of(st.integers(0, 2**20), st.integers(0, 2**64 - 1)),
        st.integers(1, 40),
        st.integers(0, 2**31 - 1),
        st.booleans(),
    )
    @example(((2, 2, 2), "su"), 2**64 - 1, 2**64 - 1, 40, 0, False)
    @example(((3, 3, 3), "u"), 2**63, 2**64 - 1, 7, 1, True)
    @example(DIMS_GROUPS[-2], 5, 0, 9, 2, False)
    @example(DIMS_GROUPS[-1], 6, 2**64 - 1, 9, 3, True)
    def test_draws_and_row_values(self, dims_group, seed, start, trials, state_seed, product):
        start = min(start, 2**64 - trials)  # the last trial's counter stays below 2**64
        dims, token = dims_group
        maps = sampling._group_maps(StateVector(dims, np.eye(np.prod(dims))[0]), token)
        factors = sampling._draw_block(maps, seed, start, start + trials)
        for row in range(trials):
            rng = trial_rng(seed, start + row)
            for k, d in enumerate(dims):
                assert np.array_equal(factors[k][row], single_draw(token, d, rng))

        make = rand_product_state if product else rand_state
        state = make(np.random.default_rng(state_seed), dims)
        out = sampling._apply_block(state.tensor(), factors)
        rows = [StateVector(dims, t) for t in out]
        for row, r in enumerate(rows):
            lu = LocalUnitary(tuple(f[row] for f in factors))
            assert np.array_equal(r.amplitudes, apply_local_unitary(state, lu).amplitudes)
        names = ["norm", "amp00", "schmidt-rank"]
        names += {(2, 2): ["det"], (2, 2, 2): ["hyperdet3q"]}.get(dims, [])
        for name in names:
            got = sampling._REGISTRY[name](out)
            _, one = named_invariant(name)
            assert list(got) == [one(r) for r in rows]
            if name == "schmidt-rank":
                assert list(got) == [schmidt_decompose(r, (0,)).rank for r in rows]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 40), st.sampled_from(CUSTOM_CASES))
    @example(7, 12, CUSTOM_CASES[-2])
    @example(8, 13, CUSTOM_CASES[-1])
    def test_custom_callable_matches_registry(self, seed, trials, case):
        dims, group, name, fn = case
        state = rand_state(np.random.default_rng(seed % 2**32), dims)
        assert invariance_suite(state, (name, fn), group, trials, seed) == invariance_suite(
            state, name, group, trials, seed
        )

    @pytest.mark.parametrize("state,invariant,group", REFERENCE_CASES)
    def test_report_matches_per_trial_loop(self, state, invariant, group):
        # the per-trial loop the engine replaced, kept here as the reference:
        # each trial replayed through the public single-state API
        _, fn = named_invariant(invariant)
        tokens = [group] * state.n_parties
        values = []
        for t in range(60):
            rng = trial_rng(5, t)
            lu = LocalUnitary(tuple(single_draw(g, d, rng) for g, d in zip(tokens, state.dims)))
            values.append(fn(apply_local_unitary(state, lu)))
        drifts = np.abs(np.array(values) - fn(state))
        rep = invariance_suite(state, invariant, group, trials=60, seed=5)
        assert rep.max_abs_drift == np.max(drifts)
        assert rep.mean_abs_drift == np.mean(drifts)

    @pytest.mark.parametrize("dims", REPLAY_DIMS, ids=str)
    @pytest.mark.parametrize("group", ["su", "u", "per-party"])
    def test_trials_replay_alone_by_token(self, dims, group):
        # trial t replayed as README describes: trial_rng(seed, t), then one
        # random_sud per "su" party and one haar_unitary per "u" party
        tokens = [("su", "u")[k % 2] + str(d) for k, d in enumerate(dims)]
        if group != "per-party":
            tokens = [group] * len(dims)
        state = rand_state(np.random.default_rng(11), dims)
        _, amp00 = named_invariant("amp00")
        values = []
        for t in range(30):
            g = trial_rng(11, t)
            lu = LocalUnitary([single_draw(tok, d, g) for tok, d in zip(tokens, dims)])
            values.append(amp00(apply_local_unitary(state, lu)))
        drifts = np.abs(np.array(values) - amp00(state))
        rep = invariance_suite(state, "amp00", tokens, trials=30, seed=11)
        assert (rep.max_abs_drift, rep.mean_abs_drift) == (np.max(drifts), np.mean(drifts))

    @pytest.mark.parametrize("state,invariant,group", REFERENCE_CASES + ABOVE_CUT_CASES)
    def test_report_independent_of_block_size(self, monkeypatch, state, invariant, group):
        size = state.amplitudes.size
        trials = sampling._BLOCK_ENTRIES // size + 1  # one past the default block
        reports = []
        for entries in (size, 7 * size, sampling._BLOCK_ENTRIES):
            monkeypatch.setattr(sampling, "_BLOCK_ENTRIES", entries)
            reports.append(invariance_suite(state, invariant, group, trials, seed=11))
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize(
        "dims,group,sampler",
        [
            ((2, 2), "su", "_su2"),
            ((2, 2), "u", "_haar"),
            ((3, 3), "u", "_haar"),
            ((4, 4), "u", "_haar"),
            ((SMALL_D + 2, 2), "u", "_haar"),
        ],
    )
    @pytest.mark.parametrize(
        "scale,unitary", [(1.01, False), (1 + 1e-8, False), (1 + 1e-12, True), (np.nan, False)]
    )
    def test_stacked_unitarity_check_is_live(
        self, monkeypatch, dims, group, sampler, scale, unitary
    ):
        draw = getattr(sampling, sampler)
        monkeypatch.setattr(sampling, sampler, lambda *args: scale * draw(*args))
        state = StateVector(dims, np.eye(np.prod(dims))[0])
        if unitary:
            assert invariance_suite(state, "norm", group, trials=20).max_abs_drift < 1e-9
            return
        with pytest.raises(ValidationError, match="factor 0 is not unitary"):
            invariance_suite(state, "norm", group, trials=20)

    def test_non_finite_factor_rejected(self, monkeypatch):
        monkeypatch.setattr(sampling, "_su2", lambda q: np.full(q.shape[:-1] + (2, 2), np.nan))
        with pytest.raises(ValidationError, match="not unitary"):
            invariance_suite(bell_state("phi+"), "det", "su", trials=20)

    def test_stacked_norm_check_is_live(self, monkeypatch):
        apply = sampling._apply_block
        monkeypatch.setattr(sampling, "_apply_block", lambda t, f: 1.5 * apply(t, f))
        with pytest.raises(ValidationError, match="norm 1.5"):
            invariance_suite(bell_state("phi+"), "norm", "su", trials=20)

    def test_non_finite_contraction_rejected(self, monkeypatch):
        apply = sampling._apply_block
        monkeypatch.setattr(sampling, "_apply_block", lambda t, f: np.nan * apply(t, f))
        with pytest.raises(ValidationError, match="norm nan"):
            invariance_suite(bell_state("phi+"), "norm", "su", trials=20)

    def test_custom_callable_sees_state_vectors(self):
        seen = []

        def record(s):
            seen.append(type(s))
            return s.norm()

        invariance_suite(bell_state("phi+"), record, "su", trials=9)
        assert seen == [StateVector] * 10  # the baseline and each trial


class TestReportType:
    def test_validation(self):
        with pytest.raises(ValidationError):
            InvarianceReport(
                invariant_name="x", trials=0, max_abs_drift=0.0, mean_abs_drift=0.0, seed=0
            )
        with pytest.raises(ValidationError):
            InvarianceReport(
                invariant_name="x", trials=1, max_abs_drift=-1.0, mean_abs_drift=0.0, seed=0
            )

    @pytest.mark.parametrize(
        "max_drift,mean_drift",
        [(float("nan"), 0.0), (0.0, float("nan")), (float("inf"), 0.0), (0.0, 10**400)],
    )
    def test_nan_statistics_rejected(self, max_drift, mean_drift):
        with pytest.raises(ValidationError):
            InvarianceReport(
                invariant_name="x", trials=1, max_abs_drift=max_drift,
                mean_abs_drift=mean_drift, seed=0,
            )

    # a seed outside the range every other seed gets, or of another type, was kept
    @pytest.mark.parametrize("seed", [-1, 2**64, True, None], ids=repr)
    def test_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            InvarianceReport("x", trials=1, max_abs_drift=0.0, mean_abs_drift=0.0, seed=seed)

    # these raised a bare TypeError from the sign comparison
    @pytest.mark.parametrize("drift", ["x", None], ids=repr)
    def test_non_real_drift_rejected(self, drift):
        with pytest.raises(ValidationError, match="finite real number"):
            InvarianceReport("x", trials=1, max_abs_drift=drift, mean_abs_drift=0.0, seed=0)
        with pytest.raises(ValidationError, match="finite real number"):
            InvarianceReport("x", trials=1, max_abs_drift=0.0, mean_abs_drift=drift, seed=0)


class TestSmallDimensionKernels:
    """The trial-vectorized kernels against LAPACK and tensordot references."""

    @pytest.mark.parametrize("d", range(1, SMALL_D + 1))
    def test_haar_matches_qr_with_phase_fold(self, d):
        g = np.random.default_rng(d).standard_normal((2000, 2 * d * d))
        z = (g[:, : d * d] + 1j * g[:, d * d :]).reshape(-1, d, d)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        want = q * (diag / np.abs(diag))[:, None, :]
        got = sampling._haar(g, d)
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("d", range(2, SMALL_D + 1))
    def test_apply_block_matches_tensordot(self, d):
        rng = np.random.default_rng(d)
        dims = (d, SMALL_D + 1, d)  # the middle party runs the matmul body
        tensor = rand_state(rng, dims).tensor()
        factors = [sampling._haar(rng.standard_normal((30, 2 * k * k)), k) for k in dims]
        got = sampling._apply_block(tensor, factors)
        assert got.flags.c_contiguous
        for row in range(30):
            want = tensor
            for k, u in enumerate(factors):
                want = np.moveaxis(np.tensordot(u[row], want, axes=([1], [k])), 0, k)
            assert np.max(np.abs(got[row] - want)) <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_haar_trace_moments(self, d):
        # Diaconis-Shahshahani: for Haar U(d), E tr U = 0, E |tr U|^2 = 1 and
        # E |tr U|^4 = 2, so both sample means have standard error 1/sqrt(n)
        n = 20_000
        u = sampling._haar(np.random.default_rng(100 + d).standard_normal((n, 2 * d * d)), d)
        tr = np.trace(u, axis1=-2, axis2=-1)
        assert abs(np.mean(tr)) <= 5 / np.sqrt(n)
        assert abs(np.mean(np.abs(tr) ** 2) - 1.0) <= 5 / np.sqrt(n)
