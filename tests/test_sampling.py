import numpy as np
import pytest
from conftest import rand_state

import entkit.states
from entkit import (
    InvarianceReport,
    ValidationError,
    bell_state,
    ghz_state,
    haar_unitary,
    invariance_suite,
    random_su2,
    random_sud,
    trial_rng,
)
from entkit.sampling import named_invariant


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
        for group in ["su", "u", ("su2", "su2"), ("u2", "u2")]:
            rep = invariance_suite(s, "norm", group, trials=5, seed=0)
            assert rep.trials == 5

    def test_group_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            invariance_suite(bell_state("phi+"), "norm", ("su3", "su2"), trials=5)
        with pytest.raises(ValidationError):
            invariance_suite(bell_state("phi+"), "norm", ("su2",), trials=5)
        with pytest.raises(ValidationError):
            invariance_suite(bell_state("phi+"), "norm", "sp2", trials=5)

    def test_unknown_invariant_rejected(self):
        with pytest.raises(ValidationError):
            invariance_suite(bell_state("phi+"), "entropy", "su", trials=5)

    def test_trials_validated(self):
        with pytest.raises(ValidationError):
            invariance_suite(bell_state("phi+"), "norm", "su", trials=0)

    def test_trials_capped_before_allocation(self, monkeypatch):
        monkeypatch.setattr(entkit.states, "MAX_ENTRIES", 8)
        with pytest.raises(ValidationError, match="exceeds the cap 8"):
            invariance_suite(bell_state("phi+"), "norm", "su", trials=9)
        assert invariance_suite(bell_state("phi+"), "norm", "su", trials=8).trials == 8

    def test_named_invariant_registry(self):
        label, fn = named_invariant("schmidt-rank")
        assert label == "schmidt-rank"
        assert fn(bell_state("phi+")) == 2.0


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
