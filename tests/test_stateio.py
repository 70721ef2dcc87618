import json

import numpy as np
import pytest
from conftest import rand_state

from entkit import (
    StateVector,
    ValidationError,
    bell_state,
    ghz_state,
    read_state,
    state_from_json,
    state_to_json,
    write_state,
)


class TestRoundTrip:
    def test_bell_file_round_trip(self, tmp_path):
        path = tmp_path / "bell.json"
        s = bell_state("phi+")
        write_state(s, path)
        loaded = read_state(path)
        np.testing.assert_allclose(loaded.state.amplitudes, s.amplitudes, atol=1e-12)
        assert loaded.pre_norm == pytest.approx(1.0, abs=1e-12)

    def test_random_round_trips(self, tmp_path, rng):
        for k, dims in enumerate([(2, 2), (2, 2, 2), (3, 3), (2, 3, 4)]):
            path = tmp_path / f"s{k}.json"
            s = rand_state(rng, dims)
            write_state(s, path)
            loaded = read_state(path)
            assert loaded.state.dims == dims
            np.testing.assert_allclose(
                loaded.state.amplitudes, s.amplitudes, atol=1e-12
            )

    def test_document_shape(self):
        doc = state_to_json(bell_state("phi+"))
        assert sorted(doc) == ["amplitudes", "dims"]
        assert doc["dims"] == [2, 2]
        assert len(doc["amplitudes"]) == 2
        entry = doc["amplitudes"][0]
        assert sorted(entry) == ["im", "index", "re"]

    def test_zero_entries_omitted(self):
        doc = state_to_json(ghz_state(3))
        assert len(doc["amplitudes"]) == 2

    @pytest.mark.parametrize("dims", [(2,), (2, 2), (3, 2, 4), (2, 2, 2, 2, 2)])
    @pytest.mark.parametrize("threshold", [0.0, 0.2])
    def test_entries_match_elementwise_loop(self, rng, dims, threshold):
        # the per-index loop the vectorized selection replaced, kept as the reference
        v = rng.standard_normal(np.prod(dims)) + 1j * rng.standard_normal(np.prod(dims))
        v[2::3] = 0.0
        v.real[1::4] = -0.0  # kept entries with a signed-zero part
        s = StateVector(dims, v / np.linalg.norm(v))
        t = s.tensor()
        expected = [
            {"index": [int(i) for i in index], "re": float(t[index].real),
             "im": float(t[index].imag)}
            for index in np.ndindex(*dims)
            if abs(t[index]) > threshold
        ]
        doc = state_to_json(s, threshold)
        assert json.dumps(doc) == json.dumps({"dims": list(dims), "amplitudes": expected})

    def test_threshold_drops_small_entries(self):
        s = state_from_json(
            {
                "dims": [2],
                "amplitudes": [
                    {"index": [0], "re": 1.0},
                    {"index": [1], "re": 1e-13},
                ],
            }
        ).state
        assert len(state_to_json(s, threshold=1e-10)["amplitudes"]) == 1


class TestReader:
    def test_normalizes_and_reports(self):
        loaded = state_from_json(
            {"dims": [2, 2], "amplitudes": [{"index": [0, 0], "re": 3.0, "im": 4.0}]}
        )
        assert loaded.pre_norm == pytest.approx(5.0)
        assert loaded.state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_im_optional(self):
        loaded = state_from_json(
            {"dims": [2], "amplitudes": [{"index": [0], "re": 1.0}]}
        )
        assert loaded.state.amplitude((0,)) == 1.0

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            {"dims": [2, 2]},
            {"amplitudes": []},
            {"dims": [2, "x"], "amplitudes": []},
            {"dims": [2], "amplitudes": "nope"},
            {"dims": [2], "amplitudes": [{"re": 1.0}]},
            {"dims": [2], "amplitudes": [{"index": [0]}]},
            {"dims": [2], "amplitudes": [{"index": [2], "re": 1.0}]},
            {"dims": [2], "amplitudes": [{"index": [0, 0], "re": 1.0}]},
            {"dims": [2], "amplitudes": [{"index": [0], "re": "z"}]},
            {"dims": [2], "amplitudes": []},
            {"dims": [2], "amplitudes": [{"index": [0], "re": 0.0}]},
        ],
    )
    def test_malformed_documents(self, doc):
        with pytest.raises(ValidationError):
            state_from_json(doc)

    @pytest.mark.parametrize(
        "message,dims,entry",
        [
            ("index entry must be a JSON integer", [2, 2], {"index": [0.5, 0], "re": 1.0}),
            ("index entry must be a JSON integer", [2, 2], {"index": [True, 0], "re": 1.0}),
            ("index entry must be a JSON integer", [2, 2], {"index": ["1", 0], "re": 1.0}),
            ("dims entry must be a JSON integer", [2.7, 2], {"index": [0, 0], "re": 1.0}),
            ("dims entry must be a JSON integer", [2.0, 2], {"index": [0, 0], "re": 1.0}),
            ("dims entry must be a JSON integer", [2, True], {"index": [0, 0], "re": 1.0}),
            ("dims entry must be a JSON integer", ["2", 2], {"index": [0, 0], "re": 1.0}),
            ("re must be a JSON number", [2, 2], {"index": [0, 0], "re": True}),
            ("re must be a JSON number", [2, 2], {"index": [0, 0], "re": "0.5"}),
            ("re must be a JSON number", [2, 2], {"index": [0, 0], "re": None}),
            ("im must be a JSON number", [2, 2], {"index": [0, 0], "re": 1.0, "im": "1"}),
            ("im must be a JSON number", [2, 2], {"index": [0, 0], "re": 1.0, "im": False}),
            ("re lies outside the float range", [2, 2], {"index": [0, 0], "re": 10**400}),
        ],
    )
    def test_entry_types_are_strict(self, message, dims, entry):
        with pytest.raises(ValidationError, match=message):
            state_from_json({"dims": dims, "amplitudes": [entry]})

    def test_integer_amplitudes_accepted(self):
        doc = {"dims": [2, 2], "amplitudes": [{"index": [0, 0], "re": 3, "im": 4}]}
        loaded = state_from_json(doc)
        assert loaded.pre_norm == 5.0
        assert loaded.state.amplitude((0, 0)) == pytest.approx(0.6 + 0.8j)

    def test_duplicate_index_rejected(self):
        doc = {
            "dims": [2, 2],
            "amplitudes": [
                {"index": [0, 0], "re": 1.0},
                {"index": [1, 1], "re": 2.0},
                {"index": [0, 0], "re": 5.0},
            ],
        }
        with pytest.raises(ValidationError, match=r"\[0, 0\]"):
            state_from_json(doc)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(ValidationError):
            read_state(tmp_path / "missing.json")

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError):
            read_state(path)

    def test_integer_past_digit_limit(self, tmp_path):
        # json raises a plain ValueError for an integer longer than 4300 digits
        path = tmp_path / "long.json"
        path.write_text('{"dims": [' + "2" * 5000 + "]}", encoding="utf-8")
        with pytest.raises(ValidationError, match="not valid JSON"):
            read_state(path)

    def test_written_file_is_plain_json(self, tmp_path):
        path = tmp_path / "w.json"
        write_state(ghz_state(3), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["dims"] == [2, 2, 2]
