import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entkit import (
    bell_state,
    ghz_state,
    phi_family,
    read_state,
    w_state,
)
from entkit.cli import main
from entkit.majorana import coherent_state, dicke_state
from entkit.qutrit import NormalFormCoefficients, build_normal_form_state

GOLDEN = Path(__file__).parent / "golden"

CORPUS = [
    ("bell", ["gen", "bell", "--which", "phi+"], lambda: bell_state("phi+")),
    ("ghz3", ["gen", "ghz", "--n", "3"], lambda: ghz_state(3)),
    ("w", ["gen", "w"], lambda: w_state()),
    (
        "coherent",
        ["gen", "coherent", "--theta", "1.1", "--phi", "2.2", "--n", "5"],
        lambda: dicke_state(coherent_state((1.1, 2.2), 5)),
    ),
    (
        "qutritnf",
        ["gen", "qutrit-nf", "1", "1", "0"],
        lambda: build_normal_form_state(NormalFormCoefficients(1, 1, 0)),
    ),
    (
        "phi",
        ["gen", "phi", "--alpha", "1", "--beta", "1"],
        lambda: phi_family(1, 1).state,
    ),
]


TRIALS_25 = ["--trials", "25", "--seed", "4"]

# (golden file stem, subcommand, corpus state or None, extra arguments)
TEXT_CASES = (
    [(f"schmidt_{name}", "schmidt", name, []) for name, _, _ in CORPUS]
    + [(f"classify_{name}", "classify", name, []) for name, _, _ in CORPUS]
    + [("det_bell", "det", "bell", [])]
    + [(f"hyperdet3q_{name}", "hyperdet3q", name, []) for name in ("ghz3", "w")]
    + [(f"majorana_{name}", "majorana", name, [])
       for name in ("bell", "ghz3", "w", "coherent")]
    + [
        ("check_invariance_bell", "check-invariance", "bell",
         ["--invariant", "det", *TRIALS_25]),
        ("check_invariance_ghz3", "check-invariance", "ghz3",
         ["--invariant", "hyperdet3q", *TRIALS_25]),
        ("check_invariance_qutritnf", "check-invariance", "qutritnf",
         ["--invariant", "schmidt-rank", "--group", "u3,su3,u", *TRIALS_25]),
        ("qutrit_inv_qutritnf", "qutrit-inv", None, ["1", "1", "0"]),
    ]
)

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def assert_text_close(got: str, want: str, tol=1e-10):
    """Non-numeric tokens match exactly, numbers within ``tol`` (so -0.0 == 0.0)."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), f"{got!r} vs {want!r}"
    for g, w in zip(got_lines, want_lines):
        gt, wt = _NUMBER.split(g), _NUMBER.split(w)
        assert len(gt) == len(wt) and gt[::2] == wt[::2], f"{g!r} vs {w!r}"
        for x, y in zip(gt[1::2], wt[1::2]):
            x, y = float(x), float(y)
            assert abs(x - y) <= tol * max(1.0, abs(x), abs(y)), f"{g!r} vs {w!r}"


def assert_json_close(got, want, tol=1e-12, where="$"):
    assert type(got) is type(want), f"{where}: {type(got)} vs {type(want)}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for k in want:
            assert_json_close(got[k], want[k], tol, f"{where}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, tol, f"{where}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, abs=tol, rel=tol), f"{where}"
    else:
        assert got == want, f"{where}"


class TestGoldenCorpus:
    @pytest.mark.parametrize("name,gen_args,builder", CORPUS, ids=[c[0] for c in CORPUS])
    def test_gen_classify_matches_golden(self, tmp_path, capsys, name, gen_args, builder):
        path = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, *gen_args, "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "classify", str(path), "--json")
        assert code == 0
        golden = json.loads((GOLDEN / f"classify_{name}.json").read_text())
        assert_json_close(json.loads(out), golden)

    @pytest.mark.parametrize("name,gen_args,builder", CORPUS, ids=[c[0] for c in CORPUS])
    def test_gen_file_round_trip(self, tmp_path, capsys, name, gen_args, builder):
        path = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, *gen_args, "--out", str(path))
        assert code == 0
        loaded = read_state(path)
        want = builder()
        assert loaded.state.dims == want.dims
        np.testing.assert_allclose(loaded.state.amplitudes, want.amplitudes, atol=1e-12)
        assert loaded.pre_norm == pytest.approx(1.0, abs=1e-9)

    def test_majorana_golden(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        run(capsys, "gen", "w", "--out", str(path))
        code, out, _ = run(capsys, "majorana", str(path), "--json")
        assert code == 0
        golden = json.loads((GOLDEN / "majorana_w.json").read_text())
        assert_json_close(json.loads(out), golden)

    def test_schmidt_golden(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        run(capsys, "gen", "bell", "--out", str(path))
        code, out, _ = run(capsys, "schmidt", str(path), "--json")
        assert code == 0
        golden = json.loads((GOLDEN / "schmidt_bell.json").read_text())
        assert_json_close(json.loads(out), golden)

    @pytest.mark.parametrize("stem,command,name,extra", TEXT_CASES,
                             ids=[c[0] for c in TEXT_CASES])
    def test_text_output_matches_golden(self, tmp_path, capsys, stem, command, name, extra):
        argv = [command, *extra]
        if name is not None:
            gen_args = next(c[1] for c in CORPUS if c[0] == name)
            path = tmp_path / f"{name}.json"
            run(capsys, *gen_args, "--out", str(path))
            argv.insert(1, str(path))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert_text_close(out, (GOLDEN / f"{stem}.txt").read_text())

    @pytest.mark.parametrize("got,want,ok", [
        ("x: 1.00000000001e+00", "x: 1.00000000000e+00", True),
        ("x: -0.00000000000e+00+1.0e+00j", "x: 0.0+1.0e+00j", True),
        ("x: 1.00000001000e+00", "x: 1.00000000000e+00", False),
        ("y: 1.00000000000e+00", "x: 1.00000000000e+00", False),
        ("x: 1.00000000000e+00j", "x: 1.00000000000e+00", False),
        ("x: 1\nx: 1", "x: 1", False),
    ])
    def test_text_comparison(self, got, want, ok):
        if ok:
            assert_text_close(got, want)
        else:
            with pytest.raises(AssertionError):
                assert_text_close(got, want)


class TestOutputs:
    def test_majorana_csv_for_w(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        run(capsys, "gen", "w", "--out", str(path))
        code, out, _ = run(capsys, "majorana", str(path))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta,phi,multiplicity"
        assert lines[1] == "0.00000000000e+00,0.00000000000e+00,2"
        assert lines[2] == f"{math.pi:.11e},0.00000000000e+00,1"

    def test_majorana_svg(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        svg = tmp_path / "w.svg"
        run(capsys, "gen", "w", "--out", str(path))
        code, _, _ = run(capsys, "majorana", str(path), "--svg", str(svg))
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "href" not in text  # self-contained
        assert "partition 2+1" in text

    def test_det_twelve_digits(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        run(capsys, "gen", "bell", "--out", str(path))
        code, out, _ = run(capsys, "det", str(path))
        assert code == 0
        assert "det: 5.00000000000e-01" in out
        assert "2*det: 1.00000000000e+00" in out

    def test_hyperdet_human(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        run(capsys, "gen", "ghz", "--n", "3", "--out", str(path))
        code, out, _ = run(capsys, "hyperdet3q", str(path))
        assert code == 0
        assert "Det: 2.50000000000e-01" in out
        assert "class: GHZClass" in out

    def test_qutrit_inv_output(self, capsys):
        code, out, _ = run(capsys, "qutrit-inv", "1", "1", "0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["I6"] == {"re": -8.0, "im": 0.0}
        assert doc["J12"]["re"] == pytest.approx(-2.0, abs=1e-12)
        assert doc["Delta"]["re"] == pytest.approx(0.0, abs=1e-12)

    def test_classify_warning_printed(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        run(capsys, "gen", "bell", "--out", str(path))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert "warning:" in out

    def test_check_invariance_deterministic(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        run(capsys, "gen", "bell", "--out", str(path))
        args = ["check-invariance", str(path), "--invariant", "det", "--trials", "25",
                "--seed", "4", "--json"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["trials"] == 25
        assert doc["max_abs_drift"] < 1e-9

    def test_unnormalized_file_noted(self, tmp_path, capsys):
        path = tmp_path / "u.json"
        path.write_text(
            json.dumps(
                {"dims": [2, 2], "amplitudes": [{"index": [0, 0], "re": 2.0}]}
            )
        )
        code, _, err = run(capsys, "schmidt", str(path))
        assert code == 0
        assert "normalized" in err


    def test_huge_amplitudes_survive(self, tmp_path, capsys):
        # the norm, 1.41e308, is a float although its square is not
        path = tmp_path / "big.json"
        amps = [{"index": [0, 0], "re": 1e308}, {"index": [1, 1], "re": 1e308}]
        path.write_text(json.dumps({"dims": [2, 2], "amplitudes": amps}))
        code, out, _ = run(capsys, "schmidt", str(path))
        assert code == 0
        assert "rank: 2" in out
        code, out, _ = run(capsys, "det", str(path))
        assert code == 0
        det = next(line for line in out.splitlines() if line.startswith("det:"))
        assert abs(complex(det.split()[1])) == pytest.approx(0.5, rel=1e-12)


class TestExitCodes:
    def test_wrong_dims_is_validation(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        run(capsys, "gen", "ghz", "--n", "3", "--out", str(path))
        code, _, err = run(capsys, "det", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file_is_validation(self, capsys):
        code, _, _ = run(capsys, "schmidt", "no-such-file.json")
        assert code == 2

    def test_malformed_file_is_validation(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, _ = run(capsys, "classify", str(path))
        assert code == 2

    def test_asymmetric_majorana_is_validation(self, tmp_path, capsys):
        path = tmp_path / "asym.json"
        path.write_text(
            json.dumps(
                {
                    "dims": [2, 2],
                    "amplitudes": [{"index": [0, 1], "re": 1.0}],
                }
            )
        )
        code, _, err = run(capsys, "majorana", str(path))
        assert code == 2
        assert "swap" in err

    def test_overflow_is_numeric(self, capsys):
        code, _, err = run(capsys, "qutrit-inv", "1e200", "1", "1")
        assert code == 3
        assert "numeric" in err

    def test_norm_overflow_is_validation(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        amps = [
            {"index": [0, 0], "re": 1.5e308, "im": 1.5e308},
            {"index": [1, 1], "re": 1.5e308},
        ]
        path.write_text(json.dumps({"dims": [2, 2], "amplitudes": amps}))
        code, _, err = run(capsys, "schmidt", str(path))
        assert code == 2
        assert "overflows" in err

    def test_unknown_invariant_is_validation(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        run(capsys, "gen", "bell", "--out", str(path))
        code, _, _ = run(capsys, "check-invariance", str(path), "--invariant", "entropy")
        assert code == 2

    @pytest.mark.parametrize("group", ["sux", "u3x", "su2,sux"])
    def test_malformed_group_is_validation(self, tmp_path, capsys, group):
        path = tmp_path / "bell.json"
        run(capsys, "gen", "bell", "--out", str(path))
        code, _, err = run(capsys, "check-invariance", str(path), "--invariant", "det",
                           "--group", group, "--trials", "2")
        assert code == 2
        assert "group token" in err
        assert "Traceback" not in err

    def test_negative_seed_is_validation(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        run(capsys, "gen", "bell", "--out", str(path))
        code, _, err = run(capsys, "check-invariance", str(path), "--invariant", "det",
                           "--trials", "2", "--seed", "-1")
        assert code == 2
        assert "seed" in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_cluster_tol_is_validation(self, tmp_path, capsys, tol):
        path = tmp_path / "coh.json"
        run(capsys, "gen", "coherent", "--theta", "1.0", "--phi", "0.5", "--n", "6",
            "--out", str(path))
        code, out, err = run(capsys, "majorana", str(path), "--cluster-tol", tol)
        assert code == 2
        assert out == ""
        assert "cluster_tol" in err

    @pytest.mark.parametrize("theta,phi", [("inf", "1"), ("nan", "1"), ("1", "inf")])
    def test_non_finite_coherent_angle_is_validation(self, tmp_path, theta, phi):
        # a child process, so the interpreter's own warning printer is what runs
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "entkit.cli", "gen", "coherent", "--theta", theta,
             "--phi", phi, "--n", "3", "--out", str(tmp_path / "c.json")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "finite angles" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "c.json").exists()

    def test_trials_cap_is_validation(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        run(capsys, "gen", "bell", "--out", str(path))
        code, _, err = run(capsys, "check-invariance", str(path), "--invariant", "norm",
                           "--trials", "10000000000000")
        assert code == 2
        assert "exceeds the cap" in err

    def test_non_integer_index_is_validation(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(
            {"dims": [2, 2], "amplitudes": [{"index": [0.5, 0], "re": 1.0}]}
        ))
        code, _, err = run(capsys, "schmidt", str(path))
        assert code == 2
        assert "index entry must be a JSON integer, got 0.5" in err

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_option_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "bell"])
        assert exc.value.code == 2
