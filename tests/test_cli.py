import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entkit import (
    bell_state,
    ghz_state,
    phi_family,
    read_state,
    w_state,
)
from entkit.cli import main
from entkit.states import MAX_ENTRIES
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

    @pytest.mark.parametrize("a", ["1", "1e-9"])
    def test_qutrit_inv_equal_coefficients_give_zero_delta(self, capsys, a):
        # two of the linear forms of Delta vanish exactly at a1 = a2 = a3
        code, out, _ = run(capsys, "qutrit-inv", a, a, a, "--json")
        assert code == 0
        assert json.loads(out)["Delta"] == {"re": 0.0, "im": 0.0}

    @pytest.mark.parametrize("triple", [("1e-25", "0", "0"), ("1e-9", "1e-9", "1e-9")])
    def test_qutrit_inv_vanishing_j12_is_zero(self, capsys, triple):
        # J12 is exactly 0 at a single nonzero coefficient and at equal ones
        code, out, _ = run(capsys, "qutrit-inv", *triple, "--json")
        assert code == 0
        assert json.loads(out)["J12"] == {"re": 0.0, "im": 0.0}

    def test_qutrit_inv_j12_without_cancellation(self, capsys):
        # J12 = 2 (x - 1)^3 with x = 1e30, and the combination stays in range
        code, out, _ = run(capsys, "qutrit-inv", "1e10", "1", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["J12"]["re"] == pytest.approx(2e90, rel=1e-14)
        assert doc["Delta_from_invariants"]["re"] == pytest.approx(-4e300, rel=1e-14)
        assert doc["Delta"]["re"] == pytest.approx(-4e300, rel=1e-14)

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

    def test_subnormal_amplitude_reads(self, tmp_path, capsys):
        # the Dicke coefficient 1e-320 is subnormal: both stars sit at the north pole
        path = tmp_path / "tiny.json"
        amps = [{"index": [0, 0], "re": 1.0}, {"index": [1, 1], "re": 1e-320}]
        path.write_text(json.dumps({"dims": [2, 2], "amplitudes": amps}))
        code, out, err = run(capsys, "majorana", str(path))
        assert (code, err) == (0, "")
        (star,) = out.splitlines()[1:]
        theta, _, multiplicity = star.split(",")
        assert float(theta) < 1e-150 and multiplicity == "2"
        code, out, err = run(capsys, "classify", str(path))
        assert (code, err) == (0, "")
        assert "Def 4: level-1  [partition 2]" in out

    def test_subnormal_amplitude_on_a_two_row_cut(self, tmp_path, capsys):
        # dims [2, 4]: cut 0 is 2 x 4, not square, so the two-row factor
        # meets the subnormal amplitude, whose square underflows
        path = tmp_path / "tiny24.json"
        amps = [{"index": [0, 0], "re": 1.0}, {"index": [1, 3], "re": 1e-320}]
        path.write_text(json.dumps({"dims": [2, 4], "amplitudes": amps}))
        code, out, err = run(capsys, "classify", str(path))
        assert (code, err) == (0, "")
        assert "Def 1: product" in out
        code, out, err = run(capsys, "schmidt", str(path), "--cut", "0")
        assert (code, err) == (0, "")
        assert "rank: 1" in out

    def test_subnormal_end_amplitudes_read(self, tmp_path, capsys):
        # subnormal |00> and |11>: one star at each pole, not a LinAlgError
        path = tmp_path / "ends.json"
        amps = [
            {"index": [0, 0], "re": 1e-310},
            {"index": [0, 1], "re": 1.0},
            {"index": [1, 0], "re": 1.0},
            {"index": [1, 1], "re": 1e-310},
        ]
        path.write_text(json.dumps({"dims": [2, 2], "amplitudes": amps}))
        code, out, _ = run(capsys, "majorana", str(path))
        assert code == 0
        thetas = sorted(float(line.split(",")[0]) for line in out.splitlines()[1:])
        assert thetas == [0.0, pytest.approx(math.pi, abs=1e-11)]


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

    # 200055, 100041 and 100041 bytes of stderr: the path was printed whole
    def test_long_paths_give_bounded_errors(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        run(capsys, "gen", "w", "--out", str(path))
        long = "x" * 100000
        for argv in (["classify", long], ["gen", "bell", "--out", long],
                     ["majorana", str(path), "--svg", long]):
            code, _, err = run(capsys, *argv)
            assert code == 2, argv[0]
            assert err.startswith("error: cannot ") and len(err) <= 600, argv[0]

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

    @pytest.mark.parametrize("scale", ["1e-30", "1e-60"])
    def test_underflow_is_numeric(self, capsys, scale):
        a = [str(k * float(scale)) for k in (1, 2, 3)]
        code, out, err = run(capsys, "qutrit-inv", *a)
        assert code == 3
        assert out == ""
        assert "underflowed" in err

    def test_invariant_rounding_to_zero_is_numeric(self, capsys):
        # the product forms I9 and Delta lie below the smallest normal float
        code, out, err = run(capsys, "qutrit-inv", "1", "1e-200", "2e-200")
        assert (code, out) == (3, "")
        assert "underflowed" in err

    @pytest.mark.parametrize("alpha", ["1e-200", "1e-30", "1e30"])
    def test_gen_phi_evaluates_no_invariants(self, tmp_path, capsys, alpha):
        # phi's invariants leave the float range here, but its state is fine
        out_file = tmp_path / "phi.json"
        code, _, err = run(capsys, "gen", "phi", "--alpha", alpha, "--beta", "1",
                           "--out", str(out_file))
        assert (code, err) == (0, "")
        a = float(alpha)
        norm = math.sqrt(2 * a * a + 4)
        want = {(2, 1, 0): a, (0, 1, 2): a, (2, 0, 1): 1, (0, 2, 1): 1, (1, 2, 0): 1, (1, 0, 2): 1}
        loaded = read_state(out_file)
        assert loaded.state.dims == (3, 3, 3)
        tensor = loaded.state.tensor()
        for idx in np.ndindex(3, 3, 3):
            assert tensor[idx] == pytest.approx(want.get(idx, 0) / norm, rel=1e-15, abs=0)

    def test_state_size_beyond_int_printing_is_validation(self, tmp_path, capsys):
        # 2**15000 amplitudes: its decimal form exceeds Python's 4300-digit limit
        path = tmp_path / "huge_dims.json"
        amps = [{"index": [0] * 15000, "re": 1.0}]
        path.write_text(json.dumps({"dims": [2] * 15000, "amplitudes": amps}))
        for command in ("schmidt", "classify", "majorana"):
            code, _, err = run(capsys, command, str(path))
            assert code == 2
            assert "2**15000" in err

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

    @pytest.mark.parametrize(
        "group",
        ["sux", "u3x", "su2,sux", pytest.param("su" + "9" * 5000, id="su-5000-nines")],
    )
    def test_malformed_group_is_validation(self, tmp_path, capsys, group):
        path = tmp_path / "bell.json"
        run(capsys, "gen", "bell", "--out", str(path))
        code, _, err = run(capsys, "check-invariance", str(path), "--invariant", "det",
                           "--group", group, "--trials", "2")
        assert code == 2
        assert "group token" in err
        assert "Traceback" not in err

    def test_wide_party_is_validation(self, tmp_path, capsys):
        # 2**21 amplitudes read within the cap, but a 2**20 x 2**20 factor would not fit it
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(
            {"dims": [2, 1048576], "amplitudes": [{"index": [0, 0], "re": 1.0}]}
        ))
        code, out, err = run(capsys, "check-invariance", str(path), "--invariant", "norm",
                             "--trials", "2")
        assert code == 2
        assert out == ""
        assert "the dimension of party 1 must be <= 4096, got 1048576" in err

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
        assert "must be a finite real number" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "c.json").exists()

    def test_trials_cap_is_validation(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        run(capsys, "gen", "bell", "--out", str(path))
        code, _, err = run(capsys, "check-invariance", str(path), "--invariant", "norm",
                           "--trials", "10000000000000")
        assert code == 2
        assert "trials must be <= 16777216, got 10000000000000" in err

    def test_non_integer_index_is_validation(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(
            {"dims": [2, 2], "amplitudes": [{"index": [0.5, 0], "re": 1.0}]}
        ))
        code, _, err = run(capsys, "schmidt", str(path))
        assert code == 2
        assert "index [0.5, 0] is not a sequence of integers" in err

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_option_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "bell"])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Small state files for the check-invariance fuzz test."""
    work = tmp_path_factory.mktemp("fuzz")
    paths = []
    for name, gen_args in [("bell", ["gen", "bell"]), ("ghz3", ["gen", "ghz", "--n", "3"]),
                           ("qutritnf", ["gen", "qutrit-nf", "1", "1", "0"])]:
        path = work / f"{name}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*gen_args, "--out", str(path)]) == 0
        paths.append(str(path))
    return paths


class TestCheckInvarianceFuzz:
    @settings(max_examples=100, deadline=None)
    @given(
        file_index=st.integers(0, 2),
        trials=st.sampled_from([0, -1, 1, 25, MAX_ENTRIES + 1, 2**64]),
        seed=st.sampled_from([-1, 0, 2**64 - 1, 2**64]),
        group=st.sampled_from(["su", "u", "su2", "u2,su2", "su3,u3,u", "SU", " u ",
                               "sux", "u3x", "", ",", "u0", "su-1", "su2,su2,su2",
                               "su99999999999999999999"]),
        invariant=st.sampled_from(["det", "hyperdet3q", "norm", "schmidt-rank", "amp00",
                                   "DET", "entropy", ""]),
        as_json=st.booleans(),
    )
    def test_exit_codes(self, fuzz_files, file_index, trials, seed, group, invariant, as_json):
        argv = ["check-invariance", fuzz_files[file_index], "--invariant", invariant,
                "--group", group, "--trials", str(trials), "--seed", str(seed)]
        argv += ["--json"] if as_json else []
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the argv itself
                    code = exc.code
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert (code == 0) == (err.getvalue() == "")


FUZZ_REALS = ["0", "-0.5", "1e-9", "0.3", "2.5", "1e300", "-1e308", "1e-320", "nan", "inf",
              "-inf", "x"]
FUZZ_COMPLEX = ["0", "1", "-2.5", "1+2j", "1e100", "1e200", "1e-200", "1e-320", "nan", "inf",
                "nanj", "x"]
#: qubit counts small enough to write, over the 2**24 cap, past the float range of C(n, k),
#: or too long to format
FUZZ_COUNTS = ["-1", "0", "1", "2", "3", "5", "25", "1029", "1100", "100000",
               "99999999999999999999", "x"]
FUZZ_CUTS = ["-1", "0", "1", "2", "3", "99999999999999999999", "x"]
FUZZ_FILES = ["bell", "ghz3", "qutritnf", "coherent5", "tiny"]


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    """State files named in FUZZ_FILES, and the directory ``gen --out`` writes into."""
    work = tmp_path_factory.mktemp("argv")
    for name, gen_args in [("bell", ["gen", "bell"]), ("ghz3", ["gen", "ghz", "--n", "3"]),
                           ("qutritnf", ["gen", "qutrit-nf", "1", "1", "0"]),
                           ("coherent5", ["gen", "coherent", "--theta", "1.1", "--phi", "2.2",
                                          "--n", "5"])]:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*gen_args, "--out", str(work / f"{name}.json")]) == 0
    amps = [{"index": [0, 0], "re": 1.0}, {"index": [1, 1], "re": 1e-320}]
    (work / "tiny.json").write_text(json.dumps({"dims": [2, 2], "amplitudes": amps}))
    return work


@st.composite
def argvs(draw):
    """argv for schmidt, majorana, qutrit-inv and every gen kind; {dir} is the argv_dir."""
    real, cplx, count = (st.sampled_from(v) for v in (FUZZ_REALS, FUZZ_COMPLEX, FUZZ_COUNTS))
    file = st.sampled_from(FUZZ_FILES).map(lambda name: f"{{dir}}/{name}.json")
    out = ["--out", draw(st.sampled_from(["{dir}/out.json", "{dir}", "{dir}/no/out.json"]))]
    kind = draw(st.sampled_from(["schmidt", "majorana", "qutrit-inv", "bell", "ghz", "w",
                                 "coherent", "qutrit-nf", "phi"]))
    if kind == "schmidt":
        cut = draw(st.lists(st.sampled_from(FUZZ_CUTS), min_size=1, max_size=3))
        argv = ["schmidt", draw(file), "--cut", *cut, "--tolerance", draw(real)]
    elif kind == "majorana":
        argv = ["majorana", draw(file), "--cluster-tol", draw(real)]
    elif kind in ("qutrit-inv", "qutrit-nf"):
        argv = [kind, draw(cplx), draw(cplx), draw(cplx)]
        argv = argv if kind == "qutrit-inv" else ["gen", *argv, *out]
    elif kind == "bell":
        argv = ["gen", "bell", "--which", draw(st.sampled_from(["phi+", "psi-", "xx"])), *out]
    elif kind == "ghz":
        argv = ["gen", "ghz", "--n", draw(count), *out]
    elif kind == "w":
        argv = ["gen", "w", *out]
    elif kind == "coherent":
        argv = ["gen", "coherent", "--theta", draw(real), "--phi", draw(real),
                "--n", draw(count), *out]
    else:
        argv = ["gen", "phi", "--alpha", draw(cplx), "--beta", draw(cplx), *out]
    return argv + (["--json"] if draw(st.booleans()) else [])


class TestArgvFuzz:
    @settings(max_examples=100, deadline=None)
    @given(argv=argvs())
    @example(argv=["gen", "ghz", "--n", "100000", "--out", "{dir}/out.json"])
    @example(argv=["gen", "ghz", "--n", "99999999999999999999", "--out", "{dir}/out.json"])
    @example(argv=["gen", "coherent", "--theta", "0.3", "--phi", "0", "--n", "1100",
                   "--out", "{dir}/out.json"])
    @example(argv=["gen", "phi", "--alpha", "1e100", "--beta", "1", "--out", "{dir}/out.json"])
    @example(argv=["majorana", "{dir}/tiny.json"])
    def test_every_argv_ends_in_a_documented_exit(self, argv_dir, argv):
        argv = [token.replace("{dir}", str(argv_dir)) for token in argv]
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the argv itself
                    code = exc.code
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert (code == 0) == (err.getvalue() == ""), (argv, err.getvalue())


#: well-formed dims, each with at most 64 amplitudes
FUZZ_DIMS = [[2], [2, 2], [3, 3], [2, 3], [2, 2, 2], [2, 2, 2, 2, 2, 2]]
FUZZ_BAD_DIMS = [[], [1, 2], [0], [-2, 2], [2.0, 2], ["2", 2], [True, 2], 2, None, "2,2"]
#: amplitude parts that are ordinary, extreme, NaN/Infinity literals or wrong JSON types
FUZZ_ODD_PARTS = [0.0, -0.0, 1e308, -1e308, 1e-320, -1e-320, math.nan, math.inf,
                  -math.inf, 3, 10**400, True, "1", None, [1.0]]
FUZZ_BAD_INDICES = [[], [0], [0, 0, 0], [2, 0], [0, 3], [-1, 0], [0.0, 0], [True, 0],
                    ["0", 0], [None, 0], 0, None, "0", {"0": 0}]
#: at most one document-level fault each; None leaves the document well-formed
FUZZ_FAULTS = [None] * 6 + ["top", "dims", "no dims", "no amplitudes", "amplitudes type",
                            "bad index", "odd part", "entry type", "repeat", "all zero"]
FUZZ_COMMANDS = [
    ["schmidt"], ["schmidt", "--cut", "1"], ["det"], ["hyperdet3q"], ["majorana"], ["classify"],
    ["check-invariance", "--invariant", "norm", "--trials", "3"],
    ["check-invariance", "--invariant", "amp00", "--trials", "3", "--group", "u"],
]


@st.composite
def state_documents(draw):
    """Small state documents, well-formed or broken in one of the ways a file can be."""
    fault = draw(st.sampled_from(FUZZ_FAULTS))
    if fault == "top":
        return draw(st.sampled_from([[], [{"dims": [2]}], 3, "dims", None, True]))
    dims = draw(st.sampled_from(FUZZ_BAD_DIMS if fault == "dims" else FUZZ_DIMS))
    shape = dims if fault != "dims" else [2, 2]
    index = st.tuples(*[st.integers(0, d - 1) for d in shape]).map(list)
    part = st.floats(-4.0, 4.0, allow_subnormal=False)
    if fault == "all zero":
        part = st.just(0.0)
    entries = draw(st.lists(
        st.fixed_dictionaries({"index": index, "re": part}, optional={"im": part}),
        min_size=0 if fault == "all zero" else 1, max_size=6,
        unique_by=lambda entry: tuple(entry["index"]),
    ))
    if fault == "bad index":
        entries.append({"index": draw(st.sampled_from(FUZZ_BAD_INDICES)), "re": 1.0})
    elif fault == "odd part":
        entry = {"index": draw(index), "re": 1.0}
        entry[draw(st.sampled_from(["re", "im"]))] = draw(st.sampled_from(FUZZ_ODD_PARTS))
        entries.append(entry)
    elif fault == "entry type":
        entries.append(draw(st.sampled_from([[[0], 1.0], "entry", None, {"re": 1.0},
                                             {"index": [0]}])))
    elif fault == "repeat":
        entries.append(draw(st.sampled_from(entries)))
    doc = {"dims": dims, "amplitudes": draw(st.permutations(entries))}
    if fault == "amplitudes type":
        doc["amplitudes"] = draw(st.sampled_from([{"0": 1.0}, "none", 1.0, None]))
    elif fault in ("no dims", "no amplitudes"):
        del doc[fault.removeprefix("no ")]
    return doc


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


class TestStateDocumentFuzz:
    @settings(max_examples=100, deadline=None)
    @given(doc=state_documents(), command=st.sampled_from(FUZZ_COMMANDS), as_json=st.booleans())
    def test_every_document_ends_in_a_documented_exit(self, doc_dir, doc, command, as_json):
        path = doc_dir / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")  # NaN and Infinity as literals
        argv = [command[0], str(path), *command[1:]] + (["--json"] if as_json else [])
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        message = err.getvalue()
        assert code in (0, 2, 3), (argv, doc, message)
        assert "Traceback" not in message
        if code == 0:
            assert message == "" or re.fullmatch(
                r"note: input normalized \(norm before was \S+\)\n", message
            ), (doc, message)

