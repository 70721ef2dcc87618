"""Command-line front end.

Every subcommand prints a human-readable listing by default and a
machine-readable document with --json.  Floating-point output is
printed with 12 significant digits; JSON numbers are emitted unrounded.
Exit codes: 0 on success, 2 on validation problems (bad files, wrong
dimensions, asymmetric input to majorana, bad arguments), 3 on numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import stateio
from .classify import classify_state
from .hyperdet import _class_of, cayley_hyperdeterminant
from .majorana import (
    MajoranaConstellation,
    classify_symmetric,
    coherent_state,
    dicke_state,
)
from .qutrit import (
    NormalFormCoefficients,
    build_normal_form_state,
    fundamental_invariants,
    hyperdeterminant_333,
    phi_family,
)
from .sampling import invariance_suite
from .schmidt import bipartite_determinant, det_squared, schmidt_decompose
from .states import (
    NumericError,
    ValidationError,
    bell_state,
    ghz_state,
    w_state,
)

__all__ = ["main"]


def _fmt(x) -> str:
    """12 significant digits for floats; complex as a re/im pair."""
    if isinstance(x, complex):
        return f"{x.real:.11e}{x.imag:+.11e}j"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.11e}"
    return str(x)


def _json_default(obj):
    """``json.dumps`` hook: complex as a re/im pair, numpy scalars as Python values."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=2, default=_json_default))


def _load(path: str) -> stateio.LoadedState:
    loaded = stateio.read_state(path)
    if abs(loaded.pre_norm - 1.0) > 1e-9:
        print(
            f"note: input normalized (norm before was {_fmt(loaded.pre_norm)})",
            file=sys.stderr,
        )
    return loaded


# -- subcommands -----------------------------------------------------------


def _cmd_schmidt(args) -> int:
    loaded = _load(args.file)
    dec = schmidt_decompose(loaded.state, tuple(args.cut), args.tolerance)
    if args.json:
        _emit_json(
            {
                "cut": list(dec.cut),
                "rank": dec.rank,
                "lambdas": [float(v) for v in dec.lambdas],
                "tolerance": dec.tolerance_used,
                "pre_norm": loaded.pre_norm,
            }
        )
        return 0
    print(f"cut: {','.join(str(c) for c in dec.cut)}")
    print(f"rank: {dec.rank}")
    for k, v in enumerate(dec.lambdas):
        print(f"lambda_{k}: {_fmt(float(v))}")
    return 0


def _cmd_det(args) -> int:
    loaded = _load(args.file)
    det = bipartite_determinant(loaded.state)
    two = bipartite_determinant(loaded.state, rescale=True)
    sq = det_squared(loaded.state)
    if args.json:
        _emit_json({"det": det, "two_det": two, "det_squared": sq})
        return 0
    print(f"det: {_fmt(det)}")
    print(f"2*det: {_fmt(two)}")
    print(f"det^2: {_fmt(sq)}")
    return 0


def _cmd_hyperdet3q(args) -> int:
    loaded = _load(args.file)
    det = cayley_hyperdeterminant(loaded.state)
    cls = _class_of(det)
    if args.json:
        _emit_json({"hyperdeterminant": det, "abs": abs(det), "class": cls.value})
        return 0
    print(f"Det: {_fmt(det)}")
    print(f"|Det|: {_fmt(abs(det))}")
    print(f"class: {cls.value}")
    return 0


def _cmd_qutrit_inv(args) -> int:
    coeffs = NormalFormCoefficients(a1=args.a1, a2=args.a2, a3=args.a3)
    report = fundamental_invariants(coeffs)
    combo = hyperdeterminant_333(report)
    doc = {
        "a1": coeffs.a1,
        "a2": coeffs.a2,
        "a3": coeffs.a3,
        "I6": report.i6,
        "I9": report.i9,
        "I12": report.i12,
        "J12": report.j12,
        "Delta": report.delta,
        "Delta_from_invariants": combo,
    }
    if args.json:
        _emit_json(doc)
        return 0
    for key, val in doc.items():
        print(f"{key}: {_fmt(val)}")
    return 0


def _star_xyz(theta: float, phi: float) -> tuple[float, float, float]:
    return (
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    )


def _constellation_svg(con: MajoranaConstellation) -> str:
    """Self-contained orthographic sphere view of a constellation.

    The viewpoint looks down the +y axis; stars on the far hemisphere
    are drawn hollow.  No external references, fonts, or scripts.
    """
    size, r = 360, 150
    c = size // 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"<title>Majorana constellation, n={con.n}</title>",
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{c}" cy="{c}" r="{r}" fill="none" stroke="black" '
        'stroke-width="1.5"/>',
        f'<ellipse cx="{c}" cy="{c}" rx="{r}" ry="{r * 0.22:.1f}" fill="none" '
        'stroke="gray" stroke-width="0.8" stroke-dasharray="4 3"/>',
        f'<line x1="{c}" y1="{c - r}" x2="{c}" y2="{c - r - 8}" stroke="black"/>',
        f'<text x="{c + 6}" y="{c - r - 4}" font-family="monospace" '
        'font-size="11">+z</text>',
    ]
    # far hemisphere first so near stars overdraw them
    order = sorted(con.stars, key=lambda s: _star_xyz(s.theta, s.phi)[1], reverse=True)
    for s in order:
        x, y, z = _star_xyz(s.theta, s.phi)
        px = c + r * x
        py = c - r * z
        far = y > 0
        fill = "none" if far else "crimson"
        stroke = "gray" if far else "black"
        parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="6" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="1.2"/>'
        )
        if s.multiplicity > 1:
            parts.append(
                f'<text x="{px + 8:.2f}" y="{py - 8:.2f}" font-family="monospace" '
                f'font-size="12">x{s.multiplicity}</text>'
            )
    caption = "+".join(str(m) for m in con.partition)
    parts.append(
        f'<text x="{c}" y="{size - 10}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">partition {caption}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_majorana(args) -> int:
    loaded = _load(args.file)
    cls = classify_symmetric(loaded.state, cluster_tol=args.cluster_tol)
    con = cls.constellation
    if args.svg:
        Path(args.svg).write_text(_constellation_svg(con), encoding="utf-8")
        print(f"note: wrote {args.svg}", file=sys.stderr)
    if args.json:
        _emit_json({**asdict(con), "onion_level": cls.onion_level})
        return 0
    print("theta,phi,multiplicity")
    for s in con.stars:
        print(f"{s.theta:.11e},{s.phi:.11e},{s.multiplicity}")
    return 0


def _cmd_check_invariance(args) -> int:
    loaded = _load(args.file)
    group = args.group.split(",") if "," in args.group else args.group
    report = invariance_suite(
        loaded.state, args.invariant, group=group, trials=args.trials, seed=args.seed
    )
    doc = asdict(report)
    if args.json:
        _emit_json(doc)
        return 0
    for key, val in doc.items():
        print(f"{key}: {_fmt(val)}")
    return 0


def _evidence_brief(check) -> str:
    ev = check.evidence
    if "single_cut_ranks" in ev:
        return "single-cut ranks " + ",".join(str(r) for r in ev["single_cut_ranks"])
    if "ranks" in ev:
        return "ranks " + ",".join(f"{k}={v}" for k, v in ev["ranks"].items())
    if "det" in ev:
        return f"det {_fmt(ev['det'])}, 2*det {_fmt(ev['two_det'])}"
    if "hyperdeterminant" in ev:
        return f"|Det| {_fmt(ev['abs_hyperdeterminant'])}"
    if "partition" in ev:
        return "partition " + "+".join(str(m) for m in ev["partition"])
    if "schmidt_coefficients" in ev:
        vals = ev["schmidt_coefficients"]
        return "lambdas " + ",".join(_fmt(float(v)) for v in vals)
    return ev.get("note", "")


def _cmd_classify(args) -> int:
    loaded = _load(args.file)
    report = classify_state(loaded.state, state_id=Path(args.file).stem)
    if args.json:
        _emit_json(asdict(report))
        return 0
    print(f"state: {report.state_id}")
    for c in report.checks:
        print(f"Def {c.definition}: {c.verdict}  [{_evidence_brief(c)}]")
    for w in report.warnings:
        print(f"warning: {w}")
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "bell":
        state = bell_state(args.which)
    elif args.kind == "ghz":
        state = ghz_state(args.n)
    elif args.kind == "w":
        state = w_state()
    elif args.kind == "coherent":
        state = dicke_state(coherent_state((args.theta, args.phi), args.n))
    elif args.kind == "qutrit-nf":
        state = build_normal_form_state(
            NormalFormCoefficients(a1=args.a1, a2=args.a2, a3=args.a3)
        )
    else:
        state = phi_family(args.alpha, args.beta).state
    stateio.write_state(state, args.out)
    if args.json:
        _emit_json({"path": str(args.out), "dims": list(state.dims)})
        return 0
    print(f"wrote {args.out} (dims {','.join(str(d) for d in state.dims)})")
    return 0


# -- parser ----------------------------------------------------------------


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entkit",
        description="Entanglement invariants of pure multipartite states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schmidt", help="Schmidt decomposition across a cut")
    p.add_argument("file")
    p.add_argument("--cut", nargs="+", type=int, default=[0], metavar="PARTY")
    p.add_argument("--tolerance", type=float, default=1e-9)
    _add_json(p)
    p.set_defaults(func=_cmd_schmidt)

    p = sub.add_parser("det", help="two-qubit determinant invariant")
    p.add_argument("file")
    _add_json(p)
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("hyperdet3q", help="three-qubit hyperdeterminant")
    p.add_argument("file")
    _add_json(p)
    p.set_defaults(func=_cmd_hyperdet3q)

    p = sub.add_parser("qutrit-inv", help="qutrit normal-form invariants")
    p.add_argument("a1", type=complex)
    p.add_argument("a2", type=complex)
    p.add_argument("a3", type=complex)
    _add_json(p)
    p.set_defaults(func=_cmd_qutrit_inv)

    p = sub.add_parser("majorana", help="Majorana stars of a symmetric state")
    p.add_argument("file")
    p.add_argument("--svg", metavar="PATH", help="also write an SVG sphere view")
    p.add_argument("--cluster-tol", type=float, default=1e-6)
    _add_json(p)
    p.set_defaults(func=_cmd_majorana)

    p = sub.add_parser("check-invariance", help="Monte-Carlo invariance report")
    p.add_argument("file")
    p.add_argument(
        "--invariant",
        required=True,
        help="norm | det | hyperdet3q | schmidt-rank | amp00",
    )
    p.add_argument(
        "--group",
        default="su",
        help='"su", "u", or comma-separated per-party tokens like su2,su2',
    )
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_json(p)
    p.set_defaults(func=_cmd_check_invariance)

    p = sub.add_parser("classify", help="run all four definitional checks")
    p.add_argument("file")
    _add_json(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("gen", help="write a named example state to a file")
    gsub = p.add_subparsers(dest="kind", required=True)

    g = gsub.add_parser("bell")
    g.add_argument("--which", choices=["phi+", "psi+", "phi-", "psi-"], default="phi+")
    g.add_argument("--out", required=True)
    _add_json(g)
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("ghz")
    g.add_argument("--n", type=int, default=3)
    g.add_argument("--out", required=True)
    _add_json(g)
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("w")
    g.add_argument("--out", required=True)
    _add_json(g)
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("coherent")
    g.add_argument("--theta", type=float, required=True)
    g.add_argument("--phi", type=float, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out", required=True)
    _add_json(g)
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("qutrit-nf")
    g.add_argument("a1", type=complex)
    g.add_argument("a2", type=complex)
    g.add_argument("a3", type=complex)
    g.add_argument("--out", required=True)
    _add_json(g)
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("phi")
    g.add_argument("--alpha", type=complex, required=True)
    g.add_argument("--beta", type=complex, required=True)
    g.add_argument("--out", required=True)
    _add_json(g)
    g.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
