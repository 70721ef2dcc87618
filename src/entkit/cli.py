"""Command-line front end.

Every subcommand returns a machine-readable document and a
human-readable listing; ``main`` prints the document with --json and
the listing otherwise.  Floating-point output is
printed with 12 significant digits; JSON numbers are emitted unrounded.
Exit codes: 0 on success, 2 on validation problems (bad files, wrong
dimensions, asymmetric input to majorana, bad arguments), 3 on numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

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
    _phi_state,
    build_normal_form_state,
    fundamental_invariants,
    hyperdeterminant_333,
)
from .sampling import _REGISTRY, invariance_suite
from .schmidt import bipartite_determinant, schmidt_decompose
from .states import (
    BELL_KINDS,
    NumericError,
    ValidationError,
    _check_qubit_count,
    bell_state,
    ghz_state,
    w_state,
)

__all__ = ["main"]


def _fmt(x) -> str:
    """12 significant digits for floats; complex as a re/im pair."""
    if isinstance(x, complex):
        return f"{x.real:.11e}{x.imag:+.11e}j"
    if isinstance(x, float):
        return f"{x:.11e}"
    return str(x)


def _json_default(obj):
    """``json.dumps`` hook: complex as a re/im pair.

    Every document holds only Python values (a ``numpy.float64`` is a
    float and a ``numpy.complex128`` a complex); any other type raises,
    where ``json.dumps`` would otherwise write ``null``.
    """
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _load(path: str) -> stateio.LoadedState:
    loaded = stateio.read_state(path)
    if abs(loaded.pre_norm - 1.0) > 1e-9:
        print(
            f"note: input normalized (norm before was {_fmt(loaded.pre_norm)})",
            file=sys.stderr,
        )
    return loaded


# -- subcommands: each returns (JSON document, text lines) ------------------


def _listing(doc: dict) -> list[str]:
    return [f"{key}: {_fmt(val)}" for key, val in doc.items()]


def _cmd_schmidt(args, loaded):
    dec = schmidt_decompose(loaded.state, tuple(args.cut), args.tolerance)
    lambdas = [float(v) for v in dec.lambdas]
    doc = {
        "cut": list(dec.cut),
        "rank": dec.rank,
        "lambdas": lambdas,
        "tolerance": dec.tolerance_used,
        "pre_norm": loaded.pre_norm,
    }
    text = [f"cut: {','.join(str(c) for c in dec.cut)}", f"rank: {dec.rank}"]
    return doc, text + [f"lambda_{k}: {_fmt(v)}" for k, v in enumerate(lambdas)]


def _cmd_det(args, loaded):
    det = bipartite_determinant(loaded.state)
    two, sq = 2.0 * det, det**2
    doc = {"det": det, "two_det": two, "det_squared": sq}
    return doc, [f"det: {_fmt(det)}", f"2*det: {_fmt(two)}", f"det^2: {_fmt(sq)}"]


def _cmd_hyperdet3q(args, loaded):
    det = cayley_hyperdeterminant(loaded.state)
    cls = _class_of(det).value
    doc = {"hyperdeterminant": det, "abs": abs(det), "class": cls}
    return doc, [f"Det: {_fmt(det)}", f"|Det|: {_fmt(abs(det))}", f"class: {cls}"]


def _coefficients(args) -> NormalFormCoefficients:
    return NormalFormCoefficients(a1=args.a1, a2=args.a2, a3=args.a3)


def _cmd_qutrit_inv(args):
    coeffs = _coefficients(args)
    report = fundamental_invariants(coeffs)
    doc = {
        "a1": coeffs.a1,
        "a2": coeffs.a2,
        "a3": coeffs.a3,
        "I6": report.i6,
        "I9": report.i9,
        "I12": report.i12,
        "J12": report.j12,
        "Delta": report.delta,
        "Delta_from_invariants": hyperdeterminant_333(report),
    }
    return doc, _listing(doc)


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
    order = sorted(con.stars, key=lambda s: s.xyz()[1], reverse=True)
    for s in order:
        x, y, z = s.xyz()
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


def _cmd_majorana(args, loaded):
    cls = classify_symmetric(loaded.state, cluster_tol=args.cluster_tol)
    con = cls.constellation
    if args.svg:
        stateio._write_text(args.svg, _constellation_svg(con))
        print(f"note: wrote {args.svg}", file=sys.stderr)
    text = ["theta,phi,multiplicity"]
    text += [f"{s.theta:.11e},{s.phi:.11e},{s.multiplicity}" for s in con.stars]
    return {**asdict(con), "onion_level": cls.onion_level}, text


def _cmd_check_invariance(args, loaded):
    group = args.group.split(",") if "," in args.group else args.group
    report = invariance_suite(
        loaded.state, args.invariant, group=group, trials=args.trials, seed=args.seed
    )
    doc = asdict(report)
    return doc, _listing(doc)


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


def _cmd_classify(args, loaded):
    report = classify_state(loaded.state, state_id=Path(args.file).stem)
    text = [f"state: {report.state_id}"]
    text += [f"Def {c.definition}: {c.verdict}  [{_evidence_brief(c)}]"
             for c in report.checks]
    text += [f"warning: {w}" for w in report.warnings]
    return asdict(report), text


def _gen_coherent(args):
    _check_qubit_count(args.n)  # before the expansion, whose binomials overflow from n = 1030
    return dicke_state(coherent_state((args.theta, args.phi), args.n))


def _cmd_gen(args):
    state = args.build(args)
    stateio.write_state(state, args.out)
    doc = {"path": str(args.out), "dims": list(state.dims)}
    return doc, [f"wrote {args.out} (dims {','.join(str(d) for d in state.dims)})"]


# -- parser ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entkit",
        description="Entanglement invariants of pure multipartite states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands, generators = [], []

    def command(name, func, summary, file=True):
        """A subcommand; with ``file``, ``func(args, loaded)`` gets the state file read once."""
        p = sub.add_parser(name, help=summary)
        if file:
            p.add_argument("file")
        p.set_defaults(func=(lambda args: func(args, _load(args.file))) if file else func)
        commands.append(p)
        return p

    p = command("schmidt", _cmd_schmidt, "Schmidt decomposition across a cut")
    p.add_argument("--cut", nargs="+", type=int, default=[0], metavar="PARTY")
    p.add_argument("--tolerance", type=float, default=1e-9)

    command("det", _cmd_det, "two-qubit determinant invariant")
    command("hyperdet3q", _cmd_hyperdet3q, "three-qubit hyperdeterminant")

    p = command("qutrit-inv", _cmd_qutrit_inv, "qutrit normal-form invariants", file=False)
    for a in ("a1", "a2", "a3"):
        p.add_argument(a, type=complex)

    p = command("majorana", _cmd_majorana, "Majorana stars of a symmetric state")
    p.add_argument("--svg", metavar="PATH", help="also write an SVG sphere view")
    p.add_argument("--cluster-tol", type=float, default=1e-6)

    p = command("check-invariance", _cmd_check_invariance, "Monte-Carlo invariance report")
    p.add_argument(
        "--invariant",
        required=True,
        help=" | ".join(_REGISTRY),
    )
    p.add_argument(
        "--group",
        default="su",
        help='"su", "u", or comma-separated per-party tokens like su2,su2',
    )
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    command("classify", _cmd_classify, "run all four definitional checks")

    gen = sub.add_parser("gen", help="write a named example state to a file")
    gsub = gen.add_subparsers(dest="kind", required=True)

    def generator(kind, build):
        g = gsub.add_parser(kind)
        g.set_defaults(func=_cmd_gen, build=build)
        generators.append(g)
        return g

    g = generator("bell", lambda a: bell_state(a.which))
    g.add_argument("--which", choices=BELL_KINDS, default="phi+")
    g = generator("ghz", lambda a: ghz_state(a.n))
    g.add_argument("--n", type=int, default=3)
    generator("w", lambda a: w_state())
    g = generator("coherent", _gen_coherent)
    g.add_argument("--theta", type=float, required=True)
    g.add_argument("--phi", type=float, required=True)
    g.add_argument("--n", type=int, required=True)
    g = generator("qutrit-nf", lambda a: build_normal_form_state(_coefficients(a)))
    for a in ("a1", "a2", "a3"):
        g.add_argument(a, type=complex)
    g = generator("phi", lambda a: _phi_state(a.alpha, a.beta))
    g.add_argument("--alpha", type=complex, required=True)
    g.add_argument("--beta", type=complex, required=True)

    for g in generators:
        g.add_argument("--out", required=True)
    for p in commands + generators:
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc, text = args.func(args)
        out = json.dumps(doc, indent=2, default=_json_default) if args.json else "\n".join(text)
        print(out)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
