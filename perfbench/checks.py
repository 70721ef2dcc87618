"""Output checks of the benchmark, independent of entkit.

Every check takes the program's answer as plain data (the shape of the
CLI's ``--json`` documents) and an expectation the benchmark computed
itself or knows from how the input was built.  It returns a list of
problems; an empty list means the answer passed.  Nothing here imports
entkit, so a fault in the library cannot hide in its own checker.
"""

from __future__ import annotations

import math

import numpy as np

#: bound on the drift of a genuine invariant over 1000 trials
INVARIANT_DRIFT_MAX = 1e-9
#: the amp00 control must move by more than this
CONTROL_DRIFT_MIN = 0.01
#: absolute tolerance on Schmidt coefficients
LAMBDA_TOL = 1e-9
#: chordal distance allowed between a returned and a constructed star
STAR_TOL = 1e-6
#: absolute tolerance on amplitudes read back from a state file
AMPLITUDE_TOL = 1e-12


def sphere_xyz(theta: float, phi: float) -> np.ndarray:
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def reduced_lambdas(tensor: np.ndarray, party: int) -> np.ndarray:
    """Schmidt coefficients across the cut {party}, descending.

    Square roots of the eigenvalues of the one-party reduced density
    matrix, from ``eigvalsh`` rather than an SVD of the amplitudes.
    """
    m = np.moveaxis(tensor, party, 0).reshape(tensor.shape[party], -1)
    rho = m @ m.conj().T
    ev = np.clip(np.linalg.eigvalsh(rho)[::-1], 0.0, None)
    return np.sqrt(ev)


def pencil_hyperdeterminant(tensor: np.ndarray) -> complex:
    """Cayley's 2x2x2 hyperdeterminant as disc(det(t0 + x t1)).

    det(t0 + x t1) = a x^2 + b x + c with t0, t1 the two slices along
    the first party; the discriminant b^2 - 4ac is the hyperdeterminant.
    """
    t0, t1 = tensor[0], tensor[1]
    a = t1[0, 0] * t1[1, 1] - t1[0, 1] * t1[1, 0]
    c = t0[0, 0] * t0[1, 1] - t0[0, 1] * t0[1, 0]
    b = t0[0, 0] * t1[1, 1] + t1[0, 0] * t0[1, 1] - t0[0, 1] * t1[1, 0] - t1[0, 1] * t0[1, 0]
    return complex(b * b - 4.0 * a * c)


def check_invariance(doc: dict, *, invariant: str, trials: int, seed: int, control: bool) -> list[str]:
    """An invariance report: genuine invariants stay put, the control moves."""
    errors = []
    if doc.get("invariant_name") != invariant:
        errors.append(f"invariant_name {doc.get('invariant_name')!r} != {invariant!r}")
    if doc.get("trials") != trials:
        errors.append(f"trials {doc.get('trials')} != {trials}")
    if doc.get("seed") != seed:
        errors.append(f"seed {doc.get('seed')} != {seed}")
    hi, mean = doc.get("max_abs_drift"), doc.get("mean_abs_drift")
    if not isinstance(hi, (int, float)) or not isinstance(mean, (int, float)):
        return errors + ["drift statistics missing"]
    # the mean of equal drifts may round a few ulps above them
    if not 0.0 <= mean <= hi * (1.0 + 1e-12):
        errors.append(f"mean drift {mean} outside [0, max drift {hi}]")
    if control and not hi > CONTROL_DRIFT_MIN:
        errors.append(f"control drift {hi} not above {CONTROL_DRIFT_MIN}")
    if not control and not hi <= INVARIANT_DRIFT_MAX:
        errors.append(f"invariant drift {hi} above {INVARIANT_DRIFT_MAX}")
    return errors


def check_hyperdeterminant(value: complex, tensor: np.ndarray, tol: float = 1e-12) -> list[str]:
    oracle = pencil_hyperdeterminant(tensor)
    if not abs(complex(value) - oracle) <= tol:
        return [f"hyperdeterminant {value} != pencil oracle {oracle}"]
    return []


def _match_stars(stars: list, expected: list) -> list[str]:
    """Pair each constructed star with one returned star of equal multiplicity."""
    errors = []
    free = list(range(len(stars)))
    for theta, phi, mult in expected:
        want = sphere_xyz(theta, phi)
        best, best_d = None, math.inf
        for i in free:
            s = stars[i]
            if s["multiplicity"] != mult:
                continue
            d = float(np.linalg.norm(sphere_xyz(s["theta"], s["phi"]) - want))
            if d < best_d:
                best, best_d = i, d
        if best is None or best_d > STAR_TOL:
            errors.append(
                f"no returned star of multiplicity {mult} within {STAR_TOL} of "
                f"({theta:.6f}, {phi:.6f}); nearest at {best_d:.3e}"
            )
        else:
            free.remove(best)
    return errors


def check_constellation(doc: dict, expected: list) -> list[str]:
    """Exact partition, and every star near the one the input was built from.

    ``expected`` lists (theta, phi, multiplicity) of the distinct stars.
    """
    want = sorted((m for _, _, m in expected), reverse=True)
    got = list(doc.get("partition", []))
    errors = []
    if got != want:
        errors.append(f"partition {tuple(got)} != {tuple(want)}")
    stars = doc.get("stars", [])
    if sorted((s["multiplicity"] for s in stars), reverse=True) != got:
        errors.append("star multiplicities do not match the partition")
    if len(stars) != len(expected):
        errors.append(f"{len(stars)} distinct stars, expected {len(expected)}")
    return errors or _match_stars(stars, expected)


def check_lambdas(got, want: np.ndarray) -> list[str]:
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return [f"{got.size} Schmidt coefficients, expected {want.size}"]
    err = float(np.max(np.abs(got - want)))
    return [f"Schmidt coefficients off by {err:.3e}"] if not err <= LAMBDA_TOL else []


def check_schmidt(doc: dict, want: np.ndarray) -> list[str]:
    """A single-cut Schmidt report against the reduced density matrix."""
    errors = []
    if doc.get("rank") != want.size:
        errors.append(f"rank {doc.get('rank')} != {want.size}")
    return errors + check_lambdas(doc.get("lambdas", []), want)


def check_classification(doc: dict, expect: dict) -> list[str]:
    """A four-definition report in the CLI's ``classify --json`` shape.

    ``expect`` holds ``lambdas`` (the nonzero Schmidt coefficients of
    each single-party cut), ``product`` (bool), and ``level`` with ``stars``
    (Definition 4; ``level`` None when the state is not symmetric).
    """
    checks = {c["definition"]: c for c in doc.get("checks", [])}
    if sorted(checks) != [1, 2, 3, 4]:
        return [f"definitions {sorted(checks)} reported, expected 1-4"]
    errors = []
    product = expect["product"]
    verdict = "product" if product else "entangled"
    ranks = [w.size for w in expect["lambdas"]]
    d1, d2, d4 = checks[1], checks[2], checks[4]
    if d1["verdict"] != verdict or d1["evidence"].get("is_product") != product:
        errors.append(f"Def 1 verdict {d1['verdict']!r}, expected {verdict!r}")
    if list(d1["evidence"].get("single_cut_ranks", [])) != ranks:
        errors.append(f"Def 1 ranks {d1['evidence'].get('single_cut_ranks')} != {ranks}")
    if d2["verdict"] != verdict:
        errors.append(f"Def 2 verdict {d2['verdict']!r}, expected {verdict!r}")
    got_ranks = d2["evidence"].get("ranks", {})
    got_lambdas = d2["evidence"].get("schmidt_coefficients", {})
    for k, want in enumerate(expect["lambdas"]):
        key = f"cut_{k}"
        if got_ranks.get(key) != want.size:
            errors.append(f"Def 2 {key} rank {got_ranks.get(key)} != {want.size}")
        errors += [f"Def 2 {key}: {e}" for e in check_lambdas(got_lambdas.get(key, []), want)]
    level = expect["level"]
    if level is None:
        if d4["verdict"] != "not-applicable":
            errors.append(f"Def 4 verdict {d4['verdict']!r} on a non-symmetric state")
    elif d4["verdict"] != f"level-{level}":
        errors.append(f"Def 4 verdict {d4['verdict']!r}, expected 'level-{level}'")
    else:
        errors += [f"Def 4: {e}" for e in check_constellation(d4["evidence"], expect["stars"])]
    return errors


def check_state_file(doc: dict, want: np.ndarray) -> list[str]:
    """A state file (read as plain JSON) against the amplitudes it should hold."""
    dims = list(want.shape)
    if doc.get("dims") != dims:
        return [f"dims {doc.get('dims')} != {dims}"]
    got = np.zeros(want.shape, dtype=complex)
    for entry in doc.get("amplitudes", []):
        got[tuple(entry["index"])] = complex(entry["re"], entry.get("im", 0.0))
    err = float(np.max(np.abs(got - want)))
    return [f"amplitudes off by {err:.3e}"] if not err <= AMPLITUDE_TOL else []
