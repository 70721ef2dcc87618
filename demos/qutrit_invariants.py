#!/usr/bin/env python3
"""Three-qutrit invariants on the normal form.

A generic three-qutrit state can be rotated into a three-parameter
normal form with coefficients (a1, a2, a3).  On that slice the whole
invariant ring is generated by I6, I9 and I12 (plus the derived J12),
and the 3x3x3 hyperdeterminant Delta is a fixed polynomial in them.
"""

from entkit import (
    NormalFormCoefficients,
    build_normal_form_state,
    fundamental_invariants,
    hyperdeterminant_333,
    phi_family,
)

for triple in [(1, 0, 0), (1, 1, 1), (1, 1, 0), (2, 1, 1)]:
    rep = fundamental_invariants(NormalFormCoefficients(*triple))
    print(f"a = {triple}")
    print(f"  I6  = {rep.i6.real: .6g}")
    print(f"  I9  = {rep.i9.real: .6g}")
    print(f"  I12 = {rep.i12.real: .6g}")
    print(f"  J12 = {rep.j12.real: .6g}")
    print(f"  Delta = {rep.delta.real: .12g}")

# Delta vanishes on all three degenerate triples above; (2,1,1) is the
# generic case.  The report's delta is the exact value rounded once,
# and hyperdeterminant_333 recombines the rounded fundamental invariants
# as a cross-check of the same quantity.
rep = fundamental_invariants(NormalFormCoefficients(2, 1, 1))
print("\nrecombined Delta(2,1,1) =", hyperdeterminant_333(rep).real)

# The phi family is a one-parameter curve of states with a closed-form
# hyperdeterminant, handy as an end-to-end check of the pipeline.
res = phi_family(1, 1)
print("\nphi(1,1):")
print("  closed form   :", res.delta.real, " (= 4096/27)")
print("  via invariants:", hyperdeterminant_333(res.report).real)
print("  I6 =", res.report.i6.real, "  I9 =", res.report.i9.real,
      "  I12 =", res.report.i12.real)

state = build_normal_form_state(NormalFormCoefficients(1, 1, 0))
print("\nnormal form state for (1,1,0) has",
      int((abs(state.tensor()) > 1e-12).sum()), "nonzero amplitudes")
