"""The top-level public names.

``entkit/__init__.py`` re-exports each library module's ``__all__``, so
this list is where a name dropped from a module, or one exported twice,
shows up.
"""

import entkit

#: every public name of the library, plus the package version
PUBLIC_NAMES = {
    "__version__",
    # states
    "ValidationError",
    "NumericError",
    "StateVector",
    "LocalUnitary",
    "make_state",
    "make_state_raw",
    "bell_state",
    "ghz_state",
    "w_state",
    "apply_local_unitary",
    "inner_product",
    "fidelity",
    "pauli",
    "BELL_KINDS",
    # stateio
    "LoadedState",
    "read_state",
    "write_state",
    "state_to_json",
    "state_from_json",
    # schmidt
    "SchmidtDecomposition",
    "schmidt_decompose",
    "is_entangled_bipartite",
    "is_product_multipartite",
    "bipartite_determinant",
    "det_squared",
    # hyperdet
    "ThreeQubitClass",
    "cayley_hyperdeterminant",
    "classify_three_qubit",
    # qutrit
    "NormalFormCoefficients",
    "QutritInvariantReport",
    "PhiFamilyResult",
    "build_normal_form_state",
    "fundamental_invariants",
    "hyperdeterminant_333",
    "phi_family",
    # majorana
    "NotSymmetricError",
    "DickeExpansion",
    "SpherePoint",
    "MajoranaConstellation",
    "SymmetricClassification",
    "symmetrize_check",
    "dicke_state",
    "majorana_polynomial",
    "find_stars",
    "binary_discriminant",
    "coherent_state",
    "classify_symmetric",
    # sampling
    "InvarianceReport",
    "trial_rng",
    "random_su2",
    "haar_unitary",
    "random_sud",
    "named_invariant",
    "invariance_suite",
    # classify
    "DefinitionCheck",
    "ClassificationReport",
    "classify_state",
}


def test_all_lists_every_public_name_once():
    assert len(PUBLIC_NAMES) == 58
    assert len(entkit.__all__) == len(set(entkit.__all__))
    assert set(entkit.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in entkit.__all__:
        assert getattr(entkit, name) is not None, name
    namespace = {}
    exec("from entkit import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)
