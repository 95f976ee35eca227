"""The package's public surface is each layer's ``__all__``, declared once."""

from importlib import import_module

import qcompat

LAYERS = ("errors", "linalg", "states", "compat", "witness")

# the package's public names before it re-exported the layers' lists
PUBLIC = """
__version__ QcompatError NotSquare NotHermitian NotPSD TraceNotOne
NegativeEigenvalue StateValidationError AmbientMismatch DimensionMismatch
EmptyKeep ZeroProbabilityOutcome NotPure FewerThanTwoStates Incompatible
ChiOutsideSupport MalformedFile SchemaVersionUnsupported ShapeMismatch
Tolerances Subspace max_abs hermitian_eigendecompose support_of null_of
intersect projector_from PureState DensityMatrix Ensemble basis_state
validate_density from_ensemble eigen_ensemble tensor partial_trace
project_and_renormalize CompatReport NullSpaceLeak JointConstraintReport
check_pi check_pii check_bfm check_pure_pair verify_joint SharedDecomposition
WitnessState ProtocolResult choose_common_state max_common_weight
build_shared_decomposition build_witness simulate_protocol
""".split()


def test_the_package_re_exports_each_layers_public_names():
    declared = {"__version__"}
    for name in LAYERS:
        layer = import_module(f"qcompat.{name}")
        for public in layer.__all__:
            assert public in vars(layer), f"{name}.__all__ names undefined {public!r}"
            assert getattr(qcompat, public) is vars(layer)[public], f"{name}.{public}"
        declared.update(layer.__all__)
    assert len(qcompat.__all__) == len(set(qcompat.__all__))
    assert set(qcompat.__all__) == declared
    assert len(PUBLIC) == 53
    assert set(PUBLIC) | {"as_complex_matrix"} == declared
