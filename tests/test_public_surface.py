"""The package's public surface is each layer's ``__all__``, declared once,
and the README's quick start runs on it as its comments say."""

import re
from importlib import import_module
from pathlib import Path

import numpy as np

import qcompat
from qcompat.witness import ROUND_TRIP_TOL

README = Path(__file__).resolve().parents[1] / "README.md"

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


def test_the_readme_quick_start_does_what_its_comments_say():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    scope = {}
    exec(blocks[0], scope)
    report, result, d = scope["report"], scope["result"], scope["d"]
    assert report.verdict_bfm is True and report.verdict_pi is False
    assert report.intersection_dim == 1
    for got, want in ((result.rho_alice, scope["rho_a"]), (result.rho_bob, scope["rho_b"])):
        assert qcompat.max_abs(got.matrix - want.matrix) <= ROUND_TRIP_TOL
    overlap = abs(np.vdot(result.joint.amplitudes, d.chi.amplitudes))
    assert abs(overlap - 1) <= ROUND_TRIP_TOL
