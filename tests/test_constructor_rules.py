"""Each rejection of the library's constructors and operations outside the file
formats, one fault per call.

Every case breaks one rule and pins the exception class and the exact message.
"""

import numpy as np
import pytest

from qcompat import (
    ChiOutsideSupport,
    DensityMatrix,
    DimensionMismatch,
    Ensemble,
    PureState,
    SharedDecomposition,
    Subspace,
    basis_state,
    max_common_weight,
    partial_trace,
    tensor,
    validate_density,
)

KET0, KET1 = basis_state(2, 0), basis_state(2, 1)
KET3 = basis_state(3, 0)
MIXED = validate_density(np.eye(2) / 2)

CASES = [
    ("subspace-ambient-zero", lambda: Subspace(0, np.zeros((0, 0))), ValueError,
     "ambient_dim must be positive"),
    ("subspace-shape", lambda: Subspace(2, np.eye(3)[:, :1]), ValueError,
     "basis must have shape (2, k), got (3, 1)"),
    ("subspace-too-many-vectors", lambda: Subspace(2, np.ones((2, 3))), ValueError,
     "more basis vectors than ambient dimensions"),
    ("subspace-non-finite", lambda: Subspace(2, np.array([[np.nan], [0.0]])), ValueError,
     "basis contains non-finite entries"),
    ("pure-empty", lambda: PureState(np.zeros(0)), ValueError,
     "pure state needs at least one amplitude"),
    ("pure-non-finite", lambda: PureState(np.array([np.inf, 0.0])), ValueError,
     "amplitudes contain non-finite entries"),
    ("basis-state-out-of-range", lambda: basis_state(2, 2), ValueError,
     "basis index 2 out of range for dim 2"),
    ("ensemble-empty", lambda: Ensemble(()), ValueError,
     "ensemble needs at least one component"),
    ("ensemble-mixed-dims", lambda: Ensemble(((0.5, KET0), (0.5, KET3))), ValueError,
     "ensemble components have mixed dimensions [2, 3]"),
    ("tensor-no-operands", lambda: tensor([]), ValueError,
     "tensor needs at least one operand"),
    ("subsystem-dim-zero", lambda: partial_trace(MIXED, [2, 0], [0]), DimensionMismatch,
     "subsystem dimensions must be positive, got (2, 0)"),
    ("decomposition-rest-dim",
     lambda: SharedDecomposition(KET0, 0.5, 1.0, ((0.5, KET3),), ()), ValueError,
     "rest_a states must match the shared-state dimension"),
    ("common-weight-chi-dim", lambda: max_common_weight(MIXED, KET3), ChiOutsideSupport,
     "state dimension 3 does not match rho dimension 2"),
    ("density-label-int", lambda: validate_density(np.eye(2) / 2, label=5), ValueError,
     "label must be a string or None, got 5"),
    ("density-label-bytes", lambda: DensityMatrix(np.eye(2) / 2, label=b"A"), ValueError,
     "label must be a string or None, got b'A'"),
]


@pytest.mark.parametrize(
    "call, error, message", [pytest.param(*case[1:], id=case[0]) for case in CASES]
)
def test_each_rule_rejects_with_its_class_and_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_ensemble_dim_is_its_components_dimension():
    assert Ensemble(((0.25, KET0), (0.75, KET1))).dim == 2

