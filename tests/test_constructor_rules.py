"""Each rejection of the library's constructors and operations outside the file
formats, one fault per call, the one integer rule and the one number rule at
every taker, the file readers and writers included, and the one tolerance
rule at every public function that takes ``tol``.

Every case breaks one rule and pins the exception class and the exact message.
"""

import copy
import dataclasses
import inspect
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

import qcompat
from qcompat import (
    ChiOutsideSupport,
    DensityMatrix,
    DimensionMismatch,
    Ensemble,
    MalformedFile,
    PureState,
    SharedDecomposition,
    Subspace,
    Tolerances,
    basis_state,
    build_shared_decomposition,
    build_witness,
    check_bfm,
    check_pi,
    check_pii,
    check_pure_pair,
    choose_common_state,
    eigen_ensemble,
    from_ensemble,
    hermitian_eigendecompose,
    intersect,
    max_common_weight,
    null_of,
    partial_trace,
    project_and_renormalize,
    simulate_protocol,
    support_of,
    tensor,
    validate_density,
    verify_joint,
)
from qcompat.formats import parse_matrix, parse_report_document, report_document
from conftest import DATA, golden_pair, golden_witness_document

KET0, KET1 = basis_state(2, 0), basis_state(2, 1)
KET3 = basis_state(3, 0)
MIXED = validate_density(np.eye(2) / 2)

CASES = [
    ("subspace-ambient-zero", lambda: Subspace(0, np.zeros((0, 0))), ValueError,
     "ambient_dim must be an integer of at least 1, got 0"),
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
    # the private constructor that freezes a fresh vector in place keeps every check
    ("pure-adopt-empty", lambda: PureState._adopt(np.zeros(0, dtype=complex)), ValueError,
     "pure state needs at least one amplitude"),
    ("pure-adopt-non-finite", lambda: PureState._adopt(np.array([np.nan, 1.0 + 0j])),
     ValueError, "amplitudes contain non-finite entries"),
    ("pure-adopt-not-normalized", lambda: PureState._adopt(np.array([2.0 + 0j, 0.0])),
     ValueError, "state is not normalized: |amplitudes| = 2.0"),
    ("basis-state-out-of-range", lambda: basis_state(2, 2), ValueError,
     "basis index 2 out of range for dim 2"),
    ("ensemble-empty", lambda: Ensemble(()), ValueError,
     "ensemble needs at least one component"),
    ("ensemble-mixed-dims", lambda: Ensemble(((0.5, KET0), (0.5, KET3))), ValueError,
     "ensemble components have mixed dimensions [2, 3]"),
    ("tensor-no-operands", lambda: tensor([]), ValueError,
     "tensor needs at least one operand"),
    ("subsystem-dim-zero", lambda: partial_trace(MIXED, [2, 0], [0]), DimensionMismatch,
     "subsystem dimension must be an integer of at least 1, got 0"),
    ("decomposition-rest-dim",
     lambda: SharedDecomposition(KET0, 0.5, 1.0, ((0.5, KET3),), ()), ValueError,
     "decomposition a components have mixed dimensions [2, 3]"),
    ("ensemble-weight-negative", lambda: Ensemble(((1.2, KET0), (-0.2, KET1))), ValueError,
     "ensemble weights must be strictly positive, got -0.2"),
    ("decomposition-weights-sum",
     lambda: SharedDecomposition(KET0, 1.0, 0.5, (), ((0.4, KET1),)), ValueError,
     "decomposition b weights sum to 0.9, expected 1"),
    ("common-weight-chi-dim", lambda: max_common_weight(MIXED, KET3), ChiOutsideSupport,
     "state dimension 3 does not match rho dimension 2"),
    ("ensemble-term-not-a-state", lambda: Ensemble(((1.0, np.array([1, 0])),)), ValueError,
     "ensemble components must be (weight, PureState) pairs, got (float, ndarray)"),
    ("ensemble-term-three-items", lambda: Ensemble(((1.0, KET0, 0),)), ValueError,
     "ensemble components must be (weight, PureState) pairs, got (float, PureState, int)"),
    ("ensemble-term-bare-weight", lambda: Ensemble((1.0,)), ValueError,
     "ensemble components must be (weight, PureState) pairs, got float"),
    ("decomposition-chi-not-a-state",
     lambda: SharedDecomposition(np.array([1, 0]), 1.0, 1.0, (), ()), ValueError,
     "decomposition a components must be (weight, PureState) pairs, got (float, ndarray)"),
    ("decomposition-rest-not-a-state",
     lambda: SharedDecomposition(KET0, 1.0, 0.5, (), ((0.5, np.array([0, 1])),)), ValueError,
     "decomposition b components must be (weight, PureState) pairs, got (float, ndarray)"),
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



MIXED4 = validate_density(np.eye(4) / 4)
KET00 = basis_state(4, 0)
GOLDEN_REPORT = check_bfm(list(golden_pair()))
GOLDEN_DOC = golden_witness_document()  # dims [2, 1, 2], one rest_b term


def matrix_file(dim):
    """The golden matrix file with its ``dim`` field replaced."""
    doc = json.loads((DATA / "golden_matrix.json").read_text())
    doc["dim"] = dim
    return io.StringIO(json.dumps(doc))


def edited(path, value):
    """The golden witness document with the field at ``path`` replaced."""
    doc = copy.deepcopy(GOLDEN_DOC)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def read_edited(*path):
    return lambda v: parse_report_document(edited(path, v))


# id, the call that hands the value in, the owner's class, the name the message
# gives the value, and the least integer the rule takes
INTEGER_TAKERS = [
    ("subspace-ambient-dim", lambda v: Subspace(v, np.eye(2)), ValueError, "ambient_dim", 1),
    ("basis-state-dim", lambda v: basis_state(v, 0), ValueError, "dim", 1),
    ("basis-state-index", lambda v: basis_state(2, v), ValueError, "basis index", 0),
    ("partial-trace-dims", lambda v: partial_trace(MIXED4, (v, 2), [0]), DimensionMismatch,
     "subsystem dimension", 1),
    ("partial-trace-keep", lambda v: partial_trace(MIXED4, (2, 2), [v]), DimensionMismatch,
     "keep index", 0),
    ("project-subsystem", lambda v: project_and_renormalize(KET00, (2, 2), v, basis_state(2, 0)),
     DimensionMismatch, "subsystem", 0),
    ("matrix-dim", lambda v: parse_matrix(matrix_file(v)), MalformedFile, "field 'dim'", 1),
    ("report-dim", read_edited("report", "dim"), MalformedFile, "report.dim", 1),
    ("read-n-states", read_edited("report", "n_states"), MalformedFile, "report.n_states", 2),
    ("write-n-states",
     lambda v: report_document(dataclasses.replace(GOLDEN_REPORT, n_states=v), []), ValueError,
     "report.n_states", 2),
    ("witness-dims", read_edited("witness", "dims", 1), MalformedFile, "witness.dims[1]", 1),
]

# id, the call that hands the value in, the owner's class, the name the message
# gives the value
NUMBER_TAKERS = [
    ("tolerances", lambda v: Tolerances(trace_tol=v), ValueError, "trace_tol"),
    ("ensemble-weight", lambda v: Ensemble(((v, KET0),)), ValueError, "ensemble weight"),
    ("decomposition-p0", lambda v: SharedDecomposition(KET0, v, 1.0, (), ()), ValueError,
     "decomposition a weight"),
    ("decomposition-q0", lambda v: SharedDecomposition(KET0, 1.0, v, (), ()), ValueError,
     "decomposition b weight"),
    ("decomposition-rest-weight",
     lambda v: SharedDecomposition(KET0, 1.0, 0.5, (), ((v, KET1),)), ValueError,
     "decomposition b weight"),
    ("read-tolerances", read_edited("tolerances_used", "trace_tol"), MalformedFile,
     "tolerances_used: trace_tol"),
    ("read-p0", read_edited("decomposition", "p0"), MalformedFile, "decomposition: p0"),
    ("read-weight", read_edited("decomposition", "rest_b", 0, "weight"), MalformedFile,
     "decomposition.rest_b[0]: weight"),
    ("read-norm", read_edited("report", "commutator_norm"), MalformedFile,
     "report: commutator_norm"),
    ("write-norm",
     lambda v: report_document(dataclasses.replace(GOLDEN_REPORT, commutator_norm=v), []),
     ValueError, "report: commutator_norm"),
    ("normalization", read_edited("witness", "normalization"), MalformedFile,
     "witness.normalization"),
    ("pair-re", read_edited("report", "intersection_basis", 0, 0, 0), MalformedFile,
     "report.intersection_basis[0][0]: re"),
    ("pair-im", read_edited("report", "intersection_basis", 0, 1, 1), MalformedFile,
     "report.intersection_basis[0][1]: im"),
]


@pytest.mark.parametrize(
    "bad", [True, 2.7, "2", "least - 1"], ids=["True", "2.7", "str", "least-1"]
)
@pytest.mark.parametrize(
    "call, error, what, least", [pytest.param(*t[1:], id=t[0]) for t in INTEGER_TAKERS]
)
def test_every_integer_taker_states_the_one_integer_rule(call, error, what, least, bad):
    value = least - 1 if bad == "least - 1" else bad  # the one value that depends on the taker
    with pytest.raises(error) as exc:
        call(value)
    assert type(exc.value) is error
    assert str(exc.value) == f"{what} must be an integer of at least {least}, got {value!r}"


@pytest.mark.parametrize(
    "value", [True, "1e-9", None, np.nan, np.inf, 10**400],
    ids=["True", "str", "None", "nan", "inf", "1e400"],
)
@pytest.mark.parametrize(
    "call, error, what", [pytest.param(*t[1:], id=t[0]) for t in NUMBER_TAKERS]
)
def test_every_number_taker_states_the_one_number_rule(call, error, what, value):
    with pytest.raises(error) as exc:
        call(value)
    assert type(exc.value) is error
    assert str(exc.value) == f"{what} must be a number, got {value!r}"


A, B = golden_pair()
WITNESS = build_witness(build_shared_decomposition(A, B))

# id and the call that hands ``tol`` in, one row per public function that takes it
TOL_TAKERS = [
    ("hermitian-eigendecompose", lambda t: hermitian_eigendecompose(A.matrix, t)),
    ("support-of", lambda t: support_of(A.matrix, t)),
    ("null-of", lambda t: null_of(A.matrix, t)),
    ("intersect", lambda t: intersect(Subspace(2, np.eye(2)), tol=t)),
    ("validate-density", lambda t: validate_density(A.matrix, t)),
    ("from-ensemble", lambda t: from_ensemble(Ensemble(((1.0, KET0),)), t)),
    ("eigen-ensemble", lambda t: eigen_ensemble(B, t)),
    ("partial-trace", lambda t: partial_trace(MIXED4, (2, 2), [0], t)),
    ("project-and-renormalize", lambda t: project_and_renormalize(KET00, (2, 2), 0, KET0, t)),
    ("check-pi", lambda t: check_pi(A, B, t)),
    ("check-pii", lambda t: check_pii(A, B, t)),
    ("check-bfm", lambda t: check_bfm([A, B], t)),
    ("check-pure-pair", lambda t: check_pure_pair(A, A, t)),
    ("verify-joint", lambda t: verify_joint(A, [A, B], t)),
    ("choose-common-state", lambda t: choose_common_state(A, B, t)),
    ("max-common-weight", lambda t: max_common_weight(B, KET0, t)),
    ("build-shared-decomposition", lambda t: build_shared_decomposition(A, B, t)),
    ("simulate-protocol", lambda t: simulate_protocol(WITNESS, t)),
]
TOL_PARAMS = [pytest.param(t[1], id=t[0]) for t in TOL_TAKERS]

# a falsy value, a bare number, a mapping, and an object with every field of
# Tolerances whose overlap_tol Tolerances itself rejects
NOT_TOLERANCES = [0, 1e-7, {"overlap_tol": 1e-7}, SimpleNamespace(
    hermiticity_tol=1e-9, eigenvalue_zero_tol=1e-9, trace_tol=1e-9, overlap_tol=0.7)]


@pytest.mark.parametrize("value", NOT_TOLERANCES, ids=["zero", "number", "dict", "namespace"])
@pytest.mark.parametrize("call", TOL_PARAMS)
def test_every_tol_taker_states_the_one_tolerance_rule(call, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"tol must be a Tolerances or None, got {value!r}"


def test_the_tolerance_table_holds_every_public_function_that_takes_tol():
    public = (getattr(qcompat, name) for name in qcompat.__all__)
    takers = {f.__name__ for f in public if inspect.isfunction(f)
              and "tol" in inspect.signature(f).parameters}
    assert takers == {t[0].replace("-", "_") for t in TOL_TAKERS}


@pytest.mark.parametrize("call", TOL_PARAMS)
def test_every_tol_taker_takes_none_or_tolerances(call):
    call(None)
    call(Tolerances(overlap_tol=1e-6))


def test_numpy_integers_and_floats_pass_both_rules():
    i64 = np.int64
    reduced = partial_trace(MIXED4, (i64(2), i64(2)), [i64(0)])
    assert np.array_equal(reduced.matrix, partial_trace(MIXED4, (2, 2), [0]).matrix)
    assert basis_state(i64(2), i64(1)).amplitudes[1] == 1
    assert type(Subspace(i64(2), np.eye(2)).ambient_dim) is int
    assert Tolerances(trace_tol=np.float64(1e-9)).trace_tol == 1e-9
    halves = ((np.float32(0.5), KET0), (np.float64(0.5), KET1))
    assert [type(w) for w, _ in Ensemble(halves).components] == [float, float]
    d = SharedDecomposition(KET0, np.float64(0.5), np.int64(1), (halves[1],), ())
    assert (type(d.p0), type(d.q0), type(d.rest_a[0][0])) == (float, float, float)
    doc = edited(("witness", "dims"), [i64(2), i64(1), i64(2)])
    for section, key in [("witness", "normalization"), ("decomposition", "p0"),
                         ("tolerances_used", "trace_tol")]:
        doc[section][key] = np.float64(doc[section][key])
    parsed = parse_report_document(doc)
    assert parsed.decomposition.p0 == GOLDEN_DOC["decomposition"]["p0"]
    assert parsed.witness.normalization == GOLDEN_DOC["witness"]["normalization"]
