"""Each rule of the file readers, one fault per document.

Every case mutates a valid document (the golden matrix file, or the witness
file of the README's golden pair) in one place and pins the exception class
and the exact message the reader raises.  The sections rules are pinned on
both sides: the writer raises ``ValueError`` where the reader raises
``MalformedFile``, with the same message.
"""

import copy
import io
import json

import numpy as np
import pytest

from qcompat import (
    MalformedFile,
    PureState,
    ShapeMismatch,
    SharedDecomposition,
    basis_state,
    build_shared_decomposition,
    build_witness,
    check_bfm,
    validate_density,
)
from qcompat.cli import cli_main
from qcompat.formats import dumps_canonical, load_report, parse_matrix, report_document
from conftest import DATA, golden_pair, golden_witness_document


A, B = golden_pair()
ONE = validate_density(np.diag([0.0, 1.0]), label="one")
HALF = validate_density(np.eye(2) / 2, label="half")


def golden_matrix_document() -> dict:
    return json.loads((DATA / "golden_matrix.json").read_text())


def golden_witness_file() -> dict:
    """:func:`conftest.golden_witness_document` as JSON reads its file back."""
    return json.loads(dumps_canonical(golden_witness_document()))


DELETE = object()


def put(*path_and_value):
    """A mutation that sets (or, for DELETE, removes) the value at ``path``;
    an empty path replaces the whole document."""
    *path, value = path_and_value

    def mutate(doc):
        if not path:
            return value(doc)
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return doc

    return mutate


MATRIX_CASES = [
    ("top-level", put(lambda doc: [doc]), MalformedFile,
     "expected a JSON object at top level, got list"),
    ("no-schema", put("schema_version", DELETE), MalformedFile,
     "missing required field 'schema_version'"),
    ("dim-zero", put("dim", 0), MalformedFile,
     "field 'dim' must be an integer of at least 1, got 0"),
    ("dim-bool", put("dim", True), MalformedFile,
     "field 'dim' must be an integer of at least 1, got True"),
    ("dim-str", put("dim", "6"), MalformedFile,
     "field 'dim' must be an integer of at least 1, got '6'"),
    ("entries", put("entries", {}), MalformedFile, "field 'entries' must be a list of rows"),
    ("row-str", put("entries", 1, "row"), MalformedFile,
     "entries[1]: expected a list of [re, im] pairs"),
    ("row-int", put("entries", 5, 7), MalformedFile,
     "entries[5]: expected a list of [re, im] pairs"),
]

STRETCHED = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]  # a unit vector of dimension 3

REPORT_CASES = [
    ("top-level", put(lambda doc: [doc]), MalformedFile,
     "expected a JSON object at top level, got list"),
    ("no-schema", put("schema_version", DELETE), MalformedFile,
     "missing required field 'schema_version'"),
    ("no-report", put("report", DELETE), MalformedFile,
     "document: missing required field 'report'"),
    ("report", put("report", []), MalformedFile, "field 'report' must be an object"),
    ("no-dim", put("report", "dim", DELETE), MalformedFile,
     "report: missing required field 'dim'"),
    ("dim-zero", put("report", "dim", 0), MalformedFile,
     "report.dim must be an integer of at least 1, got 0"),
    ("dim-bool", put("report", "dim", True), MalformedFile,
     "report.dim must be an integer of at least 1, got True"),
    ("dim-float", put("report", "dim", 2.0), MalformedFile,
     "report.dim must be an integer of at least 1, got 2.0"),
    ("basis", put("report", "intersection_basis", {}), MalformedFile,
     "report.intersection_basis must be a list of vectors"),
    ("basis-vector", put("report", "intersection_basis", 0, []), MalformedFile,
     "report.intersection_basis[0]: expected a nonempty list of [re, im] pairs"),
    ("basis-dim", put("report", "intersection_basis", 0, STRETCHED), ShapeMismatch,
     "report.intersection_basis[0]: expected dimension 2"),
    ("basis-norm", put("report", "intersection_basis", 0, [[2.0, 0.0], [0.0, 0.0]]),
     MalformedFile, "report: basis columns are not orthonormal to 1e-10"),
    ("no-n_states", put("report", "n_states", DELETE), MalformedFile,
     "report: missing required field 'n_states'"),
    ("tolerances", put("tolerances_used", []), MalformedFile,
     "tolerances_used: expected an object"),
    ("no-tolerance", put("tolerances_used", "trace_tol", DELETE), MalformedFile,
     "tolerances_used: missing required field 'trace_tol'"),
    ("decomposition", put("decomposition", []), MalformedFile,
     "decomposition: expected an object"),
    ("no-chi", put("decomposition", "chi", DELETE), MalformedFile,
     "decomposition: missing required field 'chi'"),
    ("chi-empty", put("decomposition", "chi", []), MalformedFile,
     "decomposition.chi: expected a nonempty list of [re, im] pairs"),
    ("chi-object", put("decomposition", "chi", {}), MalformedFile,
     "decomposition.chi: expected a nonempty list of [re, im] pairs"),
    ("chi-entry", put("decomposition", "chi", 1, [0.0]), MalformedFile,
     "decomposition.chi[1]: expected a [re, im] number pair, got [0.0]"),
    ("chi-norm", put("decomposition", "chi", [[0.5, 0.0], [0.0, 0.0]]), MalformedFile,
     "decomposition.chi: state is not normalized: |amplitudes| = 0.5"),
    ("no-rest_a", put("decomposition", "rest_a", DELETE), MalformedFile,
     "decomposition: missing required field 'rest_a'"),
    ("rest-list", put("decomposition", "rest_a", {}), MalformedFile,
     "decomposition.rest_a: expected a list"),
    ("rest-object", put("decomposition", "rest_b", 0, []), MalformedFile,
     "decomposition.rest_b[0]: expected an object"),
    ("no-state", put("decomposition", "rest_b", 0, "state", DELETE), MalformedFile,
     "decomposition.rest_b[0]: missing required field 'state'"),
    ("state-empty", put("decomposition", "rest_b", 0, "state", []), MalformedFile,
     "decomposition.rest_b[0].state: expected a nonempty list of [re, im] pairs"),
    ("state-dim", put("decomposition", "rest_b", 0, "state", STRETCHED), ShapeMismatch,
     "decomposition.rest_b[0].state: expected dimension 2"),
    ("state-norm", put("decomposition", "rest_b", 0, "state", [[2.0, 0.0], [0.0, 0.0]]),
     MalformedFile, "decomposition.rest_b[0].state: state is not normalized: |amplitudes| = 2.0"),
    ("witness", put("witness", []), MalformedFile, "field 'witness' must be an object"),
    ("no-dims", put("witness", "dims", DELETE), MalformedFile,
     "witness: missing required field 'dims'"),
]


@pytest.mark.parametrize(
    "read, base, mutate, error, message",
    [pytest.param(parse_matrix, golden_matrix_document, *case[1:], id=f"matrix-{case[0]}")
     for case in MATRIX_CASES]
    + [pytest.param(load_report, golden_witness_file, *case[1:], id=f"report-{case[0]}")
       for case in REPORT_CASES],
)
def test_reader_rejects_each_single_fault_with_its_message(read, base, mutate, error, message):
    doc = base()
    read(io.StringIO(json.dumps(doc)))  # the unmutated document reads
    with pytest.raises(error) as exc:
        read(io.StringIO(json.dumps(mutate(copy.deepcopy(doc)))))
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_dumps_canonical_rejects_a_value_of_no_json_type():
    with pytest.raises(TypeError) as exc:
        dumps_canonical({"dims": {1, 2}})
    assert str(exc.value) == "cannot serialize value of type set"


@pytest.mark.parametrize(
    "mutate, message",
    [
        # chi, not the correct rest_b term read against chi's length, is named
        (put("decomposition", "chi", [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
         "decomposition.chi: expected dimension 2"),
        # the dimension of basis vector 0 is checked before vector 1 is read
        (put("report", "intersection_basis", [STRETCHED, "x"]),
         "report.intersection_basis[0]: expected dimension 2"),
    ],
    ids=["chi", "basis"],
)
def test_each_vector_is_checked_against_the_report_dim_as_it_is_read(mutate, message):
    doc = mutate(golden_witness_file())
    with pytest.raises(ShapeMismatch) as exc:
        load_report(io.StringIO(json.dumps(doc)))
    assert str(exc.value) == message


NO_SHARED_STATE = "decomposition section requires report.intersection_dim above 0"


@pytest.mark.parametrize("witnessed", [False, True], ids=["decomposition", "witness"])
def test_a_decomposition_needs_a_nonempty_intersection(witnessed, tmp_path, capsys):
    # the golden pair's decomposition beside the report of |0><0| and |1><1|
    d = build_shared_decomposition(A, B)
    w = build_witness(d) if witnessed else None
    report = check_bfm([A, ONE])
    assert report.intersection_dim == 0
    with pytest.raises(ValueError) as written:
        report_document(report, ["A", "one"], d, w)
    assert type(written.value) is ValueError
    assert str(written.value) == NO_SHARED_STATE

    doc = golden_witness_file()
    doc["inputs"] = ["A", "one"]
    doc["report"] = json.loads(dumps_canonical(report_document(report, ["A", "one"])))["report"]
    if not witnessed:
        del doc["witness"]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedFile) as read:
        load_report(str(path))
    assert type(read.value) is MalformedFile
    assert str(read.value) == NO_SHARED_STATE
    capsys.readouterr()
    assert cli_main(["simulate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {NO_SHARED_STATE}\n")


CHI_OUTSIDE = "decomposition.chi leaves the report's intersection: cosine 0.0"


@pytest.mark.parametrize("witnessed", [False, True], ids=["decomposition", "witness"])
def test_a_decomposition_chi_lies_in_the_report_intersection(witnessed, tmp_path, capsys):
    # the golden pair's decomposition (chi = |0>) beside the report of |1><1|
    # and 1/2, whose intersection is spanned by |1>
    d = build_shared_decomposition(A, B)
    w = build_witness(d) if witnessed else None
    report = check_bfm([ONE, HALF])
    assert report.intersection_dim == 1
    with pytest.raises(ValueError) as written:
        report_document(report, ["one", "half"], d, w)
    assert type(written.value) is ValueError
    assert str(written.value) == CHI_OUTSIDE

    doc = golden_witness_file()
    doc["inputs"] = ["one", "half"]
    doc["report"] = json.loads(dumps_canonical(report_document(report, ["one", "half"])))["report"]
    if not witnessed:
        del doc["witness"]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedFile) as read:
        load_report(str(path))
    assert type(read.value) is MalformedFile
    assert str(read.value) == CHI_OUTSIDE
    capsys.readouterr()
    assert cli_main(["simulate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {CHI_OUTSIDE}\n")


@pytest.mark.parametrize("gap, kept", [(1e-7, True), (3e-7, False)], ids=["inside", "outside"])
def test_chi_rule_is_the_intersection_cosine_rule(gap, kept):
    # the intersection of |1><1| and 1/2 is spanned by |1>; chi's cosine with it
    # is 1 - gap, against the threshold 1 - 2 overlap_tol = 1 - 2e-7
    cosine = 1.0 - gap
    chi = PureState(np.array([np.sqrt(1.0 - cosine**2), cosine]))
    d = SharedDecomposition(chi, 1.0, 1.0, (), ())
    report = check_bfm([ONE, HALF])
    if kept:
        load_report(io.StringIO(dumps_canonical(report_document(report, [], d))))
        return
    with pytest.raises(ValueError, match="^decomposition.chi leaves the report's intersection"):
        report_document(report, [], d)


def test_cli_simulate_file_whose_states_do_not_rebuild_is_malformed(tmp_path, capsys):
    # Each side's weights sum to 1 + 0.9e-9, within WEIGHT_TOL (1e-9), and each
    # vector has norm 1 + 0.95e-10, within ORTHONORMALITY_TOL (1e-10); the states
    # they rebuild have trace 1 + 1.09e-9, beyond trace_tol (1e-9).  The writer
    # refuses them, the reader refuses a valid file edited to hold them, and
    # simulate reads that file as bad input (2), not a failed round trip (1).
    s, weight = 1 + 0.95e-10, 0.5 + 0.45e-9
    head, tail = PureState(np.array([s, 0.0])), PureState(np.array([0.0, s]))
    d = SharedDecomposition(head, weight, weight, ((weight, tail),), ((weight, tail),))
    report = check_bfm([HALF, HALF])
    rebuild = (
        "decomposition rebuilds no valid state: invalid operator: "
        "trace (measured 1.000000e+00, allowed 1.0e-09)"
    )
    with pytest.raises(ValueError) as exc:
        report_document(report, ["a", "b"], d, build_witness(d))
    assert str(exc.value) == rebuild

    unit = SharedDecomposition(
        basis_state(2, 0), 0.5, 0.5, ((0.5, basis_state(2, 1)),), ((0.5, basis_state(2, 1)),)
    )
    doc = report_document(report, ["a", "b"], unit, build_witness(unit))
    section = doc["decomposition"]
    section["p0"] = section["q0"] = weight
    section["chi"][0][0] = s  # the real part of chi's first entry
    for rest in (section["rest_a"], section["rest_b"]):
        rest[0]["weight"] = weight
        rest[0]["state"][1][0] = s
    doc["witness"]["normalization"] = build_witness(d).normalization
    path = tmp_path / "witness.json"
    path.write_text(dumps_canonical(doc))
    with pytest.raises(MalformedFile) as read:
        load_report(str(path))
    assert str(read.value) == rebuild
    capsys.readouterr()
    assert cli_main(["simulate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {rebuild}\n"
