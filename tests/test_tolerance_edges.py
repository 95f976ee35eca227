"""Tolerances at which the support criterion stops meaning anything.

* ``overlap_tol`` below 1e-12 puts the cosine threshold ``1 - 2 overlap_tol``
  at or above the computed cosines of identical supports, which miss 1 by a
  few 1e-15, so a state would be incompatible with itself.  ``Tolerances``
  rejects it.
* An ``eigenvalue_zero_tol`` at or above a state's largest eigenvalue leaves
  it an empty support, and an intersection with an empty support is empty
  whatever the other states are.  The compatibility checks reject such a
  state instead of reading the empty intersection as a verdict, and so do
  ``eigen_ensemble`` and ``max_common_weight``, with the same error.
"""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcompat import (
    MalformedFile,
    PureState,
    Tolerances,
    build_shared_decomposition,
    check_bfm,
    check_pure_pair,
    choose_common_state,
    eigen_ensemble,
    max_common_weight,
    validate_density,
    verify_joint,
)
from qcompat.cli import cli_main
from qcompat.formats import dumps_canonical, parse_report_document, report_document
from conftest import random_density, write_state

# ---------------------------------------------------------------------------
# the overlap_tol floor


@pytest.mark.parametrize("overlap_tol", [0, 0.0, 1e-20, 1e-16, 9.9e-13])
def test_tolerances_reject_overlap_tol_below_the_floor(overlap_tol):
    with pytest.raises(ValueError) as exc:
        Tolerances(overlap_tol=overlap_tol)
    assert str(exc.value) == f"overlap_tol must be at least 1e-12, got {overlap_tol!r}"
    assert Tolerances(overlap_tol=1e-12).overlap_tol == 1e-12


@settings(max_examples=40)
@given(
    dim=st.integers(1, 256),
    rank_fraction=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=256, rank_fraction=1.0, seed=0)
@example(dim=256, rank_fraction=0.0, seed=1)  # a pure state
def test_every_state_intersects_itself_in_its_full_rank(dim, rank_fraction, seed):
    rho = random_density(np.random.default_rng(seed), dim, max(1, round(rank_fraction * dim)))
    tol = Tolerances(overlap_tol=1e-12)
    rank = int(np.count_nonzero(rho.spectrum[0] > tol.eigenvalue_zero_tol))
    assert check_bfm([rho, rho], tol).intersection_dim == rank


def test_report_file_below_the_floor_is_malformed():
    pure = validate_density(np.diag([1.0, 0.0]))
    doc = json.loads(dumps_canonical(report_document(check_bfm([pure, pure]), ["a", "b"])))
    doc["tolerances_used"]["overlap_tol"] = 1e-13
    with pytest.raises(MalformedFile) as exc:
        parse_report_document(doc)
    assert str(exc.value) == "tolerances_used: overlap_tol must be at least 1e-12, got 1e-13"


@pytest.mark.parametrize("field", [f.name for f in fields(Tolerances)])
@pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=repr)
def test_tolerances_reject_a_bool(field, value):
    # a report would write it as true or false, which its reader rejects
    with pytest.raises(ValueError) as exc:
        Tolerances(**{field: value})
    assert str(exc.value) == f"{field} must be a number, got {value!r}"


@pytest.mark.parametrize("field", [f.name for f in fields(Tolerances)])
@pytest.mark.parametrize("value", ["x", None, 1j, [1]], ids=repr)
def test_tolerances_reject_a_non_number_with_value_error(field, value):
    # not a numpy or comparison TypeError from the range checks
    with pytest.raises(ValueError) as exc:
        Tolerances(**{field: value})
    assert str(exc.value) == f"{field} must be a number, got {value!r}"


@pytest.mark.parametrize("field", [f.name for f in fields(Tolerances)])
@pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024], ids=["1e400", "-1e400", "2^1024"])
def test_tolerances_reject_an_int_beyond_a_double(field, value):
    # a number, but no double holds it: the range check's ValueError, not
    # numpy's TypeError from np.isfinite
    with pytest.raises(ValueError) as exc:
        Tolerances(**{field: value})
    assert str(exc.value) == f"{field} must be finite and nonnegative, got {value!r}"


@pytest.mark.parametrize(
    "tol",
    [
        Tolerances(hermiticity_tol=1, eigenvalue_zero_tol=0, trace_tol=1),
        Tolerances(hermiticity_tol=1e-6, eigenvalue_zero_tol=1e-8, trace_tol=1e-6, overlap_tol=1e-3),
    ],
    ids=["int", "float"],
)
def test_report_with_number_tolerances_reads_back(tol):
    pure = validate_density(np.diag([1.0, 0.0]))
    mixed = validate_density(np.eye(2) / 2)
    report = check_bfm([pure, mixed], tol)
    doc = json.loads(dumps_canonical(report_document(report, ["a", "b"])))
    back = parse_report_document(doc).report
    assert back.tolerances_used == tol
    assert back.verdict_bfm == report.verdict_bfm


def test_cli_overlap_tol_below_the_floor_is_a_usage_error(tmp_path, capsys):
    pure = write_state(tmp_path / "p.json", np.diag([1.0, 0.0, 0.0]))
    assert cli_main(["check", pure, pure, "--tol-overlap", "0"]) == 2
    assert capsys.readouterr() == ("", "error: overlap_tol must be at least 1e-12, got 0.0\n")


# ---------------------------------------------------------------------------
# emptied supports


MIXED = np.eye(4) / 4
EMPTIED = (
    "has an empty support: its largest eigenvalue 0.25 is at or below eigenvalue_zero_tol 0.5"
)


def test_emptied_support_raises_in_every_check():
    m = validate_density(MIXED, label="M")
    pure = validate_density(np.diag([1.0, 0, 0, 0]))
    tol = Tolerances(eigenvalue_zero_tol=0.5)
    state_0 = f"state 0 (label 'M') {EMPTIED}"
    for call in (
        lambda: check_bfm([m, m], tol),
        lambda: check_pure_pair(m, m, tol),
        lambda: choose_common_state(m, m, tol),
        lambda: build_shared_decomposition(m, m, tol),
        lambda: verify_joint(pure, [m], tol),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == state_0
    with pytest.raises(ValueError) as exc:
        check_bfm([pure, m], tol)
    assert str(exc.value) == f"state 1 (label 'M') {EMPTIED}"
    with pytest.raises(ValueError) as exc:
        verify_joint(m, [pure], tol)
    assert str(exc.value) == f"joint state (label 'M') {EMPTIED}"


@pytest.mark.parametrize(
    "call",
    [
        lambda rho, tol: eigen_ensemble(rho, tol),
        lambda rho, tol: max_common_weight(rho, PureState(np.array([1.0, 0.0])), tol),
    ],
    ids=["eigen_ensemble", "max_common_weight"],
)
def test_emptied_support_raises_the_same_error_for_one_state(call):
    # not "ensemble needs at least one component", nor ChiOutsideSupport
    rho = validate_density(np.diag([0.6, 0.4]), label="R")
    with pytest.raises(ValueError) as exc:
        call(rho, Tolerances(eigenvalue_zero_tol=0.7))
    assert str(exc.value) == (
        "state (label 'R') has an empty support: its largest eigenvalue 0.6 "
        "is at or below eigenvalue_zero_tol 0.7"
    )


@pytest.mark.parametrize("command", ["check", "witness"])
def test_cli_emptied_support_is_a_usage_error(tmp_path, capsys, command):
    pure = write_state(tmp_path / "p.json", np.diag([1.0, 0.0, 0.0]))
    assert cli_main([command, pure, pure, "--tol-eig", "2"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: state 0 (label None) has an empty support: its largest eigenvalue 1 "
        "is at or below eigenvalue_zero_tol 2.0\n",
    )


def test_cli_support_still_reports_an_emptied_support(tmp_path, capsys):
    # the split is a fact about one state, not a verdict
    pure = write_state(tmp_path / "p.json", np.diag([1.0, 0.0, 0.0]))
    assert cli_main(["support", pure, "--tol-eig", "2"]) == 0
    assert capsys.readouterr().out == "support dimension 0 of 3\n"
