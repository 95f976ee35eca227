import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcompat
from qcompat import (
    CompatReport,
    MalformedFile,
    SchemaVersionUnsupported,
    ShapeMismatch,
    SharedDecomposition,
    Subspace,
    Tolerances,
    check_bfm,
    build_shared_decomposition,
    build_witness,
    max_abs,
    projector_from,
    validate_density,
)
from qcompat.cli import _COMMANDS, _build_parser, cli_main
from qcompat.formats import (
    dumps_canonical,
    load_report,
    parse_matrix,
    parse_report_document,
    report_document,
    serialize_matrix,
)
from conftest import (
    BIG,
    DATA,
    compatible_pair,
    cutoff_mass_pair,
    full_rank_pair,
    golden_pair,
    golden_witness_document,
    random_density,
    random_pure,
    write_state,
)


A, B = golden_pair()
# diagonals of a compatible qutrit pair whose supports share |0>
QUTRIT_DIAGONALS = ([0.5, 0.5, 0], [0.5, 0, 0.5])


# ---------------------------------------------------------------------------
# matrix files


def test_parse_matrix_minimal_document():
    text = (
        '{"schema_version":"qcompat-1","dim":2,'
        '"entries":[[[1,0],[0,0]],[[0,0],[0,0]]]}'
    )
    matrix, label = parse_matrix(io.StringIO(text))
    assert np.array_equal(matrix, A.matrix)
    assert label is None


def test_parse_matrix_wrong_row_count():
    doc = {
        "schema_version": "qcompat-1",
        "dim": 2,
        "entries": [[[1, 0], [0, 0]]] * 3,
    }
    with pytest.raises(ShapeMismatch):
        parse_matrix(io.StringIO(json.dumps(doc)))


def test_parse_matrix_wrong_schema():
    doc = {"schema_version": "qcompat-999", "dim": 1, "entries": [[[1, 0]]]}
    with pytest.raises(SchemaVersionUnsupported):
        parse_matrix(io.StringIO(json.dumps(doc)))


def test_parse_matrix_entry_diagnostics():
    doc = {"schema_version": "qcompat-1", "dim": 1, "entries": [[[1, "x"]]]}
    with pytest.raises(MalformedFile) as exc:
        parse_matrix(io.StringIO(json.dumps(doc)))
    assert "entries[0][0]" in str(exc.value)


def test_parse_matrix_rejects_broken_json():
    with pytest.raises(MalformedFile):
        parse_matrix(io.StringIO("{ nope"))


@pytest.mark.parametrize("read", [parse_matrix, load_report])
def test_file_that_is_not_utf8_is_malformed(read, tmp_path, capsys):
    # a UTF-16 byte-order mark, then one byte: neither UTF-8 nor whole UTF-16
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe{")
    utf8 = "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    for source, message in (
        (str(path), utf8),
        (io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8"), utf8),
        (io.BytesIO(path.read_bytes()), utf8),
    ):
        with pytest.raises(MalformedFile) as exc:
            read(source)
        assert str(exc.value).startswith(message)
    assert cli_main(["check", str(path), str(path)]) == 2
    assert capsys.readouterr().err == f"error: {utf8}\n"


def test_every_source_is_read_as_utf8(tmp_path):
    text = serialize_matrix(A.matrix, label="A")
    path = tmp_path / "a.json"
    for data in (b"\xff\xfe" + text.encode("utf-16-le"), b"\xef\xbb\xbf" + text.encode()):
        path.write_bytes(data)
        messages = []
        for source in (str(path), io.BytesIO(data)):
            with pytest.raises(MalformedFile) as exc:
                parse_matrix(source)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
    path.write_bytes(text.encode())
    for source in (str(path), io.StringIO(text), io.BytesIO(text.encode())):
        matrix, label = parse_matrix(source)
        assert label == "A" and np.array_equal(matrix, A.matrix)


@pytest.mark.parametrize("label", [5, True, b"A", ["A"]], ids=["int", "bool", "bytes", "list"])
def test_serialize_matrix_rejects_a_label_the_reader_rejects(label):
    with pytest.raises(ValueError) as exc:
        serialize_matrix(A.matrix, label=label)
    assert str(exc.value) == f"field 'label' must be a string, got {label!r}"


def test_matrix_round_trip_is_exact():
    rng = np.random.default_rng(109)
    for _ in range(25):
        dim = int(rng.integers(1, 9))
        rho = random_density(rng, dim)
        text = serialize_matrix(rho.matrix, label="X")
        back, label = parse_matrix(io.StringIO(text))
        assert label == "X"
        assert np.array_equal(back, rho.matrix)  # 17 digits: bit-exact doubles


def test_serialization_is_deterministic():
    rng = np.random.default_rng(113)
    rho = random_density(rng, 5)
    assert serialize_matrix(rho.matrix) == serialize_matrix(rho.matrix)


# ---------------------------------------------------------------------------
# report files


def test_report_round_trip_preserves_fields():
    a, b = golden_pair()
    report = check_bfm([a, b])
    d = build_shared_decomposition(a, b)
    w = build_witness(d)
    doc = report_document(report, ["A", "B"], decomposition=d, witness=w)
    parsed = parse_report_document(json.loads(dumps_canonical(doc)))

    back = parsed.report
    assert parsed.inputs == ("A", "B")
    assert back.verdict_bfm == report.verdict_bfm
    assert back.verdict_pi == report.verdict_pi
    assert back.verdict_pii == report.verdict_pii
    assert back.intersection_dim == report.intersection_dim
    assert back.commutator_norm == report.commutator_norm
    assert back.product_norm == report.product_norm
    assert back.n_states == report.n_states
    assert back.pairwise_conjunction == report.pairwise_conjunction
    assert back.tolerances_used == report.tolerances_used
    assert max_abs(
        projector_from(back.intersection_basis)
        - projector_from(report.intersection_basis)
    ) == 0.0

    assert parsed.decomposition is not None
    assert parsed.decomposition.p0 == d.p0
    assert parsed.decomposition.q0 == d.q0
    assert np.array_equal(parsed.decomposition.chi.amplitudes, d.chi.amplitudes)
    assert len(parsed.decomposition.rest_b) == len(d.rest_b)

    assert parsed.witness is not None
    assert parsed.witness.dims == w.dims
    assert parsed.witness.normalization == w.normalization
    assert np.array_equal(
        parsed.witness.amplitudes.amplitudes, w.amplitudes.amplitudes
    )


def test_report_round_trip_with_empty_intersection():
    zero = validate_density(np.diag([1.0, 0.0]))
    one = validate_density(np.diag([0.0, 1.0]))
    report = check_bfm([zero, one])
    doc = report_document(report, ["zero", "one"])
    parsed = parse_report_document(json.loads(dumps_canonical(doc)))
    assert not parsed.report.verdict_bfm
    assert parsed.report.intersection_dim == 0
    assert parsed.report.intersection_basis.dimension == 0
    assert parsed.decomposition is None and parsed.witness is None


def test_report_parse_rejects_corrupted_witness():
    a, b = golden_pair()
    report = check_bfm([a, b])
    d = build_shared_decomposition(a, b)
    w = build_witness(d)
    doc = json.loads(dumps_canonical(report_document(report, ["A", "B"], d, w)))
    doc["decomposition"]["p0"] = 0.7  # breaks the normalization identity
    with pytest.raises(MalformedFile):
        parse_report_document(doc)


# ---------------------------------------------------------------------------
# CLI exit codes (golden corpus)


@pytest.fixture
def corpus(tmp_path):
    files = {
        "pure": write_state(tmp_path / "pure.json", A.matrix, label="A"),
        "mixed": write_state(tmp_path / "mixed.json", B.matrix, label="B"),
        "one": write_state(tmp_path / "one.json", np.diag([0.0, 1.0])),
        "qutrit": write_state(tmp_path / "qutrit.json", np.eye(3) / 3),
        "trace": write_state(tmp_path / "trace.json", np.diag([0.6, 0.5])),
        "negative": write_state(tmp_path / "negative.json", np.diag([1.2, -0.2])),
        "nonherm": write_state(
            tmp_path / "nonherm.json", np.array([[0.5, 0.5], [0.0, 0.5]])
        ),
    }
    bad = tmp_path / "broken.json"
    bad.write_text("{ this is not json")
    files["broken"] = str(bad)
    old = tmp_path / "old_schema.json"
    old.write_text('{"schema_version": "qcompat-0", "dim": 1, "entries": [[[1, 0]]]}')
    files["old_schema"] = str(old)
    shape = tmp_path / "shape.json"
    shape.write_text(
        '{"schema_version": "qcompat-1", "dim": 2, "entries": [[[1, 0], [0, 0]]]}'
    )
    files["shape"] = str(shape)
    return files


def test_cli_validate_exit_codes(corpus):
    assert cli_main(["validate", corpus["pure"]]) == 0
    assert cli_main(["validate", corpus["trace"]]) == 1
    assert cli_main(["validate", corpus["negative"]]) == 1
    assert cli_main(["validate", corpus["nonherm"]]) == 1
    assert cli_main(["validate", corpus["broken"]]) == 2
    assert cli_main(["validate", corpus["old_schema"]]) == 2
    assert cli_main(["validate", corpus["shape"]]) == 2
    assert cli_main(["validate", "no_such_file.json"]) == 2


def test_cli_validate_lists_violations(corpus, capsys):
    cli_main(["validate", corpus["trace"]])
    out = capsys.readouterr().out
    assert "trace" in out and "1.1" in out


def test_cli_support(corpus, capsys):
    assert cli_main(["support", corpus["pure"]]) == 0
    out = capsys.readouterr().out
    assert "support dimension 1 of 2" in out
    assert cli_main(["support", corpus["broken"]]) == 2


def test_cli_check_exit_codes(corpus, tmp_path, capsys):
    half = write_state(tmp_path / "half.json", np.eye(2) / 2)
    assert cli_main(["check", half, half]) == 0
    assert "dimension 2" in capsys.readouterr().out
    assert cli_main(["check", corpus["pure"], corpus["mixed"]]) == 0
    assert cli_main(["check", corpus["pure"], corpus["one"]]) == 1
    assert cli_main(["check", corpus["pure"], corpus["qutrit"]]) == 2
    assert cli_main(["check", corpus["pure"]]) == 2
    assert cli_main(["check", corpus["pure"], corpus["trace"]]) == 1
    assert cli_main(["check", corpus["pure"], corpus["broken"]]) == 2


def test_cli_check_criterion_selects_verdict(corpus):
    pair = [corpus["pure"], corpus["mixed"]]
    assert cli_main(["check", *pair, "--criterion", "bfm"]) == 0
    assert cli_main(["check", *pair, "--criterion", "pi"]) == 1
    assert cli_main(["check", *pair, "--criterion", "pii"]) == 0
    assert cli_main(["check", *pair, "--criterion", "all"]) == 0


@pytest.mark.parametrize(
    "diagonal_a, matrix_b, codes",
    [
        pytest.param(  # supports meet in |0>, yet rho_a rho_b is all but zero
            [1e-4, 1 - 1e-4, 0], np.diag([1e-4, 0, 1 - 1e-4]),
            {"bfm": 0, "pi": 0, "pii": 1, "all": 0}, id="compatible-pii-fails",
        ),
        pytest.param(  # |0> and |+> overlap, yet their supports meet only in 0
            [1, 0], np.full((2, 2), 0.5),
            {"bfm": 1, "pi": 1, "pii": 0, "all": 1}, id="incompatible-pii-holds",
        ),
    ],
)
def test_cli_check_criterion_where_verdicts_disagree(diagonal_a, matrix_b, codes, tmp_path):
    pair = [
        write_state(tmp_path / "a.json", np.diag(diagonal_a)),
        write_state(tmp_path / "b.json", matrix_b),
    ]
    assert {c: cli_main(["check", *pair, "--criterion", c]) for c in codes} == codes
    assert cli_main(["check", *pair]) == codes["all"]


def test_cli_check_three_states(corpus, tmp_path):
    half = write_state(tmp_path / "half.json", np.eye(2) / 2)
    assert cli_main(["check", corpus["pure"], corpus["mixed"], half]) == 0


def test_cli_usage_errors():
    assert cli_main(["frobnicate"]) == 2
    assert cli_main(["check"]) == 2
    assert cli_main([]) == 2


# each action as (option strings, dest, nargs, choices, default, metavar, type, help)
HELP_ACTION = (["-h", "--help"], "help", 0, None, "==SUPPRESS==", None, None,
               "show this help message and exit")
TOL_ACTIONS = [
    (["--tol-eig"], "tol_eig", None, None, None, "X", float,
     "eigenvalue zero cutoff (default 1e-9; env QCOMPAT_TOL_EIG, flag wins)"),
    (["--tol-overlap"], "tol_overlap", None, None, None, "Y", float,
     "overlap / intersection threshold (default 1e-7)"),
]
JSON_ACTION = (["--json"], "json", None, None, None, "PATH", None,
               "write the full report file here")


def positional(dest):
    return ([], dest, None, None, None, None, None, None)


SUBCOMMANDS = {
    "validate": ("check a matrix file is a physical density matrix",
                 [positional("file"), *TOL_ACTIONS]),
    "support": ("print the support of a density matrix", [positional("file"), *TOL_ACTIONS]),
    "check": ("compatibility verdicts for two or more states", [
        ([], "files", "+", None, None, "FILE", None, None),
        (["--criterion"], "criterion", None, ["bfm", "pi", "pii", "all"], "all", None, None,
         "which verdict drives the exit code (default: all = support intersection)"),
        *TOL_ACTIONS, JSON_ACTION,
    ]),
    "decompose": ("decompositions of a compatible pair sharing a pure state",
                  [positional("file_a"), positional("file_b"), *TOL_ACTIONS, JSON_ACTION]),
    "witness": ("build the tripartite witness state for a compatible pair",
                [positional("file_a"), positional("file_b"), *TOL_ACTIONS, JSON_ACTION]),
    "simulate": ("run the measurement protocol on a witness file",
                 [positional("witness_file"), *TOL_ACTIONS]),
}


def subcommand_parsers():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub


def test_cli_subcommands_in_order_with_their_help():
    sub = subcommand_parsers()
    assert (sub.dest, sub.required) == ("command", True)
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        (name, help_text) for name, (help_text, _) in SUBCOMMANDS.items()
    ]
    assert list(_COMMANDS) == list(SUBCOMMANDS)


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_cli_subcommand_arguments(name):
    # structural, not help bytes: argparse's layout differs across Python versions
    parser = subcommand_parsers().choices[name]
    assert parser.prog == f"qcompat {name}"
    assert [
        (a.option_strings, a.dest, a.nargs, a.choices, a.default, a.metavar, a.type, a.help)
        for a in parser._actions
    ] == [HELP_ACTION, *SUBCOMMANDS[name][1]]


def test_cli_json_identical_across_runs(corpus, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["check", corpus["pure"], corpus["mixed"]]
    assert cli_main(args + ["--json", str(out1)]) == 0
    assert cli_main(args + ["--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_decompose(corpus, tmp_path):
    out = tmp_path / "dec.json"
    assert cli_main(["decompose", corpus["pure"], corpus["mixed"], "--json", str(out)]) == 0
    parsed = load_report(str(out))
    assert parsed.decomposition is not None
    assert parsed.decomposition.q0 == pytest.approx(0.5, abs=1e-12)
    assert cli_main(["decompose", corpus["pure"], corpus["one"]]) == 1


def test_cli_witness_and_simulate_pipeline(corpus, tmp_path, capsys):
    out = tmp_path / "wit.json"
    assert cli_main(["witness", corpus["pure"], corpus["mixed"], "--json", str(out)]) == 0
    assert cli_main(["witness", corpus["pure"], corpus["one"]]) == 1
    capsys.readouterr()
    assert cli_main(["simulate", str(out)]) == 0
    report = capsys.readouterr().out
    assert "round trip OK" in report


def test_cli_pair_commands_print_their_own_lines(corpus, capsys):
    pair = [corpus["pure"], corpus["mixed"]]
    assert cli_main(["decompose", *pair]) == 0
    assert capsys.readouterr().out == (
        "shared state found (intersection dimension 1)\n"
        "p0 = 1.000000e+00 with 0 extra term(s) for state A\n"
        "q0 = 5.000000e-01 with 1 extra term(s) for state B\n"
    )
    assert cli_main(["witness", *pair]) == 0
    assert capsys.readouterr().out == (
        "witness dimensions (ancilla A, ancilla B, system) = (2, 1, 2)\n"
        "normalization = 7.071068e-01\n"
        "probability of both zero outcomes = 5.000000e-01\n"
    )
    apart = [corpus["pure"], corpus["one"]]
    for command, missing in (
        ("decompose", "no shared decomposition"),
        ("witness", "no witness exists"),
    ):
        assert cli_main([command, *apart]) == 1
        assert capsys.readouterr().out == (
            f"incompatible: support intersection is trivial, {missing}\n"
        )


def test_cli_witness_simulate_with_cutoff_mass(tmp_path, capsys):
    # a valid compatible pair whose dropped eigenvalues sum past WEIGHT_TOL
    a, b, _ = cutoff_mass_pair(np.random.default_rng(131))
    files = [write_state(tmp_path / f"{n}.json", s.matrix) for n, s in (("a", a), ("b", b))]
    out = tmp_path / "wit.json"
    assert cli_main(["witness", *files, "--json", str(out)]) == 0
    capsys.readouterr()
    assert cli_main(["simulate", str(out)]) == 0
    assert "round trip OK" in capsys.readouterr().out


def test_cli_simulate_cutoff_above_an_outcome_probability_is_an_input_error(tmp_path, capsys):
    # both outcome-0 blocks come from a validated decomposition, so only the
    # cutoff can zero an outcome: a meaningless question (2), not a verdict (1)
    files = [
        write_state(tmp_path / f"{name}.json", np.diag(w))
        for name, w in zip("ab", QUTRIT_DIAGONALS)
    ]
    out = tmp_path / "wit.json"
    assert cli_main(["witness", *files, "--json", str(out)]) == 0
    assert cli_main(["simulate", str(out)]) == 0
    capsys.readouterr()
    assert cli_main(["simulate", str(out), "--tol-eig", "0.7"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: outcome probability 6.667e-01 is at the numerical floor"
    )


def test_cli_simulate_rejects_corrupt_witness(corpus, tmp_path, capsys):
    out = tmp_path / "wit.json"
    cli_main(["witness", corpus["pure"], corpus["mixed"], "--json", str(out)])
    doc = json.loads(out.read_text())
    doc["decomposition"]["q0"] = 0.9
    out.write_text(json.dumps(doc))
    assert cli_main(["simulate", str(out)]) == 2  # normalization identity broken

    # a report without a witness section is also unusable
    plain = tmp_path / "plain.json"
    cli_main(["check", corpus["pure"], corpus["mixed"], "--json", str(plain)])
    assert cli_main(["simulate", str(plain)]) == 2


LEGACY_MISMATCH = "error: witness.amplitudes deviate from the decomposition's by "


def test_cli_simulate_flags_round_trip_failure(corpus, tmp_path, capsys):
    # stored amplitudes that encode the wrong states must never read as an
    # OK round trip: the reader rejects them against the decomposition
    out = tmp_path / "wit.json"
    cli_main(["witness", corpus["pure"], corpus["mixed"], "--json", str(out)])
    doc = json.loads(out.read_text())
    amps = load_report(str(out)).witness.amplitudes.amplitudes
    doc["witness"]["amplitudes"] = [[z.real, z.imag] for z in amps[::-1]]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["simulate", str(out)]) == 2
    assert capsys.readouterr().err.startswith(LEGACY_MISMATCH)


def mixed_witness(tmp_path):
    """Witness file for two full-rank qutrit states, so both ancillas carry
    extra terms; returns the path, the document and the amplitude tensor
    its decomposition gives."""
    rng = np.random.default_rng(131)
    chi = np.array([1, 1j, 0]) / np.sqrt(2)
    files = [
        write_state(
            tmp_path / f"{name}.json",
            0.4 * np.outer(chi, chi.conj()) + 0.6 * random_density(rng, 3, 3).matrix,
            label=name,
        )
        for name in "ab"
    ]
    out = tmp_path / "wit.json"
    assert cli_main(["witness", *files, "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    w = load_report(str(out)).witness
    t = w.amplitudes.amplitudes.reshape(w.dims).copy()
    assert t.shape == (3, 3, 3)
    return out, doc, t


def rewrite_amplitudes(out, doc, t):
    doc["witness"]["amplitudes"] = [[z.real, z.imag] for z in t.reshape(-1)]
    out.write_text(json.dumps(doc))


def test_cli_simulate_flags_swapped_amplitudes(tmp_path, capsys):
    # a swap inside one block keeps the vector's norm and every dimension
    out, doc, t = mixed_witness(tmp_path)
    t[0, 1, [0, 1]] = t[0, 1, [1, 0]]
    rewrite_amplitudes(out, doc, t)
    capsys.readouterr()
    assert cli_main(["simulate", str(out)]) == 2
    assert capsys.readouterr().err.startswith(LEGACY_MISMATCH)


def test_cli_simulate_zero_outcome_block_is_invalid(tmp_path, capsys):
    out, doc, t = mixed_witness(tmp_path)
    t[0] = 0
    rewrite_amplitudes(out, doc, t / np.linalg.norm(t))
    capsys.readouterr()
    assert cli_main(["simulate", str(out)]) == 2
    assert capsys.readouterr().err.startswith(LEGACY_MISMATCH)


def test_cli_simulate_reads_legacy_witness_file(tmp_path, capsys):
    # written by `qcompat witness` while witness files still stored the dense
    # amplitudes (full-rank qutrits, dims (3, 3, 3)); they match the
    # decomposition, so the file reads and round-trips as before
    legacy = DATA / "legacy_witness.json"
    assert len(json.loads(legacy.read_text())["witness"]["amplitudes"]) == 27
    assert cli_main(["simulate", str(legacy)]) == 0
    assert "round trip OK" in capsys.readouterr().out

    doc = json.loads(legacy.read_text())
    doc["witness"]["amplitudes"].pop()
    short = tmp_path / "short.json"
    short.write_text(json.dumps(doc))
    assert cli_main(["simulate", str(short)]) == 2
    assert capsys.readouterr().err == "error: witness.amplitudes: expected 27 entries, got 26\n"


def test_witness_file_holds_no_dense_amplitudes(tmp_path):
    # D=32 full rank: 32 768 stored amplitudes made the file 0.47 MiB; the
    # report's intersection basis and the decomposition take 0.14 MiB
    a, b = full_rank_pair(np.random.default_rng(1), 32)
    paths = [write_state(tmp_path / f"{n}.json", s.matrix) for n, s in (("a", a), ("b", b))]
    out = tmp_path / "wit.json"
    assert cli_main(["witness", *paths, "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc["witness"]) == ["dims", "normalization"]
    assert doc["witness"]["dims"] == [32, 32, 32]
    assert out.stat().st_size <= 0.15 * 2**20


@pytest.mark.parametrize(
    "field, value",
    [
        ("dims", [2, 2, 2]),
        ("dims", [2, True, 2]),
        ("dims", [2.0, 1, 2]),
        ("dims", "212"),
        ("normalization", 0.7),
        ("normalization", -(0.5**0.5)),
        ("normalization", 1e-200),
        ("normalization", float("inf")),
        ("normalization", float("nan")),
        ("normalization", 0),
        ("normalization", True),
    ],
)
def test_report_parse_checks_witness_against_decomposition(field, value):
    doc = golden_witness_document()
    # golden pair: dims (2, 1, 2), N = 1/sqrt(2)
    parse_report_document(doc)
    doc["witness"][field] = value
    with pytest.raises(MalformedFile) as exc:
        parse_report_document(doc)
    assert str(exc.value).startswith(f"witness.{field} {value!r} ")


def test_report_round_trip_with_tiny_shared_weight():
    # 1/N^2 = 1/p0 + 1/q0 - 1 is about 1e8 here, so rounding alone moves it
    # by more than an absolute WEIGHT_TOL; the check is relative to its size
    rng = np.random.default_rng(41)
    for _ in range(20):
        chi, psi, phi = (random_pure(rng, 3) for _ in range(3))
        q0 = float(rng.uniform(0.1, 0.9))
        d = SharedDecomposition(chi, 1e-8, q0, ((1 - 1e-8, psi),), ((1 - q0, phi),))
        w = build_witness(d)
        doc = report_document(check_bfm([d.rho_a(), d.rho_b()]), ["A", "B"], d, w)
        parsed = parse_report_document(json.loads(dumps_canonical(doc)))
        assert parsed.decomposition.p0 == 1e-8
        assert parsed.witness.normalization == w.normalization


def test_report_parse_checks_decomposition_against_report_dim():
    a, b = golden_pair()
    doc = report_document(check_bfm([a, b]), ["A", "B"])
    c, e, _ = compatible_pair(np.random.default_rng(43), 4)
    doc["decomposition"] = report_document(
        check_bfm([c, e]), ["C", "E"], build_shared_decomposition(c, e)
    )["decomposition"]
    with pytest.raises(ShapeMismatch) as exc:
        parse_report_document(doc)
    assert str(exc.value) == "decomposition.chi: expected dimension 2"


@pytest.mark.parametrize("witnessed", [False, True], ids=["decomposition", "witness"])
def test_report_document_checks_decomposition_against_report_dim(witnessed):
    # the writer rejects a decomposition of another dimension with the reader's message
    a, b = (validate_density(np.diag(w)) for w in QUTRIT_DIAGONALS)
    d = build_shared_decomposition(*golden_pair())
    with pytest.raises(ValueError) as exc:
        report_document(check_bfm([a, b]), ["a", "b"], d, build_witness(d) if witnessed else None)
    assert str(exc.value) == "decomposition.chi: expected dimension 3"


@pytest.mark.parametrize("inputs", ["AB", b"AB"], ids=["str", "bytes"])
def test_report_document_rejects_one_string_of_inputs(inputs):
    # list() would split it into one input per character (or per byte value)
    with pytest.raises(ValueError) as exc:
        report_document(check_bfm(list(golden_pair())), inputs)
    assert str(exc.value) == "field 'inputs' must be a list of strings"


def test_report_document_writes_a_list_or_tuple_of_inputs_alike():
    report = check_bfm(list(golden_pair()))
    written = [dumps_canonical(report_document(report, names)) for names in (["A", "B"], ("A", "B"))]
    assert written[0] == written[1]
    assert json.loads(written[0])["inputs"] == ["A", "B"]




@pytest.mark.parametrize(
    "path, literal",
    [
        pytest.param(("entries",), BIG, id="matrix-entry-big"),
        pytest.param(("entries",), "NaN", id="matrix-entry-nan"),
        pytest.param(("entries",), "-Infinity", id="matrix-entry-minus-infinity"),
        pytest.param(("decomposition", "p0"), BIG, id="p0-big"),
        pytest.param(("decomposition", "rest_b", 0, "weight"), BIG, id="weight-big"),
        pytest.param(("tolerances_used", "overlap_tol"), BIG, id="overlap-tol-big"),
        pytest.param(("report", "commutator_norm"), BIG, id="commutator-norm-big"),
        pytest.param(("report", "commutator_norm"), "NaN", id="commutator-norm-nan"),
        pytest.param(("report", "intersection_dim"), "Infinity", id="intersection-dim-infinity"),
        pytest.param(("report", "n_states"), "Infinity", id="n-states-infinity"),
        pytest.param(("report", "n_states"), BIG, id="n-states-big"),
        pytest.param(("witness", "normalization"), BIG, id="normalization-big"),
    ],
)
def test_cli_number_out_of_range_or_not_finite_is_malformed(
    corpus, tmp_path, capsys, path, literal
):
    if path == ("entries",):
        command = "validate"
        text = f'{{"schema_version": "qcompat-1", "dim": 1, "entries": [[[{literal}, 0]]]}}'
    else:
        command, out = "simulate", tmp_path / "wit.json"
        assert cli_main(["witness", corpus["pure"], corpus["mixed"], "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = "@"
        text = json.dumps(doc).replace('"@"', literal)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    capsys.readouterr()
    assert cli_main([command, str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


NOT_TWO = "is not an integer of at least 2"


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param({"n_states": 1}, "report.n_states 1 " + NOT_TWO, id="one"),
        pytest.param({"n_states": True}, "report.n_states True " + NOT_TWO, id="bool"),
        pytest.param({"n_states": 2.0}, "report.n_states 2.0 " + NOT_TWO, id="float"),
        pytest.param({"n_states": "2"}, "report.n_states '2' " + NOT_TWO, id="string"),
        pytest.param({"n_states": 3}, "report.n_states 3 differs from the 2 inputs", id="inputs"),
        pytest.param(
            {"n_states": 3, "inputs": []},
            "report.n_states 3 differs from the 2 states of a decomposition",
            id="decomposition",
        ),
        pytest.param(
            {"pairwise_conjunction": True},
            "report.pairwise_conjunction True contradicts n_states 2",
            id="conjunction",
        ),
        pytest.param(
            {"pairwise_conjunction": "no"},
            "report.pairwise_conjunction 'no' contradicts n_states 2",
            id="conjunction-string",
        ),
    ],
)
def test_report_parse_checks_n_states(change, message):
    doc = golden_witness_document()
    parse_report_document(doc)
    for key, value in change.items():
        (doc if key == "inputs" else doc["report"])[key] = value
    with pytest.raises(MalformedFile) as exc:
        parse_report_document(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "n_states, inputs, sections, message",
    [
        pytest.param(
            2, ["A", 5], "", "field 'inputs' must be a list of strings", id="input-not-a-string"
        ),
        pytest.param(
            2, [Path("a"), "B"], "", "field 'inputs' must be a list of strings", id="input-a-path"
        ),
        pytest.param(
            3, ["A", "B"], "", "report.n_states 3 differs from the 2 inputs", id="inputs-count"
        ),
        pytest.param(
            3, [], "d", "report.n_states 3 differs from the 2 states of a decomposition",
            id="decomposition-of-three",
        ),
        pytest.param(
            2, ["A", "B"], "w", "witness section requires a decomposition section",
            id="witness-alone",
        ),
    ],
)
def test_report_document_rejects_what_the_reader_rejects(n_states, inputs, sections, message):
    a, b = golden_pair()
    d = build_shared_decomposition(a, b)
    report = check_bfm([a, b, a][:n_states])
    with pytest.raises(ValueError) as exc:
        report_document(
            report,
            inputs,
            decomposition=d if "d" in sections else None,
            witness=build_witness(d) if "w" in sections else None,
        )
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "other, message",
    [
        pytest.param(
            ([0.5, 0.5, 0], np.ones(3) / 3),
            "witness.dims [3, 2, 3] differ from the decomposition's [2, 2, 3]",
            id="dims",
        ),
        pytest.param(
            ([0.7, 0.3, 0], [0.6, 0, 0.4]), "witness.normalization 0.69", id="normalization"
        ),
    ],
)
def test_report_document_rejects_another_decompositions_witness(other, message):
    a, b = (validate_density(np.diag(w)) for w in QUTRIT_DIAGONALS)
    d = build_shared_decomposition(a, b)
    w = build_witness(build_shared_decomposition(*(validate_density(np.diag(x)) for x in other)))
    with pytest.raises(ValueError) as exc:
        report_document(check_bfm([a, b]), ["a", "b"], d, w)
    assert str(exc.value).startswith(message)
    # the reader rejects the same sections with the same message
    doc = report_document(check_bfm([a, b]), ["a", "b"], d, build_witness(d))
    doc["witness"] = {"dims": list(w.dims), "normalization": w.normalization}
    with pytest.raises(MalformedFile) as read:
        parse_report_document(doc)
    assert str(read.value) == str(exc.value)


NORM_FAULTS = [
    pytest.param(-1e-300, "report: commutator_norm -1e-300 is negative", id="-1e-300"),
    pytest.param(np.float64(-0.5), "report: commutator_norm -0.5 is negative", id="float64"),
    pytest.param(-1, "report: commutator_norm -1.0 is negative", id="int"),
    pytest.param(True, "report: commutator_norm must be a number", id="True"),
    pytest.param(np.True_, "report: commutator_norm must be a number", id="np.True_"),
    pytest.param("0.25", "report: commutator_norm must be a number", id="str"),
    pytest.param(None, "report: commutator_norm must be a number", id="None"),
    pytest.param(float("nan"), "report: non-finite commutator_norm nan", id="nan"),
    pytest.param(10**400, "report: commutator_norm out of range for a double", id="10**400"),
]


@pytest.mark.parametrize("norm, message", NORM_FAULTS)
def test_report_document_rejects_each_norm_the_reader_rejects(norm, message):
    report = dataclasses.replace(check_bfm(list(golden_pair())), commutator_norm=norm)
    with pytest.raises(ValueError) as exc:
        report_document(report, ["A", "B"])
    assert str(exc.value) == message
    # the reader rejects the same norm with the same message
    doc = report_document(check_bfm(list(golden_pair())), ["A", "B"])
    doc["report"]["commutator_norm"] = norm
    with pytest.raises(MalformedFile) as read:
        parse_report_document(doc)
    assert str(read.value) == message


GOLDEN_DECOMPOSITION = build_shared_decomposition(*golden_pair())
GOLDEN_SECTIONS = {
    "decomposition": GOLDEN_DECOMPOSITION, "witness": build_witness(GOLDEN_DECOMPOSITION)
}
NORMS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-300, 1e-7, True, False, np.True_, 10**400]
    ),
    st.sampled_from([float("nan"), float("inf"), "0.1", None]),
    st.floats(),
    st.floats().map(np.float64),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


@st.composite
def written_reports(draw):
    """A CompatReport of dimension at most 4 with any norms, and a count of
    states, inputs and sections that fit it in three draws out of four, so
    that most reports reach the reader, and may not fit it in the fourth."""
    fits = draw(st.integers(0, 3)) > 0
    sections = draw(st.sampled_from([(), ("decomposition",), ("decomposition", "witness")]))
    if fits and sections:  # the golden chi is e0
        dim, k, identity = 2, draw(st.integers(1, 2)), True
    else:
        dim = draw(st.integers(1, 4))
        k, identity = draw(st.integers(0, dim)), draw(st.booleans())
    if identity:
        basis = np.eye(dim, dtype=complex)[:, :k]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        basis = np.linalg.qr(rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k)))[0]
    if fits:
        n_states = 2 if sections else draw(st.sampled_from([2, 3]))
        inputs = draw(st.sampled_from([[], ["A", "B", "C"][:n_states]]))
    else:
        n_states = draw(st.sampled_from([1, 2, 3, True, np.int64(2)]))
        names = st.one_of(st.text(max_size=2), st.integers(), st.none())
        inputs = draw(st.lists(names, max_size=3))
        sections = draw(st.sampled_from([sections, ("witness",)]))
    report = CompatReport(
        Subspace(dim, basis),
        draw(NORMS),
        draw(NORMS),
        draw(st.sampled_from([Tolerances(), Tolerances(overlap_tol=0.3)])),
        n_states,
    )
    return report, inputs, {name: GOLDEN_SECTIONS[name] for name in sections}


@settings(max_examples=300)
@given(written=written_reports())
def test_every_report_the_writer_accepts_reads_back(written):
    # the writer rejects (ValueError) what its reader would reject
    report, inputs, sections = written
    try:
        text = dumps_canonical(report_document(report, inputs, **sections))
    except ValueError:
        return
    back = load_report(io.StringIO(text)).report
    for key in ("verdict_bfm", "verdict_pi", "verdict_pii", "pairwise_conjunction",
                "intersection_dim", "commutator_norm", "product_norm", "n_states"):
        assert getattr(back, key) == getattr(report, key), key
    assert back.intersection_basis.ambient_dim == report.intersection_basis.ambient_dim


# golden pair: verdict_bfm, verdict_pii true, verdict_pi and the conjunction
# false, intersection dimension 1, commutator norm 0.25, product norm 0.75
CONTRADICTS = [
    (key, value)
    for key, values in (
        ("verdict_bfm", [False, "true", 1, 1.7]),
        ("verdict_pi", [True, "false", 0, 1.7]),
        ("verdict_pii", [False, "true", 1, 1.7]),
        ("intersection_dim", [0, 2, True, 1.0, "1", 1.7]),
        ("pairwise_conjunction", [0, 1.7]),  # True and "no": test_report_parse_checks_n_states
    )
    for value in values
]


@pytest.mark.parametrize("key, value", CONTRADICTS)
def test_report_parse_derives_each_verdict_from_its_evidence(key, value):
    doc = golden_witness_document()
    parse_report_document(doc)
    doc["report"][key] = value
    with pytest.raises(MalformedFile) as exc:
        parse_report_document(doc)
    assert str(exc.value).startswith(f"report.{key} {value!r} contradicts ")


NUMBER_CASES = [
    (("decomposition", "p0"), "1", "decomposition: p0 must be a number"),
    (("decomposition", "q0"), "0.5", "decomposition: q0 must be a number"),
    (("decomposition", "p0"), True, "decomposition: p0 must be a number"),
    (("decomposition", "q0"), 1e400, "decomposition: non-finite q0 inf"),
    (
        ("decomposition", "rest_b", 0, "weight"), "0.5",
        "decomposition.rest_b[0]: weight must be a number",
    ),
    (("tolerances_used", "trace_tol"), True, "tolerances_used: trace_tol must be a number"),
    (
        ("tolerances_used", "overlap_tol"), "1e-7",
        "tolerances_used: overlap_tol must be a number",
    ),
    (
        ("tolerances_used", "overlap_tol"), 0.5,
        "tolerances_used: overlap_tol must be below 0.5, got 0.5",
    ),
    (
        ("tolerances_used", "hermiticity_tol"), -1,
        "tolerances_used: hermiticity_tol must be finite and nonnegative, got -1.0",
    ),
    (("report", "commutator_norm"), -0.25, "report: commutator_norm -0.25 is negative"),
    (("report", "product_norm"), -1e-300, "report: product_norm -1e-300 is negative"),
    (("report", "product_norm"), True, "report: product_norm must be a number"),
    (("report", "commutator_norm"), "0.25", "report: commutator_norm must be a number"),
    (
        ("report", "commutator_norm"), 10**400,
        "report: commutator_norm out of range for a double",
    ),
]


@pytest.mark.parametrize(
    "path, value, message",
    [pytest.param(*c, id=f"{c[0][-1]}-{type(c[1]).__name__}") for c in NUMBER_CASES],
)
def test_report_parse_reads_each_number_one_way(path, value, message):
    doc = golden_witness_document()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(MalformedFile) as exc:
        parse_report_document(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "path, value, message",
    [
        (
            ("report", "verdict_pi"), True,
            "report.verdict_pi True contradicts commutator_norm 0.25 at overlap_tol 1e-07",
        ),
        (
            ("report", "verdict_pii"), "false",
            "report.verdict_pii 'false' contradicts product_norm 0.75 at overlap_tol 1e-07",
        ),
        (("tolerances_used", "trace_tol"), True, "tolerances_used: trace_tol must be a number"),
        (("decomposition", "p0"), "1", "decomposition: p0 must be a number"),
    ],
    ids=["verdict_pi", "verdict_pii", "trace_tol", "p0"],
)
def test_cli_simulate_rejects_tampered_witness(corpus, tmp_path, capsys, path, value, message):
    out = tmp_path / "wit.json"
    assert cli_main(["witness", corpus["pure"], corpus["mixed"], "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc[path[0]][path[1]] = value
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["simulate", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["check", "decompose", "witness"])
def test_cli_overlap_tol_from_one_half_is_a_usage_error(corpus, command, capsys):
    # orthogonal states: at overlap_tol >= 0.5 the cosine threshold would let
    # them intersect, beside a PII that fails with product norm 0
    pair = [corpus["pure"], corpus["one"]]
    assert cli_main([command, *pair]) == 1
    capsys.readouterr()
    for flag in ("0.5", "0.6"):
        assert cli_main([command, *pair, "--tol-overlap", flag]) == 2
        assert capsys.readouterr() == ("", f"error: overlap_tol must be below 0.5, got {flag}\n")


def test_report_of_three_states_round_trips():
    a, b = golden_pair()
    report = check_bfm([a, b, a])
    for inputs in (["A", "B", "A"], []):
        parsed = parse_report_document(json.loads(dumps_canonical(report_document(report, inputs))))
        assert parsed.report.n_states == 3 and parsed.report.pairwise_conjunction


def test_cli_witness_simulate_full_rank_dim_256(tmp_path, capsys):
    # the whole pipeline through files at the top of the documented range
    a, b = full_rank_pair(np.random.default_rng(149), 256)
    paths = [write_state(tmp_path / f"{n}.json", s.matrix) for n, s in (("a", a), ("b", b))]
    out = tmp_path / "wit.json"
    assert cli_main(["witness", *paths, "--json", str(out)]) == 0
    capsys.readouterr()
    assert cli_main(["simulate", str(out)]) == 0
    assert "round trip OK" in capsys.readouterr().out


@pytest.mark.parametrize("pair", ["tie", "full-rank-32"])
def test_cli_witness_writes_the_library_document(pair, tmp_path):
    # the CLI decomposes on check_bfm's intersection; the library intersects
    # again, on the same objects, so the file must hold the same bytes
    if pair == "tie":  # I/4 with itself: every intersection vector ties
        paths = [write_state(tmp_path / "mixed.json", np.eye(4) / 4, label="I/4")] * 2
    else:
        states = full_rank_pair(np.random.default_rng(32), 32)
        paths = [write_state(tmp_path / f"{n}.json", s.matrix, n) for n, s in zip("AB", states)]
    out = tmp_path / "wit.json"
    assert cli_main(["witness", *paths, "--json", str(out)]) == 0
    (ma, name_a), (mb, name_b) = (parse_matrix(p) for p in paths)
    a, b = validate_density(ma, label=name_a), validate_density(mb, label=name_b)
    d = build_shared_decomposition(a, b)
    doc = report_document(check_bfm([a, b]), [name_a, name_b], d, build_witness(d))
    assert out.read_bytes() == dumps_canonical(doc).encode()


def test_cli_tol_eig_env_and_flag(corpus, monkeypatch):
    # lambda_min = -0.2 fails at the default cutoff
    assert cli_main(["validate", corpus["negative"]]) == 1
    monkeypatch.setenv("QCOMPAT_TOL_EIG", "0.3")
    assert cli_main(["validate", corpus["negative"]]) == 0
    # the flag wins over the environment
    assert cli_main(["validate", corpus["negative"], "--tol-eig", "1e-9"]) == 1
    monkeypatch.setenv("QCOMPAT_TOL_EIG", "not-a-number")
    assert cli_main(["validate", corpus["negative"]]) == 2


def test_cli_tol_eig_flag_wins_over_a_malformed_env(corpus, monkeypatch, capsys):
    # the environment is not read when the flag is given
    monkeypatch.setenv("QCOMPAT_TOL_EIG", "not-a-number")
    assert cli_main(["validate", corpus["negative"], "--tol-eig", "0.3"]) == 0
    assert cli_main(["validate", corpus["negative"], "--tol-eig", "1e-9"]) == 1
    assert capsys.readouterr().err == ""


def test_cli_overlap_flag_changes_verdict(corpus, tmp_path):
    # with an absurdly loose overlap threshold PI "holds" on the golden pair
    pair = [corpus["pure"], corpus["mixed"]]
    assert cli_main(["check", *pair, "--criterion", "pi"]) == 1
    assert cli_main(["check", *pair, "--criterion", "pi", "--tol-overlap", "0.3"]) == 0


def test_cli_deeply_nested_file_is_malformed(tmp_path, capsys):
    # the JSON decoder's recursion limit must read as bad input, not as a verdict
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    assert cli_main(["check", str(deep), str(deep)]) == 2
    assert capsys.readouterr().err == "error: invalid JSON: nested too deeply\n"


def test_cli_unexpected_failure_exits_3(corpus, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr("qcompat.cli.check_bfm", out_of_memory)
    assert cli_main(["check", corpus["pure"], corpus["mixed"]]) == 3
    assert capsys.readouterr().err == "internal error: MemoryError: cannot allocate\n"


def test_cli_rejects_a_state_whose_hermitian_part_overflows(tmp_path, capsys):
    # eigenvalues +-1e308: m + m^dag overflows, and no NaN may pass as a state
    path = write_state(tmp_path / "big.json", np.array([[0.5, 1e308], [1e308, 0.5]]))
    assert cli_main(["validate", path]) == 1
    captured = capsys.readouterr()
    assert "positivity lambda_min" in captured.out and captured.err == ""
    assert cli_main(["support", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid operator: positivity") and err.count("\n") == 1


def test_cli_overflow_prints_no_warning_beside_its_diagnostic(tmp_path, capsys):
    # a witness whose first basis entry overflows the orthonormality check's product
    doc = json.loads((DATA / "legacy_witness.json").read_text())
    doc["report"]["intersection_basis"][0][0] = [1e308, 0]
    witness = tmp_path / "wit.json"
    witness.write_text(json.dumps(doc))
    assert cli_main(["simulate", str(witness)]) == 2
    assert capsys.readouterr().err == "error: report: basis columns are not orthonormal to 1e-10\n"
    # a trace and a certificate scale that overflow
    assert cli_main(["validate", write_state(tmp_path / "big.json", np.diag([1e308, 1e308]))]) == 1
    captured = capsys.readouterr()
    assert "trace" in captured.out and captured.err == ""


@pytest.mark.parametrize("module", ["qcompat", "qcompat.cli"])
def test_python_dash_m_exit_codes(module, corpus, tmp_path):
    env = dict(os.environ)
    src = str(Path(qcompat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", module, *args],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )

    compatible = run("check", corpus["pure"], corpus["mixed"])
    assert compatible.returncode == 0
    assert "support intersection: compatible" in compatible.stdout
    assert compatible.stderr == ""
    assert run("check", corpus["pure"], corpus["one"]).returncode == 1
    missing = run("check", str(tmp_path / "missing.json"), str(tmp_path / "missing.json"))
    assert missing.returncode == 2
    assert "No such file" in missing.stderr
    assert run().returncode == 2
