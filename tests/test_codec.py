"""The canonical codec: bytes pinned by committed fixtures, the bulk reader
against the per-entry reader, and the diagnostics for malformed entries."""

import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcompat import MalformedFile, ShapeMismatch, formats
from qcompat.cli import cli_main
from qcompat.formats import dumps_canonical, load_report, parse_matrix, serialize_matrix
from conftest import BIG, DATA, full_rank_pair, spy, write_state



def golden_matrix() -> np.ndarray:
    """A seeded 6x6 complex matrix with both signed zeros, subnormals,
    integers and 17-digit values; no LAPACK call is involved, so its bytes
    are the same on every platform."""
    x = np.random.default_rng(20021).standard_normal((6, 6, 2))
    x[0, 0] = 0.0, -0.0
    x[0, 1] = -0.0, 0.0
    x[1, 1] = 5e-324, -1.5e-310
    x[2, 2] = 3.0, -7.0
    x[3, 3] = 2.0**70, 1e22
    x[4, 4] = 0.1, 1 / 3
    return x.view(complex)[..., 0]


# The report layout by hand: vectors of float pairs (with signed zeros and
# subnormals), pairs holding integers, bools, ints, null, empty lists and
# nested objects.
GOLDEN_DOC = {
    "schema_version": "qcompat-1",
    "inputs": ["A", "B"],
    "report": {
        "dim": 3,
        "n_states": 2,
        "verdict_bfm": True,
        "verdict_pi": False,
        "intersection_dim": 2,
        "intersection_basis": [
            [[0.1, -0.0], [5e-324, 1.0], [-2.0, 0.30000000000000004]],
            [[1, 0], [0, -0.0], [2**70, -3]],
        ],
        "commutator_norm": 0.0,
        "product_norm": 1e-300,
        "pairwise_conjunction": False,
    },
    "tolerances_used": {"overlap_tol": 1e-7, "trace_tol": 1e-9},
    "decomposition": {
        "chi": [[0.70710678118654757, 0.0], [0.0, -0.70710678118654757], [1.5, 2]],
        "p0": 0.5,
        "rest_a": [{"weight": 0.5, "state": [[-0.0, -0.0], [1.0, 0.0], [0.0, 0.0]]}],
        "rest_b": [],
    },
    "witness": {"dims": [1, 2, 3], "normalization": 0.70710678118654757},
    "extra": {"empty": [], "nothing": None, "object": {}, "nested": [[], [True, None, 7]]},
}


def test_writer_reproduces_golden_bytes():
    matrix_text = serialize_matrix(golden_matrix(), label="golden")
    assert matrix_text.encode() == (DATA / "golden_matrix.json").read_bytes()
    assert dumps_canonical(GOLDEN_DOC).encode() == (DATA / "golden_report.json").read_bytes()


def test_golden_matrix_reads_back_bit_for_bit():
    back, label = parse_matrix(str(DATA / "golden_matrix.json"))
    assert label == "golden"
    # the writer puts -0.0 as "-0", which JSON reads as the integer 0
    assert np.array_equal(back.view(np.uint64), (golden_matrix() + 0.0).view(np.uint64))


def test_writer_rejects_non_finite_values_as_before():
    for value, text in ((np.inf, "inf"), (-np.inf, "-inf"), (np.nan, "nan")):
        m = np.zeros((2, 2), dtype=complex)
        m[1, 0] = complex(0.5, value)
        with pytest.raises(ValueError) as exc:
            serialize_matrix(m)
        assert str(exc.value) == f"cannot serialize non-finite number {text}"


@settings(max_examples=60)
@given(shape=st.lists(st.integers(0, 4), max_size=3), seed=st.integers(0, 2**32 - 1))
@example(shape=[0, 0], seed=0)
@example(shape=[1, 1], seed=1)
def test_every_matrix_the_writer_accepts_reads_back(shape, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    try:
        text = serialize_matrix(m)
    except ValueError as exc:
        assert str(exc) == f"expected a square matrix of at least 1 x 1, got shape {m.shape}"
        assert len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0
        return
    back, label = parse_matrix(io.StringIO(text))
    assert label is None and np.array_equal(back, m)


# ---------------------------------------------------------------------------
# bulk reader against the per-entry reader


def per_entry_only():
    """Route every read through the per-entry reader, the bulk path's fallback."""
    return mock.patch.object(
        formats, "_pairs_to_array",
        lambda nested, shape, where: np.array(formats._read_pairs(nested, shape, where)),
    )


SPECIAL = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1.5e-310]),
    st.integers(-(2**70), 2**70),  # JSON integers, beyond 2**53 as well
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=40)
@given(
    dim=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(SPECIAL, min_size=1, max_size=24),
)
def test_bulk_and_per_entry_reads_agree_bit_for_bit(dim, seed, specials):
    rng = np.random.default_rng(seed)
    n = 2 * dim * dim
    flat = (rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)).tolist()
    for value, k in zip(specials, rng.integers(0, len(flat), len(specials))):
        flat[k] = value
    entries = np.array(flat, dtype=object).reshape(dim, dim, 2).tolist()
    text = json.dumps({"schema_version": "qcompat-1", "dim": dim, "entries": entries})

    bulk, _ = parse_matrix(io.StringIO(text))
    with per_entry_only():
        reference, _ = parse_matrix(io.StringIO(text))
    # array_equal would count -0.0 and 0.0 as equal
    assert np.array_equal(bulk.view(np.uint64), reference.view(np.uint64))

    canonical = serialize_matrix(bulk + 0.0)  # unsigned zeros: "-0" reads as 0
    assert serialize_matrix(parse_matrix(io.StringIO(canonical))[0]) == canonical



PAIR_ERROR = "entries[1][2]: expected a [re, im] number pair, got "
COLUMNS = "entries[1]: expected 3 columns, got "


@pytest.mark.parametrize(
    "literal, error, message",
    [
        pytest.param("true", MalformedFile, PAIR_ERROR + "True", id="bool"),
        pytest.param("[true, 0]", MalformedFile, PAIR_ERROR + "[True, 0]", id="bool-in-pair"),
        pytest.param('"1.5"', MalformedFile, PAIR_ERROR + "'1.5'", id="string"),
        pytest.param('["1.5", 0]', MalformedFile, PAIR_ERROR + "['1.5', 0]", id="string-in-pair"),
        pytest.param("[1.5]", MalformedFile, PAIR_ERROR + "[1.5]", id="one-element"),
        pytest.param("[1.5, 0, 0]", MalformedFile, PAIR_ERROR + "[1.5, 0, 0]", id="three-element"),
        pytest.param("[[1.5, 0]]", MalformedFile, PAIR_ERROR + "[[1.5, 0]]", id="extra-nesting"),
        pytest.param("null", MalformedFile, PAIR_ERROR + "None", id="null"),
        pytest.param("[null, 0]", MalformedFile, PAIR_ERROR + "[None, 0]", id="null-in-pair"),
        pytest.param(
            "[1e400, 0]", MalformedFile, "entries[1][2]: non-finite entry [inf, 0]", id="1e400"
        ),
        pytest.param(
            "[0, -1e400]", MalformedFile, "entries[1][2]: non-finite entry [0, -inf]", id="-1e400"
        ),
        pytest.param(
            f"[{BIG}, 0]", MalformedFile, "entries[1][2]: entry out of range for a double",
            id="10**400",
        ),
        pytest.param("ragged-short", ShapeMismatch, COLUMNS + "2", id="ragged-short"),
        pytest.param("ragged-long", ShapeMismatch, COLUMNS + "4", id="ragged-long"),
    ],
)
def test_malformed_entry_keeps_class_and_message(literal, error, message):
    rows = [["[0.5, 0]"] * 3 for _ in range(3)]
    if literal == "ragged-short":
        rows[1].pop()
    elif literal == "ragged-long":
        rows[1].append("[0.5, 0]")
    else:
        rows[1][2] = literal
    entries = ", ".join("[" + ", ".join(r) + "]" for r in rows)
    text = f'{{"schema_version": "qcompat-1", "dim": 3, "entries": [{entries}]}}'
    with pytest.raises(error) as exc:
        parse_matrix(io.StringIO(text))
    assert str(exc.value) == message

    # the same entry in a report vector names its place the same way
    if not literal.startswith("ragged"):
        doc = json.loads((DATA / "legacy_witness.json").read_text())
        doc["decomposition"]["chi"][2] = "@"
        report = json.dumps(doc).replace('"@"', literal)
        with pytest.raises(error) as exc:
            load_report(io.StringIO(report))
        assert str(exc.value) == message.replace("entries[1][2]", "decomposition.chi[2]")


def test_integer_beyond_int64_still_parses():
    text = f'{{"schema_version": "qcompat-1", "dim": 1, "entries": [[[{2**70}, -{2**70 + 1}]]]}}'
    matrix, _ = parse_matrix(io.StringIO(text))
    assert matrix[0, 0] == complex(2.0**70, -(2.0**70))


def test_valid_files_never_read_entry_by_entry(tmp_path, monkeypatch):
    # a silent fall back to the per-entry reader would keep every answer and
    # lose the speed, so count its calls
    calls = spy(monkeypatch, formats._pair_to_complex, formats, keep=lambda *args: args)
    a, b = full_rank_pair(np.random.default_rng(3), 64)
    paths = [write_state(tmp_path / f"{n}.json", s.matrix) for n, s in (("a", a), ("b", b))]
    assert np.array_equal(parse_matrix(paths[0])[0], a.matrix)
    witness = tmp_path / "wit.json"
    assert cli_main(["witness", *paths, "--json", str(witness)]) == 0
    parsed = load_report(str(witness))
    assert parsed.witness.dims == (64, 64, 64)
    assert load_report(str(DATA / "legacy_witness.json")).witness.dims == (3, 3, 3)
    assert calls == []


def test_matrix_rows_never_written_value_by_value(monkeypatch):
    # rows of float pairs go out one format per pair; only "dim" is a lone number
    calls = spy(monkeypatch, formats._emit_number, formats, keep=lambda x: x)
    a, _ = full_rank_pair(np.random.default_rng(5), 64)
    assert parse_matrix(io.StringIO(serialize_matrix(a.matrix)))[0].shape == (64, 64)
    assert calls == [64]
