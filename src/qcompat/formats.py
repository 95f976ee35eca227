"""Bit-exact file formats: matrix files, report files, witness files.

All files are JSON documents under schema version ``qcompat-1``.  Complex
numbers are written as explicit ``[re, im]`` pairs and every number is
emitted with 17 significant digits, which round-trips double precision
losslessly; emission is canonical, so identical values always serialize to
identical bytes.

A witness section holds only ``dims`` and ``normalization``: the witness is
its decomposition, which the file carries beside it.  Files written before
that may still store the dense ``amplitudes``; they are read under the same
schema version and must match the amplitudes the decomposition gives.

Number arrays cross the codec in bulk.  ``_to_pairs`` turns a complex array
into nested ``[re, im]`` lists at once, and the emitter writes each row of
float pairs with one ``"[%.17g, %.17g]"`` format per pair (``_pair_row``);
anything else in a document (integers, bools, ``null``, non-finite values)
goes through the per-value emitter, so the bytes are the same either way.
On the way in, ``_pairs_to_array`` type-scans the parsed pairs and builds
the float array in one ``np.array`` call, viewed as complex so the sign of
a zero part survives.  Any entry it cannot take exactly (a bool, a string,
``null``, the wrong nesting or pair length, a value that is not finite or
beyond a double) hands the whole read to the per-entry reader, which stays
as the fallback that names the faulty entry in its error.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from itertools import chain
from pathlib import Path
from typing import IO

import numpy as np

from .compat import CompatReport
from .errors import MalformedFile, SchemaVersionUnsupported, ShapeMismatch, StateValidationError
from .linalg import Subspace, Tolerances, _cosine_floor, _integer, _number, max_abs
from .states import WEIGHT_TOL, PureState
from .witness import ROUND_TRIP_TOL, SharedDecomposition, WitnessState

__all__ = [
    "SCHEMA_VERSION",
    "ParsedReport",
    "dumps_canonical",
    "parse_matrix",
    "serialize_matrix",
    "report_document",
    "parse_report_document",
    "load_report",
]

SCHEMA_VERSION = "qcompat-1"


# ---------------------------------------------------------------------------
# canonical JSON emission

def _emit_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    value = float(x)
    if not np.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value!r}")
    return format(value, ".17g")


def _is_scalar(x) -> bool:
    return x is None or isinstance(
        x, (bool, int, float, str, np.bool_, np.integer, np.floating)
    )


def _is_flat(x) -> bool:
    """A list up to two levels deep with scalar leaves stays on one line."""
    return all(
        _is_scalar(e) or (isinstance(e, (list, tuple)) and all(_is_scalar(f) for f in e))
        for e in x
    )


_PAIR = "[%.17g, %.17g]"  # "%.17g" and format(x, ".17g") convert alike


def _pair_row(x) -> str | None:
    """A list of finite ``[re, im]`` float pairs on one line, one format per
    pair; None for any other list, which ``_emit`` writes value by value."""
    if set(map(type, x)) != {list} or set(map(len, x)) != {2}:
        return None
    if set(map(type, chain.from_iterable(x))) != {float}:
        return None
    if not all(map(math.isfinite, chain.from_iterable(x))):
        return None  # _emit_number raises for the first non-finite value
    return "[" + ", ".join(map(_PAIR.__mod__, map(tuple, x))) + "]"


def _emit(x, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if x is None:
        return "null"
    if isinstance(x, (bool, int, float, np.bool_, np.integer, np.floating)):
        return _emit_number(x)
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, (list, tuple)):
        row = _pair_row(x)
        if row is not None:
            return row
        if _is_flat(x):
            return "[" + ", ".join(_emit(e, 0) for e in x) + "]"
        body = ",\n".join(inner + _emit(e, indent + 1) for e in x)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(x, dict):
        if len(x) == 0:
            return "{}"
        body = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_emit(v, indent + 1)}" for k, v in x.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize value of type {type(x).__name__}")


def dumps_canonical(doc: dict) -> str:
    """Serialize a document deterministically (insertion-ordered keys)."""
    return _emit(doc, 0) + "\n"


# ---------------------------------------------------------------------------
# complex payload helpers

def _to_pairs(a: np.ndarray) -> list:
    """Nested ``[re, im]`` float lists of a complex array of any shape."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _pair_to_complex(entry, where: str) -> complex:
    """The complex number of one ``[re, im]`` pair, each part under :func:`_number`."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise MalformedFile(f"{where}: expected a [re, im] number pair, got {entry!r}")
    return complex(_number(entry[0], f"{where}: re", MalformedFile),
                   _number(entry[1], f"{where}: im", MalformedFile))


def _pairs_to_array(nested, shape: tuple[int, ...], where: str) -> np.ndarray:
    """The complex array of ``shape`` that nested ``[re, im]`` pairs hold, read
    in bulk.  When an entry is not a pair of finite int or float numbers, or
    the nesting is not ``shape``, :func:`_read_pairs` reads them one by one
    instead, and its error names the first faulty row or entry of ``where``."""
    leaves = nested
    for _ in shape:
        leaves = chain.from_iterable(leaves)
    try:
        if set(map(type, leaves)) <= {int, float}:  # no bool, str, None or list
            values = np.array(nested, dtype=float)
            if values.shape == (*shape, 2) and np.isfinite(values).all():
                # a view, not re + 1j*im, which would drop the sign of a zero part
                return values.view(np.complex128).reshape(shape)
    except (TypeError, ValueError, OverflowError):
        pass
    return np.array(_read_pairs(nested, shape, where), dtype=complex)


def _read_pairs(nested, shape: tuple[int, ...], where: str):
    """The per-entry reader: nested lists of the complex numbers ``nested`` holds,
    row by row and entry by entry, raising at the first faulty one."""
    if not shape:
        return _pair_to_complex(nested, where)
    if not isinstance(nested, list):
        raise MalformedFile(f"{where}: expected a list of [re, im] pairs")
    if len(nested) != shape[0]:
        raise ShapeMismatch(f"{where}: expected {shape[0]} columns, got {len(nested)}")
    return [_read_pairs(e, shape[1:], f"{where}[{k}]") for k, e in enumerate(nested)]


def _pairs_to_vector(pairs, where: str, dim: int | None = None) -> np.ndarray:
    """The complex vector a nonempty list of ``[re, im]`` pairs holds; given
    ``dim``, the one place a payload's dimension is checked, after its entries."""
    if not isinstance(pairs, list) or not pairs:
        raise MalformedFile(f"{where}: expected a nonempty list of [re, im] pairs")
    vec = _pairs_to_array(pairs, (len(pairs),), where)
    if dim is not None and len(pairs) != dim:
        raise ShapeMismatch(f"{where}: expected dimension {dim}")
    return vec


def _reject_constant(name: str):
    # qcompat never writes NaN or Infinity (see _emit_number)
    raise MalformedFile(f"invalid JSON: non-finite constant {name}")


def _load_json(source) -> dict:
    try:  # UTF-8 only (RFC 8259 section 8.1), however the source was opened
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "rb") as fh:
                text = fh.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        doc = json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise MalformedFile(f"invalid JSON: {e}") from e
    except RecursionError as e:
        raise MalformedFile("invalid JSON: nested too deeply") from e
    if not isinstance(doc, dict):
        raise MalformedFile(f"expected a JSON object at top level, got {type(doc).__name__}")
    return doc


# The rules below are the readers' and the writers' alike: a reader raises
# MalformedFile when one fails, a writer ValueError.

def _check_label(label, error) -> None:
    """A matrix file's label is a string or absent."""
    if label is not None and not isinstance(label, str):
        raise error(f"field 'label' must be a string, got {label!r}")


def _check_sections(inputs, n_states, intersection_dim, decomposed, witnessed, error) -> None:
    """A report's inputs are strings; it covers at least two states, one per
    input if any are named, and exactly two, whose supports meet (intersection
    dimension above 0), under a decomposition, which a witness needs."""
    if not isinstance(inputs, list) or any(not isinstance(s, str) for s in inputs):
        raise error("field 'inputs' must be a list of strings")
    _integer(n_states, "report.n_states", least=2, error=error)
    if inputs and n_states != len(inputs):
        raise error(f"report.n_states {n_states!r} differs from the {len(inputs)} inputs")
    if decomposed and n_states != 2:
        raise error(f"report.n_states {n_states!r} differs from the 2 states of a decomposition")
    if decomposed and intersection_dim == 0:
        raise error("decomposition section requires report.intersection_dim above 0")
    if witnessed and not decomposed:
        raise error("witness section requires a decomposition section")


def _check_norms(section: dict, error) -> dict:
    """The ``commutator_norm`` and ``product_norm`` of a report section (or of
    a report's fields) as doubles: each a number (:func:`_number_field`), not negative."""
    norms = {k: _number_field(section, k, "report", error)
             for k in ("commutator_norm", "product_norm")}
    for key, norm in norms.items():
        if norm < 0:
            raise error(f"report: {key} {norm!r} is negative")
    return norms


def _check_chi(report: CompatReport, chi: PureState, error) -> None:
    """A decomposition's chi lies in the report's intersection: the cosine
    ``|B^dag chi|`` with its basis ``B`` exceeds the report's
    :func:`~qcompat.linalg._cosine_floor`, the rule by which
    :func:`~qcompat.linalg.intersect` keeps a direction."""
    cosine = float(np.linalg.norm(report.intersection_basis.basis.conj().T @ chi.amplitudes))
    if not cosine > _cosine_floor(report.tolerances_used):
        raise error(f"decomposition.chi leaves the report's intersection: cosine {cosine!r}")


def _check_rebuild(d: SharedDecomposition, error) -> None:
    """A decomposition rebuilds both its states, as ``simulate`` does
    (``SharedDecomposition.rho_a`` and ``rho_b``): weights and vectors each
    within their own bounds can still sum to a trace beyond ``trace_tol``."""
    try:
        d.rho_a()
        d.rho_b()
    except StateValidationError as e:
        raise error(f"decomposition rebuilds no valid state: {e}") from e


def _check_witness(dims, normalization, witness: WitnessState, error) -> None:
    """A witness section's ``dims`` are a list of integers (:func:`_integer`), those of
    ``witness``, its decomposition's, and its normalization is a number
    (:func:`_number`) that satisfies ``1/N^2 = 1/p0 + 1/q0 - 1``."""
    if not isinstance(dims, list) or [
        _integer(d, f"witness.dims[{k}]", error=error) for k, d in enumerate(dims)
    ] != list(witness.dims):
        raise error(f"witness.dims {dims!r} differ from the decomposition's {list(witness.dims)}")
    identity = witness.normalization**-2
    n = _number(normalization, "witness.normalization", error)
    # relative: the rounding of 1/p0 + 1/q0 - 1 grows with its size
    if not (n > 0 and abs(1 / n / n - identity) <= WEIGHT_TOL * identity):
        raise error(f"witness.normalization {normalization!r} violates 1/N^2 = {identity!r}")


def _check_schema(doc: dict) -> None:
    version = doc.get("schema_version")
    if version is None:
        raise MalformedFile("missing required field 'schema_version'")
    if version != SCHEMA_VERSION:
        raise SchemaVersionUnsupported(
            f"schema_version {version!r} unsupported; this build reads {SCHEMA_VERSION!r}"
        )


# ---------------------------------------------------------------------------
# matrix files

def parse_matrix(source: str | Path | IO) -> tuple[np.ndarray, str | None]:
    """Read a matrix file (path or stream); returns (matrix, label).

    Every decimal entry is parsed exactly into binary via the platform's
    correctly rounded float conversion.

    Raises
    ------
    MalformedFile, SchemaVersionUnsupported, ShapeMismatch
    """
    doc = _load_json(source)
    _check_schema(doc)

    dim = _integer(doc.get("dim"), "field 'dim'", error=MalformedFile)
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise MalformedFile("field 'entries' must be a list of rows")
    if len(entries) != dim:
        raise ShapeMismatch(f"expected {dim} rows, got {len(entries)}")

    matrix = _pairs_to_array(entries, (dim, dim), "entries")

    label = doc.get("label")
    _check_label(label, MalformedFile)
    return matrix, label


def serialize_matrix(matrix: np.ndarray, label: str | None = None) -> str:
    """Canonical matrix-file text for a square complex matrix."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"expected a square matrix of at least 1 x 1, got shape {m.shape}")
    _check_label(label, ValueError)
    doc: dict = {"schema_version": SCHEMA_VERSION, "dim": int(m.shape[0])}
    if label is not None:
        doc["label"] = label
    doc["entries"] = _to_pairs(m)
    return dumps_canonical(doc)


# ---------------------------------------------------------------------------
# report / witness files

def _components_doc(rest) -> list:
    return [{"weight": w, "state": _to_pairs(s.amplitudes)} for w, s in rest]


def _decomposition_doc(d: SharedDecomposition) -> dict:
    return {
        "chi": _to_pairs(d.chi.amplitudes),
        "p0": d.p0,
        "q0": d.q0,
        "rest_a": _components_doc(d.rest_a),
        "rest_b": _components_doc(d.rest_b),
    }


def report_document(
    report: CompatReport,
    inputs: list[str],
    decomposition: SharedDecomposition | None = None,
    witness: WitnessState | None = None,
) -> dict:
    """Assemble the full report document (insertion order is the schema order).

    Raises ValueError where :func:`parse_report_document` would reject the
    sections: ``inputs`` given as one ``str`` or ``bytes``, an input that is
    not a string, a count of inputs neither 0 nor ``n_states``, a norm that is
    no finite number or is negative (:func:`_check_norms`), a decomposition of
    other than two states or of another dimension than the report, beside an
    intersection of dimension 0, with a chi outside the intersection
    (:func:`_check_chi`) or with states it does not rebuild
    (:func:`_check_rebuild`), or a witness without its decomposition or with
    dims or normalization not its own.
    """
    if isinstance(inputs, (str, bytes)):  # list() would split one name into characters
        raise ValueError("field 'inputs' must be a list of strings")
    inputs = list(inputs)
    _check_sections(
        inputs, report.n_states, report.intersection_dim,
        decomposition is not None, witness is not None, ValueError,
    )
    _check_norms(vars(report), ValueError)
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "inputs": inputs,
        "report": {
            "dim": report.intersection_basis.ambient_dim,
            "n_states": report.n_states,
            "verdict_bfm": report.verdict_bfm,
            "verdict_pi": report.verdict_pi,
            "verdict_pii": report.verdict_pii,
            "intersection_dim": report.intersection_dim,
            "intersection_basis": _to_pairs(report.intersection_basis.basis.T),
            "commutator_norm": report.commutator_norm,
            "product_norm": report.product_norm,
            "pairwise_conjunction": report.pairwise_conjunction,
        },
        "tolerances_used": asdict(report.tolerances_used),
    }
    if decomposition is not None:
        if decomposition.chi.dim != doc["report"]["dim"]:  # else the cosine has no meaning
            raise ValueError(f"decomposition.chi: expected dimension {doc['report']['dim']}")
        _check_chi(report, decomposition.chi, ValueError)
        _check_rebuild(decomposition, ValueError)
        doc["decomposition"] = _decomposition_doc(decomposition)
    if witness is not None:
        _check_witness(
            list(witness.dims), witness.normalization, WitnessState(decomposition), ValueError
        )
        doc["witness"] = {
            "dims": list(witness.dims),
            "normalization": witness.normalization,
        }
    return doc


@dataclass(frozen=True)
class ParsedReport:
    """Deserialized report file."""

    inputs: tuple[str, ...]
    report: CompatReport
    decomposition: SharedDecomposition | None
    witness: WitnessState | None


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise MalformedFile(f"{where}: missing required field {key!r}")
    return doc[key]


def _made(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, an object built from file fields; a
    ValueError its constructor raises is a MalformedFile at ``where``."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise MalformedFile(f"{where}: {e}") from e


def _number_field(doc: dict, key: str, where: str, error=MalformedFile) -> float:
    """The double that the required field ``doc[key]`` holds under :func:`_number`."""
    return _number(_require(doc, key, where), f"{where}: {key}", error)


def _parse_tolerances(doc, where: str) -> Tolerances:
    if not isinstance(doc, dict):
        raise MalformedFile(f"{where}: expected an object")
    values = {f.name: _number_field(doc, f.name, where) for f in fields(Tolerances)}
    return _made(where, Tolerances, **values)


def _component(item, where: str, dim: int) -> tuple[float, PureState]:
    if not isinstance(item, dict):
        raise MalformedFile(f"{where}: expected an object")
    weight = _number_field(item, "weight", where)
    vec = _pairs_to_vector(_require(item, "state", where), f"{where}.state", dim)
    return weight, _made(f"{where}.state", PureState, vec)


def _parse_components(items, where: str, dim: int) -> tuple:
    if not isinstance(items, list):
        raise MalformedFile(f"{where}: expected a list")
    return tuple(_component(item, f"{where}[{k}]", dim) for k, item in enumerate(items))


def _parse_decomposition(doc, where: str, dim: int) -> SharedDecomposition:
    if not isinstance(doc, dict):
        raise MalformedFile(f"{where}: expected an object")
    chi = _pairs_to_vector(_require(doc, "chi", where), f"{where}.chi", dim)
    return _made(
        where, SharedDecomposition,
        chi=_made(f"{where}.chi", PureState, chi),
        p0=_number_field(doc, "p0", where),
        q0=_number_field(doc, "q0", where),
        rest_a=_parse_components(_require(doc, "rest_a", where), f"{where}.rest_a", dim),
        rest_b=_parse_components(_require(doc, "rest_b", where), f"{where}.rest_b", dim),
    )


def parse_report_document(doc: dict) -> ParsedReport:
    """Rebuild report, decomposition, and witness objects from a document.

    Re-validates every structural invariant on the way in, so a corrupted
    file cannot round-trip into an inconsistent object: every number is a
    finite JSON int or float (never a bool or a string), and each verdict
    field the file stores must equal, value and JSON type, the one the
    report derives from the stored evidence.  Each vector (every
    intersection-basis vector, then chi, then each remainder term) must have
    the report's ``dim`` entries, checked as it is read, and a decomposition
    section needs an intersection basis of at least one vector, in which its
    chi lies (:func:`_check_chi`), and must rebuild both its states
    (:func:`_check_rebuild`), as ``simulate`` does.
    """
    _check_schema(doc)
    inputs = doc.get("inputs", [])

    rep = _require(doc, "report", "document")
    if not isinstance(rep, dict):
        raise MalformedFile("field 'report' must be an object")
    dim = _integer(_require(rep, "dim", "report"), "report.dim", error=MalformedFile)
    basis_pairs = _require(rep, "intersection_basis", "report")
    if not isinstance(basis_pairs, list):
        raise MalformedFile("report.intersection_basis must be a list of vectors")
    vectors = [
        _pairs_to_vector(v, f"report.intersection_basis[{k}]", dim)
        for k, v in enumerate(basis_pairs)
    ]
    basis = (
        np.column_stack(vectors) if vectors else np.zeros((dim, 0), dtype=complex)
    )
    n_states = _require(rep, "n_states", "report")
    _check_sections(
        inputs, n_states, len(vectors), "decomposition" in doc, "witness" in doc, MalformedFile
    )
    norms = _check_norms(rep, MalformedFile)
    tolerances = _parse_tolerances(_require(doc, "tolerances_used", "document"), "tolerances_used")
    intersection = _made("report", Subspace, dim, basis)
    report = CompatReport(intersection, **norms, tolerances_used=tolerances, n_states=n_states)
    basis_dim = f"the intersection basis of dimension {report.intersection_dim}"
    at_tol = f"at overlap_tol {tolerances.overlap_tol!r}"
    evidence = {
        "verdict_bfm": basis_dim,
        "verdict_pi": f"commutator_norm {report.commutator_norm!r} {at_tol}",
        "verdict_pii": f"product_norm {report.product_norm!r} {at_tol}",
        "intersection_dim": basis_dim,
        "pairwise_conjunction": f"n_states {n_states}",
    }
    for key, source in evidence.items():  # True == 1, so the JSON type must match too
        stored, derived = _require(rep, key, "report"), getattr(report, key)
        if type(stored) is not type(derived) or stored != derived:
            raise MalformedFile(f"report.{key} {stored!r} contradicts {source}")

    decomposition = None
    if "decomposition" in doc:
        decomposition = _parse_decomposition(doc["decomposition"], "decomposition", dim)
        _check_chi(report, decomposition.chi, MalformedFile)
        _check_rebuild(decomposition, MalformedFile)

    witness = None
    if "witness" in doc:
        wdoc = doc["witness"]
        if not isinstance(wdoc, dict):
            raise MalformedFile("field 'witness' must be an object")
        witness = WitnessState(decomposition)
        dims = _require(wdoc, "dims", "witness")
        _check_witness(dims, _require(wdoc, "normalization", "witness"), witness, MalformedFile)
        if "amplitudes" in wdoc:  # written before the witness was stored as its decomposition
            stored = _pairs_to_vector(wdoc["amplitudes"], "witness.amplitudes")
            if stored.size != np.prod(dims):
                raise MalformedFile(
                    f"witness.amplitudes: expected {np.prod(dims)} entries, got {stored.size}"
                )
            deviation = max_abs(stored - witness.amplitudes.amplitudes)
            if deviation > ROUND_TRIP_TOL:
                raise MalformedFile(
                    f"witness.amplitudes deviate from the decomposition's by {deviation:.3e} "
                    f"(tolerance {ROUND_TRIP_TOL:.0e})"
                )

    return ParsedReport(
        inputs=tuple(inputs),
        report=report,
        decomposition=decomposition,
        witness=witness,
    )


def load_report(source: str | Path | IO) -> ParsedReport:
    """Read and rebuild a report/witness file from a path or stream."""
    return parse_report_document(_load_json(source))
