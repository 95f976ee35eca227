"""Spans around the library's layers, recorded from outside the library.

:func:`instrumented` replaces every public function of the six qcompat
layers, and ``numpy.linalg.eigh``/``eigvalsh``, with a wrapper that records a
span while an operation is open.  qcompat modules bind imported names at
import time (``from .linalg import support_of``), so every module's binding
of a function is replaced, not only the defining module's, and the CLI's
command table is patched too.  Everything is put back on exit.

Spans live in flat arrays in memory and are written out when the run ends.
A span's self time is its duration minus the time its child spans cover;
calls run on one thread and nest, so the children of a span are disjoint and
their durations add up.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import tracemalloc
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "states", "compat", "witness", "formats", "cli")
LAPACK = ("eigh", "eigvalsh")
OP = "op"
PROBE = "bench.probe"
MIB = 1024.0 * 1024.0


class Tracer:
    """In-memory span recorder; wrappers record only while an op is open."""

    def __init__(self):
        self.track_memory = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_index = array("i")
        self._stack: list[int] = []
        self.op: int | None = None
        # per-op quantities the spans cannot carry
        self.bytes_read: Counter = Counter()
        self.bytes_written: Counter = Counter()
        self.witnesses: list[tuple[int, int, int]] = []  # (op, stored vectors, nonzero vectors) per witness
        self.peak_alloc = 0  # bytes, largest allocation peak of a top-level witness call
        self._witness_depth = 0

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_index.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op: int):
        """Open the root span of operation ``op``; wrappers record inside it."""
        self.op = op
        idx = self._open(OP)
        try:
            yield
        finally:
            self._close(idx)
            self.op = None

    def span(self, name: str, fn, args, kwargs, probe=None):
        """Call ``fn`` inside a span; ``probe`` runs in an excluded span after it."""
        is_witness = name.startswith("witness.")
        top_witness = is_witness and self._witness_depth == 0 and self.track_memory
        if top_witness:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        self._witness_depth += is_witness
        idx = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(idx)
            self._witness_depth -= is_witness
        if top_witness:
            self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1] - base)
        if probe is not None:
            p = self._open(PROBE)
            try:
                probe(self, args, result)
            finally:
                self._close(p)
        return result

    def spans(self) -> list[tuple[str, float, float, int, int]]:
        return [
            (self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i], self.op_index[i])
            for i in range(len(self.start))
        ]

    def self_times(self) -> array:
        """Duration of each span minus the duration of its direct children."""
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        own = array("d", dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def write(self, path: str, extra: dict) -> None:
        """Write every span and ``extra`` to a gzipped JSON file."""
        doc = dict(extra)
        doc["span_columns"] = ["name", "start_s", "end_s", "parent", "op"]
        doc["spans"] = self.spans()
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# probes: measurements taken from a wrapped call's arguments and result


def _probe_read(tracer: Tracer, args, result) -> None:
    source = args[0] if args else None
    if isinstance(source, (str, os.PathLike)):
        tracer.bytes_read[tracer.op] += os.path.getsize(source)


def _probe_written(tracer: Tracer, args, result) -> None:
    tracer.bytes_written[tracer.op] += len(result.encode("utf-8"))


def _probe_witness(tracer: Tracer, args, result) -> None:
    dim_a, dim_b, dim_s = result.dims
    rows = np.asarray(result.amplitudes.amplitudes).reshape(dim_a * dim_b, dim_s)
    nonzero = int(np.count_nonzero(np.any(rows != 0, axis=1)))
    tracer.witnesses.append((tracer.op, dim_a * dim_b * dim_s, nonzero * dim_s))


PROBES = {
    "formats.parse_matrix": _probe_read,
    "formats.load_report": _probe_read,
    "formats.dumps_canonical": _probe_written,
    "witness.build_witness": _probe_witness,
}


# ---------------------------------------------------------------------------
# patching


def _wrap(tracer: Tracer, name: str, fn):
    probe = PROBES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        return tracer.span(name, fn, args, kwargs, probe)

    return traced


def layer_modules() -> dict:
    """The qcompat package and its six layer modules, imported."""
    mods = {layer: importlib.import_module(f"qcompat.{layer}") for layer in LAYERS}
    mods["qcompat"] = importlib.import_module("qcompat")
    return mods


def layer_functions(mods: dict):
    """Yield ``(span name, function)`` for each public function of each layer."""
    for layer in LAYERS:
        mod = mods[layer]
        names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        for n in names:
            f = getattr(mod, n)
            if inspect.isfunction(f) and f.__module__ == mod.__name__:
                yield f"{layer}.{n}", f


def install(tracer: Tracer, mods: dict) -> list[tuple[object, str, object]]:
    """Patch every binding; returns ``(namespace, key, original)`` to undo."""
    undo = []

    def patch(namespace, key, original, wrapper):
        undo.append((namespace, key, original))
        if isinstance(namespace, dict):
            namespace[key] = wrapper
        else:
            setattr(namespace, key, wrapper)

    for name, fn in layer_functions(mods):
        wrapper = _wrap(tracer, name, fn)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    patch(mod, attr, fn, wrapper)
    commands = mods["cli"]._COMMANDS
    for key, fn in list(commands.items()):
        patch(commands, key, fn, _wrap(tracer, f"cli.{key}", fn))
    for name in LAPACK:
        fn = getattr(np.linalg, name)
        patch(np.linalg, name, fn, _wrap(tracer, f"numpy.{name}", fn))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for namespace, key, original in reversed(undo):
        if isinstance(namespace, dict):
            namespace[key] = original
        else:
            setattr(namespace, key, original)


@contextmanager
def instrumented(tracer: Tracer, mods: dict):
    """Wrap the library for the duration of the block, then restore it."""
    undo = install(tracer, mods)
    try:
        yield
    finally:
        restore(undo)


@contextmanager
def tracking_memory(tracer: Tracer):
    """Measure allocation peaks of witness calls with ``tracemalloc``.

    ``tracemalloc`` slows every Python allocation, several-fold in the
    library's Python loops, so it is on only for a separate pass whose
    times are not reported.
    """
    tracemalloc.start()
    tracer.track_memory = True
    try:
        yield
    finally:
        tracer.track_memory = False
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# reduction to per-layer metrics

# span names whose self time is reported on its own
SELF_MS = (
    "linalg.hermitian_eigendecompose",
    "linalg.intersect",
    "states.validate_density",
    "states.partial_trace",
    "states.project_and_renormalize",
    "compat.check_bfm",
    "compat.verify_joint",
    "witness.build_shared_decomposition",
    "witness.choose_common_state",
    "witness.simulate_protocol",
    "formats.parse_matrix",
    "formats.load_report",
    "formats.report_document",
    "formats.dumps_canonical",
)
CALLS = ("linalg.support_of", "witness.max_common_weight")
PAIRWISE = ("compat.check_pi", "compat.check_pii")
COMMANDS = ("check", "witness", "simulate")


def layer_of(name: str) -> str:
    """Layer of a span: a qcompat module, ``lapack``, ``bench`` or ``op`` (the root)."""
    head = name.split(".", 1)[0]
    if head == "numpy":
        return "lapack"
    return head


def summarize(tracer: Tracer, ops: list[int], states: dict[int, int]) -> dict:
    """Per-operation layer metrics over the operations ``ops``.

    ``states`` maps each op to the number of distinct input states it
    handed to the library (the denominator of ``eigh_per_state``).
    Times are milliseconds per op; ``cli.<command>.wall_ms`` is per
    command, and the witness sizes are per witness built.
    """
    wanted = set(ops)
    own = tracer.self_times()
    names = tracer.names
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    dur_s: defaultdict = defaultdict(float)
    nested_checks: Counter = Counter()  # check_bfm calls below a witness / cli span
    bit = {"witness": 1, "cli": 2}
    name_bits = [bit.get(layer_of(n), 0) for n in names]
    above = array("i")  # bit mask of the witness / cli layers among each span's ancestors
    for i in range(len(tracer.start)):
        nid = tracer.name_id[i]
        name = names[nid]
        p = tracer.parent[i]
        mask = above[p] | name_bits[tracer.name_id[p]] if p >= 0 else 0
        above.append(mask)
        if tracer.op_index[i] not in wanted:
            continue
        calls[name] += 1
        self_s[name] += own[i]
        dur_s[name] += tracer.end[i] - tracer.start[i]
        if name == "compat.check_bfm":
            for layer, b in bit.items():
                nested_checks[layer] += bool(mask & b)

    n = max(len(ops), 1)
    ms = 1e3 / n  # seconds in total -> milliseconds per op
    layer_self: defaultdict = defaultdict(float)
    for name, t in self_s.items():
        layer_self[layer_of(name)] += t
    out: dict = {"ops": len(ops), "trace.spans_per_op": sum(calls.values()) / n}
    for layer in (*LAYERS, "lapack"):
        out[f"{layer}.self_ms"] = layer_self[layer] * ms
    out["trace.op_wall_ms"] = dur_s[OP] * ms
    for lapack in LAPACK:
        out[f"linalg.{lapack}_calls"] = calls[f"numpy.{lapack}"] / n
        out[f"linalg.lapack_{lapack}_ms"] = self_s[f"numpy.{lapack}"] * ms
    total_states = sum(states[o] for o in ops)
    out["linalg.eigh_per_state"] = calls["numpy.eigh"] / total_states if total_states else 0.0
    for name in SELF_MS:
        out[f"{name}.self_ms"] = self_s[name] * ms
    for name in CALLS:
        out[f"{name}.calls"] = calls[name] / n
    out["compat.pairwise.calls"] = sum(calls[x] for x in PAIRWISE) / n
    out["compat.pairwise.self_ms"] = sum(self_s[x] for x in PAIRWISE) * ms
    out["witness.check_bfm_calls"] = nested_checks["witness"] / n
    out["cli.check_bfm_calls"] = nested_checks["cli"] / n
    for cmd in COMMANDS:
        c = calls[f"cli.{cmd}"]
        out[f"cli.{cmd}.wall_ms"] = 1e3 * dur_s[f"cli.{cmd}"] / c if c else 0.0
    built = [(stored, nonzero) for op, stored, nonzero in tracer.witnesses if op in wanted]
    stored = sum(s for s, _ in built)
    out["witness.stored_amplitudes"] = stored / len(built) if built else 0.0
    out["witness.nonzero_fraction"] = sum(z for _, z in built) / stored if stored else 0.0
    out["formats.bytes_read"] = sum(tracer.bytes_read[o] for o in ops) / n
    out["formats.bytes_written"] = sum(tracer.bytes_written[o] for o in ops) / n
    return out


def call_counts(tracer: Tracer) -> dict[int, Counter]:
    """Calls of every wrapped function, per op."""
    per_op: defaultdict = defaultdict(Counter)
    for i in range(len(tracer.start)):
        per_op[tracer.op_index[i]][tracer.names[tracer.name_id[i]]] += 1
    return per_op
