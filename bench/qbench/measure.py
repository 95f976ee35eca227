"""Closed-loop runner and the reduction of latencies to end-to-end metrics.

Times are scaled for the machine's speed.  On the small shared machine the
benchmark was tuned on (2 virtual cores), each core runs at one of two
speeds 1.4-1.8x apart and switches between them every few seconds to every
minute or two, as other tenants of the host come and go; whole 50 s runs
fell in the slow state.  A run's median latency then read one speed or the
other depending on how much of the run was slow, and ten runs of the same
code spread past 25%.  So :class:`Gauge` times a fixed reference computation
(a LAPACK eigendecomposition and a pure-Python loop, like the library's own
mix) on the same core right before and right after each timed call, and the
call's time is divided by the reference's slowdown against its time at full
speed.  The benchmark still reports the wall-clock figures beside the scaled
ones.  The reference is not qcompat code, so a change to qcompat moves the
scaled times exactly as it moves the wall-clock ones.
"""

from __future__ import annotations

import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import cycle as repeat
from time import perf_counter
from typing import Iterable, Iterator

import numpy as np

from .workloads import Cell, Op

# At least this many operations per run, so that ten samples lie beyond p90.
MIN_OPS = 100
# Seconds the reference takes at full speed on the machine the benchmark
# was tuned on (about the fastest twentieth of its runs there).  Scaled
# times read as wall-clock seconds on that machine with its core at full
# speed.
REFERENCE_S = 0.0058
_REFERENCE_DIM = 128
_REFERENCE_LOOP = 40_000


class Gauge:
    """Slowdown of the core, from a fixed reference computation."""

    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((_REFERENCE_DIM,) * 2) + 1j * rng.standard_normal((_REFERENCE_DIM,) * 2)
        self._matrix = g + g.conj().T
        self.reference()  # the first call loads LAPACK

    def reference(self) -> float:
        """Seconds the reference takes now; :data:`REFERENCE_S` at full speed."""
        t0 = perf_counter()
        np.linalg.eigh(self._matrix)
        s = 0
        for i in range(_REFERENCE_LOOP):
            s += i * i
        return perf_counter() - t0

    def start(self) -> None:
        self._before = self.reference()

    def stop(self) -> float:
        """Slowdown since :meth:`start`: the reference's mean time over
        :data:`REFERENCE_S`."""
        return (self._before + self.reference()) / (2 * REFERENCE_S)


def cycle(cells: list[Cell]) -> list[int]:
    """One cycle of cell indices, interleaved by smooth weighted round robin.

    Every prefix of the cycle holds each cell within one job of its weight,
    so a run that stops mid-cycle still has the workload's mix.
    """
    total = sum(c.weight for c in cells)
    credit = [0] * len(cells)
    order = []
    for _ in range(total):
        for i, c in enumerate(cells):
            credit[i] += c.weight
        best = max(range(len(cells)), key=credit.__getitem__)
        credit[best] -= total
        order.append(best)
    return order


def jobs(cells: list[Cell]) -> Iterator[tuple[int, tuple[Op, ...]]]:
    """Endless job stream: ``(instance key, ops)``; instances used in turn."""
    used = [0] * len(cells)
    for i in repeat(cycle(cells)):
        cell = cells[i]
        k = used[i] % len(cell.jobs)
        used[i] += 1
        yield (i, k), cell.jobs[k]


def weights(cells: list[Cell]) -> dict[str, int]:
    """Operations per cycle of each op label."""
    out: dict[str, int] = {}
    for c in cells:
        for op in c.jobs[0]:
            out[op.cell] = out.get(op.cell, 0) + c.weight
    return out


@dataclass
class Sample:
    """One operation: its wall time, and the core's slowdown around it."""

    cell: str
    seconds: float
    ok: bool
    error: str | None = None
    slowdown: float = 1.0

    @property
    def scaled(self) -> float:
        return self.seconds / self.slowdown


def execute(op: Op, around=None, gauge: Gauge | None = None) -> Sample:
    """Time one operation and check its output.

    ``around`` is a context manager entered around the timed call only (the
    tracer's operation span); ``gauge``, if given, measures the slowdown
    right around the timed call.  Any exception, ``MemoryError`` included,
    makes the operation a failure: a crash never passes for a verdict.
    """
    elapsed, slowdown = 0.0, 1.0
    try:
        if op.prepare is not None:
            op.prepare()
        with around if around is not None else nullcontext():
            if gauge is not None:
                gauge.start()
            t0 = perf_counter()
            try:
                result = op.run()
            finally:
                elapsed = perf_counter() - t0
                if gauge is not None:
                    slowdown = gauge.stop()
    except Exception as e:  # noqa: BLE001 - every crash is a failed operation
        return Sample(op.cell, elapsed, False, f"{type(e).__name__}: {e}", slowdown)
    try:
        reason = op.check(result)
    except Exception as e:  # noqa: BLE001 - a check that cannot read the output fails it
        reason = f"output check raised {type(e).__name__}: {e}"
    return Sample(op.cell, elapsed, reason is None, reason, slowdown)


def run_loop(stream: Iterable, seconds: float, min_ops: int, cycle_len: int, run_job,
             whole_cycles: bool = False) -> list:
    """Run jobs until ``seconds`` have passed, ``min_ops`` operations and at
    least one cycle of ``cycle_len`` jobs are done.

    Stops only between jobs, and with ``whole_cycles`` only between cycles.
    Returns the jobs run, each as ``(key, ops, samples)``.
    """
    done = []
    n_ops = 0
    start = perf_counter()
    for key, ops in stream:
        samples = run_job(key, ops)
        done.append((key, ops, samples))
        n_ops += len(samples)
        if (
            perf_counter() - start >= seconds
            and n_ops >= min_ops
            and len(done) >= cycle_len
            and not (whole_cycles and len(done) % cycle_len)
        ):
            break
    return done


def weighted_quantile(values: np.ndarray, w: np.ndarray, q: float) -> float:
    """Quantile of a weighted sample, interpolating between sample midpoints."""
    order = np.argsort(values, kind="stable")
    v, w = values[order], w[order]
    cum = np.cumsum(w)
    mid = (cum - w / 2) / cum[-1]
    return float(np.interp(q, mid, v))


def end_to_end(samples: list[Sample], mix: dict[str, int], scaled: bool = True) -> dict:
    """Throughput and latency percentiles of the workload's mix.

    Each sample is weighted by its cell's share of a cycle divided by the
    cell's sample count, so a run that stops mid-cycle reports the mix it
    was built for, not the mix of its last partial cycle.  Throughput is the
    share of correct operations over the mean operation time of the mix
    (a single caller completes one operation per mean latency); the time the
    benchmark spends checking outputs is not counted.  With ``scaled`` the
    times are divided by the core's slowdown around each operation.
    """
    by_cell: dict[str, list[float]] = {}
    for s in samples:
        by_cell.setdefault(s.cell, []).append(s.scaled if scaled else s.seconds)
    total = sum(mix[c] for c in by_cell)
    lat, w = [], []
    mean_s = 0.0
    for cell, xs in by_cell.items():
        share = mix[cell] / total
        mean_s += share * statistics.fmean(xs)
        lat.extend(xs)
        w.extend([share / len(xs)] * len(xs))
    lat_a, w_a = np.array(lat), np.array(w)
    correct = sum(s.ok for s in samples)
    return {
        "ops_per_s": correct / len(samples) / mean_s,
        "latency_p50_ms": 1e3 * weighted_quantile(lat_a, w_a, 0.5),
        "latency_p90_ms": 1e3 * weighted_quantile(lat_a, w_a, 0.9),
        "samples": len(samples),
        "samples_beyond_p90": int(np.sum(lat_a > weighted_quantile(lat_a, w_a, 0.9))),
    }


def per_cell(samples: list[Sample]) -> dict[str, dict]:
    """Count, median scaled and wall-clock latency of each cell, for the run summary."""
    out: dict[str, list[Sample]] = {}
    for s in samples:
        out.setdefault(s.cell, []).append(s)
    return {
        cell: {
            "ops": len(ss),
            "p50_ms": round(1e3 * statistics.median(s.scaled for s in ss), 3),
            "wall_p50_ms": round(1e3 * statistics.median(s.seconds for s in ss), 3),
        }
        for cell, ss in sorted(out.items())
    }
