"""Benchmark qcompat end to end, or layer by layer from a traced run.

Run from the root of a checkout (qcompat is imported from ``src``)::

    python3 bench/run.py --workload verdict --seed 1 --seconds 50 --trace 0

Workloads: ``verdict`` and ``cli`` (see ``qbench/workloads.py`` for what each
holds and why).  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run, and the spans are written to
``.bench_out/trace-<workload>-seed<seed>.json.gz``.  Earlier lines starting
with ``#`` record the environment and a per-cell summary.  The exit code is 0
only when every operation's output was correct.

End-to-end metrics (``--trace 0``), each from one run of one workload in a
fresh process:

* ``ops_per_s``: correct operations per second of operation time;
* ``latency_p50_ms``, ``latency_p90_ms``: median and 90th percentile of the
  operation latency; a run holds at least 100 operations, so at least ten
  lie beyond the 90th percentile (the summary line gives the counts);
* ``peak_rss_mib``: high-water resident set of the process doing the work,
  for ``cli`` the largest child interpreter;
* ``setup_s``: median of three set-ups (import qcompat, draw the inputs,
  write the files).

The four times are scaled for the speed of the core, measured by a fixed
reference computation right around each operation and each set-up (see
``qbench/measure.py`` for why); the summary line gives the wall-clock
figures and the slowdowns beside them.  The benchmark and the interpreters
it starts run on one core, so the reference runs where the work runs.

The error rate is ``failed / attempted`` in the result line (and in the
summary line) rather than a metric with a relative bound: a correct run
reads exactly 0, and the run exits nonzero on any failure anyway.

This follows roadmap item 1 with two deviations.  It reports the median and
the 90th percentile rather than the best of k runs: callers wait for every
operation, not for the fastest one.  It prints its result
instead of writing a result file per change, because the runs are compared
by whoever runs them.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads, and inherited by the CLI's child interpreters.
# One thread keeps runs steady on a small shared machine; it never exceeds
# the processor count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from qbench import measure, tracing  # noqa: E402
from qbench.workloads import WORKLOADS, Context, child_env  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Set-up is repeated and its median reported, so one slow repetition (the
# first, which may compile the library's bytecode) does not set the figure.
SETUP_REPEATS = 3
STARTUP_REPEATS = 5

# Per-layer metrics of a traced run: (name, unit).  See tracing.summarize.
PER_LAYER = (
    ("linalg.eigh_calls", "count"),
    ("linalg.eigvalsh_calls", "count"),
    ("linalg.eigh_per_state", "ratio"),
    ("linalg.lapack_eigh_ms", "ms"),
    ("linalg.lapack_eigvalsh_ms", "ms"),
    ("linalg.hermitian_eigendecompose.self_ms", "ms"),
    ("linalg.intersect.self_ms", "ms"),
    ("linalg.support_of.calls", "count"),
    ("linalg.self_ms", "ms"),
    ("states.validate_density.self_ms", "ms"),
    ("states.partial_trace.self_ms", "ms"),
    ("states.project_and_renormalize.self_ms", "ms"),
    ("states.self_ms", "ms"),
    ("compat.check_bfm.self_ms", "ms"),
    ("compat.pairwise.calls", "count"),
    ("compat.pairwise.self_ms", "ms"),
    ("compat.verify_joint.self_ms", "ms"),
    ("compat.self_ms", "ms"),
    ("witness.build_shared_decomposition.self_ms", "ms"),
    ("witness.choose_common_state.self_ms", "ms"),
    ("witness.max_common_weight.calls", "count"),
    ("witness.check_bfm_calls", "count"),
    ("witness.simulate_protocol.self_ms", "ms"),
    ("witness.peak_alloc_mib", "MiB"),
    ("witness.stored_amplitudes", "count"),
    ("witness.nonzero_fraction", "ratio"),
    ("witness.self_ms", "ms"),
    ("formats.parse_matrix.self_ms", "ms"),
    ("formats.load_report.self_ms", "ms"),
    ("formats.report_document.self_ms", "ms"),
    ("formats.dumps_canonical.self_ms", "ms"),
    ("formats.bytes_read", "bytes"),
    ("formats.bytes_written", "bytes"),
    ("formats.self_ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("cli.check.wall_ms", "ms"),
    ("cli.witness.wall_ms", "ms"),
    ("cli.simulate.wall_ms", "ms"),
    ("cli.check_bfm_calls", "count"),
    ("cli.self_ms", "ms"),
    ("trace.op_wall_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans_per_op", "count"),
)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "mem_total_mib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "machine": platform.machine(),
    }


def set_up(workload: str, seed: int, workdir: Path, in_process_cli: bool):
    """Import qcompat afresh, draw the inputs and write the files; timed."""
    t0 = perf_counter()
    for name in [m for m in sys.modules if m == "qcompat" or m.startswith("qcompat.")]:
        del sys.modules[name]
    ctx = Context(
        rng=np.random.default_rng(seed),
        mods=tracing.layer_modules(),
        root=ROOT,
        workdir=workdir,
        in_process_cli=in_process_cli,
    )
    cells = WORKLOADS[workload].build(ctx)
    return perf_counter() - t0, ctx, cells


def warm_up(cells) -> list:
    """Run each cell's first job once; the samples still count for correctness."""
    return [measure.execute(op) for c in cells for op in c.jobs[0]]


def cli_startup_s() -> float:
    """Median time for a child interpreter to import the CLI module."""
    env = child_env(ROOT)
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import qcompat.cli"], env=env, check=True,
                       stdin=subprocess.DEVNULL, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def untraced(args, workdir: Path) -> tuple[dict, list]:
    """End-to-end metrics from an untraced run."""
    gauge = measure.Gauge()
    setups, slowdowns = [], []
    for _ in range(SETUP_REPEATS):
        gauge.start()
        t, ctx, cells = set_up(args.workload, args.seed, workdir, in_process_cli=False)
        setups.append(t)
        slowdowns.append(gauge.stop())
    samples = warm_up(cells) if WORKLOADS[args.workload].warm_up else []
    warm = len(samples)
    done = measure.run_loop(
        measure.jobs(cells), args.seconds, measure.MIN_OPS, len(measure.cycle(cells)),
        lambda key, ops: [measure.execute(op, gauge=gauge) for op in ops],
    )
    timed = [s for _, _, ss in done for s in ss]
    samples += timed
    mix = measure.weights(cells)
    e2e = measure.end_to_end(timed, mix)
    wall = measure.end_to_end(timed, mix, scaled=False)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": (e2e["ops_per_s"], "1/s"),
        "latency_p50_ms": (e2e["latency_p50_ms"], "ms"),
        "latency_p90_ms": (e2e["latency_p90_ms"], "ms"),
        "peak_rss_mib": (resource.getrusage(usage).ru_maxrss / 1024.0, "MiB"),
        "setup_s": (statistics.median(t / k for t, k in zip(setups, slowdowns)), "s"),
    }
    op_slowdowns = [s.slowdown for s in timed]
    info = {
        "error_rate": sum(not s.ok for s in samples) / len(samples),
        "samples": e2e["samples"],
        "warm_up_ops": warm,
        "samples_beyond_p90": e2e["samples_beyond_p90"],
        "wall_clock": {
            "ops_per_s": round(wall["ops_per_s"], 4),
            "latency_p50_ms": round(wall["latency_p50_ms"], 3),
            "latency_p90_ms": round(wall["latency_p90_ms"], 3),
            "setup_runs_s": [round(t, 4) for t in setups],
        },
        "slowdown": {
            "setup_runs": [round(k, 3) for k in slowdowns],
            "ops_min": round(min(op_slowdowns), 3),
            "ops_median": round(statistics.median(op_slowdowns), 3),
            "ops_max": round(max(op_slowdowns), 3),
        },
        "cells": measure.per_cell(timed),
    }
    return {"metrics": metrics, "info": info}, samples


def traced(args, workdir: Path) -> tuple[dict, list]:
    """Per-layer metrics from a traced run of whole cycles.

    Every job runs twice in a row, untraced and then traced, so the two
    see the same machine and their difference is the tracing overhead.  The
    CLI runs in-process here (``cli_main(argv)``) so its layers can be
    traced; the untraced copy runs it the same way.
    """
    _, ctx, cells = set_up(args.workload, args.seed, workdir, in_process_cli=True)
    startup = cli_startup_s() if args.workload == "cli" else 0.0
    samples = warm_up(cells)
    tracer = tracing.Tracer()
    states: dict[int, int] = {}
    instance_of: dict[int, tuple] = {}
    plain, traced_samples = [], []

    def run_pair(key, ops):
        plain.extend(measure.execute(op) for op in ops)
        with tracing.instrumented(tracer, ctx.mods):
            for pos, op in enumerate(ops):
                op_id = len(states)
                states[op_id] = op.states
                instance_of[op_id] = (key, pos)
                traced_samples.append(measure.execute(op, tracer.operation(op_id)))
        return ops

    cycle_len = len(measure.cycle(cells))
    measure.run_loop(measure.jobs(cells), args.seconds, 0, cycle_len, run_pair, whole_cycles=True)
    samples += plain + traced_samples

    # Run each cell's first job once more, with allocation tracking: its
    # call counts must repeat exactly, and its times are not reported.
    repeats = []
    with tracing.instrumented(tracer, ctx.mods), tracing.tracking_memory(tracer):
        for i, c in enumerate(cells):
            for pos, op in enumerate(c.jobs[0]):
                op_id = -1 - len(repeats)
                repeats.append((op_id, ((i, 0), pos), op.cell))
                samples.append(measure.execute(op, tracer.operation(op_id)))

    counts = tracing.call_counts(tracer)
    first_run = {}
    for op_id, inst in instance_of.items():
        first_run.setdefault(inst, op_id)
    for op_id, inst, cell in repeats:
        if counts[op_id] != counts[first_run[inst]]:
            samples.append(measure.Sample(cell, 0.0, False, (
                f"call counts of one input changed between runs: "
                f"{dict(counts[first_run[inst]])} then {dict(counts[op_id])}")))

    ops = sorted(states)
    summary = tracing.summarize(tracer, ops, states)
    summary["cli.startup_ms"] = 1e3 * startup
    summary["witness.peak_alloc_mib"] = tracer.peak_alloc / tracing.MIB
    plain_s = sum(s.seconds for s in plain)
    traced_s = sum(s.seconds for s in traced_samples)
    summary["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    metrics = {name: (summary[name], unit) for name, unit in PER_LAYER}

    by_cell: dict[str, list[int]] = {}
    for op_id, s in zip(ops, traced_samples):
        by_cell.setdefault(s.cell, []).append(op_id)
    cells_summary = {
        cell: tracing.summarize(tracer, ids, states) for cell, ids in sorted(by_cell.items())
    }
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(str(trace_path), {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "summary": summary,
        "cells": cells_summary,
        "untraced_s": plain_s,
        "traced_s": traced_s,
    })
    info = {
        "traced_ops": len(ops),
        "untraced_s": round(plain_s, 4),
        "traced_s": round(traced_s, 4),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "cells": {
            cell: {
                "ops": s["ops"],
                "eigh_per_op": s["linalg.eigh_calls"],
                "wall_ms": round(s["trace.op_wall_ms"], 3),
                **{f"{layer}.self_ms": round(s[f"{layer}.self_ms"], 3)
                   for layer in (*tracing.LAYERS, "lapack")},
            }
            for cell, s in cells_summary.items()
        },
    }
    return {"metrics": metrics, "info": info}, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qcompat" / "__init__.py").is_file():
        print(f"error: no qcompat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # One core for the benchmark and every interpreter it starts (they
    # inherit it), so the speed reference runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("# environment " + json.dumps(environment()), flush=True)
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, samples = (traced if args.trace else untraced)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [s for s in samples if not s.ok]
    for s in failures[:20]:
        print(f"# FAILED {s.cell}: {s.error}", flush=True)
    print("# summary " + json.dumps(result["info"]), flush=True)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in result["metrics"].items()},
    }), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
