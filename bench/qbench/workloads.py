"""The workloads, their cells, and the output check of every operation.

Every workload is a closed loop with a single caller: the next operation
starts when the previous one has returned, because qcompat is a library and
a CLI that callers wait on, not a server with arrivals of its own.

A workload is a list of cells.  A cell is one kind of operation at one input
size; its weight is the number of jobs it contributes to one cycle, and a
job is one operation or, for the CLI's ``witness`` then ``simulate``, two
operations run back to back.  The cycle interleaves cells smoothly (see
:func:`qbench.measure.cycle`), so every stretch of a run holds the cells in
their weights.  Each cell holds a few input instances, used in turn.

The weights place the median and the 90th percentile of each workload's
latency inside one cell, not on the boundary between two cells of different
cost, where those figures would jump from run to run.  On a shared machine
whose speed drifts, small operations that spend their time in the
interpreter drift more than large ones that spend it in LAPACK, so in
``verdict`` both figures sit in D=256 cells.  The comment above each table
says which cell each falls in at the seed commit.

Why each workload is in the benchmark:

* ``verdict``: check_bfm over the D x n grid and verify_joint.  linalg's
  eigendecompositions and intersections dominate at D=256, compat's O(n^2)
  pairwise products at n=32.  The witness layer and formats do no work, so
  this is the workload that a change to simulate or to file I/O must leave
  alone.
* ``cli``: one child interpreter per ``check``, ``witness`` or ``simulate``
  command on matrix files.  It is the only workload that pays interpreter
  start-up and runs formats, and it carries the witness pipeline
  (decompose, build the witness, simulate) at full rank and at low rank.

Cells left out, and why:

* ``verdict`` at (D=256, n=32): ``check_bfm`` takes about 8.5 s there at the
  seed commit and would outweigh every other cell.
* ``witness`` at full rank D=256: ``simulate_protocol`` builds dense
  projectors on ancilla (x) system and needs about 12 GiB at the seed
  commit, more than the machine the benchmark was tuned on has (7 GiB,
  2 cores).  It belongs in the workload once the witness is stored by its
  terms (roadmap item 2).
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import inputs

# Round-trip bound of the library's acceptance criterion 5.
ROUND_TRIP_TOL = 1e-8
# How far the reported intersection may sit from the planted subspace.
SUBSPACE_TOL = 1e-6
# Largest null-space leak an admissible joint state may show.
ADMISSIBLE_LEAK_TOL = 1e-9
CHILD_TIMEOUT_S = 150


@dataclass
class Op:
    """One timed call into qcompat and the check of its output.

    ``run`` is timed.  ``check`` gets its result and returns ``None`` when
    the output is right, else the reason it is wrong.  ``prepare`` runs
    untimed before ``run`` (it removes output files, so a stale file cannot
    pass for a written one).  ``states`` is the number of distinct input
    states handed to the library.
    """

    cell: str
    states: int
    run: Callable[[], object]
    check: Callable[[object], str | None]
    prepare: Callable[[], None] | None = None


@dataclass
class Cell:
    name: str
    weight: int
    jobs: list[tuple[Op, ...]]


@dataclass
class Context:
    """What building a workload needs: randomness, the library, directories."""

    rng: np.random.Generator
    mods: dict
    root: Path  # the checkout, whose ``src`` holds qcompat
    workdir: Path
    in_process_cli: bool = False
    first_bytes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# verdict

# (D, n, jobs per cycle).  About three jobs in four are check_bfm, one in
# four verify_joint.  Latency order at the seed commit, cheapest first, with
# the joint checks as v: (8,2) v(8,2) (8,8) v(8,8) (64,2) (8,32) v(64,2)
# (64,8) v(64,8) | (256,2) | (64,32) v(256,2) | (256,8).  Of a cycle of 34
# jobs the 14 below 0.1 s come first; the (256,2) cell covers jobs 15-20, so
# the median (job 17) falls inside it, and the (256,8) cell covers jobs
# 30-34, so the 90th percentile (job 30.6) does.
VERDICT_CHECK_CELLS = (
    # D=8 is the small-state floor: Python overhead per call dominates.
    (8, 2, 2),
    (8, 8, 2),
    (8, 32, 2),  # many observers at small D: the O(n^2) pairwise products
    (64, 2, 2),
    (64, 8, 2),
    (64, 32, 5),  # the pairwise work dominates
    (256, 2, 6),  # eigendecomposition and intersection at D=256 dominate
    (256, 8, 5),
)
# verify_joint on compatible sets, one candidate in two leaking.
VERDICT_JOINT_CELLS = (
    (8, 2, 1),
    (8, 8, 1),
    (64, 2, 1),
    (64, 8, 1),
    (256, 2, 4),
)
# Input instances per check_bfm cell, half compatible and half incompatible.
# With two at D=256, where the median and the 90th percentile fall, those
# figures moved with the support ranks each seed drew.
INSTANCES = 4


def _check_report(planted: inputs.ObserverSet) -> Callable[[object], str | None]:
    def check(report) -> str | None:
        c = planted.common.shape[1]
        if report.verdict_bfm != planted.compatible:
            return f"verdict_bfm is {report.verdict_bfm}, planted {planted.compatible}"
        if report.intersection_dim != c:
            return f"intersection_dim is {report.intersection_dim}, planted {c}"
        if c:
            b = report.intersection_basis.basis
            gap = float(np.abs(b @ b.conj().T - planted.common @ planted.common.conj().T).max())
            if gap > SUBSPACE_TOL:
                return f"intersection differs from the planted subspace by {gap:.2e}"
        return None

    return check


def _check_joint(admissible: bool, leaking_observer: int) -> Callable[[object], str | None]:
    def check(result) -> str | None:
        ok, report = result
        if ok != admissible:
            return f"verify_joint says admissible={ok}, planted {admissible}"
        leaks = [leak.leaked_norm for leak in report.per_observer]
        if admissible and max(leaks) > ADMISSIBLE_LEAK_TOL:
            return f"admissible joint state leaks {max(leaks):.2e} into a null space"
        if not admissible and leaks[leaking_observer] <= ADMISSIBLE_LEAK_TOL:
            return f"leak into observer {leaking_observer}'s null space not reported"
        return None

    return check


def _states(ctx: Context, matrices) -> list:
    validate = ctx.mods["qcompat"].validate_density
    return [validate(m, label=f"obs{k}") for k, m in enumerate(matrices)]


def build_verdict(ctx: Context) -> list[Cell]:
    qc = ctx.mods["qcompat"]
    cells = []
    for dim, n, weight in VERDICT_CHECK_CELLS:
        jobs = []
        for _ in range(INSTANCES // 2):
            for planted in (
                inputs.compatible_set(ctx.rng, dim, n, int(ctx.rng.integers(1, 4))),
                inputs.incompatible_set(ctx.rng, dim, n),
            ):
                states = _states(ctx, planted.matrices)
                jobs.append((Op(
                    cell=f"check_bfm.D{dim}.n{n}",
                    states=n,
                    run=lambda s=states: qc.check_bfm(s),
                    check=_check_report(planted),
                ),))
        cells.append(Cell(f"check_bfm.D{dim}.n{n}", weight, jobs))
    for dim, n, weight in VERDICT_JOINT_CELLS:
        planted = inputs.compatible_set(ctx.rng, dim, n, int(ctx.rng.integers(1, 4)))
        observers = _states(ctx, planted.matrices)
        good, bad, k = inputs.joint_candidates(ctx.rng, planted)
        jobs = []
        for joint, admissible in ((good, True), (bad, False)):
            j = ctx.mods["qcompat"].validate_density(joint, label="joint")
            jobs.append((Op(
                cell=f"verify_joint.D{dim}.n{n}",
                states=n + 1,
                run=lambda j=j, obs=observers: qc.verify_joint(j, obs),
                check=_check_joint(admissible, k),
            ),))
        cells.append(Cell(f"verify_joint.D{dim}.n{n}", weight, jobs))
    return cells


# ---------------------------------------------------------------------------
# cli

# One child interpreter per operation, as a user running the command pays.
CHILD_CODE = "import sys; from qcompat.cli import cli_main; sys.exit(cli_main(sys.argv[1:]))"


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    stderr: str


def child_env(root: Path) -> dict:
    """The benchmark's environment with the checkout's ``src`` importable."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict, cwd: Path) -> Outcome:
    p = subprocess.run(
        [sys.executable, "-c", CHILD_CODE, *argv],
        env=env,
        cwd=cwd,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return Outcome(p.returncode, p.stdout, p.stderr)


def run_in_process(argv: list[str], cli) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.cli_main(argv)
    return Outcome(code, out.getvalue(), err.getvalue())


# (label, D, kind, rank beside chi, jobs per cycle, instances).  A witness
# job is ``witness A B --json W`` followed by ``simulate W``.  Interpreter
# start-up (about 0.25 s at the seed commit) sets the floor of every
# operation.  Latency order: the D=8 commands sit at that floor; check,
# simulate and an incompatible witness at D=64 add about 0.05-0.1 s of
# parsing and linear algebra; witness at D=64 about 0.2 s; the full-rank D=32
# pair and every D=256 command take 1-3.5 s, in simulate's dense projectors
# and in parsing the 3 MB matrix files.  Of a cycle of 100 operations the
# D=8 group covers operations 1-77, so the median falls inside it; the D=64
# check/simulate group covers 78-91, so the 90th percentile does; the D=64
# witnesses and the six slowest operations form the tail beyond it and weigh
# on throughput.
CLI_CELLS = (
    ("D8", 8, "check", None, 40, 4),
    ("D64", 64, "check", None, 10, 2),
    ("D256", 256, "check", None, 2, 2),
    ("D8", 8, "witness", 8, 18, 2),
    ("D32", 32, "witness", 32, 1, 1),
    ("D64", 64, "witness", 3, 3, 2),
    ("D256", 256, "witness", 2, 1, 1),
    ("D8", 8, "witness-incompatible", None, 1, 1),
    ("D64", 64, "witness-incompatible", None, 1, 1),
)


def _written(path: Path, ctx: Context) -> tuple[dict | None, str | None]:
    """Parse a report the CLI wrote, and compare it with its first bytes."""
    if not path.exists():
        return None, f"{path.name} was not written"
    data = path.read_bytes()
    first = ctx.first_bytes.setdefault(str(path), data)
    if data != first:
        return None, f"{path.name} differs from the report written for the same input"
    return json.loads(data), None


def _vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _decomposition_error(doc: dict, a: np.ndarray, b: np.ndarray) -> float:
    """Largest entry by which a written decomposition misses its inputs."""
    d = doc["decomposition"]
    chi = _vector(d["chi"])
    worst = 0.0
    for head, rest, rho in ((d["p0"], d["rest_a"], a), (d["q0"], d["rest_b"], b)):
        m = head * np.outer(chi, chi.conj())
        for term in rest:
            v = _vector(term["state"])
            m = m + term["weight"] * np.outer(v, v.conj())
        worst = max(worst, float(np.abs(m - rho).max()))
    return worst


def _check_cli(ctx: Context, expect_code: int, *, report: Path | None = None,
               verdict: bool | None = None, dim: int | None = None, witness_of=None,
               stdout_has: str | None = None):
    """Check one CLI run.

    ``report`` is the ``--json`` file the run must write, with
    ``verdict`` and, if given, ``dim``.  ``witness_of`` is the pair of input
    matrices when the file must hold a witness; its decomposition must then
    reproduce them.
    """
    def check(o: Outcome) -> str | None:
        if o.code != expect_code:
            return f"exit code {o.code}, expected {expect_code}; stderr: {o.stderr.strip()[-300:]}"
        if o.stderr:
            # at the seed commit an uncaught error also exits 1, so a
            # "incompatible" exit only counts with a clean stderr
            return f"stderr not empty: {o.stderr.strip()[-300:]}"
        if stdout_has is not None and stdout_has not in o.stdout:
            return f"stdout lacks {stdout_has!r}: {o.stdout.strip()[-300:]}"
        if report is None:
            return None
        doc, problem = _written(report, ctx)
        if problem:
            return problem
        found = doc["report"]
        if found["verdict_bfm"] != verdict:
            return f"report verdict_bfm is {found['verdict_bfm']}, expected {verdict}"
        if dim is not None and found["intersection_dim"] != dim:
            return f"report intersection_dim is {found['intersection_dim']}, expected {dim}"
        if ("witness" in doc) != (witness_of is not None):
            return f"witness section present: {'witness' in doc}, expected {witness_of is not None}"
        if witness_of is not None:
            err = _decomposition_error(doc, *witness_of)
            if not err <= ROUND_TRIP_TOL:
                return f"written decomposition misses its inputs by {err:.2e}"
        return None

    return check


def build_cli(ctx: Context) -> list[Cell]:
    root = ctx.workdir
    if ctx.in_process_cli:
        cli = ctx.mods["cli"]
        runner = lambda argv: run_in_process(argv, cli)  # noqa: E731
    else:
        env = child_env(ctx.root)
        runner = lambda argv: run_child(argv, env, root)  # noqa: E731

    def op(cell: str, states: int, argv: list[str], check, out: Path | None = None) -> Op:
        prepare = (lambda: out.unlink(missing_ok=True)) if out is not None else None
        return Op(cell, states, lambda: runner(argv), check, prepare)

    def write_pair(tag: str, matrices) -> list[str]:
        paths = []
        for label, m in zip("AB", matrices):
            path = root / f"{tag}-{label}.json"
            path.write_text(inputs.matrix_file_text(m, label), encoding="utf-8")
            paths.append(str(path))
        return paths

    cells = []
    for label, dim, kind, rank, weight, instances in CLI_CELLS:
        jobs = []
        for i in range(instances):
            tag = f"{kind}-{label}-{i}"
            out = root / f"{tag}-out.json"
            if kind == "check":
                compatible = i % 2 == 0
                planted = (inputs.compatible_set(ctx.rng, dim, 2, int(ctx.rng.integers(1, 4)))
                           if compatible else inputs.incompatible_set(ctx.rng, dim, 2))
                a, b = write_pair(tag, planted.matrices)
                check = _check_cli(ctx, 0 if compatible else 1, report=out, verdict=compatible,
                                   dim=planted.common.shape[1])
                jobs.append((op(f"check.{label}", 2, ["check", a, b, "--json", str(out)], check, out),))
            elif kind == "witness":
                ma, mb, _chi = inputs.witness_pair(ctx.rng, dim, rank)
                a, b = write_pair(tag, (ma, mb))
                jobs.append((
                    op(f"witness.{label}", 2, ["witness", a, b, "--json", str(out)],
                       _check_cli(ctx, 0, report=out, verdict=True, witness_of=(ma, mb)), out),
                    op(f"simulate.{label}", 0, ["simulate", str(out)],
                       _check_cli(ctx, 0, stdout_has="round trip OK")),
                ))
            else:
                a, b = write_pair(tag, inputs.incompatible_set(ctx.rng, dim, 2).matrices)
                check = _check_cli(ctx, 1, report=out, verdict=False, dim=0)
                jobs.append((op(f"witness-incompatible.{label}", 2,
                                ["witness", a, b, "--json", str(out)], check, out),))
        cells.append(Cell(f"{kind}.{label}", weight, jobs))
    return cells


@dataclass(frozen=True)
class Workload:
    build: Callable[[Context], list[Cell]]
    warm_up: bool


WORKLOADS = {
    "verdict": Workload(build_verdict, warm_up=True),
    # users pay interpreter start-up on every call, so nothing is warmed
    "cli": Workload(build_cli, warm_up=False),
}
