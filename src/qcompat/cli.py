"""Command-line interface.

Exit codes: 0 = compatible / valid, 1 = incompatible / invalid state,
2 = input or usage error, 3 = unexpected internal failure (for example
out of memory), so that a crash never reads as a verdict.  Human-readable
summaries go to stdout; the full machine-readable report is written to the
``--json`` path when given.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

import numpy as np

from . import formats
from .compat import CompatReport, _named_splits, check_bfm
from .errors import Incompatible, MalformedFile, QcompatError, StateValidationError
from .linalg import Tolerances, _split_spectrum, max_abs
from .states import DensityMatrix, validate_density
from .witness import ROUND_TRIP_TOL, _decompose, build_witness, simulate_protocol

ENV_TOL_EIG = "QCOMPAT_TOL_EIG"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcompat",
        description=(
            "Decide whether several density-matrix state assignments are "
            "mutually compatible descriptions of one system, and construct "
            "the shared decompositions and witness state proving it."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, json_out: bool = False) -> None:
        p.add_argument(
            "--tol-eig",
            type=float,
            default=None,
            metavar="X",
            help="eigenvalue zero cutoff (default 1e-9; env QCOMPAT_TOL_EIG, flag wins)",
        )
        p.add_argument(
            "--tol-overlap",
            type=float,
            default=None,
            metavar="Y",
            help="overlap / intersection threshold (default 1e-7)",
        )
        if json_out:
            p.add_argument("--json", metavar="PATH", help="write the full report file here")

    p = sub.add_parser("validate", help="check a matrix file is a physical density matrix")
    p.add_argument("file")
    add_common(p)

    p = sub.add_parser("support", help="print the support of a density matrix")
    p.add_argument("file")
    add_common(p)

    p = sub.add_parser("check", help="compatibility verdicts for two or more states")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument(
        "--criterion",
        choices=["bfm", "pi", "pii", "all"],
        default="all",
        help="which verdict drives the exit code (default: all = support intersection)",
    )
    add_common(p, json_out=True)

    for name, help_text in (
        ("decompose", "decompositions of a compatible pair sharing a pure state"),
        ("witness", "build the tripartite witness state for a compatible pair"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file_a")
        p.add_argument("file_b")
        add_common(p, json_out=True)

    p = sub.add_parser("simulate", help="run the measurement protocol on a witness file")
    p.add_argument("witness_file")
    add_common(p)

    return parser


def _resolve_tolerances(args: argparse.Namespace) -> Tolerances:
    eig = None
    env = os.environ.get(ENV_TOL_EIG)
    if env is not None:
        try:
            eig = float(env)
        except ValueError:
            raise QcompatError(f"{ENV_TOL_EIG} is not a number: {env!r}")
    if getattr(args, "tol_eig", None) is not None:
        eig = args.tol_eig
    kwargs = {}
    if eig is not None:
        kwargs["eigenvalue_zero_tol"] = eig
    if getattr(args, "tol_overlap", None) is not None:
        kwargs["overlap_tol"] = args.tol_overlap
    try:
        return Tolerances(**kwargs)
    except ValueError as e:
        raise QcompatError(str(e))


def _load_state(path: str, tol: Tolerances) -> DensityMatrix:
    matrix, label = formats.parse_matrix(path)
    return validate_density(matrix, tol, label=label)


def _input_name(path: str, state: DensityMatrix) -> str:
    return state.label if state.label else path


def _fmt(x: float) -> str:
    return format(float(x), ".6e")


def _write_json(
    args: argparse.Namespace, report: CompatReport, inputs: list[str], **sections
) -> None:
    """Write the report file if ``--json`` names one; only then is it assembled."""
    if args.json:
        doc = formats.report_document(report, inputs, **sections)
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(formats.dumps_canonical(doc))


def _print_report(report: CompatReport) -> None:
    dim = report.intersection_dim
    print(f"support intersection: {'compatible' if report.verdict_bfm else 'incompatible'}"
          f" (dimension {dim})")
    scope = " over all pairs" if report.pairwise_conjunction else ""
    print(f"PI  commutation{scope}: {'holds' if report.verdict_pi else 'fails'}"
          f" (commutator norm {_fmt(report.commutator_norm)})")
    print(f"PII non-orthogonality{scope}: {'holds' if report.verdict_pii else 'fails'}"
          f" (product norm {_fmt(report.product_norm)})")


def _cmd_validate(args: argparse.Namespace, tol: Tolerances) -> int:
    matrix, label = formats.parse_matrix(args.file)
    try:
        state = validate_density(matrix, tol, label=label)
    except StateValidationError as e:
        print(f"invalid density matrix ({args.file}):")
        for name, measured, allowed in e.violations:
            print(f"  {name}: measured {_fmt(measured)}, allowed {_fmt(allowed)}")
        return 1
    tag = f" label={state.label}" if state.label else ""
    print(f"valid density matrix: dim={state.dim}{tag}")
    return 0


def _cmd_support(args: argparse.Namespace, tol: Tolerances) -> int:
    state = _load_state(args.file, tol)
    supp = _split_spectrum(state.spectrum, tol).support
    print(f"support dimension {supp.dimension} of {supp.ambient_dim}")
    for k in range(supp.dimension):
        coeffs = ", ".join(
            f"{c.real:+.6f}{c.imag:+.6f}j" for c in supp.basis[:, k]
        )
        print(f"  basis[{k}] = [{coeffs}]")
    return 0


def _cmd_check(args: argparse.Namespace, tol: Tolerances) -> int:
    states = [_load_state(path, tol) for path in args.files]
    report = check_bfm(states, tol)
    _print_report(report)
    inputs = [_input_name(p, s) for p, s in zip(args.files, states)]
    _write_json(args, report, inputs)
    verdict = {
        "bfm": report.verdict_bfm,
        "all": report.verdict_bfm,
        "pi": report.verdict_pi,
        "pii": report.verdict_pii,
    }[args.criterion]
    return 0 if verdict else 1


def _cmd_pair(args: argparse.Namespace, tol: Tolerances) -> int:
    """``decompose`` and ``witness``: the shared decomposition of a compatible
    pair, and for ``witness`` the witness state it defines."""
    a = _load_state(args.file_a, tol)
    b = _load_state(args.file_b, tol)
    report = check_bfm([a, b], tol)
    inputs = [_input_name(args.file_a, a), _input_name(args.file_b, b)]
    witness = args.command == "witness"
    if not report.verdict_bfm:
        missing = "no witness exists" if witness else "no shared decomposition"
        print(f"incompatible: support intersection is trivial, {missing}")
        _write_json(args, report, inputs)
        return 1
    d = _decompose(a, b, _named_splits([a, b], tol), report.intersection_basis)
    if not witness:
        print(f"shared state found (intersection dimension {report.intersection_dim})")
        print(f"p0 = {_fmt(d.p0)} with {len(d.rest_a)} extra term(s) for state A")
        print(f"q0 = {_fmt(d.q0)} with {len(d.rest_b)} extra term(s) for state B")
        _write_json(args, report, inputs, decomposition=d)
        return 0
    w = build_witness(d)
    print(f"witness dimensions (ancilla A, ancilla B, system) = {w.dims}")
    print(f"normalization = {_fmt(w.normalization)}")
    # both outcomes 0 leave the amplitudes N chi, so the probability is N^2
    print(f"probability of both zero outcomes = {_fmt(w.normalization**2)}")
    _write_json(args, report, inputs, decomposition=d, witness=w)
    return 0


def _cmd_simulate(args: argparse.Namespace, tol: Tolerances) -> int:
    parsed = formats.load_report(args.witness_file)
    if parsed.witness is None:
        raise MalformedFile(f"{args.witness_file} carries no witness section")
    w = parsed.witness
    result = simulate_protocol(w, tol)

    try:  # weights and vectors each within bounds can still sum past trace_tol
        rho_a, rho_b = w.decomposition.rho_a(), w.decomposition.rho_b()
    except StateValidationError as e:
        raise MalformedFile(f"{args.witness_file}: the decomposition rebuilds no valid state: {e}")
    dev_a = max_abs(result.rho_alice.matrix - rho_a.matrix)
    dev_b = max_abs(result.rho_bob.matrix - rho_b.matrix)
    overlap = float(
        abs(np.vdot(result.joint.amplitudes, w.decomposition.chi.amplitudes)) ** 2
    )
    print(f"alice outcome-0 probability = {_fmt(result.p_alice)}, "
          f"reduced-state deviation = {_fmt(dev_a)}")
    print(f"bob   outcome-0 probability = {_fmt(result.p_bob)}, "
          f"reduced-state deviation = {_fmt(dev_b)}")
    print(f"pooled state overlap with shared state = {_fmt(overlap)}")
    ok = dev_a <= ROUND_TRIP_TOL and dev_b <= ROUND_TRIP_TOL and overlap >= 1 - ROUND_TRIP_TOL
    print(f"round trip {'OK' if ok else 'FAILED'} at tolerance {ROUND_TRIP_TOL:.0e}")
    return 0 if ok else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "support": _cmd_support,
    "check": _cmd_check,
    "decompose": _cmd_pair,
    "witness": _cmd_pair,
    "simulate": _cmd_simulate,
}


def cli_main(argv: Sequence[str] | None = None) -> int:
    """Run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        tol = _resolve_tolerances(args)
        return _COMMANDS[args.command](args, tol)
    except (StateValidationError, Incompatible) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (QcompatError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
