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
# each --criterion and the CompatReport verdict that sets check's exit code
_CRITERIA = {"bfm": "verdict_bfm", "pi": "verdict_pi", "pii": "verdict_pii", "all": "verdict_bfm"}


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
    for name, _, help_text, positionals, json_out in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for dest in positionals:
            p.add_argument(dest)
        if name == "check":
            p.add_argument("files", nargs="+", metavar="FILE")
            p.add_argument(
                "--criterion",
                choices=list(_CRITERIA),
                default="all",
                help="which verdict drives the exit code (default: all = support intersection)",
            )
        p.add_argument(
            "--tol-eig",
            type=float,
            metavar="X",
            help=f"eigenvalue zero cutoff (default 1e-9; env {ENV_TOL_EIG}, flag wins)",
        )
        p.add_argument(
            "--tol-overlap",
            type=float,
            metavar="Y",
            help="overlap / intersection threshold (default 1e-7)",
        )
        if json_out:
            p.add_argument("--json", metavar="PATH", help="write the full report file here")
    return parser


def _resolve_tolerances(args: argparse.Namespace) -> Tolerances:
    """The flags' tolerances; without ``--tol-eig``, ``QCOMPAT_TOL_EIG`` sets the cutoff."""
    eig = args.tol_eig
    env = os.environ.get(ENV_TOL_EIG) if eig is None else None
    if env is not None:
        try:
            eig = float(env)
        except ValueError:
            raise QcompatError(f"{ENV_TOL_EIG} is not a number: {env!r}")
    given = {"eigenvalue_zero_tol": eig, "overlap_tol": args.tol_overlap}
    return Tolerances(**{name: value for name, value in given.items() if value is not None})


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
    try:
        state = _load_state(args.file, tol)
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
    return 0 if getattr(report, _CRITERIA[args.criterion]) else 1


def _cmd_pair(args: argparse.Namespace, tol: Tolerances) -> int:
    """``decompose`` and ``witness``: the shared decomposition of a compatible
    pair, and for ``witness`` the witness state it defines."""
    a = _load_state(args.file_a, tol)
    b = _load_state(args.file_b, tol)
    report = check_bfm([a, b], tol)
    inputs = [_input_name(args.file_a, a), _input_name(args.file_b, b)]
    witness = args.command == "witness"
    sections = {}
    if not report.verdict_bfm:
        missing = "no witness exists" if witness else "no shared decomposition"
        print(f"incompatible: support intersection is trivial, {missing}")
    else:
        splits = _named_splits([a, b], tol)
        d = sections["decomposition"] = _decompose(a, b, splits, report.intersection_basis)
        if witness:
            w = sections["witness"] = build_witness(d)
            print(f"witness dimensions (ancilla A, ancilla B, system) = {w.dims}")
            print(f"normalization = {_fmt(w.normalization)}")
            # both outcomes 0 leave the amplitudes N chi, so the probability is N^2
            print(f"probability of both zero outcomes = {_fmt(w.normalization**2)}")
        else:
            print(f"shared state found (intersection dimension {report.intersection_dim})")
            print(f"p0 = {_fmt(d.p0)} with {len(d.rest_a)} extra term(s) for state A")
            print(f"q0 = {_fmt(d.q0)} with {len(d.rest_b)} extra term(s) for state B")
    _write_json(args, report, inputs, **sections)
    return 0 if report.verdict_bfm else 1


def _cmd_simulate(args: argparse.Namespace, tol: Tolerances) -> int:
    parsed = formats.load_report(args.witness_file)
    if parsed.witness is None:
        raise MalformedFile(f"{args.witness_file} carries no witness section")
    w = parsed.witness
    result = simulate_protocol(w, tol)
    rho_a, rho_b = w.decomposition.rho_a(), w.decomposition.rho_b()
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


# one row per subcommand: name, handler, help, positional arguments, and whether
# it writes --json; check's FILE list and --criterion are added by _build_parser
_SUBCOMMANDS = (
    ("validate", _cmd_validate, "check a matrix file is a physical density matrix",
     ("file",), False),
    ("support", _cmd_support, "print the support of a density matrix", ("file",), False),
    ("check", _cmd_check, "compatibility verdicts for two or more states", (), True),
    ("decompose", _cmd_pair, "decompositions of a compatible pair sharing a pure state",
     ("file_a", "file_b"), True),
    ("witness", _cmd_pair, "build the tripartite witness state for a compatible pair",
     ("file_a", "file_b"), True),
    ("simulate", _cmd_simulate, "run the measurement protocol on a witness file",
     ("witness_file",), False),
)
# looked up by cli_main at call time, so a tracer may replace an entry
_COMMANDS = {name: handler for name, handler, *_ in _SUBCOMMANDS}


def cli_main(argv: Sequence[str] | None = None) -> int:
    """Run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        tol = _resolve_tolerances(args)
        # an overflow (and the inf - inf a product of overflowed entries forms)
        # is rejected by the library's own checks: stderr keeps one line
        with np.errstate(over="ignore", invalid="ignore"):
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
