"""Exception hierarchy for qcompat.

All library errors derive from :class:`QcompatError`.  Physicality failures
derive from :class:`StateValidationError` so callers (notably the CLI) can
distinguish "this input is not a valid state" from usage or file-format
problems.
"""

from __future__ import annotations

__all__ = [
    "QcompatError",
    "NotSquare",
    "NotHermitian",
    "NotPSD",
    "TraceNotOne",
    "NegativeEigenvalue",
    "StateValidationError",
    "AmbientMismatch",
    "DimensionMismatch",
    "EmptyKeep",
    "ZeroProbabilityOutcome",
    "NotPure",
    "FewerThanTwoStates",
    "Incompatible",
    "ChiOutsideSupport",
    "MalformedFile",
    "SchemaVersionUnsupported",
    "ShapeMismatch",
]


class QcompatError(Exception):
    """Base class for all qcompat errors."""


# ---------------------------------------------------------------------------
# operator validation

class NotSquare(QcompatError):
    """Matrix operand is not square."""


class StateValidationError(QcompatError):
    """An operator violates at least one physicality invariant.

    ``violations`` lists every violated invariant as
    ``(name, measured, allowed)`` triples, not just the one that picked the
    concrete subclass.
    """

    def __init__(self, violations: list[tuple[str, float, float]]):
        self.violations = list(violations)
        detail = "; ".join(
            f"{name} (measured {measured:.6e}, allowed {allowed:.1e})"
            for name, measured, allowed in violations
        )
        super().__init__(f"invalid operator: {detail}")


class NotHermitian(StateValidationError):
    """Operator deviates from its conjugate transpose beyond tolerance."""


class NotPSD(StateValidationError):
    """Operator has a negative eigenvalue; the violation reports lambda_min."""


class TraceNotOne(StateValidationError):
    """Operator trace differs from one; the violation reports the trace."""


class NegativeEigenvalue(StateValidationError):
    """Support/null computation requires PSD input; reports lambda_min."""


# ---------------------------------------------------------------------------
# subspaces and composite systems

class AmbientMismatch(QcompatError):
    """Subspaces live in spaces of different dimension."""


class DimensionMismatch(QcompatError):
    """Operands have incompatible dimensions."""


class EmptyKeep(QcompatError):
    """Partial trace asked to keep no subsystem."""


class ZeroProbabilityOutcome(QcompatError):
    """Projective outcome has (numerically) zero probability.

    The measured probability is attached so callers summing over a complete
    outcome set can still account for it.
    """

    def __init__(self, probability: float):
        self.probability = float(probability)
        super().__init__(
            f"outcome probability {probability:.3e} is at the numerical floor; "
            "conditional state undefined"
        )


class NotPure(QcompatError):
    """Operation requires a rank-1 state but got a mixed one."""


# ---------------------------------------------------------------------------
# compatibility / witness layer

class FewerThanTwoStates(QcompatError):
    """Compatibility is a relation between at least two assignments."""


class Incompatible(QcompatError):
    """The support intersection of the given states is trivial."""


class ChiOutsideSupport(QcompatError):
    """Requested common state does not lie in the support of the density matrix."""


# ---------------------------------------------------------------------------
# file formats / CLI

class MalformedFile(QcompatError):
    """Input file cannot be parsed; message carries field diagnostics."""


class SchemaVersionUnsupported(MalformedFile):
    """File declares a schema version this build does not understand."""


class ShapeMismatch(MalformedFile):
    """Declared dimension and entry shape disagree."""
