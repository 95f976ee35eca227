"""Physically validated quantum states and multipartite operations.

Density matrices are validated on entry (Hermitian, positive semidefinite,
unit trace) and hold their exactly Hermitian part, so everything downstream
can rely on physicality.  Composite systems use the row-major subsystem
convention: in a tensor product the leftmost factor has the largest index
stride, so ``|1>  (x) |+>`` occupies basis indices 2 and 3 of the
four-dimensional product space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyKeep,
    NotHermitian,
    NotPSD,
    TraceNotOne,
    ZeroProbabilityOutcome,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    ORTHONORMALITY_TOL,
    Tolerances,
    _eigh_canonical,
    _frozen,
    _hermitian_deviation,
    _hermitian_part,
    _split_spectrum,
    as_complex_matrix,
)

__all__ = [
    "PureState",
    "DensityMatrix",
    "Ensemble",
    "basis_state",
    "validate_density",
    "from_ensemble",
    "eigen_ensemble",
    "tensor",
    "partial_trace",
    "project_and_renormalize",
]


# Structural, like ``linalg.ORTHONORMALITY_TOL``: how far decomposition weights
# may sum from one, and a witness normalization from ``1/p0 + 1/q0 - 1``.  It
# bounds bookkeeping of weights, not a measured state, so it is no ``Tolerances`` field.
WEIGHT_TOL = 1e-9

# Structural, like ``linalg.ORTHONORMALITY_TOL``: the rounding allowances of the
# Cholesky positivity certificate (:func:`_positivity_certified`).  They bound
# LAPACK's rounding, not a measured state, so no user setting should move them.
# The computed factor ``R`` of ``A = h + sI`` satisfies ``R^H R = A + dA`` with
# ``||dA||_2 <= gamma_{D+1} ||R||_F^2`` (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., Thm 10.5, which needs no definiteness); the
# factor 2 covers complex arithmetic, the rounded shift and the rounded trace
# that bounds ``||R||_F^2``.  ``eigvalsh``'s eigenvalues are taken to lie within
# ``8 D u ||h||_2`` of the exact ones.
_CHOLESKY_ERROR_FACTOR = 2
_EIGVALSH_ROUNDING_FACTOR = 8
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _check_weights(weights: Sequence[float], what: str) -> None:
    """The one rule for mixture weights: each strictly positive, and their sum
    within ``WEIGHT_TOL`` of one (a NaN weight fails both)."""
    bad = [w for w in weights if not w > 0]
    if bad:
        raise ValueError(f"{what} must be strictly positive, got {bad[0]!r}")
    total = sum(weights)
    if not abs(total - 1.0) <= WEIGHT_TOL:
        raise ValueError(f"{what} sum to {total!r}, expected 1")


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit-norm complex amplitude vector, held read-only: the constructor
    keeps a copy of what it is given."""

    amplitudes: np.ndarray

    def __post_init__(self, copy: bool = True):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if a.size == 0:
            raise ValueError("pure state needs at least one amplitude")
        if not np.all(np.isfinite(a)):
            raise ValueError("amplitudes contain non-finite entries")
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > ORTHONORMALITY_TOL:  # a one-column orthonormal basis
            raise ValueError(f"state is not normalized: |amplitudes| = {norm!r}")
        object.__setattr__(self, "amplitudes", _frozen(a, copy))

    @classmethod
    def _adopt(cls, amplitudes: np.ndarray) -> PureState:
        """The state of ``amplitudes``, a fresh complex array that no one else
        holds, frozen in place rather than copied: every check of the
        constructor runs, so a dense vector is never held twice."""
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amplitudes)
        state.__post_init__(copy=False)
        return state

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> np.ndarray:
        """Rank-1 projector ``|psi><psi|``."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


def basis_state(dim: int, index: int) -> PureState:
    """Computational basis vector ``|index>`` in ``dim`` dimensions."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    a = np.zeros(dim, dtype=complex)
    a[index] = 1.0
    return PureState(a)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density operator with an optional observer label.

    ``matrix`` holds the Hermitian part ``(m + m^dag) / 2`` of the matrix
    ``m`` it is given (:func:`~qcompat.linalg._hermitian_part`), a fresh
    read-only array, so every state is exactly Hermitian; an exactly
    Hermitian ``m`` keeps its values.  ``label`` is a string or None, else
    ``ValueError``: a report writes it as an input name.  Construct
    through :func:`validate_density`, which bounds how far ``m`` was from
    Hermitian; the dataclass itself only checks structure, not physicality.
    """

    matrix: np.ndarray
    label: str | None = None

    def __post_init__(self):
        if self.label is not None and not isinstance(self.label, str):
            raise ValueError(f"label must be a string or None, got {self.label!r}")
        h = _hermitian_part(as_complex_matrix(self.matrix))
        h.setflags(write=False)
        object.__setattr__(self, "matrix", h)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """``(eigenvalues, eigenvectors)`` as :func:`hermitian_eigendecompose`
        gives them, computed on first use and kept."""
        if "_spectrum" not in self.__dict__:
            # no lock: callers racing on first use compute the same bits.  Not
            # functools.cached_property: on Python 3.10 and 3.11 its one lock
            # covers every instance, so first uses on other states would queue
            object.__setattr__(self, "_spectrum", _eigh_canonical(self.matrix))
        return self.__dict__["_spectrum"]


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A convex mixture ``{(w_k, |xi_k>)}`` of pure states.

    Weights are strictly positive and sum to one within ``WEIGHT_TOL``;
    mixtures of mixed states are not representable (flatten them to pure
    components before constructing).
    """

    components: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        comps = tuple((float(w), s) for w, s in self.components)
        if not comps:
            raise ValueError("ensemble needs at least one component")
        dims = {s.dim for _, s in comps}
        if len(dims) != 1:
            raise ValueError(f"ensemble components have mixed dimensions {sorted(dims)}")
        _check_weights([w for w, _ in comps], "weights")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0][1].dim


def _positivity_certified(h: np.ndarray, t: float) -> bool:
    """Whether one Cholesky factorization proves ``eigvalsh(h)[0] >= -t``.

    Factors ``h + sI`` with the shift ``s`` just below ``t``.  Once the factor
    exists, ``h`` has no eigenvalue below ``-t``, and its largest lies below
    ``scale = sum_i |h_ii| + D t`` (its eigenvalues sum to the trace), so
    ``||h||_2 <= scale``.  ``s`` is chosen so that the Cholesky backward error
    and ``eigvalsh``'s rounding together, both bounded through ``scale``, fit
    in ``t - s``.  False means undecided (the factorization failed, or
    ``t`` is too small for any shift), never that ``h`` fails.
    """
    d = h.shape[0]
    gamma = (d + 1) * _UNIT_ROUNDOFF / (1 - (d + 1) * _UNIT_ROUNDOFF)
    with np.errstate(over="ignore"):  # an infinite scale leaves the certificate undecided
        scale = float(np.abs(np.diagonal(h).real).sum()) + d * t
    rounding = _CHOLESKY_ERROR_FACTOR * gamma + _EIGVALSH_ROUNDING_FACTOR * d * _UNIT_ROUNDOFF
    shift = t - rounding * scale
    if not shift > 0:
        return False
    shifted = h.copy()
    shifted.reshape(-1)[:: d + 1] += shift  # the diagonal of the fresh C-ordered copy
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def validate_density(
    m, tol: Tolerances | None = None, label: str | None = None
) -> DensityMatrix:
    """Validate an operator as a physical density matrix.

    Measures hermiticity and trace of the input and positivity of the
    Hermitian part the state holds, and rejects with the full violation list;
    the raised class corresponds to the first violated invariant in that order.

    Positivity means ``eigvalsh``'s smallest eigenvalue is at least
    ``-eigenvalue_zero_tol``.  One Cholesky factorization certifies that
    under a stated rounding bound (:func:`_positivity_certified`); only
    where it cannot decide does ``eigvalsh`` run, and a ``NotPSD`` reports
    its ``lambda_min``.  Either way the same inputs pass.

    Raises
    ------
    ValueError, NotSquare
        Input that fails :func:`~qcompat.linalg.as_complex_matrix`.
    NotHermitian, NotPSD, TraceNotOne
        Physicality violations; ``.violations`` carries every failed
        invariant with its measured magnitude.
    """
    tol = tol or DEFAULT_TOLERANCES
    a = np.asarray(m, dtype=complex)  # the input as given; the state checks its shape
    rho = DensityMatrix(a, label=label)

    violations: list[tuple[str, float, float]] = []
    hermiticity = float(_hermitian_deviation(a))
    if hermiticity > tol.hermiticity_tol:
        violations.append(("hermiticity", hermiticity, tol.hermiticity_tol))

    if not _positivity_certified(rho.matrix, tol.eigenvalue_zero_tol):
        lam_min = float(np.linalg.eigvalsh(rho.matrix)[0])
        if lam_min < -tol.eigenvalue_zero_tol:
            violations.append(("positivity lambda_min", lam_min, tol.eigenvalue_zero_tol))

    with np.errstate(over="ignore"):  # an infinite trace fails the trace check
        trace = complex(np.trace(a))
    if abs(trace - 1.0) > tol.trace_tol:
        violations.append(("trace", trace.real, tol.trace_tol))
        # a complex trace only happens alongside a hermiticity violation,
        # but the real part alone would hide what went wrong
        if abs(trace.imag) > tol.trace_tol:
            violations.append(("trace imaginary part", trace.imag, tol.trace_tol))

    if violations:
        classes = {"hermiticity": NotHermitian, "positivity lambda_min": NotPSD}
        raise classes.get(violations[0][0], TraceNotOne)(violations)
    return rho


def _mixture(components: Sequence[tuple[float, PureState]]) -> np.ndarray:
    """``sum_k w_k |xi_k><xi_k|`` as the one product ``(V w) V^dag``."""
    weights = np.array([w for w, _ in components])
    vectors = np.stack([s.amplitudes for _, s in components], axis=1)
    return (vectors * weights) @ vectors.conj().T


def from_ensemble(e: Ensemble, tol: Tolerances | None = None) -> DensityMatrix:
    """Mixture realization ``rho = sum_k w_k |xi_k><xi_k|``."""
    return validate_density(_mixture(e.components), tol)


def eigen_ensemble(rho: DensityMatrix, tol: Tolerances | None = None) -> Ensemble:
    """Canonical ensemble of the support eigenvectors, weighted by their
    eigenvalues rescaled to sum to one (``_Split.weights``), which gives back
    the mass the zero cutoff drops: the weights sum to one in rounding.  A
    cutoff that empties the support raises ValueError."""
    split = _split_spectrum(rho.spectrum, tol or DEFAULT_TOLERANCES, f"state (label {rho.label!r})")
    return Ensemble(tuple(zip(split.weights, map(PureState, split.support.basis.T))))


def tensor(states: Sequence[DensityMatrix] | Sequence[PureState]):
    """Kronecker product of states in the given subsystem order.

    All operands must be of the same kind; the result is that kind.  The
    leftmost operand has the largest index stride.
    """
    if not states:
        raise ValueError("tensor needs at least one operand")
    kinds = {type(s) for s in states}
    if len(kinds) != 1:
        raise TypeError("tensor operands must all be DensityMatrix or all PureState")
    pure = isinstance(states[0], PureState)
    out = reduce(np.kron, (s.amplitudes if pure else s.matrix for s in states))
    return PureState(out) if pure else validate_density(out)


def _check_dims(total: int, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DimensionMismatch(f"subsystem dimensions must be positive, got {dims}")
    if int(np.prod(dims)) != total:
        raise DimensionMismatch(
            f"product of subsystem dimensions {dims} is not the total dimension {total}"
        )
    return dims


def partial_trace(
    rho: DensityMatrix,
    dims: Sequence[int],
    keep: Iterable[int],
    tol: Tolerances | None = None,
) -> DensityMatrix:
    """Reduced state on the ``keep`` subsystems, tracing out the rest.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep`` is the
    set of subsystem indices to retain (ascending order in the result).
    Keeping every subsystem returns the state unchanged.
    """
    dims = _check_dims(rho.dim, dims)
    n = len(dims)
    keep_sorted = sorted(set(int(k) for k in keep))
    if not keep_sorted:
        raise EmptyKeep("must keep at least one subsystem")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= n:
        raise DimensionMismatch(
            f"keep indices {keep_sorted} out of range for {n} subsystems"
        )
    t = rho.matrix.reshape(dims + dims)
    row_idx = list(range(n))
    col_idx = [n + i if i in keep_sorted else i for i in range(n)]
    out_idx = [i for i in keep_sorted] + [n + i for i in keep_sorted]
    reduced = np.einsum(t, row_idx + col_idx, out_idx)
    d_keep = int(np.prod([dims[i] for i in keep_sorted]))
    return validate_density(reduced.reshape(d_keep, d_keep), tol, label=rho.label)


def _nonzero_probability(p: float, tol: Tolerances) -> float:
    """The outcome probability ``p``, unless it is at the numerical floor
    ``eigenvalue_zero_tol``: then ZeroProbabilityOutcome carries it."""
    if p <= tol.eigenvalue_zero_tol:
        raise ZeroProbabilityOutcome(p)
    return p


def project_and_renormalize(
    psi: PureState,
    dims: Sequence[int],
    subsystem: int,
    outcome_vector: PureState,
    tol: Tolerances | None = None,
) -> tuple[float, PureState]:
    """Project one subsystem onto a pure outcome and renormalize.

    Returns the outcome probability
    ``p = |(<outcome| (x) I_rest) |psi>|^2`` together with the conditional
    state on the remaining subsystems.  Probabilities over a complete
    orthonormal outcome set sum to one.

    Raises
    ------
    DimensionMismatch
        If ``dims`` does not factor ``psi`` or the outcome dimension is
        wrong.
    ZeroProbabilityOutcome
        If ``p`` is at the numerical floor; the conditional state is then
        undefined (the measured probability rides on the exception).
    """
    tol = tol or DEFAULT_TOLERANCES
    dims = _check_dims(psi.dim, dims)
    n = len(dims)
    if not 0 <= subsystem < n:
        raise DimensionMismatch(f"subsystem {subsystem} out of range for {n} factors")
    if outcome_vector.dim != dims[subsystem]:
        raise DimensionMismatch(
            f"outcome dimension {outcome_vector.dim} does not match subsystem "
            f"dimension {dims[subsystem]}"
        )
    t = psi.amplitudes.reshape(dims)
    contracted = np.tensordot(outcome_vector.amplitudes.conj(), t, axes=([0], [subsystem]))
    # measuring the only subsystem leaves a 0-d array; reshape(-1) makes it dim 1
    flat = np.asarray(contracted, dtype=complex).reshape(-1)
    p = _nonzero_probability(float(np.vdot(flat, flat).real), tol)
    return p, PureState._adopt(flat / np.sqrt(p))
