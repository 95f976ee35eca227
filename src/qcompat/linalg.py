"""Dense complex matrix arithmetic and subspace algebra.

Everything below the physics layer: Hermitian eigendecomposition with a
deterministic ordering and phase convention, tolerance-aware support/null
splitting, orthonormal subspaces, and subspace intersection.

Matrices are square ``numpy.ndarray`` values of dtype complex128, stored
row-major.  All functions are pure; returned arrays are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import AmbientMismatch, NegativeEigenvalue, NotHermitian, NotSquare

__all__ = [
    "Tolerances",
    "Subspace",
    "as_complex_matrix",
    "max_abs",
    "hermitian_eigendecompose",
    "support_of",
    "null_of",
    "intersect",
    "projector_from",
]


def _integer(value, what: str, least: int = 1, error=ValueError) -> int:
    """The one integer rule for a dimension, count or index a caller or a file
    hands in: an ``int`` or numpy integer, never a bool, of at least ``least``;
    returned as an ``int``.  Else ``error`` names ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise error(f"{what} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _number(value, what: str, error=ValueError) -> float:
    """The one number rule for a value a caller or a file hands in: an int or a
    float, numpy scalars included, never a bool, finite as a double; returned
    as that double.  Else ``error`` names ``what``."""
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        try:
            if math.isfinite(x := float(value)):
                return x
        except OverflowError:  # an int beyond a double's range
            pass
    raise error(f"{what} must be a number, got {value!r}")


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the toolkit.

    All states are trace-normalized, so eigenvalues and matrix entries are
    O(1) and absolute thresholds are meaningful.  Each field is a number under
    :func:`_number` (an int or a float, numpy scalars included, never a bool,
    finite as a double) and not negative, else ``ValueError``; the value is
    kept as given.

    Attributes
    ----------
    hermiticity_tol : float
        Max allowed entry of ``m - m^dag``.
    eigenvalue_zero_tol : float
        Eigenvalues at or below this count as zero (support membership).  The
        compatibility checks reject (``ValueError``) a state it leaves no support.
        Validation rejects a state whose ``eigvalsh`` smallest eigenvalue lies
        below ``-eigenvalue_zero_tol``; it proves the rest positive by a
        Cholesky factorization shifted by just under this value, so at 0 (or
        below about ``10 D`` unit roundoffs, 3e-13 at ``D = 256``) every state
        pays ``eigvalsh`` instead.
    trace_tol : float
        Max allowed deviation of a density-matrix trace from one.
    overlap_tol : float
        Intersection threshold (principal-angle cosines ``> 1 - 2 overlap_tol``,
        i.e. mean-projector eigenvalues ``> 1 - overlap_tol``) and threshold
        for the commutator/product norms of the pairwise criteria.  Must be
        below 0.5: at 0.5 and above the cosine threshold is at most 0, so
        orthogonal supports would intersect.  At least 1e-12, so the threshold
        stays below the cosines of identical supports (1 minus a few 1e-15).
    """

    hermiticity_tol: float = 1e-9
    eigenvalue_zero_tol: float = 1e-9
    trace_tol: float = 1e-9
    overlap_tol: float = 1e-7

    def __post_init__(self):
        for field in fields(self):
            v = getattr(self, field.name)
            if _number(v, field.name) < 0:
                raise ValueError(f"{field.name} must be nonnegative, got {v!r}")
        if not 1e-12 <= self.overlap_tol < 0.5:
            bound = "below 0.5" if self.overlap_tol >= 0.5 else "at least 1e-12"
            raise ValueError(f"overlap_tol must be {bound}, got {self.overlap_tol!r}")


DEFAULT_TOLERANCES = Tolerances()


def _tolerances(tol) -> Tolerances:
    """The one rule for the ``tol`` every public function takes: None means
    ``DEFAULT_TOLERANCES``, a :class:`Tolerances` stands as it is, and anything
    else raises ``ValueError``."""
    if tol is None:
        return DEFAULT_TOLERANCES
    if not isinstance(tol, Tolerances):
        raise ValueError(f"tol must be a Tolerances or None, got {tol!r}")
    return tol


# Structural, not a ``Tolerances`` field: an orthonormal basis is an internal
# invariant (unit-norm eigenvectors, SVD factors), not a physical threshold.
# Its gram matrix deviates from the identity by a few ulps times D, far below
# this bound at every supported D, and no user setting should loosen it.
ORTHONORMALITY_TOL = 1e-10


def _frozen(a: np.ndarray, copy: bool = True) -> np.ndarray:
    """``a`` as a read-only complex array: a copy, or, with ``copy`` False, ``a``
    itself frozen in place, for a fresh complex array no one else holds."""
    a = np.array(a, dtype=complex, copy=True) if copy else np.asarray(a, dtype=complex)
    a.setflags(write=False)
    return a


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a complex128 matrix under the one intake rule for matrix operands:
    2-D, at least 1 x 1 and finite (else ``ValueError``), square (else ``NotSquare``)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError(f"matrix must be at least 1 x 1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def max_abs(m: np.ndarray) -> float:
    """Max-entry norm ``max_ij |m_ij|`` (0 for empty arrays)."""
    return float(np.max(np.abs(m), initial=0.0))


# Row/column block edge of :func:`_hermitian_deviation`: a stack of 64 x 64
# complex blocks and their mirrors stays in cache.  At D = 256 (one BLAS
# thread) the pass over 1, 7 and 31 products takes 0.12, 0.74 and 4.6 ms
# instead of 0.21, 1.5 and 12.5 ms.  32 x 32 blocks take twice as long for
# one product (D = 64 and 256) and save at most 15% on deep stacks.
_BLOCK = 64


def _hermitian_deviation(p: np.ndarray):
    """``max |M - M^dag|`` of the matrix ``p``, or of each matrix of the stack ``p``,
    bit for bit the dense ``max_abs(M - M^dag)`` of a finite ``M``.

    ``|M - M^dag|`` is symmetric (``|m_rc - conj(m_cr)|`` and ``|m_cr -
    conj(m_rc)|`` differ by the sign of an exact real difference), so only
    blocks on or above the diagonal are read, each against its mirror block:
    a whole-matrix transposed read walks rows ``16 D`` bytes apart and is the
    slow pass at D = 256.  Only a transposed copy of each mirror block is
    written, never ``p``.
    """
    dim = p.shape[-1]
    out = np.zeros(p.shape[:-2])
    for r in range(0, dim, _BLOCK):
        for c in range(r, dim, _BLOCK):
            q = p[..., c : c + _BLOCK, r : r + _BLOCK].swapaxes(-1, -2).copy()
            np.conjugate(q, out=q)
            np.subtract(p[..., r : r + _BLOCK, c : c + _BLOCK], q, out=q)
            np.maximum(out, np.abs(q).max(axis=(-2, -1)), out=out)
    return out


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m^dag) / 2`` as a fresh array, ``m``'s values when it is exactly
    Hermitian: what a :class:`~qcompat.states.DensityMatrix` holds and
    :func:`hermitian_eigendecompose` decomposes.  Where ``m + m^dag``
    overflows, ``m / 2 + m^dag / 2`` stands in: halving first would flush an
    exactly Hermitian subnormal entry to 0, so it is only the fallback."""
    with np.errstate(over="raise"):
        try:
            return (m + m.conj().T) / 2
        except FloatingPointError:
            return m / 2 + m.conj().T / 2


def _check_orthonormal(b: np.ndarray) -> None:
    if max_abs(b.conj().T @ b - np.eye(b.shape[1])) > ORTHONORMALITY_TOL:
        raise ValueError(f"basis columns are not orthonormal to {ORTHONORMALITY_TOL:g}")


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^D given by an orthonormal basis.

    ``basis`` has shape ``(ambient_dim, dimension)``; columns are the basis
    vectors.  A zero-dimensional (trivial) subspace has shape ``(D, 0)``.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ambient_dim", _integer(self.ambient_dim, "ambient_dim"))
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis must have shape ({self.ambient_dim}, k), got {b.shape}"
            )
        if b.shape[1] > self.ambient_dim:
            raise ValueError("more basis vectors than ambient dimensions")
        if not np.all(np.isfinite(b)):
            raise ValueError("basis contains non-finite entries")
        _check_orthonormal(b)
        object.__setattr__(self, "basis", _frozen(b))

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def _view(cls, basis: np.ndarray) -> Subspace:
        """Wrap read-only columns of a kept spectrum without re-checking them.

        :func:`_eigh_canonical` checked the whole eigenvector matrix; the gram
        matrix of any set of its columns is a sub-block of that gram matrix,
        so the columns already pass the constructor's orthonormality check.
        """
        s = object.__new__(cls)
        object.__setattr__(s, "ambient_dim", basis.shape[0])
        object.__setattr__(s, "basis", basis)
        return s


def _lex_order(keys: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Column order by descending ``keys``; exact ties go to the column that is
    lexicographically smaller over its interleaved ``(re, im)`` entries."""
    order = np.argsort(-keys, kind="stable")
    ranked = keys[order]
    same = ranked[1:] == ranked[:-1]
    if not same.any():
        return order
    # one lexsort over the tied columns alone, by group first (np.lexsort sorts
    # by its last key first); stability keeps equal columns in index order
    tied = np.concatenate(([False], same)) | np.concatenate((same, [False]))
    group = np.concatenate(([0], np.cumsum(~same)))[tied]
    cols = order[tied]
    rows = np.stack([vectors.real[:, cols], vectors.imag[:, cols]], axis=1)
    order[tied] = cols[np.lexsort(np.vstack([rows.reshape(-1, cols.size)[::-1], group]))]
    return order


def _canonical(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Make each column's largest-magnitude entry real positive (columns are
    unit vectors, so it is nonzero), then put the columns in :func:`_lex_order`."""
    if vectors.size:
        top = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
        vectors = vectors * (top.conj() / np.abs(top))
    order = _lex_order(values, vectors)
    values, vectors = values[order], vectors[:, order]  # fresh gathers, frozen in place
    values.setflags(write=False)
    vectors.setflags(write=False)
    return values, vectors


def _eigh_canonical(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hermitian_eigendecompose` of an exactly Hermitian matrix, without
    the input checks.

    The eigenvector matrix is checked orthonormal here, once, so that
    :func:`_split_spectrum` can hand out views of its columns unchecked.
    """
    values, vectors = _canonical(*np.linalg.eigh(a))
    _check_orthonormal(vectors)
    return values, vectors


def hermitian_eigendecompose(
    m, tol: Tolerances | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix with a deterministic convention.

    Eigenvalues come back sorted descending; exact ties are ordered by
    lexicographic comparison of the phase-fixed eigenvectors.  Each
    eigenvector's largest-magnitude entry is made real and positive, so
    identical inputs produce bit-identical outputs.  The matrix decomposed is
    the Hermitian part ``(m + m^dag) / 2``, which is ``m`` itself when ``m`` is
    exactly Hermitian.

    Returns
    -------
    (eigenvalues, eigenvectors)
        ``eigenvalues`` is a 1-D float array, ``eigenvectors`` the matching
        ``(D, D)`` array of orthonormal column vectors.

    Raises
    ------
    ValueError, NotSquare
        If ``m`` fails :func:`as_complex_matrix`.
    NotHermitian
        If ``max |m - m^dag|`` exceeds ``hermiticity_tol``.
    ValueError
        If the eigenvectors LAPACK returns are not orthonormal to
        ``ORTHONORMALITY_TOL``.
    """
    tol = _tolerances(tol)
    a = as_complex_matrix(m)
    deviation = float(_hermitian_deviation(a))
    if deviation > tol.hermiticity_tol:
        raise NotHermitian([("hermiticity", deviation, tol.hermiticity_tol)])
    return _eigh_canonical(_hermitian_part(a))


class _Split(NamedTuple):
    """:func:`_split_spectrum` of one spectrum.  Both bases are read-only views into
    its eigenvector matrix: no copy and no second orthonormality check."""

    rank: int  # the count of eigenvalues above eigenvalue_zero_tol
    kept: np.ndarray  # those eigenvalues
    support: Subspace
    null: Subspace

    @property
    def weights(self) -> np.ndarray:
        """The kept eigenvalues rescaled to sum to one, which gives back the mass
        the zero cutoff drops (up to ``D`` times ``eigenvalue_zero_tol``)."""
        return self.kept / self.kept.sum()


def _split_spectrum(spectrum, tol: Tolerances, name: str | None = None, *, psd=True) -> _Split:
    """The one split of a spectrum from :func:`_eigh_canonical` at ``eigenvalue_zero_tol``.

    The rank reads no sign.  Unless ``psd`` is False, an eigenvalue below
    ``-eigenvalue_zero_tol`` raises NegativeEigenvalue; given a ``name``, a
    cutoff that empties the support raises ValueError naming that state.
    """
    values, vectors = spectrum
    if psd and values[-1] < -tol.eigenvalue_zero_tol:
        raise NegativeEigenvalue([("positivity", float(values[-1]), tol.eigenvalue_zero_tol)])
    rank = int(np.count_nonzero(values > tol.eigenvalue_zero_tol))
    if rank == 0 and name is not None:
        raise ValueError(f"{name} has an empty support: its largest eigenvalue {values[0]:.6g} "
                         f"is at or below eigenvalue_zero_tol {tol.eigenvalue_zero_tol!r}")
    support, null = Subspace._view(vectors[:, :rank]), Subspace._view(vectors[:, rank:])
    return _Split(rank, values[:rank], support, null)


def support_of(m, tol: Tolerances | None = None) -> Subspace:
    """Span of the eigenvectors with eigenvalue above ``eigenvalue_zero_tol``.

    Requires a Hermitian PSD input (else NegativeEigenvalue); the orthogonal
    complement of the result is exactly :func:`null_of` of the same matrix.
    """
    tol = _tolerances(tol)
    return _split_spectrum(hermitian_eigendecompose(m, tol), tol).support


def null_of(m, tol: Tolerances | None = None) -> Subspace:
    """Span of the eigenvectors with eigenvalue at or below ``eigenvalue_zero_tol``.

    Requires a Hermitian PSD input (else NegativeEigenvalue), as :func:`support_of` does.
    """
    tol = _tolerances(tol)
    return _split_spectrum(hermitian_eigendecompose(m, tol), tol).null


def projector_from(s: Subspace) -> np.ndarray:
    """Orthogonal projector ``P = sum_k b_k b_k^dag`` onto the subspace."""
    return s.basis @ s.basis.conj().T


def _cosine_floor(tol: Tolerances) -> float:
    """``1 - 2 overlap_tol``: a principal-angle cosine above it is a shared direction,
    the rule by which :func:`intersect` keeps one (mean-projector eigenvalue above
    ``1 - overlap_tol``)."""
    return 1.0 - 2.0 * tol.overlap_tol


# Structural, like ``ORTHONORMALITY_TOL``: the exit of :func:`intersect`.  A fold
# step's largest cosine is ``sigma_1(C) <= ||C||_F`` of the computed ``m x n``
# product ``C = B^dag S``.  LAPACK's SVD returns the singular values of some
# ``C + E`` with ``||E||_F <= p u ||C||_F``, ``p`` of order ``m n`` (Householder
# bidiagonalization, Higham 2002, section 19.3; the bidiagonal SVD errs far
# less), so each computed cosine is at most ``(1 + p u) ||C||_F``.
# ``np.vdot(C, C)`` sums ``2 m n`` squares in any order (``sqrt(2) gamma_{mn+2}``
# relative; Higham 2002, section 3.6) and one root follows: within
# ``(m n + 4) u``.  Raising the computed norm by
# ``_EXIT_SLACK (m + 1)(n + 1)``, 64 u per unit, covers both with room for the
# product that raises it.
_EXIT_SLACK = 32 * np.finfo(float).eps


def intersect(a: Subspace, *rest: Subspace, tol: Tolerances | None = None) -> Subspace:
    """Intersection of one or more subspaces (a single one is returned as it is).

    One left fold of principal-angle steps (Björck and Golub 1973) over bare
    bases: the singular values of ``C = B^dag B_next`` are the cosines between
    the running basis ``B`` and the next subspace, and ``B`` times the left
    singular vectors with cosine above ``1 - 2 overlap_tol`` (mean-projector
    eigenvalue above ``1 - overlap_tol``) is the next ``B``, until it is empty.
    A step whose ``||C||_F``, raised by the SVD's backward error and its own
    rounding (``_EXIT_SLACK``), is at or below that threshold bounds every
    computed cosine there: it ends the fold empty with no SVD, the same
    ``(D, 0)`` result the SVD would give.  Only the result is made
    :func:`_canonical` (keyed by the last cosines) and checked.

    Raises
    ------
    AmbientMismatch
        If the subspaces live in spaces of different dimension.
    """
    tol = _tolerances(tol)
    for s in rest:
        if s.ambient_dim != a.ambient_dim:
            raise AmbientMismatch(f"ambient dimensions differ: {a.ambient_dim} vs {s.ambient_dim}")
    if not rest:
        return a
    threshold = _cosine_floor(tol)
    basis = a.basis
    for s in rest:
        c = basis.conj().T @ s.basis
        m, n = c.shape
        if np.sqrt(np.vdot(c, c).real) * (1 + _EXIT_SLACK * (m + 1) * (n + 1)) <= threshold:
            u, cosines = np.zeros((m, 0)), np.zeros(0)  # no computed cosine passes
        else:
            u, cosines, _ = np.linalg.svd(c, full_matrices=False)
        keep = cosines > threshold
        basis = basis @ u[:, keep]
        if basis.shape[1] == 0:
            break
    return Subspace(a.ambient_dim, _canonical(cosines[keep], basis)[1])
