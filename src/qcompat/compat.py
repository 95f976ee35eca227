"""Compatibility checks for collections of density-matrix assignments.

Two (or more) density matrices are *compatible* when they could describe
one and the same system: equivalently, when the intersection of their
supports is nontrivial.  This module implements that support-intersection
criterion, the two classical pairwise criteria it supersedes (commutation
and non-orthogonality), the pure-state special case, and the constraint a
pooled joint state must satisfy (its support confined to the intersection,
i.e. every observer's null space stays null).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, FewerThanTwoStates, NotPure
from .linalg import (
    DEFAULT_TOLERANCES,
    Subspace,
    Tolerances,
    _split_spectrum,
    intersect,
    max_abs,
    projector_from,
    support_of,  # no longer called here; stays bound for code that reaches it via compat
)
from .states import DensityMatrix

__all__ = [
    "CompatReport",
    "NullSpaceLeak",
    "JointConstraintReport",
    "check_pi",
    "check_pii",
    "check_bfm",
    "check_pure_pair",
    "verify_joint",
]


@dataclass(frozen=True, eq=False)
class CompatReport:
    """Outcome of a support-intersection compatibility check.

    ``verdict_bfm`` is the support-intersection verdict and always equals
    ``intersection_dim > 0``.  For exactly two states the pairwise fields
    describe that pair; for more states they are the conjunction over all
    pairs (an extension beyond the two-observer criteria, flagged by
    ``pairwise_conjunction``), with ``commutator_norm`` the worst pair and
    ``product_norm`` the weakest pair.  Both norms are max-entry norms taken
    from one product ``P = rho_a rho_b`` per pair: ``max |P|`` and
    ``max |P - P^dag|``, since ``P^dag = rho_b rho_a``.

    At ``D >= 32`` a state of rank ``k < D / 2`` enters its pairs through its
    kept spectrum, ``rho = V Lambda V^dag`` without its eigenvalues at or below
    ``eigenvalue_zero_tol`` (``delta``: the largest of them in magnitude, 0
    when there are none).  Each norm then stays within
    ``delta_a lambda_max_b + delta_b lambda_max_a + delta_a delta_b`` of the
    dense norm (the commutator norm within twice that), plus product
    rounding, so a pairwise verdict can differ from the dense rule only when
    the dense norm lies within that bound of ``overlap_tol``.  Every other
    pair is formed densely, bit for bit.
    """

    verdict_bfm: bool
    verdict_pi: bool
    verdict_pii: bool
    intersection_dim: int
    intersection_basis: Subspace
    commutator_norm: float
    product_norm: float
    tolerances_used: Tolerances
    n_states: int = 2
    pairwise_conjunction: bool = False

    def __post_init__(self):
        if self.verdict_bfm != (self.intersection_dim > 0):
            raise ValueError("verdict_bfm must equal (intersection_dim > 0)")
        if self.intersection_dim != self.intersection_basis.dimension:
            raise ValueError("intersection_dim must match the basis dimension")


def _require_equal_dims(states: Sequence[DensityMatrix]) -> int:
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise DimensionMismatch(f"states have differing dimensions {sorted(dims)}")
    return dims.pop()


# Row/column block edge of the commutator pass: a stack of 64 x 64 complex
# blocks and their mirrors stays in cache.  At D = 256 (one BLAS thread) the
# pass over 1, 7 and 31 products takes 0.12, 0.74 and 4.6 ms instead of
# 0.21, 1.5 and 12.5 ms.  32 x 32 blocks take twice as long for one product
# (D = 64 and 256) and save at most 15% on deep stacks.
_BLOCK = 64
# Smallest D at which a thin factor stands in for a low-rank state.  Below it
# the thin factor's extra array calls cost more than the flops they save: for
# 7 partners the dense product takes 1.7, 4.7 and 11 us at D = 8, 16 and 24,
# the thin one 4.3, 6.3 and 11-15 us (one BLAS thread).
_THIN_MIN_DIM = 32


def _hermitian_deviation(p: np.ndarray) -> np.ndarray:
    """``max |P - P^dag|`` of each matrix in the stack ``p``, bit for bit.

    ``|P - P^dag|`` is symmetric, so only blocks on or above the diagonal are
    read, each against its mirror block: a whole-stack transposed read walks
    rows ``16 D`` bytes apart and is the slow pass at D = 256.
    """
    dim = p.shape[-1]
    out = None
    for r in range(0, dim, _BLOCK):
        for c in range(r, dim, _BLOCK):
            block = np.abs(
                p[:, r : r + _BLOCK, c : c + _BLOCK]
                - p[:, c : c + _BLOCK, r : r + _BLOCK].conj().transpose(0, 2, 1)
            ).max(axis=(1, 2))
            out = block if out is None else np.maximum(out, block, out=out)
    return out


def _pairwise_norms(
    states: Sequence[DensityMatrix], tol: Tolerances | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(max |P|, max |P - P^dag|)`` per pair, in ``itertools.combinations`` order.

    ``P = rho_i rho_j``, so ``P^dag = rho_j rho_i`` and one product per pair
    gives both the PII product and the PI commutator.  Both norms are
    unchanged under ``P -> P^dag``, so either state of a pair may stand on the
    left.

    The state of smaller rank ``k`` (its count of eigenvalues above
    ``eigenvalue_zero_tol``) stands on the left.  When ``2 k < D`` and
    ``D >= 32``, its kept factor stands in for it, ``P = V (Lambda V^dag rho_j)``:
    that costs ``2 D^2 k`` instead of ``D^3`` and drops the other
    eigenvalues.  The rank is read without a positivity check, so a state
    built directly as :class:`DensityMatrix` with an eigenvalue below
    ``-eigenvalue_zero_tol`` raises nothing here, at any D.  With ``delta``
    the largest dropped eigenvalue in magnitude (0 when none is dropped) and
    ``lambda_max`` the largest eigenvalue, each norm stays within
    ``delta_i lambda_max_j + delta_j lambda_max_i + delta_i delta_j`` of the
    dense norm, and the commutator norm within twice that, plus product
    rounding.  Every other pair, among them every pair in which both ranks
    are at least ``D / 2``, is formed densely as ``rho_i rho_j`` with ``i`` first
    in the caller's order, and gets exactly those bits.
    Each left state multiplies against the stack of its later partners in
    one batched product: transient memory is O(n D^2).
    """
    tol = tol or DEFAULT_TOLERANCES
    n, dim = len(states), states[0].dim
    ranks = [dim] * n  # rank below D / 2: the kept factor stands in, else dim
    if dim >= _THIN_MIN_DIM:
        for i, s in enumerate(states):
            k = int(np.count_nonzero(s.spectrum[0] > tol.eigenvalue_zero_tol))
            ranks[i] = k if 2 * k < dim else dim
    # thin states by rank (stable), then the dense ones in the caller's
    # order: no partner after a left state has a smaller rank
    order = sorted(range(n), key=ranks.__getitem__)
    m = np.stack([states[i].matrix for i in order])
    # the norms of pair (i, j) land at [:, i, j] or [:, j, i], as it is formed
    norms = np.zeros((2, n, n))
    caller = np.array(order)  # the caller's index of each stacked state
    for pos, i in enumerate(order[:-1]):
        k = ranks[i]
        if k == dim:
            p = m[pos] @ m[pos + 1 :]
        else:
            values, vectors = states[i].spectrum
            v = vectors[:, :k]
            p = v @ ((values[:k, None] * v.conj().T) @ m[pos + 1 :])
        partners = caller[pos + 1 :]
        norms[0, i, partners] = np.abs(p).max(axis=(1, 2))
        norms[1, i, partners] = _hermitian_deviation(p)
    # the mirror entry of each pair is 0, so adding it is exact; the upper
    # triangle read row by row is combinations order
    products, commutators = norms + norms.transpose(0, 2, 1)
    r = np.arange(n)
    upper = r[:, None] < r
    return products[upper], commutators[upper]


def check_pi(
    a: DensityMatrix, b: DensityMatrix, tol: Tolerances | None = None
) -> tuple[bool, float]:
    """Commutation criterion: do the two assignments commute?

    Returns the verdict together with the commutator norm
    ``max |rho_a rho_b - rho_b rho_a|``, computed as ``max |P - P^dag|`` from
    the one product ``P = rho_a rho_b``.  At ``D >= 32`` a state of
    rank below ``D / 2`` (eigenvalues above ``tol.eigenvalue_zero_tol``, read
    with no positivity check) enters through its kept spectrum, and the norm
    stays within twice the ``delta`` bound of :class:`CompatReport` of the
    dense norm; there each fresh state is eigendecomposed once and keeps its
    spectrum.
    """
    tol = tol or DEFAULT_TOLERANCES
    _require_equal_dims([a, b])
    norm = float(_pairwise_norms([a, b], tol)[1][0])
    return norm <= tol.overlap_tol, norm


def check_pii(
    a: DensityMatrix, b: DensityMatrix, tol: Tolerances | None = None
) -> tuple[bool, float]:
    """Non-orthogonality criterion: is the operator product nonzero?

    Returns the verdict together with the product norm ``max |rho_a rho_b|``.
    At ``D >= 32`` a state of rank below ``D / 2`` (eigenvalues above
    ``tol.eigenvalue_zero_tol``, read with no positivity check) enters through
    its kept spectrum, and the norm stays within the ``delta`` bound of
    :class:`CompatReport` of the dense norm; there each fresh state is
    eigendecomposed once and keeps its spectrum.
    """
    tol = tol or DEFAULT_TOLERANCES
    _require_equal_dims([a, b])
    norm = float(_pairwise_norms([a, b], tol)[0][0])
    return norm > tol.overlap_tol, norm


def check_bfm(
    states: Sequence[DensityMatrix], tol: Tolerances | None = None
) -> CompatReport:
    """Support-intersection compatibility for two or more assignments.

    The verdict is positive iff the supports of all states share at least
    one direction.  The returned basis spans the full intersection, so
    ``intersection_dim`` doubles as the dimension budget any pooled joint
    state's support must fit inside.
    """
    tol = tol or DEFAULT_TOLERANCES
    if len(states) < 2:
        raise FewerThanTwoStates(
            f"compatibility needs at least two state assignments, got {len(states)}"
        )
    _require_equal_dims(states)
    common = intersect(*(_split_spectrum(*s.spectrum, tol)[0] for s in states), tol=tol)

    product_norms, commutator_norms = _pairwise_norms(states, tol)
    commutator_norm = float(commutator_norms.max())
    product_norm = float(product_norms.min())

    return CompatReport(
        verdict_bfm=common.dimension > 0,
        verdict_pi=commutator_norm <= tol.overlap_tol,
        verdict_pii=product_norm > tol.overlap_tol,
        intersection_dim=common.dimension,
        intersection_basis=common,
        commutator_norm=commutator_norm,
        product_norm=product_norm,
        tolerances_used=tol,
        n_states=len(states),
        pairwise_conjunction=len(states) > 2,
    )


def _pure_support(rho: DensityMatrix, tol: Tolerances) -> Subspace:
    """Support of a rank-1 state; raises NotPure otherwise."""
    support, _ = _split_spectrum(*rho.spectrum, tol)
    if support.dimension != 1:
        raise NotPure(f"state has rank {support.dimension}, expected 1")
    return support


def check_pure_pair(
    a: DensityMatrix, b: DensityMatrix, tol: Tolerances | None = None
) -> bool:
    """Pure-state special case: two rank-1 assignments must be identical.

    True iff the two supports intersect under the rule of :func:`intersect`,
    ``|<psi_a|psi_b>| > 1 - 2 overlap_tol`` (global phase is irrelevant), so
    it agrees with :func:`check_bfm` on rank-1 pairs.
    """
    tol = tol or DEFAULT_TOLERANCES
    _require_equal_dims([a, b])
    return intersect(_pure_support(a, tol), _pure_support(b, tol), tol=tol).dimension > 0


@dataclass(frozen=True)
class NullSpaceLeak:
    """How much of a joint state lives in one observer's null space.

    ``leaked_norm`` is the max-entry norm of the joint state restricted to
    the observer's null space; any zero-probability outcome of the observer
    must stay at zero probability under the joint assignment, so this norm
    must vanish for an admissible joint state.
    """

    observer_index: int
    label: str | None
    null_dim: int
    leaked_norm: float


@dataclass(frozen=True)
class JointConstraintReport:
    """Diagnostics from :func:`verify_joint`.

    ``leakage`` is ``max |(I - P_common) P_joint|``: how far the joint
    support sticks out of the common support intersection.
    """

    leakage: float
    per_observer: tuple[NullSpaceLeak, ...]


def verify_joint(
    joint: DensityMatrix,
    observers: Sequence[DensityMatrix],
    tol: Tolerances | None = None,
) -> tuple[bool, JointConstraintReport]:
    """Check that a pooled state assignment respects every observer.

    Admissible iff the support of ``joint`` lies inside the intersection of
    the observers' supports.  The report also measures, per observer, the
    joint state restricted to that observer's null space.
    """
    tol = tol or DEFAULT_TOLERANCES
    if not observers:
        raise ValueError("verify_joint needs at least one observer state")
    _require_equal_dims([joint, *observers])
    splits = [_split_spectrum(*s.spectrum, tol) for s in observers]
    common = intersect(*(support for support, _ in splits), tol=tol)

    # (I - P_c) P_j = P_j - B_c (B_c^dag P_j): no identity, no D x D x D product
    b_common = common.basis
    p_joint = projector_from(_split_spectrum(*joint.spectrum, tol)[0])
    leakage = max_abs(p_joint - b_common @ (b_common.conj().T @ p_joint))

    leaks = []
    for k, (obs, (_, null)) in enumerate(zip(observers, splits)):
        null_basis = null.basis
        if null_basis.shape[1] == 0:
            restricted = 0.0
        else:
            restricted = max_abs(null_basis.conj().T @ joint.matrix @ null_basis)
        leaks.append(
            NullSpaceLeak(
                observer_index=k,
                label=obs.label,
                null_dim=null_basis.shape[1],
                leaked_norm=restricted,
            )
        )
    report = JointConstraintReport(leakage=leakage, per_observer=tuple(leaks))
    return leakage <= tol.overlap_tol, report
