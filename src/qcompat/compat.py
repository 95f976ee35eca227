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

    Only the evidence is stored; every verdict is derived from it, so no
    stored field can contradict another.  ``verdict_bfm`` holds when the
    intersection basis is nontrivial.  For exactly two states the pairwise
    fields describe that pair; for more states they are the conjunction over
    all pairs (an extension beyond the two-observer criteria, flagged by
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

    intersection_basis: Subspace
    commutator_norm: float
    product_norm: float
    tolerances_used: Tolerances
    n_states: int = 2

    @property
    def intersection_dim(self) -> int:
        return self.intersection_basis.dimension

    @property
    def verdict_bfm(self) -> bool:
        return self.intersection_dim > 0

    @property
    def verdict_pi(self) -> bool:
        return bool(self.commutator_norm <= self.tolerances_used.overlap_tol)

    @property
    def verdict_pii(self) -> bool:
        return bool(self.product_norm > self.tolerances_used.overlap_tol)

    @property
    def pairwise_conjunction(self) -> bool:
        return self.n_states > 2


def _require_equal_dims(states: Sequence[DensityMatrix]) -> int:
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise DimensionMismatch(f"states have differing dimensions {sorted(dims)}")
    return dims.pop()


def _support(state: DensityMatrix, name: str, tol: Tolerances) -> Subspace:
    """Kept support of ``state``; a zero cutoff that empties it raises ValueError."""
    support, _ = _split_spectrum(*state.spectrum, tol)
    if support.dimension == 0:
        top, cutoff = state.spectrum[0][0], tol.eigenvalue_zero_tol
        raise ValueError(f"{name} (label {state.label!r}) has an empty support: its largest "
                         f"eigenvalue {top:.6g} is at or below eigenvalue_zero_tol {cutoff!r}")
    return support


def _common_support(states: Sequence[DensityMatrix], tol: Tolerances) -> Subspace:
    """Intersection of the nonempty supports of ``states``, which share one dimension."""
    _require_equal_dims(states)
    return intersect(*(_support(s, f"state {k}", tol) for k, s in enumerate(states)), tol=tol)


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
    eigenvalues, within the ``delta`` bound of :class:`CompatReport`.  The
    rank is read without a positivity check, so a state built directly as
    :class:`DensityMatrix` with an eigenvalue below ``-eigenvalue_zero_tol``
    raises nothing here, at any D.  Every other pair, among them every pair
    in which both ranks are at least ``D / 2``, is formed densely as
    ``rho_i rho_j`` with ``i`` first in the caller's order, and gets exactly
    those bits.
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
    the one product ``P = rho_a rho_b``.  At ``D >= 32`` a low-rank state
    enters through its kept spectrum, under the ``delta`` bound of
    :class:`CompatReport`, so each fresh state is eigendecomposed once there.
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
    At ``D >= 32`` a low-rank state enters through its kept spectrum, under
    the ``delta`` bound of :class:`CompatReport`, so each fresh state is
    eigendecomposed once there.
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
    common = _common_support(states, tol)
    product_norms, commutator_norms = _pairwise_norms(states, tol)
    return CompatReport(
        intersection_basis=common,
        commutator_norm=float(commutator_norms.max()),
        product_norm=float(product_norms.min()),
        tolerances_used=tol,
        n_states=len(states),
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
    common = _common_support(observers, tol)

    # (I - P_c) P_j = P_j - B_c (B_c^dag P_j): no identity, no D x D x D product
    b_common = common.basis
    p_joint = projector_from(_support(joint, "joint state", tol))
    leakage = max_abs(p_joint - b_common @ (b_common.conj().T @ p_joint))

    leaks = []
    for k, obs in enumerate(observers):
        null = _split_spectrum(*obs.spectrum, tol)[1].basis
        # a trivial null space restricts joint to a (0, 0) block, whose max_abs is 0.0
        leaked = max_abs(null.conj().T @ joint.matrix @ null)
        leaks.append(NullSpaceLeak(k, obs.label, null.shape[1], leaked))
    report = JointConstraintReport(leakage=leakage, per_observer=tuple(leaks))
    return leakage <= tol.overlap_tol, report
