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
    Subspace,
    Tolerances,
    _Split,
    _hermitian_deviation,
    _split_spectrum,
    _tolerances,
    intersect,
    max_abs,
    support_of,  # not called here; bench/tests/test_qbench.py reads it via compat (ROADMAP 0)
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
    ``max |P - P^dag|``, since ``P^dag = rho_b rho_a``.  Only these two
    extremes are computed in full: a commutator pass whose rounding bound,
    just over ``2 max |P|``, cannot raise the maximum is skipped, which
    changes no reported bit (see :func:`_fold_extremes`).  From six states
    at ``D >= 64`` every pair is first formed in complex64, and only the
    pairs whose proven error interval can reach an extreme are formed in
    double (see :func:`_screen`): the reported floats keep their bits.  From
    ``D = 129`` the screen forms a pair of two low-rank states from both kept
    factors; the double pass still multiplies by the dense partner, so this
    changes only which pairs reach it.

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


def _named_splits(states: Sequence[DensityMatrix], tol: Tolerances) -> list[_Split]:
    """One positivity-checked :func:`_split_spectrum` per state, each named for its
    error; the states share one dimension.  Every later reader takes these."""
    _require_equal_dims(states)
    return [_split_spectrum(s.spectrum, tol, f"state {k} (label {s.label!r})")
            for k, s in enumerate(states)]


def _common_support(splits: Sequence[_Split], tol: Tolerances) -> Subspace:
    """Intersection of the supports of the :func:`_named_splits` ``splits``."""
    return intersect(*(split.support for split in splits), tol=tol)


# Bytes of products :func:`_walk` yields at a time.  A chunk is one partner
# from D = 91 up in double and from D = 129 up in complex64.  At (D, n) =
# (64, 32), one BLAS thread: 26.6 ms a call at 256 KiB (4 partners), 27.8 at
# 512 KiB, 27.6 at 1 MiB, 29.6 unchunked.
_CHUNK_BYTES = 256 * 1024
# Smallest D at which a thin factor stands in for a low-rank state.  Below it
# the thin factor's extra array calls cost more than the flops they save: for
# 7 partners the dense product takes 1.7, 4.7 and 11 us at D = 8, 16 and 24,
# the thin one 4.3, 6.3 and 11-15 us (one BLAS thread).
_THIN_MIN_DIM = 32
# Structural, like ``states._CHOLESKY_ERROR_FACTOR``: the skip rule of
# :func:`_fold_extremes`.  With ``u = eps / 2`` and a faithful ``hypot``, each
# computed ``|P_ab - conj(P_ba)|`` is at most ``(|P_ab| + |P_ba|)(1 + u)(1 + 2u)``
# and each exact ``|P_ab|`` at most its computed value over ``1 - 2u``: about
# ``2 (1 + 5u)`` times the computed ``max |P|``.  ``2 (1 + 16u)`` covers that
# and its own rounding even for a ``hypot`` two ulps off.  Below the normal
# range ``hypot`` errs by subnormal steps, not relatively; eight such steps
# cover it.
_COMMUTATOR_SLACK = 2 * (1 + 8 * np.finfo(float).eps)
_COMMUTATOR_FLOOR = 8 * np.finfo(float).smallest_subnormal
# The screen of :func:`_screen` runs from _SCREEN_MIN_STATES states at
# _SCREEN_MIN_DIM up.  In process on sets drawn as the benchmark draws them
# (one BLAS thread, best of 15), the pass took, before -> after: at n = 3 it
# loses at every D ((256, 3) 2.6-4.9 -> 3.4-7.9 ms: two of three pairs are
# formed twice); at D = 64, n = 6 it breaks even (0.61-1.09 -> 0.69-1.05 ms)
# and n = 8 wins (1.12-1.61 -> 1.08-1.32 ms); at D = 48, n = 8 it loses
# (0.66-0.88 -> 0.71-0.88 ms), and D = 32, n = 8 by half again.
_SCREEN_MIN_STATES = 6
_SCREEN_MIN_DIM = 64
# Structural, like ``_COMMUTATOR_SLACK``: the bound of :func:`_screen_error`,
# ``e = (D + k + 4)(4 u L R + (D + k + 4) 4 t (1 + L + R))`` on how far a
# complex64 ``|P_rc|`` lies from the double one.  ``u`` is float32's unit
# roundoff and ``t`` its smallest normal; ``R`` is the partner's spectral
# norm, ``L`` the left state's (dense, ``k = 0``) or ``g = max_r sum_m
# |V_rm| lambda_m`` (thin, ``k`` its rank).  With ``||lambda||_2`` the vector
# 2-norm of the kept eigenvalues, ``g <= ||lambda||_2 <= sqrt(k) lambda_max``
# (Cauchy-Schwarz over a row of ``V``, whose norm is at most 1); ``g`` may
# exceed ``lambda_max``, the spectral norm, by up to ``sqrt(k)``.  Over a row
# of ``rho_i`` (or of ``V``, each ``m`` weighted by ``lambda_m`` and a unit
# column of ``V``) and a column of ``rho_j``, the magnitudes of the summands
# of each ``P_rc`` add up to at most ``L R``.  Each
# cast errs by ``u``, a product of inner length ``m`` by ``sqrt(2) gamma_2m``
# in any summation order (each real part is a real dot product of ``2 m``
# terms; Higham 2002, sections 3.5-3.6), and the float32 ``hypot`` by about
# ``u``: ``(2 sqrt(2)(D + k) + 5) u L R`` in all.  ``4 (D + k + 4) u L R``
# covers that 1.4 times over, with room for the double product's own
# rounding and for the spectrum's, about ``D eps`` relative.  A commutator
# entry reads two product entries and rounds once more, so it stays within
# ``2 e``.  Below the normal range each float32 operation errs by up to ``t``
# instead, whether it underflows gradually or flushes to zero: ``sqrt(2 D)``
# such errors times a norm per cast, ``2 (D + k)`` per product, and
# ``sqrt(k)`` times those of a thin state's first product in its second.  The
# second term covers them.
#
# A pair of thin states formed from both kept factors (:func:`_walk`),
# ``V_a ((Lambda_a V_a^dag V_b Lambda_b) V_b^dag)``, has its ``e`` from
# :func:`_thin_pair_error`.  The summands of an entry of the core
# ``Lambda_a V_a^dag V_b`` add up to at most ``lambda_a`` (unit columns), and
# their error reaches ``P_rc`` weighted by ``|V_a,rm| lambda_am`` and
# ``lambda_bj |V_b,cj|``: within ``g_a g_b`` times it, with no orthogonality
# left to shrink it.  With two casts that is the first term,
# ``4 (D + 4) u g_a g_b``.
# A row ``m`` of ``Lambda_a V_a^dag V_b Lambda_b`` has norm at most
# ``lambda_am lambda_max_b`` (orthonormal ``V_b``), so the products of inner
# lengths ``k_b`` and ``k_a``, the casts of ``V_a``, ``V_b`` and ``Lambda_b``,
# the scaling and the hypot (``(2 sqrt(2)(k_a + k_b) + 5) u g_a R``) stay
# within ``4 (k_a + k_b + 4) u g_a R``.  That ``R`` is the partner's spectral
# norm plus ``delta_b``, its largest dropped eigenvalue magnitude: the double
# pass multiplies by the dense ``rho_b``, whose dropped part moves an entry of
# ``rho_a rho_b`` by up to ``g_a delta_b``, which is added, and the double
# rounding (``D^1.5 eps g_a ||rho_b||_2``, as ``lambda_max_a <= sqrt(D) g_a``:
# its top eigenvector has an entry of magnitude at least ``1 / sqrt(D)``)
# fits in the room left for ``D`` below 10^5.  Underflow errors still count
# one per operation, ``2 D`` per core entry, reaching ``P`` times at most
# ``sqrt(k_a) g_b``, and each later product's times at most ``sqrt(k_a k_b)``
# and a norm: the floor term of width ``D + k_a + k_b + 4`` covers them.
_SCREEN_SLACK = 4 * np.finfo(np.float32).eps / 2
_SCREEN_FLOOR = 4 * np.finfo(np.float32).tiny


def _fold_extremes(p: np.ndarray, product, commutator):
    """Fold the product stack ``p`` into the running ``(min max |P|, max max |P - P^dag|)``.

    The commutator pass runs only when ``_COMMUTATOR_SLACK`` times the stack's
    largest ``max |P|``, plus ``_COMMUTATOR_FLOOR``, exceeds ``commutator``,
    since no computed ``|P - P^dag|`` entry exceeds that bound.  An all-zero
    stack deviates by exactly 0; an infinite maximum bounds no NaN, and
    ``np.minimum`` and ``np.maximum`` keep one, as a reduction over every pair does.
    """
    tops = np.abs(p).max(axis=(1, 2))
    top = tops.max()
    if not (top == 0 or _COMMUTATOR_SLACK * top + _COMMUTATOR_FLOOR <= commutator < np.inf):
        commutator = np.maximum(commutator, _hermitian_deviation(p).max())
    return np.minimum(product, tops.min()), commutator


def _factor(left, dtype):
    """A left state's factor in ``dtype``: ``rho_i`` itself, or ``(V, Lambda V^dag)``
    from a thin state's split."""
    if isinstance(left, np.ndarray):
        return np.asarray(left, dtype)
    v = left.support.basis
    return np.asarray(v, dtype), np.asarray(left.kept[:, None] * v.conj().T, dtype)


def _walk(lefts, mats, dtype, keep=None):
    """Yield ``(pos, cols, P, both)``: the products ``lefts[pos] mats[cols]`` in
    ``dtype``, each left a matrix or a thin state's split, each its own GEMM, and
    whether that chunk was formed from both kept factors (below).

    With ``keep`` None every pair ``pos < j`` is formed, ``_CHUNK_BYTES`` of
    products (at least one partner) at a time, so a caller reduces them while
    they are in cache and holds one chunk, not O(n D^2).  Where a chunk holds
    several partners every state is cast once into one ``dtype`` stack; else
    each partner's own matrix is read, so no copy of every state is held.
    With ``keep`` only the pairs ``keep[pos, j]`` are formed, one partner at a
    time.  A factor is formed for one left state at a time, and only for a
    left state with a partner (the last position has none).

    In complex64, where a chunk is one partner, a thin left's pair with a
    thin partner (``lefts[j]`` a split too) is formed from both kept factors,
    ``V_a ((Lambda_a V_a^dag V_b Lambda_b) V_b^dag)``: the partner's
    ``D x k_b`` basis is cast per pair in place of its ``D x D`` matrix, and
    no stack of factors is held.  This is the one place that route is decided:
    ``both`` is True exactly for those chunks.
    """
    n, dim = len(mats), mats[0].shape[0]
    step = max(1, _CHUNK_BYTES // (np.dtype(dtype).itemsize * dim * dim))
    stack = np.array(mats, dtype=dtype) if keep is None and step > 1 else None
    two_sided = step == 1 and np.dtype(dtype) == np.complex64
    for pos, left in enumerate(lefts):
        if keep is None:
            chunks = [slice(lo, min(lo + step, n)) for lo in range(pos + 1, n, step)]
        else:
            chunks = [slice(j, j + 1) for j in np.flatnonzero(keep[pos])]
        factor = _factor(left, dtype) if chunks else None
        for cols in chunks:
            right = lefts[cols.start] if two_sided and isinstance(factor, tuple) else None
            if isinstance(right, _Split):  # both thin
                v = np.asarray(right.support.basis, dtype)
                core = (factor[1] @ v) * np.asarray(right.kept, dtype)
                yield pos, cols, (factor[0] @ (core @ v.conj().T))[None], True
            else:
                chunk = np.asarray(mats[cols.start], dtype)[None] if stack is None else stack[cols]
                yield pos, cols, (factor @ chunk if isinstance(factor, np.ndarray)
                                  else factor[0] @ (factor[1] @ chunk)), False


def _screen_error(dim: int, k, left, right):
    """``e``: how far a complex64 ``|P_rc|`` may lie from the double one, for a left
    state's ``L`` and a partner's ``R`` (see ``_SCREEN_SLACK``)."""
    width = dim + k + 4
    return width * (_SCREEN_SLACK * left * right + width * _SCREEN_FLOOR * (1 + left + right))


def _thin_pair_error(dim: int, k_a, k_b, g_a, g_b, norm_b, delta_b):
    """``e`` of a pair of thin states formed from both kept factors, for their ranks
    and ``g``, the partner's spectral norm and its largest dropped eigenvalue
    magnitude ``delta_b`` (see ``_SCREEN_SLACK``): the core, the rest, the
    underflow floor, and the dropped part of the dense ``rho_b``."""
    core, right, width = dim + 4, norm_b + delta_b, dim + k_a + k_b + 4
    return (_SCREEN_SLACK * g_a * (core * g_b + (k_a + k_b + 4) * right)
            + width * width * _SCREEN_FLOOR * (1 + g_a + g_b + right) + g_a * delta_b)


def _screen(lefts, mats, sizes: np.ndarray) -> np.ndarray | None:
    """The pairs that can set an extreme: ``keep[pos, j]`` for ``lefts[pos] mats[j]``,
    each left a matrix or a thin state's split, as :func:`_factor` reads it.

    ``sizes`` holds, per position, ``(k, L, R, delta)``: ``(k, L, R)`` of
    :func:`_screen_error` (a thin state's ``L`` is its ``g``) and ``delta``, the
    largest dropped eigenvalue magnitude (0 for a dense state).  Each pair is
    formed once in complex64, in its double orientation, and its ``e`` is
    :func:`_thin_pair_error`'s where :func:`_walk` flags the chunk as formed
    from both kept factors, :func:`_screen_error`'s elsewhere.
    Its screened ``max |P|`` and ``max |P - P^dag|`` bound the double norms
    to ``[s - e, s + e]`` and ``[c - 2 e, c + 2 e]``.  A pair is kept when its
    product interval reaches the smallest upper end, or its commutator
    interval the largest lower end; no other pair can hold an extreme.  A
    commutator pass whose cap, ``_COMMUTATOR_SLACK`` times the largest
    ``s + e`` of the chunk (plus ``_COMMUTATOR_FLOOR``), lies below the
    largest lower end so far is skipped, and that cap stands as the upper end.
    None when a norm reaches float32's range, so that an entry might not
    cast, or when a screened value or bound is not finite.
    """
    n, dim = len(mats), mats[0].shape[0]
    k, left_norms, norms, delta = sizes.T
    if not norms.max() < np.finfo(np.float32).max:
        return None
    bound = _screen_error(dim, k[:, None], left_norms[:, None], norms)
    thin_pair = _thin_pair_error(dim, k[:, None], k, left_norms[:, None], left_norms, norms, delta)
    low, high = np.zeros((2, 2, n, n))  # [product, commutator] per pair
    best = -np.inf  # the largest commutator lower end so far
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value below
        for pos, cols, p, both in _walk(lefts, mats, np.complex64):
            pairs = (pos, cols)
            e = (thin_pair if both else bound)[pairs]
            tops = np.abs(p).max(axis=(1, 2))
            low[0][pairs], high[0][pairs] = tops - e, tops + e
            cap = _COMMUTATOR_SLACK * (tops + e) + _COMMUTATOR_FLOOR
            if tops.max() > 0 and not cap.max() < best:
                dev = _hermitian_deviation(p)
                low[1][pairs], high[1][pairs] = dev - 2 * e, dev + 2 * e
                best = max(best, low[1][pairs].max())
            else:  # the lower end stays 0, below every double norm
                high[1][pairs] = cap
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    low, high = low[:, upper], high[:, upper]
    if not (np.isfinite(low).all() and np.isfinite(high).all()):
        return None
    keep = np.zeros((n, n), dtype=bool)
    keep[upper] = (low[0] <= high[0].min()) | (high[1] >= low[1].max())
    return keep


def _pairwise_norms(
    states: Sequence[DensityMatrix], tol: Tolerances | None = None, splits=None
) -> tuple[float, float]:
    """``(min max |P|, max max |P - P^dag|)`` over the pairs of ``states``.

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
    those bits.  ``splits``, one :func:`_split_spectrum` per state, saves
    splitting them again.  The products come from :func:`_walk`, and only
    the two extremes are computed in full: every product gets its
    ``max |P|`` pass, but :func:`_fold_extremes` skips each commutator pass
    that cannot raise the maximum, so both are the floats a pass over every pair gives.

    From ``_SCREEN_MIN_STATES`` states at ``_SCREEN_MIN_DIM`` up, :func:`_screen`
    first forms every pair in complex64, in the orientation above, and bounds
    each double norm within ``e`` of its screened value (``2 e`` for the
    commutator; ``e`` from ``_SCREEN_SLACK``).  Only the pairs that can hold
    the smallest product or the largest commutator are then formed in double,
    each as its own GEMM: the two floats keep their bits.  Where a chunk is
    one partner (``D >= 129``), the screen forms a pair of two thin states as
    ``V_a ((Lambda_a V_a^dag V_b Lambda_b) V_b^dag)``, casting the partner's
    ``D x k_b`` basis instead of its ``D x D`` matrix, under the bound of
    :func:`_thin_pair_error`.  Where a norm reaches float32's range, or a
    screened value or bound is not finite, every pair is formed in double as
    without the screen.
    """
    tol = _tolerances(tol)
    n, dim = len(states), states[0].dim
    ranks = [dim] * n
    if dim >= _THIN_MIN_DIM:  # from here a rank below D / 2 lets the kept factor stand in
        splits = splits or [_split_spectrum(s.spectrum, tol, psd=False) for s in states]
        ranks = [split.rank if 2 * split.rank < dim else dim for split in splits]
    # thin states by rank (stable), then the dense ones in the caller's
    # order: no partner after a left state has a smaller rank
    order = sorted(range(n), key=ranks.__getitem__)
    mats = [states[i].matrix for i in order]
    lefts = [mats[pos] if ranks[i] == dim else splits[i] for pos, i in enumerate(order)]
    keep = None  # every pair
    if n >= _SCREEN_MIN_STATES and dim >= _SCREEN_MIN_DIM:
        sizes = []  # (k, L, R, delta) of _screen per position
        for i in order:
            values = states[i].spectrum[0]
            norm = max(values[0], -values[-1])
            if ranks[i] < dim:  # L = g = max_r sum_m |V_rm| lambda_m
                split = splits[i]
                g = (np.abs(split.support.basis) @ split.kept).max()
                sizes.append((split.rank, g, norm, np.abs(values[split.rank:]).max()))
            else:
                sizes.append((0, norm, norm, 0))
        keep = _screen(lefts, mats, np.array(sizes))
    product, commutator = np.inf, 0.0
    for _, _, p, _ in _walk(lefts, mats, complex, keep):
        product, commutator = _fold_extremes(p, product, commutator)
    return float(product), float(commutator)


def _pair_norms(a: DensityMatrix, b: DensityMatrix, tol: Tolerances | None):
    """``(tol, product, commutator)``: the tolerances in force and one pair's
    :func:`_pairwise_norms`, after :func:`_require_equal_dims`."""
    tol = _tolerances(tol)
    _require_equal_dims([a, b])
    return tol, *_pairwise_norms([a, b], tol)


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
    tol, _, norm = _pair_norms(a, b, tol)
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
    tol, norm, _ = _pair_norms(a, b, tol)
    return norm > tol.overlap_tol, norm


def check_bfm(
    states: Sequence[DensityMatrix], tol: Tolerances | None = None
) -> CompatReport:
    """Support-intersection compatibility for two or more assignments.

    The verdict is positive iff the supports of all states share at least
    one direction.  The returned basis spans the full intersection, so
    ``intersection_dim`` doubles as the dimension budget any pooled joint
    state's support must fit inside.  Only the two pairwise extremes are
    computed, each bit for bit the extreme of the per-pair :func:`check_pii`
    and :func:`check_pi` norms; from six states at ``D >= 64`` a complex64
    screen leaves only the pairs that can set one to be formed in double.
    Each state's spectrum is split once, named and positivity-checked, and
    both the intersection and the pairwise pass read that split.
    """
    tol = _tolerances(tol)
    if len(states) < 2:
        raise FewerThanTwoStates(
            f"compatibility needs at least two state assignments, got {len(states)}"
        )
    splits = _named_splits(states, tol)
    common = _common_support(splits, tol)
    product_norm, commutator_norm = _pairwise_norms(states, tol, splits)
    return CompatReport(
        intersection_basis=common,
        commutator_norm=commutator_norm,
        product_norm=product_norm,
        tolerances_used=tol,
        n_states=len(states),
    )


def check_pure_pair(
    a: DensityMatrix, b: DensityMatrix, tol: Tolerances | None = None
) -> bool:
    """Pure-state special case: two rank-1 assignments must be identical.

    True iff the two supports intersect under the rule of :func:`intersect`,
    ``|<psi_a|psi_b>| > 1 - 2 overlap_tol`` (global phase is irrelevant), so
    it agrees with :func:`check_bfm` on rank-1 pairs.  A cutoff that empties
    a support raises ValueError naming the state, as :func:`check_bfm` does;
    both states are split before either rank is checked.
    """
    tol = _tolerances(tol)
    splits = _named_splits([a, b], tol)
    for split in splits:
        if split.rank != 1:
            raise NotPure(f"state has rank {split.rank}, expected 1")
    return _common_support(splits, tol).dimension > 0


@dataclass(frozen=True)
class NullSpaceLeak:
    """How much of a joint state lives in one observer's null space.

    ``leaked_norm`` is the max-entry norm of the joint state restricted to
    the observer's null space; any zero-probability outcome of the observer
    must stay at zero probability under the joint assignment, so this norm
    must vanish for an admissible joint state.  It is read from the joint's
    kept spectrum, so it lies within ``delta_J`` (the largest eigenvalue magnitude
    at or below ``eigenvalue_zero_tol``, 0 if none) of the dense ``max |N^dag J N|``.
    That block is positive semidefinite, so its largest entry is its largest
    diagonal entry, and only the diagonal is formed.
    """

    observer_index: int
    label: str | None
    null_dim: int
    leaked_norm: float


@dataclass(frozen=True)
class JointConstraintReport:
    """Diagnostics from :func:`verify_joint`.

    ``leakage`` is ``max |(I - P_common) P_joint|``: how far the joint
    support sticks out of the common support intersection, and alone decides
    the verdict; each ``leaked_norm`` is within ``delta_J`` of the dense one.
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
    joint state restricted to that observer's null space.  Both read the
    joint's kept spectrum ``W Lambda W^dag``: no D x D x D product is formed.
    """
    tol = _tolerances(tol)
    if not observers:
        raise ValueError("verify_joint needs at least one observer state")
    _require_equal_dims([joint, *observers])
    splits = _named_splits(observers, tol)
    b_common = _common_support(splits, tol).basis

    # (I - P_c) P_j = (W - B_c (B_c^dag W)) W^dag, with P_j = W W^dag
    split = _split_spectrum(joint.spectrum, tol, f"joint state (label {joint.label!r})")
    w, kept = split.support.basis, split.kept
    leakage = max_abs((w - b_common @ (b_common.conj().T @ w)) @ w.conj().T)

    leaks = []
    for k, (obs, obs_split) in enumerate(zip(observers, splits)):
        null = obs_split.null.basis
        # N^dag J N within delta_J is the PSD block x Lambda x^dag, whose largest
        # entry lies on its diagonal (|M_rc|^2 <= M_rr M_cc); a trivial null space reads 0.0
        x = null.conj().T @ w
        leaked = float(np.max((x.real**2 + x.imag**2) @ kept, initial=0.0))
        leaks.append(NullSpaceLeak(k, obs.label, null.shape[1], leaked))
    report = JointConstraintReport(leakage=leakage, per_observer=tuple(leaks))
    return leakage <= tol.overlap_tol, report
