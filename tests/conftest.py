"""Shared inputs, oracles and settings of the test suite; each has one
definition here, and no test module imports another.

Density matrices are drawn as ``G G^dag / tr(G G^dag)`` with complex
Gaussian ``G`` of chosen rank.  Support eigenvalues get a floor so the PSD
boundary and product norms stay well separated from the tolerances under
test; every generator takes an explicit ``numpy.random.Generator`` so runs
are reproducible from seeds.

* Every property test runs under the one hypothesis profile loaded below:
  derandomized, with no example database and no deadline, so each run draws
  the same examples.  A test's ``@settings`` states only its ``max_examples``.
* :func:`golden_pair` is the paper-style pair, :func:`golden_witness_document`
  its witness file, and :func:`write_state` the one matrix-file writer.
* :func:`planted_set` is the one group of states whose supports share a
  planted subspace ``C``, each ``C (+) W_k``; a test that needs the bare
  supports splits those states' spectra.
* :func:`spy` is the one recorder the tests count the library's work with.
"""

from __future__ import annotations

import sys
from itertools import combinations
from pathlib import Path

import numpy as np
from hypothesis import settings

import qcompat.compat as compat
from qcompat import (
    DensityMatrix,
    PureState,
    Subspace,
    Tolerances,
    build_shared_decomposition,
    build_witness,
    check_bfm,
    check_pi,
    check_pii,
    projector_from,
    validate_density,
)
from qcompat.formats import report_document, serialize_matrix
from qcompat.linalg import _BLOCK

DATA = Path(__file__).parent / "data"
BIG = "1" + "0" * 400  # the integer 10**400, beyond the range of a double

settings.register_profile("qcompat", deadline=None, derandomize=True, database=None)
settings.load_profile("qcompat")


def spy(monkeypatch, fn, *owners, keep=lambda a, *args, **kwargs: getattr(a, "shape", None)):
    """Patch ``fn`` in each of ``owners`` (with none, in every loaded ``qcompat``
    module that binds it) to append ``keep(*args, **kwargs)`` to the returned
    list before each call runs, so a call that raises still counts.  By
    default ``keep`` records the first operand's shape, None if it has none."""
    name = fn.__name__
    if not owners:
        owners = [module for key, module in sorted(sys.modules.items())
                  if key.partition(".")[0] == "qcompat" and vars(module).get(name) is fn]
    assert owners and all(getattr(owner, name) is fn for owner in owners)
    calls = []

    def recorded(*args, **kwargs):
        calls.append(keep(*args, **kwargs))
        return fn(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, recorded)
    return calls


def random_pure(rng: np.random.Generator, dim: int) -> PureState:
    """Haar-random pure state."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityMatrix:
    """Random density matrix of the requested rank."""
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real)


def random_density_conditioned(
    rng: np.random.Generator, dim: int, rank: int | None = None
) -> DensityMatrix:
    """Random density matrix whose support eigenvalues are bounded away from 0."""
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    frame = random_unitary(rng, dim)[:, :rank]
    weights = rng.uniform(0.1, 1.1, size=rank)
    weights /= weights.sum()
    m = (frame * weights) @ frame.conj().T
    return validate_density(m / np.trace(m).real)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_subspace(rng: np.random.Generator, dim: int, k: int) -> np.ndarray:
    """Orthonormal (dim, k) frame, uniformly random."""
    return random_unitary(rng, dim)[:, :k]


def compatible_pair(
    rng: np.random.Generator, dim: int, weight_floor: float = 0.2
) -> tuple[DensityMatrix, DensityMatrix, PureState]:
    """Two states built by mixing a shared pure state into random ensembles.

    The shared state enters each mixture with weight at least
    ``weight_floor``, so the pair is compatible by construction and the
    common direction carries substantial probability in both.
    """
    chi = random_pure(rng, dim)
    states = []
    for _ in range(2):
        p = float(rng.uniform(weight_floor, 0.8))
        background = random_density_conditioned(rng, dim).matrix
        m = p * chi.projector() + (1.0 - p) * background
        states.append(validate_density(m / np.trace(m).real))
    return states[0], states[1], chi


def random_density_exact(
    rng: np.random.Generator, dim: int, rank: int | None = None
) -> DensityMatrix:
    """Random density matrix that equals its conjugate transpose bit for bit."""
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return validate_density(m / np.trace(m).real)


def product_rounding(dim: int) -> float:
    """Bound on how far two computed orderings of a product of density matrices
    may differ entrywise, e.g. ``b @ a`` against ``(a @ b)^dag``.

    Each is within ``sqrt(2) (dim + 2) eps / 2`` times ``(|b| |a|)_ij`` of the
    exact product, and ``(|b| |a|)_ij <= 1`` because the rows of a unit-trace
    PSD matrix have norm at most 1.
    """
    return 2 * (dim + 2) * np.finfo(float).eps


def delta_bound(a: DensityMatrix, b: DensityMatrix, tol: Tolerances | None = None) -> float:
    """How far a pair's product norm may move when a state's kept factor stands
    in for it: ``delta_a lambda_max_b + delta_b lambda_max_a + delta_a delta_b``.

    ``delta`` is the largest eigenvalue magnitude the support split at
    ``eigenvalue_zero_tol`` drops (0 when none is), ``lambda_max`` the largest
    eigenvalue.  The commutator norm may move twice as far.
    """
    cutoff = (tol or Tolerances()).eigenvalue_zero_tol
    (da, la), (db, lb) = (
        (float(np.abs(v[v <= cutoff]).max(initial=0.0)), float(v[0]))
        for v in (a.spectrum[0], b.spectrum[0])
    )
    return da * lb + db * la + da * db


def product_bound(a: DensityMatrix, b: DensityMatrix, tol: Tolerances | None = None) -> float:
    """Allowed gap between a pair's computed product norm and the dense
    ``max |h_a h_b|``: 0 below ``D = 32`` or when both ranks are at least
    ``D / 2`` (that pair is formed densely, bit for bit), else
    :func:`delta_bound` plus :func:`product_rounding`."""
    if a.dim < 32:  # the documented floor of the thin factor
        return 0.0
    cutoff = (tol or Tolerances()).eigenvalue_zero_tol
    if all(2 * np.count_nonzero(s.spectrum[0] > cutoff) >= s.dim for s in (a, b)):
        return 0.0
    return delta_bound(a, b, tol) + product_rounding(a.dim)


def per_pair_norms(states, tol: Tolerances | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(product norms, commutator norms)`` of every pair, in ``combinations``
    order, from :func:`check_pii` and :func:`check_pi` on that pair alone.

    Each call forms the pair as the n-state pass of :func:`check_bfm` does
    (the smaller rank, then the earlier state, on the left), so these are the
    bits that pass reduces.  Also asserts that :func:`check_bfm` reports their
    minimum and maximum, bit for bit.
    """
    pairs = list(combinations(states, 2))
    products = np.array([check_pii(a, b, tol)[1] for a, b in pairs])
    commutators = np.array([check_pi(a, b, tol)[1] for a, b in pairs])
    report = check_bfm(states, tol)
    assert np.float64(report.product_norm).tobytes() == products.min().tobytes()
    assert np.float64(report.commutator_norm).tobytes() == commutators.max().tobytes()
    return products, commutators


def full_rank_pair(rng: np.random.Generator, dim: int) -> tuple[DensityMatrix, DensityMatrix]:
    """Compatible pair of full-rank states, so the witness is dim x dim x dim."""
    chi = random_pure(rng, dim).projector()
    a, b = (
        validate_density(0.3 * chi + 0.7 * random_density_conditioned(rng, dim, dim).matrix)
        for _ in range(2)
    )
    return a, b


def cutoff_mass_pair(
    rng: np.random.Generator, dim: int = 64
) -> tuple[DensityMatrix, DensityMatrix, float]:
    """A state with eigenvalues proportional to ``exp(-k/2)``, paired with the pure
    state on its top eigenvector, and the mass its zero cutoff drops.

    At ``dim = 64`` the eigenvalues at or below the default cutoff 1e-9 (k >= 40)
    sum to 2.06e-9, more than ``WEIGHT_TOL``: weights read from the kept
    eigenvalues as they are sum to 1 - 2.06e-9.
    """
    frame = random_unitary(rng, dim)
    weights = np.exp(-np.arange(dim) / 2)
    weights /= weights.sum()
    m = (frame * weights) @ frame.conj().T
    top = np.outer(frame[:, 0], frame[:, 0].conj())
    a, b = (validate_density((x + x.conj().T) / 2) for x in (m, top))
    return a, b, float(weights[weights <= Tolerances().eigenvalue_zero_tol].sum())


# ---------------------------------------------------------------------------
# fixed inputs


def golden_pair() -> tuple[DensityMatrix, DensityMatrix]:
    """The pure ``|0><0|`` (label A) against ``[[3/4, 1/4], [1/4, 1/4]]`` (label B),
    the even mixture of ``|0>`` and ``|+>``.

    The pair commutes nowhere (commutator norm 1/4 by hand) yet shares the
    first basis direction, so it is compatible with intersection span{e0}.
    """
    return (
        validate_density(np.diag([1.0, 0.0]), label="A"),
        validate_density(np.array([[0.75, 0.25], [0.25, 0.25]]), label="B"),
    )


def golden_witness_document() -> dict:
    """The witness document of :func:`golden_pair`, as the writer builds it:
    D = 2, an intersection of dimension 1, chi = |0>, no rest_a term, one
    rest_b term."""
    a, b = golden_pair()
    d = build_shared_decomposition(a, b)
    return report_document(check_bfm([a, b]), ["A", "B"], d, build_witness(d))


def write_state(path, matrix, label=None) -> str:
    """Write ``matrix`` as a matrix file at ``path``; returns the path as a string."""
    path.write_text(serialize_matrix(matrix, label=label))
    return str(path)


# ---------------------------------------------------------------------------
# planted supports


def planted_set(rng: np.random.Generator, dim: int, common: int, extras) -> tuple[list, Subspace]:
    """States whose supports share a planted subspace ``C``, and ``C``.

    ``C`` is a random ``common``-dimensional subspace; the support of state
    ``k`` is ``C (+) W_k``, ``W_k`` a random ``extras[k]``-dimensional subspace
    of C's complement, with eigenvalues drawn from [0.1, 1.1) before the trace
    is normalized.  Any two ``W_k`` fit together in that complement, so
    generically they meet only at zero and the supports share exactly ``C``.
    """
    frame = random_unitary(rng, dim)
    shared, complement = frame[:, :common], frame[:, common:]
    states = []
    for extra in extras:
        basis = np.column_stack([shared, complement @ random_subspace(rng, dim - common, extra)])
        weights = rng.uniform(0.1, 1.1, size=basis.shape[1])
        m = (basis * weights) @ basis.conj().T
        states.append(validate_density(m / np.trace(m).real))
    return states, Subspace(dim, shared)


def mixed_ranks(rng: np.random.Generator, dim: int, n: int) -> list[DensityMatrix]:
    """``n`` states, thin (rank below ``D / 2``) and dense by turns, ranks drawn."""
    half = max(1, dim // 2)
    return [
        random_density_exact(rng, dim, int(rng.integers(1, half) if k % 2 and half > 1
                                           else rng.integers(half, dim + 1)))
        for k in range(n)
    ]


# ---------------------------------------------------------------------------
# oracles


def intersection_via_complement_nullspace(a: Subspace, b: Subspace) -> Subspace:
    """Independent oracle: null space of (I - P_a) + (I - P_b), via SVD."""
    dim = a.ambient_dim
    eye = np.eye(dim, dtype=complex)
    m = (eye - projector_from(a)) + (eye - projector_from(b))
    _, s, vh = np.linalg.svd(m)
    null_mask = s <= 1e-7
    return Subspace(dim, vh[null_mask].conj().T)


def psd_weight_by_bisection(rho, chi, floor=-1e-9, steps=60):
    """Oracle: largest weight keeping rho - p |chi><chi| PSD, by bisection."""
    proj = chi.projector()

    def is_psd(p):
        return np.linalg.eigvalsh(rho.matrix - p * proj)[0] >= floor

    lo, hi = 0.0, 1.0
    if is_psd(hi):
        return hi
    for _ in range(steps):
        mid = (lo + hi) / 2
        if is_psd(mid):
            lo = mid
        else:
            hi = mid
    return lo


def whole_stack_deviation(p):
    """``max |P - P^dag|`` of each product in the stack ``p``, block by block."""
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


def whole_stack_norms(states, tol=None):
    """Oracle of the pairwise pass: each left state forms the whole stack of
    its products with its later partners, and every pair's norms are kept.
    Returns ``(product norms, commutator norms)`` in ``combinations`` order."""
    tol = tol or Tolerances()
    n, dim = len(states), states[0].dim
    ranks = [dim] * n
    if dim >= 32:
        for i, s in enumerate(states):
            k = int(np.count_nonzero(s.spectrum[0] > tol.eigenvalue_zero_tol))
            ranks[i] = k if 2 * k < dim else dim
    order = sorted(range(n), key=ranks.__getitem__)
    m = np.stack([states[i].matrix for i in order])
    norms = np.zeros((2, n, n))
    caller = np.array(order)
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
        norms[1, i, partners] = whole_stack_deviation(p)
    products, commutators = norms + norms.transpose(0, 2, 1)
    r = np.arange(n)
    upper = r[:, None] < r
    return products[upper], commutators[upper]


def assert_oracle_extremes(states, tol=None):
    """The pairwise pass reports :func:`whole_stack_norms`' smallest product
    norm and largest commutator norm, bit for bit."""
    products, commutators = whole_stack_norms(states, tol)
    got = np.array(compat._pairwise_norms(states, tol))
    assert got.tobytes() == np.array([products.min(), commutators.max()]).tobytes()


def recording_walk(monkeypatch):
    """Wrap the product walker; the returned list collects ``(dtype, pos, partners)``
    per chunk it yields, ``partners`` the positions its products pair ``pos`` with."""
    seen = []
    original = compat._walk

    def recorded(lefts, mats, dtype, keep=None):
        for pos, cols, p, both in original(lefts, mats, dtype, keep):
            partners = list(range(len(mats))[cols])
            assert p.dtype == dtype and p.shape == (len(partners),) + mats[0].shape
            seen.append((np.dtype(dtype), pos, partners))
            yield pos, cols, p, both

    monkeypatch.setattr(compat, "_walk", recorded)
    return seen


def walked_pairs(seen, dtype):
    """The ``(pos, j)`` pairs the walker formed in ``dtype``, in the order formed."""
    return [(pos, j) for kind, pos, partners in seen if kind == dtype for j in partners]
