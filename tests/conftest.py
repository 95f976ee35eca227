"""Shared random-state generators for the test suite.

Density matrices are drawn as ``G G^dag / tr(G G^dag)`` with complex
Gaussian ``G`` of chosen rank.  Support eigenvalues get a floor so the PSD
boundary and product norms stay well separated from the tolerances under
test; every generator takes an explicit ``numpy.random.Generator`` so runs
are reproducible from seeds.

:func:`spy` is the one recorder the tests count the library's work with.
"""

from __future__ import annotations

import sys
from itertools import combinations

import numpy as np

from qcompat import (
    DensityMatrix,
    PureState,
    Tolerances,
    check_bfm,
    check_pi,
    check_pii,
    validate_density,
)


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


def random_density_exact(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityMatrix:
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
