"""Seeded input generators with planted answers (numpy only).

Every generator takes a ``numpy.random.Generator``; the same seed gives the
same matrices bit for bit.  The answer each operation must reproduce is
planted by construction (a common subspace, orthogonal supports, a vector in
an observer's null space) and a margin check redraws the rare sample whose
answer would sit near a tolerance, so a correct library never fails on these
inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Largest cosine allowed between the parts of two supports that are not
# planted to coincide.  The library's intersection threshold corresponds to a
# cosine of about 1 - 2e-7, so 0.99 leaves a wide margin either way.
MARGIN_COS = 0.99
# Weight of the null-space direction mixed into a leaking joint state.
LEAK_WEIGHT = 0.3
_MAX_DRAWS = 1000


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a complex Gaussian."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _hermitian(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def state_on(rng: np.random.Generator, frame: np.ndarray) -> np.ndarray:
    """Density matrix whose support is exactly ``span(frame)``.

    ``frame`` has orthonormal columns.  Eigenvalues are drawn from
    ``[0.1, 1.1]`` and normalized, so the smallest one stays far above the
    library's zero cutoff even at rank 256.
    """
    w = rng.uniform(0.1, 1.1, size=frame.shape[1])
    w /= w.sum()
    return _hermitian((frame * w) @ frame.conj().T)


def _max_cos(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the smallest principal angle between two orthonormal frames."""
    return float(np.linalg.svd(a.conj().T @ b, compute_uv=False).max())


@dataclass(frozen=True)
class ObserverSet:
    """Observer states with the answer ``check_bfm`` must give.

    ``common`` is an orthonormal basis of the planted support intersection,
    shape ``(D, 0)`` when the set is incompatible.  ``nulls[k]`` is an
    orthonormal basis of part of observer ``k``'s null space.
    """

    matrices: tuple[np.ndarray, ...]
    common: np.ndarray
    nulls: tuple[np.ndarray, ...]

    @property
    def compatible(self) -> bool:
        return self.common.shape[1] > 0


def compatible_set(rng: np.random.Generator, dim: int, n: int, common_dim: int) -> ObserverSet:
    """``n`` observers whose supports share exactly a planted subspace.

    Each support is the planted subspace C plus a random subspace of C's
    complement of dimension at most ``(D - c) // 2``.  Any two such extras
    then fit side by side in the complement, so their generic intersection is
    zero and the intersection of all supports is exactly C.  The first two
    extras, which the library intersects first, are redrawn until their
    smallest principal angle is wide.
    """
    half = (dim - common_dim) // 2
    if half < 1:
        raise ValueError(f"no room for extra support directions at D={dim}, c={common_dim}")
    for _ in range(_MAX_DRAWS):
        u = haar_unitary(rng, dim)
        common, rest = u[:, :common_dim], u[:, common_dim:]
        extras, nulls = [], []
        for _ in range(n):
            r = int(rng.integers(1, half + 1))
            v = rest @ haar_unitary(rng, dim - common_dim)
            extras.append(v[:, :r])
            nulls.append(v[:, r:])
        if _max_cos(extras[0], extras[1]) < MARGIN_COS:
            matrices = tuple(
                state_on(rng, np.hstack([common, extra])) for extra in extras
            )
            return ObserverSet(matrices, common, tuple(nulls))
    raise RuntimeError("could not draw a compatible set with a wide margin")


def incompatible_set(rng: np.random.Generator, dim: int, n: int) -> ObserverSet:
    """``n`` observers of which the first two have orthogonal supports.

    Orthogonal supports make the intersection zero with the widest possible
    margin, whatever the other observers hold.
    """
    u = haar_unitary(rng, dim)
    r1 = int(rng.integers(1, dim // 2 + 1))
    r2 = int(rng.integers(1, dim // 2 + 1))
    frames = [u[:, :r1], u[:, r1:r1 + r2]]
    nulls = [u[:, r1:], np.hstack([u[:, :r1], u[:, r1 + r2:]])]
    for _ in range(n - 2):
        v = haar_unitary(rng, dim)
        r = int(rng.integers(1, dim // 2 + 1))
        frames.append(v[:, :r])
        nulls.append(v[:, r:])
    matrices = tuple(state_on(rng, f) for f in frames)
    return ObserverSet(matrices, np.zeros((dim, 0), dtype=complex), tuple(nulls))


def joint_candidates(rng: np.random.Generator, s: ObserverSet) -> tuple[np.ndarray, np.ndarray, int]:
    """An admissible and a leaking pooled state for a compatible set.

    The admissible state lives on the planted intersection.  The leaking one
    mixes in, with weight ``LEAK_WEIGHT``, a direction from the null space of
    one observer; that index is returned third.
    """
    if not s.compatible:
        raise ValueError("joint candidates need a compatible observer set")
    admissible = state_on(rng, s.common)
    k = int(rng.integers(len(s.matrices)))
    null = s.nulls[k]
    coeffs = rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1])
    v = null @ (coeffs / np.linalg.norm(coeffs))
    leaking = _hermitian((1 - LEAK_WEIGHT) * admissible + LEAK_WEIGHT * np.outer(v, v.conj()))
    return admissible, leaking, k


def witness_pair(
    rng: np.random.Generator, dim: int, extra_rank: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two states that share a pure state chi; returns ``(rho_a, rho_b, chi)``.

    Each state is ``p |chi><chi| + (1 - p) sigma`` with ``p`` drawn from
    ``[0.2, 0.8]`` and ``sigma`` of rank ``extra_rank``.  With
    ``extra_rank == dim`` both states are full rank.  Otherwise the two
    ``sigma`` supports are redrawn until the only common direction of the two
    supports is chi, with a wide margin to the next one.
    """
    full = extra_rank >= dim
    for _ in range(_MAX_DRAWS):
        g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        chi = g / np.linalg.norm(g)
        frames = [haar_unitary(rng, dim)[:, :extra_rank] for _ in range(2)]
        if not full:
            supports = [np.linalg.qr(np.column_stack([chi, f]))[0] for f in frames]
            cos = np.linalg.svd(supports[0].conj().T @ supports[1], compute_uv=False)
            if cos[1] >= MARGIN_COS:
                continue
        pair = []
        for f in frames:
            p = float(rng.uniform(0.2, 0.8))
            m = p * np.outer(chi, chi.conj()) + (1 - p) * state_on(rng, f)
            pair.append(_hermitian(m / np.trace(m).real))
        return pair[0], pair[1], chi
    raise RuntimeError("could not draw a witness pair with a wide margin")


def matrix_file_text(m: np.ndarray, label: str) -> str:
    """Matrix file in the library's ``qcompat-1`` schema.

    Python's float repr is the shortest string that reads back to the same
    double, so the file parses to exactly ``m``.
    """
    doc = {
        "schema_version": "qcompat-1",
        "dim": int(m.shape[0]),
        "label": label,
        "entries": np.stack([m.real, m.imag], axis=-1).tolist(),
    }
    return json.dumps(doc)
