"""Column order of the eigendecomposition convention at sort cost.

The oracle is the earlier implementation: one ``np.lexsort`` over the negated
keys and all ``2 D`` interleaved ``(re, im)`` rows.  ``_lex_order`` sorts by
key alone and runs the row sort only over columns whose keys tie exactly, so
the two must give the same order on every input.
"""

import numpy as np
import pytest

from qcompat import check_bfm, choose_common_state, intersect, validate_density
from qcompat import linalg, witness
from qcompat.linalg import _canonical, _lex_order
from conftest import random_hermitian, random_subspace, random_unitary, spy


def oracle_order(keys, vectors):
    dim, k = vectors.shape
    rows = np.stack([vectors.real, vectors.imag], axis=1).reshape(2 * dim, k)
    return np.lexsort(np.vstack([rows[::-1], -keys]))


def assert_same_order(keys, vectors):
    assert np.array_equal(_lex_order(keys, vectors), oracle_order(keys, vectors))


@pytest.mark.parametrize("dim", [8, 64, 256])
def test_tie_free_spectra(dim):
    rng = np.random.default_rng(dim)
    for _ in range(3):
        values, vectors = np.linalg.eigh(random_hermitian(rng, dim))
        assert np.unique(values).size == dim
        assert_same_order(values, vectors)
        assert_same_order(*_canonical(values, vectors))


@pytest.mark.parametrize("dim", [1, 2, 8, 64, 256])
def test_degenerate_spectra(dim):
    rng = np.random.default_rng(300 + dim)
    frame = random_unitary(rng, dim)
    # identity, two repeated blocks, and repeated blocks between distinct values
    blocks = [np.ones(dim), np.repeat([0.7, 0.3], [dim // 2, dim - dim // 2]),
              np.resize([0.5, 0.5, 0.2, 0.1, 0.1, 0.1, 0.0], dim)]
    for weights in blocks:
        m = (frame * weights) @ frame.conj().T
        values, vectors = np.linalg.eigh((m + m.conj().T) / 2)
        assert_same_order(values, vectors)
        assert_same_order(weights, frame)
        assert_same_order(weights, np.eye(dim, dtype=complex))


def test_signed_zero_keys_tie():
    rng = np.random.default_rng(311)
    for dim in (4, 9, 32):
        keys = rng.choice([0.0, -0.0, 0.25, -0.25, 1.0], size=dim)
        keys[:2] = 0.0, -0.0
        vectors = random_unitary(rng, dim)
        vectors[:, ::3] = vectors[:, :1]  # equal columns: the index decides
        vectors[0, 1::2] = -0.0
        assert_same_order(keys, vectors)


def test_random_ties_down_to_the_last_row():
    # few distinct keys and entries, so ties reach deep rows and whole columns
    rng = np.random.default_rng(313)
    for _ in range(200):
        dim, k = int(rng.integers(1, 6)), int(rng.integers(0, 12))
        keys = rng.integers(-2, 3, size=k).astype(float)
        vectors = rng.integers(-1, 2, size=(dim, k)) + 1j * rng.integers(-1, 2, size=(dim, k))
        assert_same_order(keys, vectors)


def test_callers_keys_sort_like_the_oracle(monkeypatch):
    # every (keys, vectors) the intersection and choose_common_state sort
    calls = spy(monkeypatch, _lex_order, linalg, witness,
                keep=lambda keys, vectors: (np.array(keys), np.array(vectors)))
    rng = np.random.default_rng(317)
    for dim in (4, 16, 64):
        shared = random_subspace(rng, dim, 3)
        # equal weights on the shared directions: choose_common_state's keys tie
        a, b = (validate_density(shared @ shared.conj().T / 3) for _ in range(2))
        choose_common_state(a, b)
        check_bfm([a, b, validate_density(np.eye(dim) / dim)])
        full = linalg.Subspace(dim, random_unitary(rng, dim))
        intersect(full, full, linalg.Subspace(dim, shared))
    assert any(np.unique(keys).size < keys.size for keys, _ in calls)
    for keys, vectors in calls:
        assert_same_order(keys, vectors)
