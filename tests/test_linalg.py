import numpy as np
import pytest

from qcompat import (
    AmbientMismatch,
    NegativeEigenvalue,
    NotHermitian,
    NotSquare,
    Subspace,
    Tolerances,
    hermitian_eigendecompose,
    intersect,
    max_abs,
    null_of,
    projector_from,
    support_of,
)
from conftest import random_density, random_hermitian, random_subspace

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)


def span(*vectors):
    cols = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
    return Subspace(cols.shape[0], cols)


def empty(dim):
    return Subspace(dim, np.zeros((dim, 0), dtype=complex))


# ---------------------------------------------------------------------------
# eigendecomposition


def test_eigendecompose_identity():
    values, vectors = hermitian_eigendecompose(np.eye(2))
    assert np.allclose(values, [1.0, 1.0])
    # orthonormal pair respecting the phase convention
    assert np.allclose(vectors.conj().T @ vectors, np.eye(2), atol=1e-12)
    for k in range(2):
        top = vectors[np.argmax(np.abs(vectors[:, k])), k]
        assert top.imag == 0.0 and top.real > 0.0


def test_eigendecompose_diagonal():
    values, vectors = hermitian_eigendecompose(np.diag([0.75, 0.25]))
    assert np.allclose(values, [0.75, 0.25])
    assert np.allclose(vectors[:, 0], E0)
    assert np.allclose(vectors[:, 1], E1)


def test_eigendecompose_projector_onto_plus():
    # oracle: direct multiplication m v = lambda v
    m = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    values, vectors = hermitian_eigendecompose(m)
    assert np.allclose(values, [1.0, 0.0], atol=1e-12)
    assert np.allclose(vectors[:, 0], np.array([1, 1]) / np.sqrt(2), atol=1e-12)
    for k in range(2):
        assert np.allclose(m @ vectors[:, k], values[k] * vectors[:, k], atol=1e-12)
    # phase-fixed complement: largest-magnitude entry real positive
    top = vectors[np.argmax(np.abs(vectors[:, 1])), 1]
    assert top.imag == 0.0 and top.real > 0.0


def test_eigendecompose_rejects_non_square():
    with pytest.raises(NotSquare):
        hermitian_eigendecompose(np.zeros((2, 3)))


def test_eigendecompose_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigendecompose(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigendecompose_reconstruction_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        dim = int(rng.integers(1, 17))
        m = random_hermitian(rng, dim)
        values, vectors = hermitian_eigendecompose(m)
        rebuilt = (vectors * values) @ vectors.conj().T
        assert max_abs(rebuilt - m) <= 1e-9
        assert np.all(np.diff(values) <= 0)
        assert max_abs(vectors.conj().T @ vectors - np.eye(dim)) <= 1e-10


def test_eigendecompose_deterministic():
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, 6)
    v1, w1 = hermitian_eigendecompose(m)
    v2, w2 = hermitian_eigendecompose(m)
    assert v1.tobytes() == v2.tobytes()
    assert w1.tobytes() == w2.tobytes()


# ---------------------------------------------------------------------------
# support and null space


def test_support_full_rank():
    s = support_of(np.eye(2) / 2)
    assert s.dimension == 2


def test_support_rank_one_projector():
    s = support_of(np.outer(E0, E0))
    assert s.dimension == 1
    assert np.allclose(np.abs(s.basis[:, 0]), E0)


def test_support_threshold_cuts_tiny_eigenvalue():
    # oracle: exact rank of the perturbed matrix under the stated threshold
    m = 0.999999999999 * np.outer(E0, E0) + 1e-12 * np.outer(E1, E1)
    exact = np.linalg.eigvalsh(m)
    tol = Tolerances(eigenvalue_zero_tol=1e-9)
    expected_rank = int(np.sum(exact > 1e-9))
    s = support_of(m, tol)
    assert expected_rank == 1
    assert s.dimension == expected_rank
    assert np.allclose(np.abs(s.basis[:, 0]), E0, atol=1e-6)


def test_support_rejects_negative_eigenvalue():
    with pytest.raises(NegativeEigenvalue):
        support_of(np.diag([1.2, -0.2]))


def test_null_of_basics():
    assert null_of(np.eye(2) / 2).dimension == 0
    n = null_of(np.outer(E0, E0))
    assert n.dimension == 1
    assert np.allclose(np.abs(n.basis[:, 0]), E1)


def test_null_of_known_frame():
    # oracle: construct from a known frame, null basis must annihilate it
    rng = np.random.default_rng(3)
    frame = random_subspace(rng, 4, 2)
    m = (frame * np.array([0.6, 0.4])) @ frame.conj().T
    n = null_of(m)
    assert n.dimension == 2
    assert max_abs(n.basis.conj().T @ frame) <= 1e-10


def test_support_null_complementarity_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        rho = random_density(rng, dim)
        assert support_of(rho.matrix).dimension + null_of(rho.matrix).dimension == dim


# ---------------------------------------------------------------------------
# projectors


def test_projector_from_empty():
    assert np.array_equal(projector_from(empty(2)), np.zeros((2, 2)))


def test_projector_from_basis_vector():
    assert np.allclose(projector_from(span(E0)), np.outer(E0, E0))


def test_projector_from_superposition():
    # oracle: direct outer product
    p = projector_from(span((E0 + E1) / np.sqrt(2)))
    assert np.allclose(p, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)


def test_projector_properties_random():
    rng = np.random.default_rng(13)
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        k = int(rng.integers(0, dim + 1))
        s = Subspace(dim, random_subspace(rng, dim, k))
        p = projector_from(s)
        assert max_abs(p @ p - p) <= 1e-10
        assert max_abs(p - p.conj().T) <= 1e-12
        assert abs(np.trace(p).real - k) <= 1e-9


# ---------------------------------------------------------------------------
# intersection


def intersection_via_complement_nullspace(a: Subspace, b: Subspace) -> Subspace:
    """Independent oracle: null space of (I - P_a) + (I - P_b), via SVD."""
    dim = a.ambient_dim
    eye = np.eye(dim, dtype=complex)
    m = (eye - projector_from(a)) + (eye - projector_from(b))
    _, s, vh = np.linalg.svd(m)
    null_mask = s <= 1e-7
    return Subspace(dim, vh[null_mask].conj().T)


def projector_distance(a: Subspace, b: Subspace) -> float:
    return max_abs(projector_from(a) - projector_from(b))


def test_intersect_with_full_space():
    full = span(E0, E1)
    line = span(E0)
    out = intersect(full, line)
    assert out.dimension == 1
    assert projector_distance(out, line) <= 1e-10


def test_intersect_orthogonal_lines():
    assert intersect(span(E0), span(E1)).dimension == 0


def test_intersect_planes_in_dim3():
    e = np.eye(3, dtype=complex)
    a = span(e[0], e[1])
    b = span(e[1], e[2])
    out = intersect(a, b)
    assert out.dimension == 1
    assert np.allclose(np.abs(out.basis[:, 0]), e[1], atol=1e-10)
    # cross-check with the second algorithm
    oracle = intersection_via_complement_nullspace(a, b)
    assert oracle.dimension == 1
    assert projector_distance(out, oracle) <= 1e-8


def test_intersect_rejects_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        intersect(span(E0), Subspace(3, np.eye(3, dtype=complex)[:, :1]))


def _pair_with_known_overlap(rng, dim, shared, extra_a, extra_b):
    frame = random_subspace(rng, dim, shared + extra_a + extra_b)
    a = Subspace(dim, frame[:, : shared + extra_a])
    b = Subspace(dim, np.column_stack([frame[:, :shared], frame[:, shared + extra_a:]]))
    return a, b, Subspace(dim, frame[:, :shared])


def test_intersect_soundness_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        shared = int(rng.integers(0, dim + 1))
        extra_a = int(rng.integers(0, dim - shared + 1))
        extra_b = int(rng.integers(0, dim - shared - extra_a + 1))
        a, b, common = _pair_with_known_overlap(rng, dim, shared, extra_a, extra_b)
        out = intersect(a, b)
        assert out.dimension == shared
        pa, pb = projector_from(a), projector_from(b)
        for k in range(out.dimension):
            v = out.basis[:, k]
            assert np.linalg.norm(pa @ v - v) <= 1e-8
            assert np.linalg.norm(pb @ v - v) <= 1e-8
        assert projector_distance(out, common) <= 1e-8


def test_intersect_oracle_equivalence_random():
    rng = np.random.default_rng(19)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        shared = int(rng.integers(0, dim // 2 + 1))
        extra_a = int(rng.integers(0, (dim - shared) // 2 + 1))
        extra_b = int(rng.integers(0, dim - shared - extra_a + 1))
        a, b, _ = _pair_with_known_overlap(rng, dim, shared, extra_a, extra_b)
        fast = intersect(a, b)
        oracle = intersection_via_complement_nullspace(a, b)
        assert fast.dimension == oracle.dimension
        assert projector_distance(fast, oracle) <= 1e-8


def test_intersect_commutative_and_associative():
    rng = np.random.default_rng(23)
    for _ in range(20):
        dim = 6
        a, b, _ = _pair_with_known_overlap(rng, dim, 2, 2, 1)
        c = Subspace(dim, np.column_stack([a.basis[:, :2], random_subspace(rng, dim, 0)]))
        assert projector_distance(intersect(a, b), intersect(b, a)) <= 1e-8
        left = intersect(intersect(a, b), c)
        right = intersect(a, intersect(b, c))
        assert left.dimension == right.dimension
        assert projector_distance(left, right) <= 1e-8


def test_intersect_variadic_fold():
    e = np.eye(4, dtype=complex)
    a = span(e[0], e[1], e[2])
    b = span(e[1], e[2], e[3])
    c = span(e[2], e[3], e[0])
    out = intersect(a, b, c)
    assert out.dimension == 1
    assert np.allclose(np.abs(out.basis[:, 0]), e[2], atol=1e-10)


def test_intersect_of_one_subspace_is_itself():
    e = np.eye(3, dtype=complex)
    s = span(e[0], e[2])
    assert intersect(s) is s
    assert intersect(s, tol=Tolerances(overlap_tol=1e-3)) is s


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
