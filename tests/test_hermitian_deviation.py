"""One measure of ``max |M - M^dag|`` for hermiticity and for the commutator.

``linalg._hermitian_deviation`` reads each block on or above the diagonal
against its mirror.  Validation, the eigendecomposition's hermiticity check
and the PI commutator all read it, so it must give the dense formula
``max_abs(M - M^dag)`` bit for bit for any layout of its input, and each
validated or decomposed matrix must be measured exactly once.  The dense
references of the reported magnitudes stay in ``tests/test_states.py`` and
``tests/test_validate_certificate.py``.
"""

import numpy as np
import pytest

import qcompat.linalg as linalg
import qcompat.states as states
from qcompat import (
    NotHermitian,
    hermitian_eigendecompose,
    max_abs,
    validate_density,
)
from qcompat.linalg import _BLOCK, _hermitian_deviation
from conftest import random_density_exact, spy

DIMS = [1, 2, 63, 64, 65, 127, 128, 129, 256]


def dense(a):
    return max_abs(a - a.conj().T)


def layouts(rng, dim):
    """The same kind of matrix as a C-ordered array, a Fortran-ordered one, and
    two strided views (every other row and column, and a reversed corner)."""
    g = rng.standard_normal((2 * dim, 2 * dim)) + 1j * rng.standard_normal((2 * dim, 2 * dim))
    return {
        "C": np.ascontiguousarray(g[:dim, :dim]),
        "F": np.asfortranarray(g[dim:, dim:]),
        "every-other": g[::2, 1::2],
        "reversed": g[::-1, ::-1][:dim, :dim],
    }


def near_hermitian(a, scale):
    """``a`` made Hermitian, then pushed off by ``scale`` times a random matrix."""
    return (a + a.conj().T) / 2 + scale * np.roll(a, 1, axis=0)


@pytest.mark.parametrize("dim", DIMS)
def test_matches_dense_formula_in_every_layout(dim):
    rng = np.random.default_rng(dim)
    for name, a in layouts(rng, dim).items():
        for m in (a, near_hermitian(a, 1e-12), (a + a.conj().T) / 2):
            before = m.tobytes()
            got = _hermitian_deviation(m)
            assert np.ndim(got) == 0, name
            assert np.float64(got).tobytes() == np.float64(dense(m)).tobytes(), name
            assert m.tobytes() == before, name


@pytest.mark.parametrize("dim", DIMS)
def test_matches_dense_formula_per_matrix_of_a_stack(dim):
    rng = np.random.default_rng(1000 + dim)
    stack = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))
    stack[1] = near_hermitian(stack[1], 1e-13)
    for p in (stack, np.asfortranarray(stack), stack.transpose(0, 2, 1)):
        got = _hermitian_deviation(p)
        assert got.shape == (3,)
        for i in range(3):
            assert got[i].tobytes() == np.float64(dense(p[i])).tobytes()


def test_block_edge_is_inside_the_tested_dimensions():
    # the dimensions above straddle one and two block edges
    assert {_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1} <= set(DIMS)


def off_hermitian(m):
    """``m`` with its strict upper triangle moved by 1e-3."""
    return m + 1e-3 * np.triu(np.ones(m.shape), 1)


@pytest.mark.parametrize("dim", [2, 8, 65])
def test_validation_measures_each_matrix_once(monkeypatch, dim):
    m = random_density_exact(np.random.default_rng(dim), dim).matrix
    seen = spy(monkeypatch, _hermitian_deviation, states)
    validate_density(m)
    assert seen == [(dim, dim)]
    with pytest.raises(NotHermitian) as exc:
        validate_density(off_hermitian(m))
    assert exc.value.violations[0][1] == dense(off_hermitian(m))
    assert seen == [(dim, dim)] * 2


@pytest.mark.parametrize("dim", [2, 8, 65])
def test_eigendecomposition_measures_each_matrix_once(monkeypatch, dim):
    m = random_density_exact(np.random.default_rng(dim), dim).matrix
    seen = spy(monkeypatch, _hermitian_deviation, linalg)
    hermitian_eigendecompose(m)
    assert seen == [(dim, dim)]
    with pytest.raises(NotHermitian) as exc:
        hermitian_eigendecompose(off_hermitian(m))
    assert exc.value.violations[0][1] == dense(off_hermitian(m))
    assert seen == [(dim, dim)] * 2
