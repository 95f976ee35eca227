"""Positivity by Cholesky certificate against the ``eigvalsh`` rule.

``validate_density`` certifies ``lambda_min >= -eigenvalue_zero_tol`` with one
Cholesky factorization and runs ``eigvalsh`` only where that cannot decide.
The oracle below is the rule it replaces: ``eigvalsh`` on every state.  Every
input must give the same outcome, the same exception class and the same
``violations`` list, bit for bit.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompat import DensityMatrix, NotHermitian, NotPSD, Tolerances, TraceNotOne, validate_density
from qcompat.errors import StateValidationError
from qcompat.linalg import as_complex_matrix, max_abs
from conftest import random_unitary, spy

ZERO_TOLS = [0.0, 1e-15, 1e-9, 1e-3, 2.0]
DIMS = [1, 2, 3, 8, 31, 64, 256]


def oracle(m, tol: Tolerances):
    """Outcome of validation with ``eigvalsh`` on every state."""
    a = as_complex_matrix(m)
    rho = DensityMatrix(a)
    violations = []
    hermiticity = max_abs(a - a.conj().T)
    if hermiticity > tol.hermiticity_tol:
        violations.append(("hermiticity", hermiticity, tol.hermiticity_tol))
    lam_min = float(np.linalg.eigvalsh(rho.matrix)[0])
    if lam_min < -tol.eigenvalue_zero_tol:
        violations.append(("positivity lambda_min", lam_min, tol.eigenvalue_zero_tol))
    trace = complex(np.trace(a))
    if abs(trace - 1.0) > tol.trace_tol:
        violations.append(("trace", trace.real, tol.trace_tol))
        if abs(trace.imag) > tol.trace_tol:
            violations.append(("trace imaginary part", trace.imag, tol.trace_tol))
    if not violations:
        return None, []
    first = violations[0][0]
    if first == "hermiticity":
        return NotHermitian, violations
    if first.startswith("positivity"):
        return NotPSD, violations
    return TraceNotOne, violations


def outcome(m, tol: Tolerances):
    try:
        validate_density(m, tol)
    except StateValidationError as exc:
        return type(exc), exc.violations
    return None, []


def assert_matches_oracle(m, tol: Tolerances):
    assert outcome(m, tol) == oracle(m, tol)


def planted(frame: np.ndarray, rank: int, lam_min: float) -> np.ndarray:
    """Unit-trace matrix in ``frame`` whose smallest eigenvalue is ``lam_min``:
    ``rank`` positive eigenvalues (one fewer at full rank) and ``lam_min`` on
    the remaining directions."""
    d = frame.shape[0]
    positive = min(rank, d - 1) if d > 1 else 0
    values = np.full(d, lam_min)
    values[:positive] = np.linspace(1.0, 0.25, positive)
    if positive:
        values[:positive] *= (1.0 - (d - positive) * lam_min) / values[:positive].sum()
    return (frame * values) @ frame.conj().T


def lam_mins(t: float) -> list[float]:
    near = [-t * (1 + s * e) for e in (1e-1, 1e-3, 1e-6) for s in (1, -1)]
    return sorted(set(near + [-t, 0.0, 1e-14]))


@functools.cache
def frame_of(d: int) -> np.ndarray:
    return random_unitary(np.random.default_rng(1000 + d), d)


@pytest.mark.parametrize("t", ZERO_TOLS)
@pytest.mark.parametrize("d", DIMS)
def test_planted_lambda_min_matches_oracle(d, t):
    tol = Tolerances(eigenvalue_zero_tol=t)
    frame = frame_of(d)
    for rank in sorted({1, max(d // 2, 1), d}):
        for lam in lam_mins(t):
            m = planted(frame, rank, lam)
            assert_matches_oracle(m, tol)
            if d <= 64:  # trace and positivity off together
                assert_matches_oracle(1.5 * m, tol)


@pytest.mark.parametrize("t", ZERO_TOLS)
@pytest.mark.parametrize("d", [2, 8, 64])
def test_non_hermitian_input_matches_oracle(d, t):
    tol = Tolerances(eigenvalue_zero_tol=t)
    rng = np.random.default_rng(2000 + d)
    skew = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for lam in lam_mins(t):
        m = planted(frame_of(d), d // 2, lam)
        for size in (1e-11, 1e-10, 1e-7):  # within hermiticity_tol, and beyond it
            assert_matches_oracle(m + size * skew, tol)


def test_certificate_decides_where_it_should(monkeypatch):
    # a state well inside the cone never needs eigvalsh; at the threshold,
    # with a zero tolerance or with a negative eigenvalue it falls back
    frame = frame_of(64)
    eigvalsh_calls = spy(monkeypatch, np.linalg.eigvalsh, np.linalg)
    for lam in (0.0, 1e-14, -0.5e-9):
        validate_density(planted(frame, 32, lam))
    assert eigvalsh_calls == []
    validate_density(planted(frame, 32, -(1 - 1e-6) * 1e-9))
    validate_density(planted(frame, 32, 0.01), Tolerances(eigenvalue_zero_tol=0.0))
    with pytest.raises(NotPSD):
        validate_density(planted(frame, 32, -1.1e-9))
    assert eigvalsh_calls == [(64, 64)] * 3


def test_rank_deficient_256_passes_without_eigvalsh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh ran on a certified state")

    rng = np.random.default_rng(3000)
    g = rng.standard_normal((256, 40)) + 1j * rng.standard_normal((256, 40))
    m = g @ g.conj().T
    m /= np.trace(m).real
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    rho = validate_density(m)
    assert rho.dim == 256


@st.composite
def small_inputs(draw):
    d = draw(st.integers(1, 16))
    t = draw(st.sampled_from(ZERO_TOLS))
    seed = draw(st.integers(0, 2**32 - 1))
    rank = draw(st.integers(1, d))
    # lambda_min near -t, on either side of it, or anywhere in [-1, 1]
    lam = draw(
        st.one_of(
            st.floats(-1e-5, 1e-5).map(lambda x: -t * (1 + x)),
            st.floats(-1.0, 1.0),
        )
    )
    noise = draw(st.sampled_from([0.0, 1e-12, 1e-10, 1e-8]))
    rng = np.random.default_rng(seed)
    m = planted(random_unitary(rng, d), rank, lam)
    m = m + noise * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return m, Tolerances(eigenvalue_zero_tol=t)


@settings(max_examples=80)
@given(small_inputs())
def test_small_inputs_match_oracle(case):
    m, tol = case
    assert_matches_oracle(m, tol)
