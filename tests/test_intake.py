"""One intake rule for every matrix operand.

A matrix operand is 2-D, finite, square and at least 1 x 1.
``linalg.as_complex_matrix`` is the only place that rule is checked, and
every entry point that takes a matrix goes through it, so they all reject
the same inputs with the same exception classes: a 0 x 0 state stops at
the door and never reaches ``check_bfm``.  ``validate_density`` takes each
state in once.  A finite operand whose ``m + m^dag`` overflows keeps a
finite Hermitian part, so it is judged on its spectrum, never on NaNs.
"""

import numpy as np
import pytest

from qcompat import (
    DensityMatrix,
    NegativeEigenvalue,
    NotPSD,
    NotSquare,
    TraceNotOne,
    check_bfm,
    hermitian_eigendecompose,
    null_of,
    support_of,
    validate_density,
)
from qcompat import linalg, states
from qcompat.linalg import as_complex_matrix
from conftest import spy

ENTRY_POINTS = [validate_density, DensityMatrix, hermitian_eigendecompose, support_of, null_of]

BAD_INPUTS = [
    pytest.param(np.ones(3) / 3, ValueError, r"ndim 1", id="1-D"),
    pytest.param(np.ones((2, 2, 2)) / 4, ValueError, r"ndim 3", id="3-D"),
    pytest.param(np.diag([np.nan, 1.0]), ValueError, r"non-finite", id="non-finite"),
    pytest.param(np.diag([np.inf, 1.0]), ValueError, r"non-finite", id="infinite"),
    pytest.param(np.zeros((2, 3)), NotSquare, r"\(2, 3\)", id="2x3"),
    pytest.param(np.zeros((3, 0)), NotSquare, r"\(3, 0\)", id="3x0"),
    pytest.param(np.zeros((0, 0)), ValueError, r"\(0, 0\)", id="0x0"),
]


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("matrix, error, message", BAD_INPUTS)
def test_every_entry_point_rejects_a_bad_operand_at_the_intake(entry, matrix, error, message):
    with pytest.raises(error, match=message) as exc:
        entry(matrix)
    assert type(exc.value) is error
    assert exc.traceback[-1].name == "as_complex_matrix"


@pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
def test_validate_density_takes_each_state_in_once(monkeypatch, as_list):
    calls = spy(monkeypatch, as_complex_matrix)  # whichever module calls it
    assert all(vars(m)["as_complex_matrix"] is not as_complex_matrix for m in (linalg, states))
    pure, mixed = np.diag([1.0, 0.0, 0.0]), np.eye(3) / 3
    rhos = [validate_density(m.tolist() if as_list else m) for m in (pure, mixed)]
    assert calls == [(3, 3), (3, 3)]
    check_bfm(rhos)  # later stages read the validated states, not the operands
    assert calls == [(3, 3), (3, 3)]


# ---------------------------------------------------------------------------
# a finite operand whose Hermitian part overflows

OVERFLOWING = np.array([[0.5, 1e308], [1e308, 0.5]])  # eigenvalues +-1e308


def test_an_overflowing_hermitian_part_is_held_finite():
    assert DensityMatrix(OVERFLOWING).matrix.tobytes() == OVERFLOWING.astype(complex).tobytes()
    values, vectors = hermitian_eigendecompose(OVERFLOWING)
    assert np.all(np.isfinite(vectors))
    assert values == pytest.approx([1e308, -1e308], rel=1e-12)


def test_an_overflowing_hermitian_part_is_not_a_state():
    with pytest.raises(NotPSD) as exc:
        validate_density(OVERFLOWING)
    [(name, lam_min, _)] = exc.value.violations
    assert name == "positivity lambda_min" and lam_min == pytest.approx(-1e308, rel=1e-12)
    for reader in (support_of, null_of):
        with pytest.raises(NegativeEigenvalue):
            reader(OVERFLOWING)


def test_an_exactly_hermitian_subnormal_entry_keeps_its_bits():
    # halving before the sum would flush 5e-324 to 0
    m = np.array([[1.0, 5e-324], [5e-324, 0.0]], dtype=complex)
    assert validate_density(m).matrix.tobytes() == m.tobytes()


@pytest.mark.parametrize("diagonal, error, violation", [
    ([1e308, 1e308], TraceNotOne, ("trace", np.inf)),
    ([1e308, -1e308], NotPSD, ("positivity lambda_min", -1e308)),
], ids=["trace", "negative"])
def test_an_overflowing_diagonal_is_rejected_without_a_warning(diagonal, error, violation):
    # the certificate's scale sum and the trace overflow; under
    # filterwarnings = error a RuntimeWarning would stand in for the rejection
    with pytest.raises(error) as exc:
        validate_density(np.diag(diagonal))
    assert type(exc.value) is error
    assert exc.value.violations[0][:2] == violation
