"""One intake rule for every matrix operand.

A matrix operand is 2-D, finite, square and at least 1 x 1.
``linalg.as_complex_matrix`` is the only place that rule is checked, and
every entry point that takes a matrix goes through it, so they all reject
the same inputs with the same exception classes: a 0 x 0 state stops at
the door and never reaches ``check_bfm``.  ``validate_density`` takes each
state in once.
"""

import numpy as np
import pytest

from qcompat import (
    DensityMatrix,
    NotSquare,
    check_bfm,
    hermitian_eigendecompose,
    null_of,
    support_of,
    validate_density,
)
from qcompat import linalg, states

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


def count_intake(monkeypatch) -> list:
    """Shapes of the operands passed to ``as_complex_matrix`` from here on,
    whichever module calls it."""
    calls = []
    original = linalg.as_complex_matrix

    def counted(m):
        calls.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(linalg, "as_complex_matrix", counted)
    monkeypatch.setattr(states, "as_complex_matrix", counted)
    return calls


@pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
def test_validate_density_takes_each_state_in_once(monkeypatch, as_list):
    calls = count_intake(monkeypatch)
    pure, mixed = np.diag([1.0, 0.0, 0.0]), np.eye(3) / 3
    rhos = [validate_density(m.tolist() if as_list else m) for m in (pure, mixed)]
    assert calls == [(3, 3), (3, 3)]
    check_bfm(rhos)  # later stages read the validated states, not the operands
    assert calls == [(3, 3), (3, 3)]
