"""How many D x D eigendecompositions each operation costs.

Every ``DensityMatrix`` eigendecomposes once and keeps its spectrum, and
supports intersect through an SVD of the small ``k_a x k_b`` overlap matrix,
so the counts below are exact.  A counting wrapper around
``numpy.linalg.eigh`` records the shape of every operand.
"""

import numpy as np
import pytest

from qcompat import build_shared_decomposition, check_bfm, validate_density, verify_joint
from qcompat.cli import cli_main
from qcompat.formats import serialize_matrix
from conftest import compatible_pair, random_density_conditioned, random_pure

DIM = 6


class EighCounter:
    def __init__(self):
        self.shapes = []

    def take(self) -> int:
        """D x D calls since the last take."""
        count = sum(1 for shape in self.shapes if shape == (DIM, DIM))
        self.shapes.clear()
        return count


@pytest.fixture
def eigh_calls(monkeypatch):
    counter = EighCounter()
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        counter.shapes.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return counter


def planted_states(rng, n):
    """n states whose supports all contain one random pure state."""
    chi = random_pure(rng, DIM)
    states = []
    for _ in range(n):
        background = random_density_conditioned(rng, DIM, int(rng.integers(1, DIM))).matrix
        states.append(validate_density(0.3 * chi.projector() + 0.7 * background))
    return states, chi


@pytest.mark.parametrize("n", [2, 3, 5])
def test_check_bfm_decomposes_each_state_once(eigh_calls, n):
    states, _ = planted_states(np.random.default_rng(100 + n), n)
    eigh_calls.take()
    assert check_bfm(states).verdict_bfm
    assert eigh_calls.take() == n
    check_bfm(states)
    assert eigh_calls.take() == 0


@pytest.mark.parametrize("n", [1, 2, 4])
def test_verify_joint_decomposes_each_state_once(eigh_calls, n):
    observers, chi = planted_states(np.random.default_rng(200 + n), n)
    joint = validate_density(chi.projector())
    eigh_calls.take()
    ok, _ = verify_joint(joint, observers)
    assert ok
    assert eigh_calls.take() == n + 1


def test_decompose_reuses_spectra(eigh_calls):
    rng = np.random.default_rng(300)
    a, b, _ = compatible_pair(rng, DIM)
    eigh_calls.take()
    build_shared_decomposition(a, b)
    # one spectrum per input state, one per remainder
    assert eigh_calls.take() == 4

    a, b, _ = compatible_pair(rng, DIM)
    check_bfm([a, b])
    eigh_calls.take()
    build_shared_decomposition(a, b)
    assert eigh_calls.take() == 2


def test_cli_witness_path_budget(eigh_calls, tmp_path):
    a, b, _ = compatible_pair(np.random.default_rng(400), DIM)
    paths = []
    for name, rho in (("a", a), ("b", b)):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_matrix(rho.matrix, label=name))
        paths.append(str(path))
    eigh_calls.take()
    assert cli_main(["witness", *paths, "--json", str(tmp_path / "w.json")]) == 0
    assert eigh_calls.take() <= 4
