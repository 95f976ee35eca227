"""How many D x D eigendecompositions each operation costs.

Every ``DensityMatrix`` eigendecomposes once and keeps its spectrum, and
supports intersect through an SVD of the small ``k_a x k_b`` overlap matrix,
so the counts below are exact.  Counting wrappers around
``numpy.linalg.eigh`` and ``numpy.linalg.eigvalsh`` record the shape of
every operand.
"""

import numpy as np
import pytest

from qcompat import (
    build_shared_decomposition,
    build_witness,
    check_bfm,
    check_pi,
    check_pii,
    simulate_protocol,
    validate_density,
    verify_joint,
)
from qcompat.cli import cli_main
from qcompat.formats import serialize_matrix
from conftest import compatible_pair, random_density_conditioned, random_pure

DIM = 6


class CallCounter:
    def __init__(self):
        self.shapes = []

    def take(self, dim: int = DIM) -> int:
        """dim x dim calls since the last take."""
        count = sum(1 for shape in self.shapes if shape == (dim, dim))
        self.shapes.clear()
        return count


def count_calls(monkeypatch, name):
    counter = CallCounter()
    real = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        counter.shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return counter


@pytest.fixture
def eigh_calls(monkeypatch):
    return count_calls(monkeypatch, "eigh")


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    return count_calls(monkeypatch, "eigvalsh")


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


def test_check_pi_and_check_pii_decompose_each_state_once(eigh_calls):
    # from D = 32 the pairwise norms read each state's rank from its spectrum
    rng = np.random.default_rng(150)
    dim = 40
    for check in (check_pi, check_pii):
        a, b = (random_density_conditioned(rng, dim, 10) for _ in range(2))
        eigh_calls.take(dim)
        check(a, b)
        assert eigh_calls.take(dim) == 2
        check(a, b)
        assert eigh_calls.take(dim) == 0
    # below it every pair is formed densely and no spectrum is needed
    for check in (check_pi, check_pii):
        a, b = (random_density_conditioned(rng, DIM, 2) for _ in range(2))
        eigh_calls.take()
        check(a, b)
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
    # one spectrum per input state; the remainders are read from those spectra
    assert eigh_calls.take() == 2

    a, b, _ = compatible_pair(rng, DIM)
    check_bfm([a, b])
    eigh_calls.take()
    build_shared_decomposition(a, b)
    assert eigh_calls.take() == 0


def test_cli_witness_path_budget(eigh_calls, tmp_path):
    a, b, _ = compatible_pair(np.random.default_rng(400), DIM)
    paths = []
    for name, rho in (("a", a), ("b", b)):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_matrix(rho.matrix, label=name))
        paths.append(str(path))
    eigh_calls.take()
    assert cli_main(["witness", *paths, "--json", str(tmp_path / "w.json")]) == 0
    assert eigh_calls.take() == 2


def test_simulate_validates_two_system_states(eigh_calls, eigvalsh_calls):
    a, b, _ = compatible_pair(np.random.default_rng(500), DIM)
    w = build_witness(build_shared_decomposition(a, b))
    assert w.dims[0] > 1 and w.dims[1] > 1
    eigh_calls.take()
    eigvalsh_calls.take()
    simulate_protocol(w)
    # one validation per reduced state; nothing on ancilla (x) system
    assert eigvalsh_calls.shapes == [(DIM, DIM), (DIM, DIM)]
    assert eigh_calls.shapes == []
