"""How many D x D eigendecompositions each operation costs.

Every ``DensityMatrix`` eigendecomposes once and keeps its spectrum, and
supports intersect through an SVD of the small ``k_a x k_b`` overlap matrix,
so the counts below are exact.  Validation certifies positivity with one
Cholesky factorization and runs ``eigvalsh`` only where that cannot decide.
:func:`conftest.spy` records the shape of every operand of
``numpy.linalg.eigh``, ``eigvalsh``, ``cholesky`` and ``svd``.
"""

import numpy as np
import pytest

from qcompat import (
    NotPSD,
    build_shared_decomposition,
    build_witness,
    check_bfm,
    check_pi,
    check_pii,
    projector_from,
    simulate_protocol,
    validate_density,
    verify_joint,
)
from qcompat.cli import cli_main
from conftest import (
    compatible_pair,
    planted_set,
    random_density_conditioned,
    random_unitary,
    spy,
    write_state,
)

DIM = 6
DECOMPOSITIONS = (np.linalg.eigh, np.linalg.eigvalsh, np.linalg.cholesky)


def write_states(tmp_path, states) -> list[str]:
    return [write_state(tmp_path / f"s{i}.json", s.matrix, f"s{i}") for i, s in enumerate(states)]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_check_bfm_decomposes_each_state_once(monkeypatch, n):
    rng = np.random.default_rng(100 + n)
    states, _ = planted_set(rng, DIM, 1, rng.integers(0, DIM, size=n))
    eighs = spy(monkeypatch, np.linalg.eigh, np.linalg)
    assert check_bfm(states).verdict_bfm
    assert eighs.count((DIM, DIM)) == n
    check_bfm(states)
    assert eighs.count((DIM, DIM)) == n


def test_check_pi_and_check_pii_decompose_each_state_once(monkeypatch):
    # from D = 32 the pairwise norms read each state's rank from its spectrum
    rng = np.random.default_rng(150)
    dim = 40
    eighs = spy(monkeypatch, np.linalg.eigh, np.linalg)
    for check in (check_pi, check_pii):
        a, b = (random_density_conditioned(rng, dim, 10) for _ in range(2))
        eighs.clear()
        check(a, b)
        assert eighs.count((dim, dim)) == 2
        check(a, b)
        assert eighs.count((dim, dim)) == 2
    # below it every pair is formed densely and no spectrum is needed
    for check in (check_pi, check_pii):
        a, b = (random_density_conditioned(rng, DIM, 2) for _ in range(2))
        eighs.clear()
        check(a, b)
        assert eighs.count((DIM, DIM)) == 0


@pytest.mark.parametrize("n", [1, 2, 4])
def test_verify_joint_decomposes_each_state_once(monkeypatch, n):
    rng = np.random.default_rng(200 + n)
    observers, chi = planted_set(rng, DIM, 1, rng.integers(0, DIM, size=n))
    joint = validate_density(projector_from(chi))
    eighs = spy(monkeypatch, np.linalg.eigh, np.linalg)
    ok, _ = verify_joint(joint, observers)
    assert ok
    assert eighs.count((DIM, DIM)) == n + 1


def test_decompose_reuses_spectra(monkeypatch):
    rng = np.random.default_rng(300)
    a, b, _ = compatible_pair(rng, DIM)
    eighs = spy(monkeypatch, np.linalg.eigh, np.linalg)
    build_shared_decomposition(a, b)
    # one spectrum per input state; the remainders are read from those spectra
    assert eighs.count((DIM, DIM)) == 2

    a, b, _ = compatible_pair(rng, DIM)
    check_bfm([a, b])
    eighs.clear()
    build_shared_decomposition(a, b)
    assert eighs.count((DIM, DIM)) == 0


def test_cli_witness_path_budget(monkeypatch, tmp_path):
    a, b, _ = compatible_pair(np.random.default_rng(400), DIM)
    paths = write_states(tmp_path, [a, b])
    eighs = spy(monkeypatch, np.linalg.eigh, np.linalg)
    assert cli_main(["witness", *paths, "--json", str(tmp_path / "w.json")]) == 0
    assert eighs.count((DIM, DIM)) == 2


@pytest.mark.parametrize("command", ["decompose", "witness"])
def test_cli_pair_command_intersects_the_supports_once(monkeypatch, tmp_path, command):
    # check_bfm's intersection is the one the decomposition reads
    a, b, _ = compatible_pair(np.random.default_rng(450), DIM)
    paths = write_states(tmp_path, [a, b])
    svds = spy(monkeypatch, np.linalg.svd, np.linalg)
    assert cli_main([command, *paths, "--json", str(tmp_path / "out.json")]) == 0
    assert len(svds) == 1


def test_shared_decomposition_intersects_the_supports_once(monkeypatch):
    a, b, _ = compatible_pair(np.random.default_rng(460), DIM)
    svds = spy(monkeypatch, np.linalg.svd, np.linalg)
    build_shared_decomposition(a, b)
    assert len(svds) == 1


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cli_check_folds_n_supports_in_n_minus_one_svds(monkeypatch, tmp_path, n):
    rng = np.random.default_rng(470 + n)
    states, _ = planted_set(rng, DIM, 1, rng.integers(0, DIM, size=n))
    paths = write_states(tmp_path, states)
    svds = spy(monkeypatch, np.linalg.svd, np.linalg)
    assert cli_main(["check", *paths]) == 0
    assert len(svds) == n - 1


def test_cli_simulate_intersects_nothing(monkeypatch, tmp_path):
    a, b, _ = compatible_pair(np.random.default_rng(480), DIM)
    out = str(tmp_path / "w.json")
    assert cli_main(["witness", *write_states(tmp_path, [a, b]), "--json", out]) == 0
    svds = spy(monkeypatch, np.linalg.svd, np.linalg)
    assert cli_main(["simulate", out]) == 0
    assert svds == []


def test_simulate_validates_two_system_states(monkeypatch):
    a, b, _ = compatible_pair(np.random.default_rng(500), DIM)
    w = build_witness(build_shared_decomposition(a, b))
    assert w.dims[0] > 1 and w.dims[1] > 1
    eighs, eigvalshs, choleskys = (spy(monkeypatch, f, np.linalg) for f in DECOMPOSITIONS)
    simulate_protocol(w)
    # one certificate per reduced state; nothing on ancilla (x) system
    assert choleskys == [(DIM, DIM), (DIM, DIM)]
    assert eigvalshs == []
    assert eighs == []


def test_valid_state_validates_without_eigendecomposition(monkeypatch):
    rng = np.random.default_rng(600)
    matrices = [random_density_conditioned(rng, DIM, rank).matrix for rank in (1, DIM // 2, DIM)]
    eighs, eigvalshs, choleskys = (spy(monkeypatch, f, np.linalg) for f in DECOMPOSITIONS)
    for m in matrices:
        validate_density(m)
    assert choleskys.count((DIM, DIM)) == 3
    assert eigvalshs == []
    assert eighs == []


def test_cli_check_budget(monkeypatch, tmp_path):
    rng = np.random.default_rng(700)
    states, _ = planted_set(rng, DIM, 1, rng.integers(0, DIM, size=3))
    paths = write_states(tmp_path, states)
    eighs, eigvalshs, _ = (spy(monkeypatch, f, np.linalg) for f in DECOMPOSITIONS)
    assert cli_main(["check", *paths]) == 0
    # from file to verdict: one eigh per state, no eigvalsh
    assert eighs.count((DIM, DIM)) == 3
    assert eigvalshs == []


def test_not_psd_input_makes_one_eigvalsh(monkeypatch):
    rng = np.random.default_rng(800)
    frame = random_unitary(rng, DIM)
    weights = np.full(DIM, 1.0 / (DIM - 1))
    weights[-1] = -1.0 / (DIM - 1)
    weights /= weights.sum()
    eigvalshs = spy(monkeypatch, np.linalg.eigvalsh, np.linalg)
    with pytest.raises(NotPSD) as info:
        validate_density((frame * weights) @ frame.conj().T)
    assert info.value.violations[0][0] == "positivity lambda_min"
    assert eigvalshs == [(DIM, DIM)]
