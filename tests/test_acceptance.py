"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from qcompat import (
    PureState,
    Subspace,
    build_shared_decomposition,
    build_witness,
    check_bfm,
    intersect,
    max_abs,
    max_common_weight,
    projector_from,
    simulate_protocol,
    support_of,
    validate_density,
    verify_joint,
)
from qcompat.cli import cli_main
from qcompat.formats import parse_matrix, serialize_matrix
from conftest import (
    compatible_pair,
    intersection_via_complement_nullspace,
    psd_weight_by_bisection,
    random_density_conditioned,
    random_pure,
    random_subspace,
)


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s"
    )
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_golden_pair_reproduction():
    with criterion(1, "golden mixed-vs-pure pair: PI fails, PII holds, compatible", 1.0):
        psi = np.array([1, 0], dtype=complex)
        phi = np.array([1, 1], dtype=complex) / np.sqrt(2)
        rho_a = validate_density(np.outer(psi, psi.conj()))
        rho_b = validate_density(
            0.5 * np.outer(psi, psi.conj()) + 0.5 * np.outer(phi, phi.conj())
        )
        report = check_bfm([rho_a, rho_b])
        assert not report.verdict_pi
        assert report.verdict_pii
        assert report.verdict_bfm
        assert report.intersection_dim == 1


def test_criterion_2_pure_state_criterion():
    with criterion(2, "rank-1 pairs compatible iff overlap is 1", 10.0):
        rng = np.random.default_rng(211)
        for k in range(500):
            dim = int(rng.integers(2, 9))
            psi = random_pure(rng, dim)
            if k % 2 == 0:
                phase = np.exp(2j * np.pi * rng.uniform())
                phi = PureState(phase * psi.amplitudes)
            else:
                phi = random_pure(rng, dim)
                while abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2 >= 1 - 1e-3:
                    phi = random_pure(rng, dim)
            overlap = abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2
            verdict = check_bfm(
                [validate_density(psi.projector()), validate_density(phi.projector())]
            ).verdict_bfm
            assert verdict == (overlap >= 1 - 1e-7)
            assert verdict == (k % 2 == 0)


def test_criterion_3_support_intersection_implies_product():
    with criterion(3, "compatibility implies nonzero product on 1000 pairs", 30.0):
        rng = np.random.default_rng(223)
        seen_compatible = 0
        for k in range(1000):
            dim = int(rng.integers(2, 9))
            if k % 2 == 0:
                a, b, _ = compatible_pair(rng, dim)
            else:
                a = random_density_conditioned(rng, dim)
                b = random_density_conditioned(rng, dim)
            report = check_bfm([a, b])
            if report.verdict_bfm:
                seen_compatible += 1
                assert report.verdict_pii
        assert seen_compatible >= 500  # the sweep actually exercised the implication

        # the converse fails: overlapping but non-intersecting supports in dim 3
        a = validate_density(np.diag([0.5, 0.5, 0.0]))
        v = np.array([1, 0, 1]) / np.sqrt(2)
        b = validate_density(np.outer(v, v.conj()))
        report = check_bfm([a, b])
        assert report.verdict_pii and not report.verdict_bfm


def test_criterion_4_joint_state_constraint():
    with criterion(4, "joint states confined to the support intersection", 30.0):
        rng = np.random.default_rng(227)
        rejections = 0
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            a, b, chi = compatible_pair(rng, dim)
            ok, _ = verify_joint(validate_density(chi.projector()), [a, b])
            assert ok

            report = check_bfm([a, b])
            p = projector_from(report.intersection_basis)
            m = p @ a.matrix @ p
            projected = validate_density(m / np.trace(m).real)
            ok, _ = verify_joint(projected, [a, b])
            assert ok

            uniform = validate_density(np.eye(dim) / dim)
            ok, _ = verify_joint(uniform, [a, b])
            if report.intersection_dim < dim:
                assert not ok
                rejections += 1
            else:
                assert ok
        assert rejections >= 50  # the rejecting branch was exercised


def test_criterion_5_witness_round_trip():
    with criterion(5, "decompose/witness/simulate recovers both states and the shared state", 60.0):
        rng = np.random.default_rng(229)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            a, b, _ = compatible_pair(rng, dim)
            d = build_shared_decomposition(a, b)
            w = build_witness(d)
            identity = 1.0 / d.p0 + 1.0 / d.q0 - 1.0
            assert abs(1.0 / w.normalization**2 - identity) <= 1e-9
            result = simulate_protocol(w)
            assert max_abs(result.rho_alice.matrix - a.matrix) <= 1e-8
            assert max_abs(result.rho_bob.matrix - b.matrix) <= 1e-8
            overlap = abs(np.vdot(result.joint.amplitudes, d.chi.amplitudes)) ** 2
            assert overlap >= 1 - 1e-8


def test_criterion_6_intersection_oracle_equivalence():
    with criterion(6, "two independent intersection algorithms agree on 500 pairs", 30.0):
        rng = np.random.default_rng(233)
        for k in range(500):
            dim = int(rng.integers(2, 13))
            if k % 2 == 0:
                shared = int(rng.integers(0, dim + 1))
                extra_a = int(rng.integers(0, dim - shared + 1))
                extra_b = int(rng.integers(0, dim - shared - extra_a + 1))
                frame = random_subspace(rng, dim, shared + extra_a + extra_b)
                a = Subspace(dim, frame[:, : shared + extra_a])
                b = Subspace(
                    dim,
                    np.column_stack([frame[:, :shared], frame[:, shared + extra_a:]]),
                )
            else:
                a = Subspace(dim, random_subspace(rng, dim, int(rng.integers(0, dim + 1))))
                b = Subspace(dim, random_subspace(rng, dim, int(rng.integers(0, dim + 1))))
            fast = intersect(a, b)
            oracle = intersection_via_complement_nullspace(a, b)
            assert fast.dimension == oracle.dimension
            assert max_abs(projector_from(fast) - projector_from(oracle)) <= 1e-8


def test_criterion_7_weight_maximality():
    with criterion(7, "extracted shared weight sits exactly on the PSD boundary", 30.0):
        rng = np.random.default_rng(239)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            rank = int(rng.integers(1, dim + 1))
            rho = random_density_conditioned(rng, dim, rank)
            basis = support_of(rho.matrix).basis
            mix = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
            vec = basis @ mix
            chi = PureState(vec / np.linalg.norm(vec))
            p = max_common_weight(rho, chi)
            assert np.linalg.eigvalsh(rho.matrix - p * chi.projector())[0] >= -1e-9
            assert (
                np.linalg.eigvalsh(rho.matrix - (p + 1e-6) * chi.projector())[0] < -1e-9
            )
            assert abs(p - psd_weight_by_bisection(rho, chi)) <= 1e-6


def test_criterion_8_cli_golden_suite(tmp_path):
    with criterion(8, "CLI exit codes, JSON determinism, parse round trip", 10.0):
        paths = {}

        def state_file(name, matrix, label=None):
            p = tmp_path / f"{name}.json"
            p.write_text(serialize_matrix(np.asarray(matrix, dtype=complex), label=label))
            paths[name] = str(p)

        state_file("pure", np.diag([1.0, 0.0]), label="A")
        state_file("mixed", [[0.75, 0.25], [0.25, 0.25]], label="B")
        state_file("orthogonal", np.diag([0.0, 1.0]))
        state_file("qutrit", np.eye(3) / 3)
        state_file("bad_trace", np.diag([0.6, 0.5]))
        state_file("negative", np.diag([1.2, -0.2]))
        state_file("non_hermitian", [[0.5, 0.5], [0.0, 0.5]])
        (tmp_path / "broken.json").write_text("{ nope")
        paths["broken"] = str(tmp_path / "broken.json")
        (tmp_path / "old.json").write_text(
            '{"schema_version": "qcompat-0", "dim": 1, "entries": [[[1, 0]]]}'
        )
        paths["old"] = str(tmp_path / "old.json")
        (tmp_path / "shape.json").write_text(
            '{"schema_version": "qcompat-1", "dim": 2, "entries": [[[1, 0], [0, 0]]]}'
        )
        paths["shape"] = str(tmp_path / "shape.json")

        # valid / invalid-state / input-error exits, one per error class
        assert cli_main(["validate", paths["pure"]]) == 0
        assert cli_main(["validate", paths["bad_trace"]]) == 1
        assert cli_main(["validate", paths["negative"]]) == 1
        assert cli_main(["validate", paths["non_hermitian"]]) == 1
        assert cli_main(["validate", paths["broken"]]) == 2
        assert cli_main(["validate", paths["old"]]) == 2
        assert cli_main(["validate", paths["shape"]]) == 2
        assert cli_main(["validate", str(tmp_path / "missing.json")]) == 2
        assert cli_main(["check", paths["pure"], paths["mixed"]]) == 0
        assert cli_main(["check", paths["pure"], paths["orthogonal"]]) == 1
        assert cli_main(["check", paths["pure"], paths["qutrit"]]) == 2
        assert cli_main(["check", paths["pure"]]) == 2
        assert cli_main(["decompose", paths["pure"], paths["orthogonal"]]) == 1
        assert cli_main(["witness", paths["pure"], paths["orthogonal"]]) == 1
        assert cli_main(["frobnicate"]) == 2

        # byte-identical JSON across repeated runs
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli_main(["check", paths["pure"], paths["mixed"], "--json", str(r1)]) == 0
        assert cli_main(["check", paths["pure"], paths["mixed"], "--json", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

        # witness pipeline ends in a clean simulate
        wit = tmp_path / "wit.json"
        assert cli_main(["witness", paths["pure"], paths["mixed"], "--json", str(wit)]) == 0
        assert cli_main(["simulate", str(wit)]) == 0
        corrupted = json.loads(wit.read_text())
        corrupted["decomposition"]["q0"] = 0.9
        (tmp_path / "corrupt.json").write_text(json.dumps(corrupted))
        assert cli_main(["simulate", str(tmp_path / "corrupt.json")]) == 2

        # serialize -> parse is exact at 17 significant digits
        rng = np.random.default_rng(241)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        round_trip = tmp_path / "round_trip.json"
        round_trip.write_text(serialize_matrix(rho, label="R"))
        back, label = parse_matrix(str(round_trip))
        assert label == "R"
        assert np.array_equal(back, rho)
