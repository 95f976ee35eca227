import dataclasses
import tracemalloc

import numpy as np
import pytest

from qcompat import (
    ChiOutsideSupport,
    Incompatible,
    PureState,
    SharedDecomposition,
    WitnessState,
    ZeroProbabilityOutcome,
    basis_state,
    build_shared_decomposition,
    build_witness,
    check_bfm,
    choose_common_state,
    max_abs,
    max_common_weight,
    partial_trace,
    project_and_renormalize,
    simulate_protocol,
    support_of,
    validate_density,
    verify_joint,
)
from qcompat.states import WEIGHT_TOL
from conftest import (
    compatible_pair,
    cutoff_mass_pair,
    full_rank_pair,
    golden_pair,
    psd_weight_by_bisection,
    random_density_conditioned,
    random_pure,
    spy,
)

KET0 = PureState(np.array([1, 0], dtype=complex))
PLUS = PureState(np.array([1, 1]) / np.sqrt(2))


# ---------------------------------------------------------------------------
# common-state selection


def test_common_state_identical_pure_assignments():
    rho = validate_density(KET0.projector())
    chi = choose_common_state(rho, rho)
    assert abs(np.vdot(chi.amplitudes, KET0.amplitudes)) ** 2 == pytest.approx(1.0)


def test_common_state_golden_pair():
    chi = choose_common_state(*golden_pair())
    assert np.allclose(np.abs(chi.amplitudes), [1, 0], atol=1e-8)


def test_common_state_deterministic_on_degenerate_intersection():
    half = validate_density(np.eye(2) / 2)
    first = choose_common_state(half, half)
    second = choose_common_state(half, half)
    assert first.amplitudes.tobytes() == second.amplitudes.tobytes()


def test_common_state_raises_when_incompatible():
    zero = validate_density(np.diag([1.0, 0.0]))
    one = validate_density(np.diag([0.0, 1.0]))
    with pytest.raises(Incompatible):
        choose_common_state(zero, one)


# ---------------------------------------------------------------------------
# maximal shared weight


def test_weight_of_pure_state_is_one():
    rho = validate_density(KET0.projector())
    assert max_common_weight(rho, KET0) == pytest.approx(1.0, abs=1e-12)


def test_weight_in_maximally_mixed_qubit():
    # oracle: inverse of I/2 is 2I, so the quadratic form is 2
    rho = validate_density(np.eye(2) / 2)
    p = max_common_weight(rho, KET0)
    assert p == pytest.approx(0.5, abs=1e-12)
    remainder = rho.matrix - p * KET0.projector()
    assert np.allclose(remainder, np.diag([0.0, 0.5]), atol=1e-12)


def test_weight_skewed_state_against_plus():
    # oracle: 1 / (0.5 * (4/3 + 4)) = 0.375, and the bisection line search
    rho = validate_density(np.diag([0.75, 0.25]))
    p = max_common_weight(rho, PLUS)
    assert p == pytest.approx(0.375, abs=1e-12)
    assert p == pytest.approx(psd_weight_by_bisection(rho, PLUS), abs=1e-6)


def test_weight_is_maximal_random():
    rng = np.random.default_rng(83)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, dim + 1))
        rho = random_density_conditioned(rng, dim, rank)
        mix = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
        basis = support_of(rho.matrix).basis
        chi_vec = basis @ mix
        chi = PureState(chi_vec / np.linalg.norm(chi_vec))
        p = max_common_weight(rho, chi)
        lam_at = np.linalg.eigvalsh(rho.matrix - p * chi.projector())[0]
        lam_beyond = np.linalg.eigvalsh(rho.matrix - (p + 1e-6) * chi.projector())[0]
        assert lam_at >= -1e-9
        assert lam_beyond < -1e-9
        assert p == pytest.approx(psd_weight_by_bisection(rho, chi), abs=1e-6)


def test_weight_builds_no_remainder_terms(monkeypatch):
    # the remainder's terms need a QR of chi's overlaps; the weight alone does not
    a, b = full_rank_pair(np.random.default_rng(89), 16)
    chi = choose_common_state(a, b)
    p = max_common_weight(a, chi)
    calls = spy(monkeypatch, np.linalg.qr, np.linalg)
    assert max_common_weight(a, chi) == p
    assert calls == []


def test_weight_rejects_chi_outside_support():
    rho = validate_density(KET0.projector())
    with pytest.raises(ChiOutsideSupport):
        max_common_weight(rho, PLUS)


# ---------------------------------------------------------------------------
# shared decompositions


def test_decomposition_identical_pure_assignments():
    rho = validate_density(KET0.projector())
    d = build_shared_decomposition(rho, rho)
    assert d.p0 == pytest.approx(1.0)
    assert d.q0 == pytest.approx(1.0)
    assert d.rest_a == () and d.rest_b == ()


def test_decomposition_golden_pair():
    rho_a, rho_b = golden_pair()
    d = build_shared_decomposition(rho_a, rho_b)
    assert np.allclose(np.abs(d.chi.amplitudes), [1, 0], atol=1e-8)
    assert d.p0 == pytest.approx(1.0, abs=1e-12)
    assert d.rest_a == ()
    assert d.q0 == pytest.approx(0.5, abs=1e-12)
    assert len(d.rest_b) == 1
    weight, state = d.rest_b[0]
    assert weight == pytest.approx(0.5, abs=1e-12)
    assert abs(np.vdot(state.amplitudes, PLUS.amplitudes)) ** 2 == pytest.approx(1.0)
    # remainder must rebuild the second mixture exactly
    assert max_abs(d.rho_b().matrix - rho_b.matrix) <= 1e-9
    assert max_abs(d.rho_a().matrix - rho_a.matrix) <= 1e-9


def test_decomposition_reconstruction_random():
    rng = np.random.default_rng(89)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        a, b, _ = compatible_pair(rng, dim)
        d = build_shared_decomposition(a, b)
        assert max_abs(d.rho_a().matrix - a.matrix) <= 1e-9
        assert max_abs(d.rho_b().matrix - b.matrix) <= 1e-9
        assert d.p0 > 0 and d.q0 > 0


def test_decomposition_raises_when_incompatible():
    zero = validate_density(np.diag([1.0, 0.0]))
    one = validate_density(np.diag([0.0, 1.0]))
    with pytest.raises(Incompatible):
        build_shared_decomposition(zero, one)


# ---------------------------------------------------------------------------
# witness assembly


def test_witness_single_term():
    rho = validate_density(KET0.projector())
    w = build_witness(build_shared_decomposition(rho, rho))
    assert w.dims == (1, 1, 2)
    assert w.normalization == pytest.approx(1.0)
    assert np.allclose(w.amplitudes.amplitudes, [1, 0], atol=1e-12)


def test_witness_golden_pair_normalization():
    # oracle: with p0 = 1 the identity reads 1/N^2 = 1/q0 = 2
    d = build_shared_decomposition(*golden_pair())
    w = build_witness(d)
    assert w.dims == (2, 1, 2)
    assert 1.0 / w.normalization**2 == pytest.approx(2.0, abs=1e-9)
    assert np.linalg.norm(w.amplitudes.amplitudes) == pytest.approx(1.0, abs=1e-10)


def test_witness_invariants_random():
    rng = np.random.default_rng(97)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        a, b, _ = compatible_pair(rng, dim)
        d = build_shared_decomposition(a, b)
        w = build_witness(d)
        assert w.dims[0] == 1 + len(d.rest_b)
        assert w.dims[1] == 1 + len(d.rest_a)
        assert w.dims[2] == dim
        identity = 1.0 / d.p0 + 1.0 / d.q0 - 1.0
        assert 1.0 / w.normalization**2 == pytest.approx(identity, abs=1e-9)
        assert np.linalg.norm(w.amplitudes.amplitudes) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# protocol simulation


def test_protocol_trivial_witness():
    rho = validate_density(KET0.projector())
    w = build_witness(build_shared_decomposition(rho, rho))
    result = simulate_protocol(w)
    assert max_abs(result.rho_alice.matrix - rho.matrix) <= 1e-12
    assert max_abs(result.rho_bob.matrix - rho.matrix) <= 1e-12
    assert abs(np.vdot(result.joint.amplitudes, KET0.amplitudes)) ** 2 == pytest.approx(1.0)
    assert result.p_alice == pytest.approx(1.0)
    assert result.p_both == pytest.approx(1.0)


def test_protocol_golden_pair_round_trip():
    rho_a, rho_b = golden_pair()
    d = build_shared_decomposition(rho_a, rho_b)
    result = simulate_protocol(build_witness(d))
    assert max_abs(result.rho_alice.matrix - rho_a.matrix) <= 1e-8
    assert max_abs(result.rho_bob.matrix - rho_b.matrix) <= 1e-8
    overlap = abs(np.vdot(result.joint.amplitudes, d.chi.amplitudes)) ** 2
    assert overlap >= 1 - 1e-8
    assert result.p_both > 0


def test_protocol_round_trip_random():
    rng = np.random.default_rng(101)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        a, b, _ = compatible_pair(rng, dim)
        d = build_shared_decomposition(a, b)
        result = simulate_protocol(build_witness(d))
        assert max_abs(result.rho_alice.matrix - a.matrix) <= 1e-8
        assert max_abs(result.rho_bob.matrix - b.matrix) <= 1e-8
        overlap = abs(np.vdot(result.joint.amplitudes, d.chi.amplitudes)) ** 2
        assert overlap >= 1 - 1e-8
        assert result.p_alice > 0 and result.p_bob > 0 and result.p_both > 0


def test_constructed_joint_respects_every_observer():
    rng = np.random.default_rng(103)
    for _ in range(25):
        dim = int(rng.integers(2, 7))
        a, b, _ = compatible_pair(rng, dim)
        d = build_shared_decomposition(a, b)
        joint = validate_density(d.chi.projector())
        ok, _ = verify_joint(joint, [a, b])
        assert ok


def test_compatibility_and_construction_agree():
    # whenever the check passes construction succeeds; when it fails the
    # common-state search raises -- no third outcome
    rng = np.random.default_rng(107)
    for k in range(40):
        dim = int(rng.integers(2, 7))
        if k % 2 == 0:
            a, b, _ = compatible_pair(rng, dim)
        else:
            a = validate_density(random_pure(rng, dim).projector())
            b = validate_density(random_pure(rng, dim).projector())
        if check_bfm([a, b]).verdict_bfm:
            d = build_shared_decomposition(a, b)
            assert d.p0 > 0 and d.q0 > 0
        else:
            with pytest.raises(Incompatible):
                choose_common_state(a, b)


# ---------------------------------------------------------------------------
# protocol simulation against the dense operator chain


def dense_witness(d):
    """Oracle: the witness vector summed term by term from the paper's formula."""
    raw = np.zeros((1 + len(d.rest_b), 1 + len(d.rest_a), d.dim), dtype=complex)
    raw[0, 0] = d.chi.amplitudes
    for i, (p_i, psi_i) in enumerate(d.rest_a, start=1):
        raw[0, i] = np.sqrt(p_i / d.p0) * psi_i.amplitudes
    for j, (q_j, phi_j) in enumerate(d.rest_b, start=1):
        raw[j, 0] = np.sqrt(q_j / d.q0) * phi_j.amplitudes
    return PureState(raw / np.linalg.norm(raw))


def dense_protocol(amplitudes, dims):
    """Oracle: the protocol through full operators on ancilla (x) system.

    Project one ancilla onto |0>, form the projector of the conditional
    state, validate it and trace out the other ancilla; pool by projecting
    Alice's conditional state once more.
    """
    dim_a, dim_b, dim_s = dims
    p_alice, cond_bs = project_and_renormalize(amplitudes, dims, 0, basis_state(dim_a, 0))
    rho_alice = partial_trace(validate_density(cond_bs.projector()), (dim_b, dim_s), {1})
    p_bob, cond_as = project_and_renormalize(amplitudes, dims, 1, basis_state(dim_b, 0))
    rho_bob = partial_trace(validate_density(cond_as.projector()), (dim_a, dim_s), {1})
    p_second, joint = project_and_renormalize(
        cond_bs, (dim_b, dim_s), 0, basis_state(dim_b, 0)
    )
    return rho_alice, rho_bob, joint, p_alice, p_bob, p_alice * p_second


def random_decomposition(rng, dims, p0=None, q0=None):
    """A shared decomposition whose witness has the given dims.

    The extra terms are random pure states (not orthogonal) with random
    positive weights; a leading weight is drawn unless given, and is 1 on
    a side without extra terms.
    """
    dim_a, dim_b, dim_s = dims

    def side(head, n):
        if n == 0:
            return 1.0, ()
        head = rng.uniform(0.05, 0.95) if head is None else head
        weights = rng.uniform(0.1, 1.0, n)
        weights *= (1.0 - head) / weights.sum()
        return head, tuple((w, random_pure(rng, dim_s)) for w in weights)

    p0, rest_a = side(p0, dim_b - 1)
    q0, rest_b = side(q0, dim_a - 1)
    return SharedDecomposition(random_pure(rng, dim_s), p0, q0, rest_a, rest_b)


def test_witness_stores_only_its_decomposition():
    d = random_decomposition(np.random.default_rng(139), (3, 4, 5))
    w = build_witness(d)
    assert [f.name for f in dataclasses.fields(WitnessState)] == ["decomposition"]
    assert w.dims == (3, 4, 5)
    assert 1.0 / w.normalization**2 == pytest.approx(1 / d.p0 + 1 / d.q0 - 1, rel=1e-15)
    # the dense vector is assembled on each read and not kept
    assert max_abs(w.amplitudes.amplitudes - dense_witness(d).amplitudes) <= 1e-15
    assert w.amplitudes is not w.amplitudes
    assert list(vars(w)) == ["decomposition"]


def test_reading_the_dense_amplitudes_holds_the_vector_once():
    # the vector is unit-scaled and frozen in place, not copied into the state:
    # a copy would double the peak (8 MiB for this 4 MiB vector)
    d = build_shared_decomposition(*full_rank_pair(np.random.default_rng(167), 64))
    w = build_witness(d)
    assert w.dims == (64, 64, 64)
    tracemalloc.start()
    try:
        amplitudes = w.amplitudes.amplitudes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * amplitudes.nbytes
    assert np.linalg.norm(amplitudes) == pytest.approx(1.0, abs=1e-14)


def test_dense_amplitudes_absorb_the_weight_slack():
    # weights may sum to 1 within WEIGHT_TOL; here N times the raw terms has
    # norm 1 + 2.5e-10, beyond the unit-norm check of a PureState
    rng = np.random.default_rng(163)
    rest_a = ((0.25, random_pure(rng, 3)), (0.25 + 5e-10, random_pure(rng, 3)))
    d = SharedDecomposition(random_pure(rng, 3), 0.5, 1.0, rest_a, ())
    amplitudes = build_witness(d).amplitudes.amplitudes
    assert np.linalg.norm(amplitudes) == pytest.approx(1.0, abs=1e-15)
    assert max_abs(amplitudes - dense_witness(d).amplitudes) <= 1e-15


def test_protocol_matches_dense_chain():
    rng = np.random.default_rng(109)
    decompositions = [
        random_decomposition(rng, (dim_a, dim_b, dim_s))
        for dim_a in range(1, 5)
        for dim_b in range(1, 5)
        for dim_s in range(1, 7)
    ]
    for dim in range(2, 7):
        a, b, _ = compatible_pair(rng, dim)
        decompositions.append(build_shared_decomposition(a, b))
    for d in decompositions:
        w = build_witness(d)
        result = simulate_protocol(w)
        rho_alice, rho_bob, joint, p_alice, p_bob, p_both = dense_protocol(
            dense_witness(d), w.dims
        )
        assert max_abs(result.rho_alice.matrix - rho_alice.matrix) <= 1e-14, w.dims
        assert max_abs(result.rho_bob.matrix - rho_bob.matrix) <= 1e-14, w.dims
        assert (result.rho_alice.label, result.rho_bob.label) == ("A", "B")
        overlap = np.vdot(joint.amplitudes, result.joint.amplitudes)
        phase = overlap / abs(overlap)
        assert max_abs(result.joint.amplitudes - phase * joint.amplitudes) <= 1e-14, w.dims
        assert abs(result.p_alice - p_alice) <= 1e-14
        assert abs(result.p_bob - p_bob) <= 1e-14
        assert abs(result.p_both - p_both) <= 1e-14


# The ids are those of the earlier cases, which zeroed a slice of a stored
# amplitude tensor for the same three outcomes; they keep the test names stable.
@pytest.mark.parametrize(
    "p0, q0, outcome",
    [
        pytest.param(0.5, 1e-10, "alice", id="0"),
        pytest.param(1e-10, 0.5, "bob", id="outcome1"),
        pytest.param(5e-10, 1e-3, "conditional", id="outcome2"),
    ],
)
def test_protocol_rejects_zero_probability_outcome(p0, q0, outcome):
    # p_alice = q0 / (p0 + q0 - p0 q0), p_bob = p0 / (same), and Bob's outcome
    # after Alice's has conditional probability p0
    d = random_decomposition(np.random.default_rng(137), (3, 3, 4), p0, q0)
    expected = {
        "alice": q0 / (p0 + q0 - p0 * q0),
        "bob": p0 / (p0 + q0 - p0 * q0),
        "conditional": p0,
    }[outcome]
    assert expected <= 1e-9
    with pytest.raises(ZeroProbabilityOutcome) as exc:
        simulate_protocol(build_witness(d))
    assert exc.value.probability == pytest.approx(expected, rel=1e-9)


def test_protocol_allocates_less_than_the_witness():
    # the dense chain formed (dim_b D)^2 projectors here: a 64 MiB peak
    a, b = full_rank_pair(np.random.default_rng(113), 32)
    w = build_witness(build_shared_decomposition(a, b))
    assert w.dims == (32, 32, 32)
    tracemalloc.start()
    try:
        simulate_protocol(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < w.amplitudes.amplitudes.nbytes


def test_witness_and_protocol_stay_small_at_full_rank_dim_256():
    # a dense 256 x 256 x 256 witness alone is 256 MiB
    d = build_shared_decomposition(*full_rank_pair(np.random.default_rng(151), 256))
    tracemalloc.start()
    try:
        w = build_witness(d)
        result = simulate_protocol(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.dims == (256, 256, 256)
    assert peak < 16 * 2**20
    assert result.p_both == pytest.approx(w.normalization**2, abs=1e-14)


def test_protocol_round_trip_full_rank_dim_64():
    a, b = full_rank_pair(np.random.default_rng(127), 64)
    d = build_shared_decomposition(a, b)
    w = build_witness(d)
    assert w.dims == (64, 64, 64)
    result = simulate_protocol(w)
    assert max_abs(result.rho_alice.matrix - a.matrix) <= 1e-8
    assert max_abs(result.rho_bob.matrix - b.matrix) <= 1e-8
    assert abs(np.vdot(result.joint.amplitudes, d.chi.amplitudes)) ** 2 >= 1 - 1e-8
    assert result.p_both == pytest.approx(w.normalization**2, abs=1e-14)


def _near_miss(theta, error):
    return pytest.param(
        theta,
        marks=pytest.mark.xfail(
            strict=True,
            raises=error,
            reason="check_bfm accepts principal angles up to 2 sqrt(overlap_tol), "
            "but a common state must lie within 1e-8 of both supports",
        ),
    )


@pytest.mark.parametrize(
    "theta",
    [_near_miss(3.2e-4, ChiOutsideSupport), _near_miss(6.3e-6, ChiOutsideSupport),
     1e-9],
)
def test_compatible_verdict_always_has_a_witness(theta):
    # two pure states in C^2 at principal angle theta
    a = validate_density(np.diag([1.0, 0.0]))
    v = np.array([np.cos(theta), np.sin(theta)])
    b = validate_density(np.outer(v, v))
    if not check_bfm([a, b]).verdict_bfm:
        with pytest.raises(Incompatible):
            choose_common_state(a, b)
        return
    d = build_shared_decomposition(a, b)
    result = simulate_protocol(build_witness(d))
    assert max_abs(result.rho_alice.matrix - a.matrix) <= 1e-8
    assert max_abs(result.rho_bob.matrix - b.matrix) <= 1e-8


def test_decomposition_gives_back_the_cutoff_mass():
    # the kept eigenvalues sum to 1 - 2.06e-9, outside WEIGHT_TOL of one; the
    # shared weight and the remainder read them rescaled to sum to one
    a, b, dropped = cutoff_mass_pair(np.random.default_rng(131))
    assert dropped > WEIGHT_TOL
    kept = a.spectrum[0][:40]
    assert max_common_weight(a, PureState(a.spectrum[1][:, 0])) == pytest.approx(
        kept[0] / kept.sum(), rel=1e-12
    )
    d = build_shared_decomposition(a, b)
    assert (len(d.rest_a), len(d.rest_b)) == (39, 0)
    assert abs(d.p0 + sum(w for w, _ in d.rest_a) - 1.0) <= 1e-12
    assert max_abs(d.rho_a().matrix - a.matrix) <= dropped
    assert max_abs(d.rho_b().matrix - b.matrix) <= 1e-12
    result = simulate_protocol(build_witness(d))
    assert max_abs(result.rho_alice.matrix - d.rho_a().matrix) <= 1e-8
