import dataclasses

import numpy as np
import pytest

from qcompat import (
    CompatReport,
    DensityMatrix,
    DimensionMismatch,
    FewerThanTwoStates,
    NotPure,
    PureState,
    Tolerances,
    check_bfm,
    check_pi,
    check_pii,
    check_pure_pair,
    max_abs,
    projector_from,
    support_of,
    validate_density,
    verify_joint,
)
from qcompat.linalg import _hermitian_deviation
from conftest import (
    compatible_pair,
    delta_bound,
    golden_pair,
    per_pair_norms,
    product_bound,
    product_rounding,
    random_density,
    random_density_conditioned,
    random_density_exact,
    random_pure,
    random_unitary,
)


def pii_without_bfm_pair():
    """Dim-3 pair with overlapping but non-intersecting supports."""
    a = validate_density(np.diag([0.5, 0.5, 0.0]))
    v = np.array([1, 0, 1]) / np.sqrt(2)
    b = validate_density(np.outer(v, v.conj()))
    return a, b


# ---------------------------------------------------------------------------
# pairwise criteria


def test_pi_commuting_pairs():
    half = validate_density(np.eye(2) / 2)
    pure = validate_density(np.outer([1, 0], [1, 0]))
    ok, norm = check_pi(half, pure)
    assert ok and norm == 0.0
    ok, norm = check_pi(pure, pure)
    assert ok and norm == 0.0


def test_pi_fails_on_golden_pair():
    # oracle: commutator entries computed by hand, max entry 1/4
    ok, norm = check_pi(*golden_pair())
    assert not ok
    assert norm == pytest.approx(0.25, abs=1e-12)


def test_pii_orthogonal_pure_states():
    zero = validate_density(np.diag([1.0, 0.0]))
    one = validate_density(np.diag([0.0, 1.0]))
    ok, norm = check_pii(zero, one)
    assert not ok and norm == 0.0


def test_pii_full_support_always_holds():
    rng = np.random.default_rng(43)
    half = validate_density(np.eye(2) / 2)
    for _ in range(10):
        ok, _ = check_pii(half, random_density(rng, 2))
        assert ok


def test_pii_holds_on_golden_pair():
    # oracle: product entries computed by hand, max entry 3/4
    ok, norm = check_pii(*golden_pair())
    assert ok
    assert norm == pytest.approx(0.75, abs=1e-12)


def test_pairwise_criteria_reject_dimension_mismatch():
    a = validate_density(np.eye(2) / 2)
    b = validate_density(np.eye(3) / 3)
    with pytest.raises(DimensionMismatch):
        check_pi(a, b)
    with pytest.raises(DimensionMismatch):
        check_pii(a, b)


def commuting_density(rng, frame):
    """Density matrix diagonal in ``frame``, with exactly Hermitian entries."""
    weights = rng.uniform(0.0, 1.0, size=frame.shape[1])
    weights[rng.random(frame.shape[1]) < 0.3] = 0.0
    weights[0] += 0.1
    m = (frame * weights) @ frame.conj().T
    m = (m + m.conj().T) / 2
    return validate_density(m / np.trace(m).real)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_pairwise_norms_match_old_formulas(n):
    # oracle: three products per pair, ab and ba for the commutator and ab for the product
    rng = np.random.default_rng(97 + n)
    for dim in (2, 3, 4, 5, 8, 13, 16):
        frame = random_unitary(rng, dim)
        for trial in range(6):
            if trial % 2:
                states = [commuting_density(rng, frame) for _ in range(n)]
            else:
                states = [random_density_exact(rng, dim) for _ in range(n)]
            for s in states:
                assert np.array_equal(s.matrix, s.matrix.conj().T)
            pairs = [(x.matrix, y.matrix) for i, x in enumerate(states) for y in states[i + 1 :]]
            old_products = [max_abs(a @ b) for a, b in pairs]
            old_commutators = [max_abs(a @ b - b @ a) for a, b in pairs]

            products, commutators = per_pair_norms(states)
            bounds = [product_bound(x, y) for i, x in enumerate(states) for y in states[i + 1 :]]
            assert np.all(np.abs(products - old_products) <= bounds)
            assert np.all(np.abs(commutators - old_commutators) <= product_rounding(dim))

            report = check_bfm(states)
            assert report.product_norm == min(old_products)
            assert abs(report.commutator_norm - max(old_commutators)) <= product_rounding(dim)
            assert report.verdict_pii == all(p > 1e-7 for p in old_products)
            assert report.verdict_pi == all(c <= 1e-7 for c in old_commutators)
            if trial % 2:
                assert report.verdict_pi


def test_pairwise_norms_use_hermitian_parts():
    # within hermiticity_tol an input may be slightly non-Hermitian; the state
    # holds its Hermitian part, and the norms are those of the Hermitian parts
    rng = np.random.default_rng(107)
    for dim in (3, 4, 7):
        raw, states = [], []
        for _ in range(3):
            m = random_density_exact(rng, dim).matrix
            noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            raw.append(m + 2e-11 * (noise - noise.conj().T))
            states.append(validate_density(raw[-1]))
        hs = [(r + r.conj().T) / 2 for r in raw]
        assert max_abs(raw[0] - hs[0]) > 1e-12
        assert states[0].matrix.tobytes() == hs[0].tobytes()
        pairs = [(hs[i], hs[j]) for i in range(3) for j in range(i + 1, 3)]
        products, commutators = per_pair_norms(states)
        bounds = [product_bound(states[i], states[j]) for i in range(3) for j in range(i + 1, 3)]
        assert np.all(np.abs(products - [max_abs(a @ b) for a, b in pairs]) <= bounds)
        old_commutators = [max_abs(a @ b - b @ a) for a, b in pairs]
        assert np.all(np.abs(commutators - old_commutators) <= product_rounding(dim))


def tail_density(rng, dim, rank, tail, level=1e-7):
    """Rank ``rank + tail`` state whose last ``tail`` eigenvalues equal ``level``."""
    frame = random_unitary(rng, dim)[:, : rank + tail]
    weights = np.concatenate([rng.uniform(0.1, 1.1, size=rank), np.full(tail, level)])
    weights[:rank] *= (1.0 - tail * level) / weights[:rank].sum()
    m = (frame * weights) @ frame.conj().T
    return validate_density((m + m.conj().T) / 2)


def test_check_pi_and_check_pii_equal_check_bfm_for_two_states():
    rng = np.random.default_rng(101)
    for dim in (2, 3, 6, 8):
        for _ in range(5):
            a, b = random_density(rng, dim), random_density(rng, dim)
            report = check_bfm([a, b])
            assert check_pi(a, b) == (report.verdict_pi, report.commutator_norm)
            assert check_pii(a, b) == (report.verdict_pii, report.product_norm)
    # rank-deficient states with eigenvalues 1e-7, kept at the default cutoff
    # and dropped at 1e-6: the norms move, and the standalone checks follow tol
    tol = Tolerances(eigenvalue_zero_tol=1e-6)
    for dim in (3, 40, 64):
        for _ in range(3):
            a, b = (tail_density(rng, dim, max(1, dim // 4), 2) for _ in range(2))
            for t in (None, tol):
                report = check_bfm([a, b], t)
                assert check_pi(a, b, t) == (report.verdict_pi, report.commutator_norm)
                assert check_pii(a, b, t) == (report.verdict_pii, report.product_norm)
            if dim >= 32:
                assert check_pii(a, b, tol)[1] != check_pii(a, b)[1]
                assert check_pi(a, b, tol)[1] != check_pi(a, b)[1]


def test_check_pi_and_check_pii_read_unvalidated_states_at_every_dim():
    # DensityMatrix checks structure only: an eigenvalue below
    # -eigenvalue_zero_tol is dropped like the small ones, at every D, and
    # the norms stay within the delta bound of the dense ones
    rng = np.random.default_rng(103)
    for dim in (8, 40, 64):
        frame = random_unitary(rng, dim)
        weights = np.zeros(dim)
        weights[: dim // 4] = 1.0 / (dim // 4)
        weights[-1] = -1e-6
        m = (frame * weights) @ frame.conj().T
        a = DensityMatrix((m + m.conj().T) / 2)
        b = random_density(rng, dim, dim // 4)
        assert a.spectrum[0][-1] < -Tolerances().eigenvalue_zero_tol
        ha, hb = ((s.matrix + s.matrix.conj().T) / 2 for s in (a, b))
        _, product = check_pii(a, b)
        assert abs(product - max_abs(ha @ hb)) <= product_bound(a, b)
        _, commutator = check_pi(a, b)
        slack = 2 * delta_bound(a, b) if dim >= 32 else 0.0
        assert abs(commutator - max_abs(ha @ hb - hb @ ha)) <= slack + product_rounding(dim)


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("dim", [1, 2, 31, 32, 33, 63, 64, 65, 256])
def test_blocked_commutator_pass_matches_whole_stack(dim, batch):
    rng = np.random.default_rng(dim + 1000 * batch)
    p = rng.standard_normal((batch, dim, dim)) + 1j * rng.standard_normal((batch, dim, dim))
    whole = np.abs(p - p.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    assert _hermitian_deviation(p).tobytes() == whole.tobytes()


# ---------------------------------------------------------------------------
# support-intersection criterion


def test_bfm_self_compatibility():
    rng = np.random.default_rng(47)
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        rho = random_density(rng, dim)
        report = check_bfm([rho, rho])
        assert report.verdict_bfm
        assert report.intersection_dim == support_of(rho.matrix).dimension


def test_bfm_orthogonal_pure_states():
    zero = validate_density(np.diag([1.0, 0.0]))
    one = validate_density(np.diag([0.0, 1.0]))
    report = check_bfm([zero, one])
    assert not report.verdict_bfm
    assert report.intersection_dim == 0


def test_bfm_golden_pair():
    report = check_bfm(list(golden_pair()))
    assert report.verdict_bfm
    assert report.intersection_dim == 1
    assert np.allclose(np.abs(report.intersection_basis.basis[:, 0]), [1, 0], atol=1e-8)
    assert not report.verdict_pi
    assert report.verdict_pii
    assert report.n_states == 2
    assert not report.pairwise_conjunction


def test_compat_report_stores_only_its_evidence():
    fields = [f.name for f in dataclasses.fields(CompatReport)]
    assert fields == [
        "intersection_basis", "commutator_norm", "product_norm", "tolerances_used", "n_states"
    ]
    assert "__post_init__" not in vars(CompatReport)
    a, b = golden_pair()
    report = check_bfm([a, b, a])
    assert list(vars(report)) == fields
    # the verdicts follow the evidence, so a report cannot contradict itself
    assert report.intersection_dim == report.intersection_basis.dimension == 1
    assert report.verdict_bfm is True and report.pairwise_conjunction is True
    tol = report.tolerances_used
    assert report.verdict_pi is (report.commutator_norm <= tol.overlap_tol) is False
    assert report.verdict_pii is (report.product_norm > tol.overlap_tol) is True
    loose = dataclasses.replace(report, tolerances_used=Tolerances(overlap_tol=0.3), n_states=2)
    assert loose.verdict_pi and not loose.pairwise_conjunction
    with pytest.raises(TypeError):
        CompatReport(report.intersection_basis, 0.0, 1.0, tol, verdict_bfm=True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.verdict_pi = True


def test_bfm_requires_two_states():
    rho = validate_density(np.eye(2) / 2)
    with pytest.raises(FewerThanTwoStates):
        check_bfm([rho])


def test_bfm_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        check_bfm([validate_density(np.eye(2) / 2), validate_density(np.eye(3) / 3)])


def test_bfm_permutation_symmetry():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a, b, _ = compatible_pair(rng, 4)
        c = random_density_conditioned(rng, 4)
        fwd = check_bfm([a, b, c])
        rev = check_bfm([c, a, b])
        assert fwd.verdict_bfm == rev.verdict_bfm
        assert fwd.intersection_dim == rev.intersection_dim


def test_bfm_unitary_covariance():
    rng = np.random.default_rng(59)
    for _ in range(15):
        dim = int(rng.integers(2, 7))
        a, b, _ = compatible_pair(rng, dim)
        u = random_unitary(rng, dim)
        rotated = [
            validate_density(u @ s.matrix @ u.conj().T) for s in (a, b)
        ]
        base = check_bfm([a, b])
        moved = check_bfm(rotated)
        assert base.verdict_bfm == moved.verdict_bfm
        assert base.intersection_dim == moved.intersection_dim
        p_base = projector_from(base.intersection_basis)
        p_moved = projector_from(moved.intersection_basis)
        assert max_abs(p_moved - u @ p_base @ u.conj().T) <= 1e-8


def test_bfm_implies_pii_random():
    rng = np.random.default_rng(61)
    for k in range(200):
        dim = int(rng.integers(2, 9))
        if k % 2 == 0:
            a, b, _ = compatible_pair(rng, dim)
        else:
            a = random_density_conditioned(rng, dim)
            b = random_density_conditioned(rng, dim)
        report = check_bfm([a, b])
        if report.verdict_bfm:
            assert report.verdict_pii


def test_pii_does_not_imply_bfm():
    report = check_bfm(list(pii_without_bfm_pair()))
    assert report.verdict_pii
    assert not report.verdict_bfm
    assert report.product_norm == pytest.approx(0.25, abs=1e-12)


# ROADMAP item 7: PII compares the max-entry norm of rho_a rho_b with the
# absolute overlap_tol, so it reads weights and the basis, not the supports.
# The item that decides PII on the supports removes both marks.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: BFM without PII at small weights")
def test_compatible_pair_is_never_orthogonal():
    # the supports share e0, held with weight 1e-4 by both: the product norm
    # is 1e-8, below overlap_tol, so PII fails on a compatible pair
    a = validate_density(np.diag([1e-4, 1 - 1e-4, 0.0]))
    b = validate_density(np.diag([1e-4, 0.0, 1 - 1e-4]))
    report = check_bfm([a, b])
    assert report.verdict_bfm
    assert report.verdict_pii


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: the PII verdict depends on the basis")
def test_pii_verdict_survives_a_common_unitary():
    # the product norm is 2e-7 in the computational basis, so PII holds, and
    # 1.25e-8 after a common Fourier unitary, so PII fails
    dim = 16
    psi = np.eye(dim)[1] + 2e-7 * np.eye(dim)[0]
    psi /= np.linalg.norm(psi)
    mats = [np.diag(np.eye(dim)[0]).astype(complex), np.outer(psi, psi.conj())]
    fourier = np.fft.fft(np.eye(dim)) / np.sqrt(dim)
    turned = [fourier @ m @ fourier.conj().T for m in mats]
    assert check_pii(*map(validate_density, mats))[0]
    assert check_pii(*map(validate_density, turned))[0]


def test_bfm_three_observers_conjunction():
    a, b = golden_pair()
    half = validate_density(np.eye(2) / 2)
    report = check_bfm([a, b, half])
    assert report.pairwise_conjunction
    assert report.n_states == 3
    assert report.verdict_bfm and report.intersection_dim == 1
    assert not report.verdict_pi  # the (a, b) pair already fails


def test_bfm_monotone_in_observers():
    rng = np.random.default_rng(67)
    for _ in range(10):
        dim = 5
        a, b, _ = compatible_pair(rng, dim)
        c = random_density_conditioned(rng, dim)
        two = check_bfm([a, b])
        three = check_bfm([a, b, c])
        assert three.intersection_dim <= two.intersection_dim


# ---------------------------------------------------------------------------
# pure-state special case


def test_pure_pair_phase_invariance():
    zero = validate_density(np.diag([1.0, 0.0]))
    phased = PureState(1j * np.array([1, 0], dtype=complex))
    also_zero = validate_density(phased.projector())
    assert check_pure_pair(zero, also_zero)


def test_pure_pair_distinct_states():
    zero = validate_density(np.diag([1.0, 0.0]))
    plus = PureState(np.array([1, 1]) / np.sqrt(2))
    assert not check_pure_pair(zero, validate_density(plus.projector()))


def test_pure_pair_rejects_mixed_input():
    with pytest.raises(NotPure):
        check_pure_pair(
            validate_density(np.eye(2) / 2), validate_density(np.diag([1.0, 0.0]))
        )


def test_pure_pair_names_a_state_whose_support_the_cutoff_empties():
    # a ValueError naming the state, as check_bfm raises, not "state has rank 0"
    r = validate_density(np.diag([1.0, 0.0]), label="R")
    with pytest.raises(ValueError) as exc:
        check_pure_pair(r, r, Tolerances(eigenvalue_zero_tol=2))
    assert not isinstance(exc.value, NotPure)
    assert str(exc.value) == (
        "state 0 (label 'R') has an empty support: its largest eigenvalue 1 "
        "is at or below eigenvalue_zero_tol 2"
    )
    mixed = validate_density(np.eye(2) / 2, label="M")
    with pytest.raises(ValueError, match=r"^state 1 \(label 'M'\) has an empty support"):
        check_pure_pair(r, mixed, Tolerances(eigenvalue_zero_tol=0.5))
    with pytest.raises(NotPure, match="^state has rank 2, expected 1$"):
        check_pure_pair(r, mixed)


def test_pure_pair_matches_bfm_on_random_pairs():
    rng = np.random.default_rng(71)
    for k in range(500):
        dim = int(rng.integers(2, 9))
        psi = random_pure(rng, dim)
        if k % 3 == 0:
            phase = np.exp(2j * np.pi * rng.uniform())
            phi = PureState(phase * psi.amplitudes)
        else:
            phi = random_pure(rng, dim)
        a = validate_density(psi.projector())
        b = validate_density(phi.projector())
        assert check_pure_pair(a, b) == check_bfm([a, b]).verdict_bfm


@pytest.mark.parametrize("theta, compatible", [(3e-4, True), (5e-4, True), (7e-4, False)])
def test_pure_pair_follows_the_intersection_rule_near_the_threshold(theta, compatible):
    # cos(theta) against 1 - 2 overlap_tol = 1 - 2e-7: 1 - 4.5e-8, 1 - 1.25e-7 and
    # 1 - 2.45e-7; |<a|b>|^2 >= 1 - overlap_tol would reject 5e-4 (1 - 2.5e-7)
    rng = np.random.default_rng(139)
    for dim in (2, 5):
        frame = random_unitary(rng, dim)
        psi = frame[:, 0]
        phi = np.exp(0.7j) * (np.cos(theta) * frame[:, 0] + np.sin(theta) * frame[:, 1])
        a, b = (validate_density(np.outer(v, v.conj())) for v in (psi, phi))
        assert check_bfm([a, b]).verdict_bfm == compatible
        assert check_pure_pair(a, b) == compatible
        assert check_pure_pair(b, a) == compatible


# ---------------------------------------------------------------------------
# joint-state constraint


def test_verify_joint_accepts_common_pure_state():
    a, b, chi = compatible_pair(np.random.default_rng(73), 4)
    joint = validate_density(chi.projector())
    ok, report = verify_joint(joint, [a, b])
    assert ok
    assert report.leakage <= 1e-7
    for leak in report.per_observer:
        assert leak.leaked_norm <= 1e-7


def test_verify_joint_rejects_overreaching_state():
    zero = validate_density(np.diag([1.0, 0.0]))
    joint = validate_density(np.eye(2) / 2)
    ok, report = verify_joint(joint, [zero, zero])
    assert not ok
    assert report.leakage > 1e-7
    assert all(leak.null_dim == 1 for leak in report.per_observer)
    assert all(leak.leaked_norm > 1e-7 for leak in report.per_observer)


def test_verify_joint_accepts_projected_state():
    rng = np.random.default_rng(79)
    for _ in range(25):
        dim = int(rng.integers(2, 7))
        a, b, _ = compatible_pair(rng, dim)
        report = check_bfm([a, b])
        p = projector_from(report.intersection_basis)
        m = p @ a.matrix @ p
        joint = validate_density(m / np.trace(m).real)
        ok, _ = verify_joint(joint, [a, b])
        assert ok


def test_verify_joint_leakage_matches_dense_formula():
    # oracle: max |(I - P_common) P_joint| with the identity and both projectors dense
    rng = np.random.default_rng(103)
    verdicts = set()
    for trial in range(40):
        dim = int(rng.integers(2, 9))
        a, b, chi = compatible_pair(rng, dim)
        observers = [a, b, validate_density(0.5 * chi.projector() + 0.5 * a.matrix)][: 1 + trial % 3]
        if trial % 2:
            joint = validate_density(chi.projector())
        else:
            joint = random_density(rng, dim)
        # the first observer repeated, so that a single observer works too
        p_common = projector_from(check_bfm([*observers, observers[0]]).intersection_basis)
        p_joint = projector_from(support_of(joint.matrix))
        dense = max_abs((np.eye(dim) - p_common) @ p_joint)
        ok, report = verify_joint(joint, observers)
        assert abs(report.leakage - dense) <= 1e-14
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_verify_joint_single_observer_uses_its_support():
    # oracle: with one observer the common support is that observer's support
    rng = np.random.default_rng(157)
    verdicts = set()
    for trial in range(20):
        dim = int(rng.integers(2, 7))
        obs = random_density(rng, dim, int(rng.integers(1, dim + 1)))
        joint = random_density(rng, dim, 1) if trial % 2 else validate_density(
            obs.matrix @ obs.matrix / np.trace(obs.matrix @ obs.matrix).real
        )
        p_obs = projector_from(support_of(obs.matrix))
        p_joint = projector_from(support_of(joint.matrix))
        dense = max_abs((np.eye(dim) - p_obs) @ p_joint)
        ok, report = verify_joint(joint, [obs])
        assert abs(report.leakage - dense) <= 1e-14
        assert ok == (dense <= Tolerances().overlap_tol)
        assert len(report.per_observer) == 1
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_verify_joint_requires_observers():
    joint = validate_density(np.eye(2) / 2)
    with pytest.raises(ValueError):
        verify_joint(joint, [])


def test_pure_pair_splits_both_states_before_the_rank_check():
    # a mixed first state beside a second whose support the cutoff empties:
    # the second state's ValueError, as check_bfm raises, not NotPure
    mixed = validate_density(np.diag([0.45, 0.45, 0.05, 0.05]), label="M")
    flat = validate_density(np.eye(4) / 4, label="E")
    with pytest.raises(ValueError) as exc:
        check_pure_pair(mixed, flat, Tolerances(eigenvalue_zero_tol=0.3))
    assert not isinstance(exc.value, NotPure)
    assert str(exc.value).startswith("state 1 (label 'E') has an empty support")
    with pytest.raises(ValueError, match=r"^state 1 \(label 'E'\) has an empty support"):
        check_bfm([mixed, flat], Tolerances(eigenvalue_zero_tol=0.3))
