import sys
import threading

import numpy as np
import pytest

from qcompat import (
    DensityMatrix,
    DimensionMismatch,
    EmptyKeep,
    Ensemble,
    NotHermitian,
    NotPSD,
    PureState,
    SharedDecomposition,
    TraceNotOne,
    ZeroProbabilityOutcome,
    basis_state,
    eigen_ensemble,
    from_ensemble,
    hermitian_eigendecompose,
    max_abs,
    partial_trace,
    project_and_renormalize,
    tensor,
    validate_density,
)
from qcompat.linalg import DEFAULT_TOLERANCES, _split_spectrum
from qcompat.states import WEIGHT_TOL
from conftest import (
    cutoff_mass_pair,
    product_rounding,
    random_density,
    random_density_exact,
    random_pure,
)

KET0 = basis_state(2, 0)
KET1 = basis_state(2, 1)
PLUS = PureState(np.array([1, 1]) / np.sqrt(2))
BELL = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))


# ---------------------------------------------------------------------------
# validation


def test_validate_maximally_mixed():
    rho = validate_density(np.eye(2) / 2)
    assert rho.dim == 2


def test_validate_rejects_wrong_trace():
    with pytest.raises(TraceNotOne) as exc:
        validate_density(np.diag([0.6, 0.5]))
    (name, measured, _), = exc.value.violations
    assert name == "trace"
    assert measured == pytest.approx(1.1)


def test_validate_rejects_negative_eigenvalue():
    with pytest.raises(NotPSD) as exc:
        validate_density(np.diag([1.2, -0.2]))
    names = [v[0] for v in exc.value.violations]
    assert names == ["positivity lambda_min"]
    assert exc.value.violations[0][1] == pytest.approx(-0.2)


def test_validate_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        validate_density(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_validate_reports_every_violation():
    # trace and positivity are both off; the rejection must list both
    with pytest.raises(NotPSD) as exc:
        validate_density(np.diag([1.5, -0.2]))
    names = [v[0] for v in exc.value.violations]
    assert names == ["positivity lambda_min", "trace"]


def test_validate_rejects_empty_matrix():
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        validate_density(np.zeros((0, 0)))


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# ensembles


def test_from_ensemble_single_component():
    rho = from_ensemble(Ensemble(((1.0, KET0),)))
    assert np.allclose(rho.matrix, np.outer([1, 0], [1, 0]))


def test_from_ensemble_even_mixture():
    rho = from_ensemble(Ensemble(((0.5, KET0), (0.5, KET1))))
    assert np.allclose(rho.matrix, np.eye(2) / 2)


def test_from_ensemble_skewed_mixture():
    # oracle: outer products expanded by hand
    rho = from_ensemble(Ensemble(((0.5, KET0), (0.5, PLUS))))
    assert np.allclose(rho.matrix, [[0.75, 0.25], [0.25, 0.25]], atol=1e-12)


def test_from_ensemble_matches_sum_of_projectors():
    # oracle: the weighted projectors added one at a time
    rng = np.random.default_rng(31)
    for _ in range(50):
        dim = int(rng.integers(1, 17))
        k = int(rng.integers(1, 9))
        weights = rng.uniform(0.1, 1.0, size=k)
        e = Ensemble(tuple((w, random_pure(rng, dim)) for w in weights / weights.sum()))
        reference = sum(w * s.projector() for w, s in e.components)
        assert max_abs(from_ensemble(e).matrix - reference) <= product_rounding(k)


def test_density_matrix_holds_its_hermitian_part():
    rng = np.random.default_rng(113)
    for dim in (1, 2, 5, 16, 40):
        exact = random_density_exact(rng, dim).matrix
        noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raw = exact + 2e-11 * noise  # not Hermitian, within hermiticity_tol
        h = (raw + raw.conj().T) / 2
        assert max_abs(raw - h) > 1e-12
        # the spectrum is that of the Hermitian part, as the public solver gives it
        values, vectors = hermitian_eigendecompose(raw)
        for rho in (DensityMatrix(raw), validate_density(raw)):
            assert rho.matrix.tobytes() == h.tobytes()
            assert np.array_equal(rho.matrix, rho.matrix.conj().T)
            assert not rho.matrix.flags.writeable
            assert not np.shares_memory(rho.matrix, raw)
            assert rho.spectrum[0].tobytes() == values.tobytes()
            assert rho.spectrum[1].tobytes() == vectors.tobytes()
        # an exactly Hermitian input keeps its bits
        for rho in (DensityMatrix(exact), validate_density(exact)):
            assert rho.matrix.tobytes() == exact.tobytes()


def test_not_hermitian_reports_the_raw_deviation():
    raw = np.array([[0.5, 3e-6 + 1e-6j], [0.0, 0.5]])
    with pytest.raises(NotHermitian) as exc:
        validate_density(raw)
    assert exc.value.violations[0] == ("hermiticity", max_abs(raw - raw.conj().T), 1e-9)


def test_eigen_ensemble_gives_back_the_cutoff_mass():
    # the eigenvalues at or below the zero cutoff sum to 2.06e-9 > WEIGHT_TOL;
    # the kept ones, rescaled to sum to one, still make an ensemble
    rho, _, dropped = cutoff_mass_pair(np.random.default_rng(131))
    assert dropped > WEIGHT_TOL
    e = eigen_ensemble(rho)
    assert len(e.components) == 40
    assert abs(sum(w for w, _ in e.components) - 1.0) <= 1e-15
    assert max_abs(from_ensemble(e).matrix - rho.matrix) <= dropped


@pytest.mark.parametrize(
    "weights, ok",
    [
        ([0.5, 0.5], True),
        ([1.0 + 0.5 * WEIGHT_TOL], True),
        ([0.6, 0.4 - 0.5 * WEIGHT_TOL], True),
        ([0.6, 0.4 - 2 * WEIGHT_TOL], False),
        ([0.5, 0.4], False),
        ([1.2, -0.2], False),
        ([1.0, 0.0], False),
        ([0.5, float("nan")], False),
        ([float("nan")], False),
    ],
)
def test_ensemble_and_decomposition_share_one_weight_rule(weights, ok):
    def ensemble():
        Ensemble(tuple((w, KET0) for w in weights))

    def decomposition():
        rest = tuple((w, KET1) for w in weights[1:])
        SharedDecomposition(chi=KET0, p0=weights[0], q0=1.0, rest_a=rest, rest_b=())

    for build in (ensemble, decomposition):
        if ok:
            build()
        else:
            with pytest.raises(ValueError):
                build()


def test_ensemble_rejects_bad_weights():
    with pytest.raises(ValueError):
        Ensemble(((0.5, KET0), (0.4, KET1)))
    with pytest.raises(ValueError):
        Ensemble(((1.2, KET0), (-0.2, KET1)))


def test_eigen_ensemble_pure():
    e = eigen_ensemble(validate_density(np.outer([1, 0], [1, 0])))
    assert len(e.components) == 1
    w, s = e.components[0]
    assert w == pytest.approx(1.0)
    assert np.allclose(np.abs(s.amplitudes), [1, 0])


def test_eigen_ensemble_maximally_mixed():
    e = eigen_ensemble(validate_density(np.eye(2) / 2))
    assert sorted(w for w, _ in e.components) == pytest.approx([0.5, 0.5])
    gram = np.abs(np.vdot(e.components[0][1].amplitudes, e.components[1][1].amplitudes))
    assert gram <= 1e-10


def test_eigen_ensemble_weights_match_characteristic_polynomial():
    # oracle: roots of l^2 - l + det for [[0.75, 0.25], [0.25, 0.25]]
    det = 0.75 * 0.25 - 0.25 * 0.25
    lam_hi = (1 + np.sqrt(1 - 4 * det)) / 2
    lam_lo = (1 - np.sqrt(1 - 4 * det)) / 2
    assert lam_hi == pytest.approx(0.8535533905932737, abs=1e-15)
    rho = validate_density(np.array([[0.75, 0.25], [0.25, 0.25]]))
    e = eigen_ensemble(rho)
    assert [w for w, _ in e.components] == pytest.approx([lam_hi, lam_lo], abs=1e-12)
    assert max_abs(from_ensemble(e).matrix - rho.matrix) <= 1e-9


def test_eigen_round_trip_random():
    rng = np.random.default_rng(29)
    for _ in range(200):
        dim = int(rng.integers(1, 17))
        rho = random_density(rng, dim)
        rebuilt = from_ensemble(eigen_ensemble(rho))
        assert max_abs(rebuilt.matrix - rho.matrix) <= 1e-9


def test_spectrum_matches_eigendecompose_and_is_kept():
    rho = random_density(np.random.default_rng(31), 7)
    values, vectors = rho.spectrum
    ref_values, ref_vectors = hermitian_eigendecompose(rho.matrix)
    assert values.tobytes() == ref_values.tobytes()
    assert vectors.tobytes() == ref_vectors.tobytes()
    assert rho.spectrum[1] is vectors
    assert not vectors.flags.writeable


def test_spectrum_first_use_is_safe_across_threads():
    rng = np.random.default_rng(37)
    matrices = [random_density(rng, 24).matrix for _ in range(4)]
    expected = [hermitian_eigendecompose(m) for m in matrices]
    shared = [validate_density(m) for m in matrices]
    results = []

    def worker():
        results.append([rho.spectrum for rho in shared])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == len(threads)
    for spectra in results:
        for (values, vectors), (ref_values, ref_vectors) in zip(spectra, expected):
            assert values.tobytes() == ref_values.tobytes()
            assert vectors.tobytes() == ref_vectors.tobytes()


def test_split_spectrum_returns_read_only_views_of_the_kept_spectrum():
    rho = random_density(np.random.default_rng(41), 6, rank=4)
    values, vectors = rho.spectrum
    support, null = _split_spectrum(values, vectors, DEFAULT_TOLERANCES)
    assert (support.dimension, null.dimension) == (4, 2)
    for part in (support, null):
        assert np.shares_memory(part.basis, vectors)
        assert not part.basis.flags.writeable
    assert np.array_equal(np.hstack([support.basis, null.basis]), vectors)


def test_spectrum_rejects_non_orthonormal_eigenvectors(monkeypatch):
    # the split hands out unchecked views, so the check on first use must stay
    real_eigh = np.linalg.eigh

    def skewed_eigh(a, *args, **kwargs):
        values, vectors = real_eigh(a, *args, **kwargs)
        vectors = vectors.copy()
        vectors[:, 0] += 1e-6 * vectors[:, 1]
        return values, vectors

    rho = random_density(np.random.default_rng(43), 5)
    monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
    with pytest.raises(ValueError, match="orthonormal"):
        rho.spectrum
    with pytest.raises(ValueError, match="orthonormal"):
        hermitian_eigendecompose(rho.matrix)


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_basis_vectors():
    out = tensor([KET0, KET0])
    assert out.dim == 4
    assert np.allclose(out.amplitudes, [1, 0, 0, 0])


def test_tensor_density_matrices():
    half = validate_density(np.eye(2) / 2)
    out = tensor([half, half])
    assert np.allclose(out.matrix, np.eye(4) / 4)


def test_tensor_index_arithmetic():
    # |1> (x) |+> occupies indices 2 and 3: leftmost factor, largest stride
    out = tensor([KET1, PLUS])
    expected = np.zeros(4)
    expected[2] = expected[3] = 1 / np.sqrt(2)
    assert np.allclose(out.amplitudes, expected)


def test_tensor_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        tensor([KET0, validate_density(np.eye(2) / 2)])


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_product_basis_state():
    rho = validate_density(np.outer([1, 0, 0, 0], [1, 0, 0, 0]))
    reduced = partial_trace(rho, [2, 2], {0})
    assert np.allclose(reduced.matrix, np.outer([1, 0], [1, 0]))


def test_partial_trace_bell_state():
    rho = validate_density(BELL.projector())
    for keep in ({0}, {1}):
        reduced = partial_trace(rho, [2, 2], keep)
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_of_product_recovers_factor():
    rng = np.random.default_rng(31)
    for _ in range(25):
        rho = random_density(rng, 2)
        sigma = random_density(rng, 3)
        product = tensor([rho, sigma])
        back = partial_trace(product, [2, 3], {0})
        assert max_abs(back.matrix - rho.matrix) <= 1e-10
        back = partial_trace(product, [2, 3], {1})
        assert max_abs(back.matrix - sigma.matrix) <= 1e-10


def test_partial_trace_preserves_trace_and_identity():
    rng = np.random.default_rng(37)
    rho = random_density(rng, 6)
    reduced = partial_trace(rho, [2, 3], {1})
    assert abs(np.trace(reduced.matrix).real - 1.0) <= 1e-9
    same = partial_trace(rho, [2, 3], {0, 1})
    assert max_abs(same.matrix - rho.matrix) <= 1e-12


def test_partial_trace_errors():
    rho = validate_density(np.eye(4) / 4)
    with pytest.raises(DimensionMismatch):
        partial_trace(rho, [2, 3], {0})
    with pytest.raises(EmptyKeep):
        partial_trace(rho, [2, 2], set())
    with pytest.raises(DimensionMismatch):
        partial_trace(rho, [2, 2], {5})


# ---------------------------------------------------------------------------
# projective measurement


def test_project_product_state():
    psi = tensor([KET0, KET0])
    p, cond = project_and_renormalize(psi, [2, 2], 0, KET0)
    assert p == pytest.approx(1.0)
    assert np.allclose(cond.amplitudes, [1, 0])


def test_project_bell_state():
    p, cond = project_and_renormalize(BELL, [2, 2], 0, KET0)
    assert p == pytest.approx(0.5)
    assert np.allclose(cond.amplitudes, [1, 0])


def test_project_impossible_outcome():
    psi = tensor([KET0, KET0])
    with pytest.raises(ZeroProbabilityOutcome) as exc:
        project_and_renormalize(psi, [2, 2], 0, KET1)
    assert exc.value.probability == pytest.approx(0.0, abs=1e-15)


def test_measurement_completeness_random():
    rng = np.random.default_rng(41)
    for _ in range(25):
        dims = [int(rng.integers(2, 4)), int(rng.integers(2, 4))]
        psi = random_pure(rng, dims[0] * dims[1])
        subsystem = int(rng.integers(0, 2))
        total = 0.0
        for k in range(dims[subsystem]):
            try:
                p, _ = project_and_renormalize(
                    psi, dims, subsystem, basis_state(dims[subsystem], k)
                )
            except ZeroProbabilityOutcome as e:
                p = e.probability
            total += p
        assert total == pytest.approx(1.0, abs=1e-9)


def test_project_dimension_errors():
    with pytest.raises(DimensionMismatch):
        project_and_renormalize(BELL, [2, 3], 0, KET0)
    with pytest.raises(DimensionMismatch):
        project_and_renormalize(BELL, [2, 2], 0, basis_state(3, 0))
    with pytest.raises(DimensionMismatch):
        project_and_renormalize(BELL, [2, 2], 4, KET0)
