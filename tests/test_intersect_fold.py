"""The n-ary support intersection as one fold over bare bases.

The oracles below are the earlier implementation: a pairwise step that puts
every intermediate basis in the canonical convention, copies it and checks it
orthonormal, folded left to right.  For two subspaces ``intersect`` is that
step bit for bit; for more it spans the same subspace, and only its result is
canonicalized and checked.  A step whose ``||B^dag S||_F`` proves that no
computed cosine passes ends the fold with no SVD and the same empty result.
"""

import numpy as np
import pytest

from qcompat import (
    AmbientMismatch,
    CompatReport,
    PureState,
    Subspace,
    Tolerances,
    check_bfm,
    intersect,
    projector_from,
    validate_density,
)
from qcompat import linalg
from qcompat.formats import _check_chi
from qcompat.linalg import _canonical, _lex_order, _split_spectrum, max_abs
from conftest import random_density, random_subspace, random_unitary


def oracle_canonical(values, vectors):
    if vectors.size:
        top = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
        vectors = vectors * (top.conj() / np.abs(top))
    order = _lex_order(values, vectors)
    return values[order], np.array(vectors[:, order], dtype=complex, copy=True)


def oracle_step(a, b, tol):
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}")
    u, cosines, _ = np.linalg.svd(a.basis.conj().T @ b.basis, full_matrices=False)
    keep = cosines > 1.0 - 2.0 * tol.overlap_tol
    _, basis = oracle_canonical(cosines[keep], a.basis @ u[:, keep])
    return Subspace(a.ambient_dim, basis)


def oracle_fold(a, *rest, tol):
    for s in rest:
        a = oracle_step(a, s, tol)
    return a


def planted_supports(rng, dim, n, common, deep):
    """``n`` supports ``C (+) W_i``, ``C`` of dimension ``common`` and each ``W_i``
    random in the ``f``-dimensional complement of ``C``, so that generically
    they share exactly ``C``.  ``W_i`` has dimension ``f // 2``, or with
    ``deep`` ``f - ceil(f / n)``: then the running intersection sheds at most
    ``ceil(f / n)`` dimensions a step and reaches ``C`` only at the end."""
    frame = random_unitary(rng, dim)
    shared, complement = frame[:, :common], frame[:, common:]
    free = dim - common
    extra = free - -(-free // n) if deep else free // 2
    return [
        Subspace(dim, np.column_stack([shared, complement @ random_subspace(rng, free, extra)]))
        for _ in range(n)
    ], Subspace(dim, shared)


def planted_states(rng, supports):
    states = []
    for s in supports:
        weights = rng.uniform(0.1, 1.1, size=s.dimension)
        m = (s.basis * weights) @ s.basis.conj().T
        states.append(validate_density(m / np.trace(m).real))
    return states


# ---------------------------------------------------------------------------
# two subspaces: the earlier step, bit for bit


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 31, 32, 64])
def test_two_subspaces_match_the_oracle_step_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    tol = Tolerances()
    ranks = sorted({0, 1, dim // 2, dim - 1, dim} & set(range(dim + 1)))
    cases = []
    for ka in ranks:
        for kb in ranks:
            cases.append((Subspace(dim, random_subspace(rng, dim, ka)),
                          Subspace(dim, random_subspace(rng, dim, kb))))
    # identical and nested supports, taken from kept spectra as the library does
    rho = random_density(rng, dim)
    support = _split_spectrum(rho.spectrum, tol).support
    cases += [(support, support), (Subspace(dim, np.eye(dim, dtype=complex)), support)]
    for a, b in cases:
        got, want = intersect(a, b, tol=tol), oracle_step(a, b, tol)
        assert got.basis.shape == want.basis.shape
        assert got.basis.tobytes() == want.basis.tobytes()
        assert not got.basis.flags.writeable


# ---------------------------------------------------------------------------
# more subspaces: the same subspace as the earlier fold


@pytest.mark.parametrize("dim", [8, 64])
@pytest.mark.parametrize("n", [3, 8, 32])
@pytest.mark.parametrize("common", [0, 1, 2, 3])
@pytest.mark.parametrize("deep", [False, True], ids=["half", "deep"])
def test_many_subspaces_match_the_oracle_fold(dim, n, common, deep):
    rng = np.random.default_rng([dim, n, common, deep])
    supports, planted = planted_supports(rng, dim, n, common, deep)
    tol = Tolerances()
    got, want = intersect(*supports, tol=tol), oracle_fold(*supports, tol=tol)
    assert got.dimension == want.dimension == common
    assert max_abs(projector_from(got) - projector_from(want)) <= 1e-12
    assert max_abs(projector_from(got) - projector_from(planted)) <= 1e-8

    report = check_bfm(planted_states(rng, supports), tol)
    assert report.verdict_bfm == (want.dimension > 0)
    assert report.intersection_dim == want.dimension
    assert max_abs(projector_from(report.intersection_basis) - projector_from(want)) <= 1e-12


def test_mismatched_last_subspace_raises_after_the_fold_is_empty():
    e0, e1 = np.eye(4, dtype=complex)[:, :1], np.eye(4, dtype=complex)[:, 1:2]
    line_a, line_b = Subspace(4, e0), Subspace(4, e1)
    assert intersect(line_a, line_b).dimension == 0
    with pytest.raises(AmbientMismatch, match="ambient dimensions differ: 4 vs 3"):
        intersect(line_a, line_b, Subspace(3, np.eye(3, dtype=complex)[:, :1]))


# ---------------------------------------------------------------------------
# one canonical form and one orthonormality check per call


@pytest.mark.parametrize("n", [2, 3, 8, 32])
@pytest.mark.parametrize("common", [0, 2])
@pytest.mark.parametrize("deep", [False, True], ids=["half", "deep"])
def test_one_canonical_and_one_check_per_intersect(monkeypatch, n, common, deep):
    # "half" empties an incompatible fold at its first step, "deep" runs it to the end
    rng = np.random.default_rng([n, common, deep])
    supports, _ = planted_supports(rng, 16, n, common, deep)
    calls = {"canonical": 0, "orthonormal": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(linalg, "_canonical", counted("canonical", linalg._canonical))
    monkeypatch.setattr(
        linalg, "_check_orthonormal", counted("orthonormal", linalg._check_orthonormal)
    )
    assert intersect(*supports).dimension == common
    assert calls == {"canonical": 1, "orthonormal": 1}


def test_canonical_returns_read_only_arrays():
    rng = np.random.default_rng(7)
    values, vectors = np.linalg.eigh(random_density(rng, 6).matrix)
    for out in _canonical(values, vectors):
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 0
    # the inputs are left as they were
    assert values.flags.writeable and vectors.flags.writeable


# ---------------------------------------------------------------------------
# the Frobenius exit: no SVD where no cosine can pass, the same bytes either way


def counting_svd(monkeypatch):
    """Wrap ``np.linalg.svd``; the returned list counts its calls."""
    calls = [0]
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def supports_at_cosine(rng, dim, ranks, cosine):
    """Two subspaces of ``ranks`` whose largest principal cosine is ``cosine``
    (the others 0), in a random frame, so that ``B^dag S`` is dense."""
    frame = random_unitary(rng, dim)
    k_a, k_b = ranks
    a = frame[:, :k_a]
    tilted = cosine * frame[:, :1] + np.sqrt(1 - cosine**2) * frame[:, k_a : k_a + 1]
    b = np.column_stack([tilted, frame[:, k_a + 1 : k_a + k_b]])
    return Subspace(dim, a), Subspace(dim, np.linalg.qr(b)[0])


@pytest.mark.parametrize("ranks", [(100, 128), (1, 1), (128, 128)])
def test_orthogonal_supports_take_no_svd(monkeypatch, ranks):
    rng = np.random.default_rng(ranks)
    frame = random_unitary(rng, 256)
    a, b = (Subspace(256, frame[:, lo : lo + k]) for lo, k in zip((0, ranks[0]), ranks))
    want = oracle_step(a, b, Tolerances())
    calls = counting_svd(monkeypatch)
    got = intersect(a, b)
    assert calls == [0]
    assert got.basis.shape == want.basis.shape == (256, 0)
    assert got.basis.tobytes() == want.basis.tobytes()
    states = planted_states(rng, [a, b])
    assert not check_bfm(states).verdict_bfm
    assert calls == [0]


def test_exit_ends_a_longer_fold_at_its_empty_step(monkeypatch):
    # the first step keeps a shared span of 10, the second meets an orthogonal support
    frame = random_unitary(np.random.default_rng(5), 64)
    spans = [frame[:, :20], frame[:, 10:30], frame[:, 40:60], frame[:, 5:15]]
    subspaces = [Subspace(64, b) for b in spans]
    calls = counting_svd(monkeypatch)
    assert intersect(*subspaces).dimension == 0
    assert calls == [1]


@pytest.mark.parametrize("overlap_tol", [1e-12, 1e-7, 0.1, 0.49])
@pytest.mark.parametrize("ranks", [(1, 1), (3, 5), (40, 60)])
def test_cosines_at_the_threshold_read_as_the_svd_step_does(monkeypatch, overlap_tol, ranks):
    # largest cosines just above and just below 1 - 2 overlap_tol: the exit may
    # fire only below it, and the result has the bytes of the SVD step
    tol = Tolerances(overlap_tol=overlap_tol)
    threshold = 1 - 2 * overlap_tol
    rng = np.random.default_rng([int(1 / overlap_tol) % 2**32, *ranks])
    calls = counting_svd(monkeypatch)
    for offset in (-1e-3, -1e-6, -1e-9, -1e-12, -1e-14, 0.0, 1e-14, 1e-13, 1e-12, 1e-9, 1e-6):
        cosine = threshold + offset
        if not 0 <= cosine < 1 - 1e-13:
            continue
        a, b = supports_at_cosine(rng, 128, ranks, cosine)
        before = calls[0]
        got = intersect(a, b, tol=tol)
        exited = calls[0] == before
        want = oracle_step(a, b, tol)
        assert got.basis.shape == want.basis.shape
        assert got.basis.tobytes() == want.basis.tobytes()
        if offset <= -1e-6:  # far below the threshold the exit fires
            assert exited and got.dimension == 0
        if exited:
            assert offset < 0


@pytest.mark.parametrize("overlap_tol", [1e-12, 1e-7, 0.1, 0.49])
def test_a_reports_chi_passes_where_the_intersection_keeps_it(overlap_tol):
    # one cosine floor, 1 - 2 overlap_tol, serves both: a direction at the
    # floor is dropped by the intersection and rejected as a report's chi,
    # one just above it is kept and accepted
    tol = Tolerances(overlap_tol=overlap_tol)
    floor = linalg._cosine_floor(tol)
    assert floor == 1 - 2 * overlap_tol
    e0 = Subspace(2, np.eye(2)[:, :1])
    report = CompatReport(e0, 0.0, 1.0, tol)
    for cosine in (floor, np.nextafter(floor, 2)):
        chi = PureState(np.array([cosine, np.sqrt(1 - cosine**2)]))
        kept = intersect(e0, Subspace(2, chi.amplitudes[:, None]), tol=tol).dimension == 1
        try:
            _check_chi(report, chi, ValueError)
            accepted = True
        except ValueError:
            accepted = False
        assert kept == accepted == (cosine > floor)
