"""Property tests: invariances the compatibility criterion implies.

* The verdict and the intersection do not depend on the order in which the
  observers are listed, although the n-ary intersection folds left to right.
  Nor do the pairwise norms and verdicts, up to the rounding of a product
  taken in the other order.
* The pairwise norms stay within the dropped-eigenvalue bound of the dense
  products, wherever a low-rank state's kept factor stands in for it, and
  so do the verdicts away from ``overlap_tol``.
* Two lines intersect exactly when their principal angle is below the
  threshold angle ``theta*`` with ``cos theta* = 1 - 2 overlap_tol``.
* The vectorized eigendecomposition convention orders exact ties like the
  original per-column implementation, kept here as the oracle.
* A report file gives back every public attribute of the report it was
  written from, derived verdicts included.
* A shared decomposition splits each state of rank ``k`` into the shared
  state and ``k - 1`` remainder terms, each weighted at least the state's
  smallest kept eigenvalue, and rebuilds the state.  From D = 129 up, at
  ranks within 3 of D, its witness's simulated round trip gives it back.
"""

import json
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompat import (
    Subspace,
    Tolerances,
    build_shared_decomposition,
    build_witness,
    check_bfm,
    hermitian_eigendecompose,
    intersect,
    max_abs,
    projector_from,
    simulate_protocol,
    validate_density,
)
from qcompat.formats import dumps_canonical, parse_report_document, report_document
from qcompat.states import WEIGHT_TOL
from qcompat.witness import ROUND_TRIP_TOL
from conftest import (
    delta_bound,
    per_pair_norms,
    product_bound,
    product_rounding,
    random_pure,
    random_unitary,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# observer order


@st.composite
def planted_sets(draw):
    """States whose supports share exactly a planted common subspace.

    Each support is ``C (+) W_i`` with ``W_i`` random in the complement of
    ``C``; any two ``W_i`` fit together in that complement, so generically
    they meet only at zero and the intersection is exactly ``C``.  ``D``
    reaches 64, past the ``D = 32`` floor of the thin pairwise products.
    """
    dim = draw(st.integers(2, 64))
    n = draw(st.integers(2, 8))
    common = draw(st.integers(0, dim // 2))
    free = dim - common
    extras = draw(
        st.lists(st.integers(0 if common else 1, free // 2), min_size=n, max_size=n)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = random_unitary(rng, dim)
    shared, complement = frame[:, :common], frame[:, common:]
    states = []
    for extra in extras:
        own = complement @ random_unitary(rng, free)[:, :extra]
        basis = np.column_stack([shared, own])
        weights = rng.uniform(0.1, 1.1, size=basis.shape[1])
        m = (basis * weights) @ basis.conj().T
        states.append(validate_density(m / np.trace(m).real))
    order = draw(st.permutations(range(n)))
    return states, Subspace(dim, shared), order


@PROPERTY
@given(planted_sets())
def test_check_bfm_ignores_observer_order(case):
    states, planted, order = case
    report = check_bfm(states)
    permuted = check_bfm([states[k] for k in order])
    assert report.intersection_dim == planted.dimension
    assert permuted.verdict_bfm == report.verdict_bfm
    assert permuted.intersection_dim == report.intersection_dim
    p = projector_from(report.intersection_basis)
    assert max_abs(projector_from(permuted.intersection_basis) - p) <= 1e-8
    assert max_abs(p - projector_from(planted)) <= 1e-8


@PROPERTY
@given(planted_sets())
def test_pairwise_norms_ignore_observer_order(case):
    states, planted, order = case
    report = check_bfm(states)
    permuted = check_bfm([states[k] for k in order])
    bound = product_rounding(planted.ambient_dim)
    assert abs(permuted.commutator_norm - report.commutator_norm) <= bound
    assert abs(permuted.product_norm - report.product_norm) <= bound
    assert permuted.verdict_pi == report.verdict_pi
    assert permuted.verdict_pii == report.verdict_pii


@st.composite
def small_reports(draw):
    """2 to 4 states of D <= 8 and an overlap threshold on either side of
    their norms.  In one set in two the states share an eigenbasis, so they
    commute and their supports are sets of its columns."""
    dim, n = draw(st.integers(2, 8)), draw(st.integers(2, 4))
    tol = Tolerances(overlap_tol=draw(st.sampled_from([1e-7, 1e-3, 0.3])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = random_unitary(rng, dim) if rng.random() < 0.5 else None
    states = []
    for _ in range(n):
        frame = random_unitary(rng, dim) if shared is None else shared[:, rng.permutation(dim)]
        basis = frame[:, : rng.integers(1, dim + 1)]
        m = (basis * rng.uniform(0.1, 1.1, size=basis.shape[1])) @ basis.conj().T
        states.append(validate_density(m / np.trace(m).real))
    return states, tol


@PROPERTY
@given(small_reports())
def test_report_file_round_trips_every_public_attribute(case):
    states, tol = case
    report = check_bfm(states, tol)
    doc = json.loads(dumps_canonical(report_document(report, [])))
    back = parse_report_document(doc).report
    names = [n for n in dir(report) if not n.startswith("_")]
    assert len(names) == 10
    for name in names:
        if name == "intersection_basis":
            assert back.intersection_basis.ambient_dim == report.intersection_basis.ambient_dim
            assert np.array_equal(back.intersection_basis.basis, report.intersection_basis.basis)
        else:
            assert getattr(back, name) == getattr(report, name), name
            assert type(getattr(back, name)) is type(getattr(report, name)), name


@st.composite
def ranked_sets(draw):
    """States of rank on either side of D/2, some with eigenvalues planted in
    ``(0, eigenvalue_zero_tol]`` that the support split drops.

    In one set in two every state is diagonal in one shared frame, so the
    pairs commute and disjoint supports give a zero product: both pairwise
    verdicts then take either value.
    """
    # half the sets at D >= 32, where a low-rank state's kept factor stands in
    dim = draw(st.one_of(st.integers(2, 31), st.integers(32, 64)))
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = random_unitary(rng, dim) if rng.random() < 0.5 else None
    states = []
    for _ in range(n):
        if dim >= 3 and rng.random() < 0.5:
            rank = int(rng.integers(1, (dim + 1) // 2))
        else:
            rank = int(rng.integers((dim + 1) // 2, dim + 1))
        tail = int(rng.integers(0, min(3, dim - rank) + 1))
        frame = random_unitary(rng, dim) if shared is None else shared[:, rng.permutation(dim)]
        levels = np.concatenate([
            rng.uniform(0.1, 1.1, size=rank),
            10.0 ** rng.uniform(-14, np.log10(Tolerances().eigenvalue_zero_tol), size=tail),
        ])
        levels[:rank] *= (1.0 - levels[rank:].sum()) / levels[:rank].sum()
        basis = frame[:, : rank + tail]
        m = (basis * levels) @ basis.conj().T
        states.append(validate_density((m + m.conj().T) / 2))
    return states, draw(st.permutations(range(n)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ranked_sets())
def test_pairwise_norms_stay_within_the_dropped_eigenvalue_bound(case):
    states, order = case
    dim, n = states[0].dim, len(states)
    threshold = Tolerances().overlap_tol
    h = [(s.matrix + s.matrix.conj().T) / 2 for s in states]
    pairs = list(combinations(range(n), 2))
    dense_p = [max_abs(h[i] @ h[j]) for i, j in pairs]
    dense_c = [max_abs(h[i] @ h[j] - h[j] @ h[i]) for i, j in pairs]
    bound_p = [delta_bound(states[i], states[j]) + product_rounding(dim) for i, j in pairs]
    bound_c = [2 * delta_bound(states[i], states[j]) + product_rounding(dim) for i, j in pairs]

    products, commutators = per_pair_norms(states)
    # exact where both ranks are at least D/2
    exact_or_bound = [product_bound(states[i], states[j]) for i, j in pairs]
    assert np.all(np.abs(products - dense_p) <= exact_or_bound)
    assert np.all(np.abs(commutators - dense_c) <= bound_c)

    report = check_bfm(states)
    if all(abs(x - threshold) > b for x, b in zip(dense_p, bound_p)):
        assert report.verdict_pii == all(x > threshold for x in dense_p)
    if all(abs(x - threshold) > b for x, b in zip(dense_c, bound_c)):
        assert report.verdict_pi == all(x <= threshold for x in dense_c)

    # observer order: the same pair, possibly formed the other way round
    moved = [states[k] for k in order]
    where = {pair: slot for slot, pair in enumerate(pairs)}
    p2, c2 = per_pair_norms(moved)
    for (a, b), x, y in zip(combinations(order, 2), p2, c2):
        slot = where[min(a, b), max(a, b)]
        assert abs(x - products[slot]) <= 2 * bound_p[slot]
        assert abs(y - commutators[slot]) <= 2 * bound_c[slot]
    permuted = check_bfm(moved)
    assert permuted.verdict_pi == report.verdict_pi
    assert permuted.verdict_pii == report.verdict_pii


# ---------------------------------------------------------------------------
# principal-angle threshold


@PROPERTY
@given(
    dim=st.integers(2, 16),
    log_tol=st.floats(-10, -2),
    factor=st.sampled_from([0.95, 0.99, 1.01, 1.05]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lines_intersect_below_threshold_angle(dim, log_tol, factor, seed):
    tol = Tolerances(overlap_tol=10.0**log_tol)
    theta = factor * np.arccos(1.0 - 2.0 * tol.overlap_tol)
    frame = random_unitary(np.random.default_rng(seed), dim)
    a = Subspace(dim, frame[:, :1])
    b = Subspace(dim, (np.cos(theta) * frame[:, 0] + np.sin(theta) * frame[:, 1])[:, None])
    expected = 1 if factor < 1 else 0
    assert intersect(a, b, tol=tol).dimension == expected
    assert intersect(b, a, tol=tol).dimension == expected


# ---------------------------------------------------------------------------
# eigendecomposition convention on ties


def reference_eigendecompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column phase fix and a Python sort on tuple keys."""
    values, vectors = np.linalg.eigh((m + m.conj().T) / 2)
    cols = []
    for k in range(vectors.shape[1]):
        v = vectors[:, k]
        top = v[int(np.argmax(np.abs(v)))]
        cols.append(v * (top.conjugate() / abs(top)))

    def lex_key(v):
        return tuple(x for c in v for x in (c.real, c.imag))

    order = sorted(range(len(values)), key=lambda k: (-values[k], lex_key(cols[k])))
    return (
        np.array([float(values[k]) for k in order]),
        np.column_stack([cols[k] for k in order]),
    )


LEVELS = st.sampled_from([0.0, 0.25, 0.5, 1.0])
PHASES = np.array([1, 1j, -1, -1j])


@st.composite
def tied_matrices(draw):
    """Hermitian matrices with exactly repeated eigenvalues.

    Either a diagonal matrix conjugated by a phased permutation (exact, so
    the eigenvectors are phased basis vectors), a block-diagonal repetition
    of one 2x2 block with complex off-diagonal, or a tied diagonal rotated by
    a random unitary (ties then split by rounding).
    """
    dim = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["permuted", "blocks", "rotated"]))
    if kind == "blocks":
        a = draw(LEVELS)
        b = draw(st.sampled_from([0.25, 0.5])) * PHASES[draw(st.integers(0, 3))]
        block = np.array([[a, b], [np.conj(b), a]])
        return np.kron(np.eye(draw(st.integers(1, 5))), block)
    levels = np.array(draw(st.lists(LEVELS, min_size=dim, max_size=dim)))
    if kind == "rotated":
        u = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), dim)
        return (u * levels) @ u.conj().T
    phases = PHASES[draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim))]
    p = np.eye(dim)[draw(st.permutations(range(dim)))] * phases
    return (p * levels) @ p.conj().T


@PROPERTY
@given(tied_matrices())
def test_eigendecompose_orders_ties_like_reference(m):
    values, vectors = hermitian_eigendecompose(m)
    ref_values, ref_vectors = reference_eigendecompose(m)
    assert values.tobytes() == ref_values.tobytes()
    assert max_abs(vectors - ref_vectors) <= 1e-15


# ---------------------------------------------------------------------------
# shared decomposition


@st.composite
def decomposable_pairs(draw, dims=st.integers(2, 64), gaps=None):
    """Compatible pairs whose supports share a planted pure state chi.

    Each state of rank ``r`` is ``w |chi><chi| + (1 - w) sigma`` with ``sigma``
    of rank ``r - 1`` inside a fixed hyperplane that holds at most half of
    chi, so the state holds chi with weight exactly ``w`` and its smallest
    eigenvalue stays near ``w`` or above.  D is drawn from ``dims`` (up to 64
    by default) and ``w`` down to 1e-7.  Each rank is D less a draw of
    ``gaps``: by default often within 3 of D, else anywhere down to 1.
    """
    dim = draw(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frame = random_unitary(rng, dim)
    t = draw(st.floats(0, np.pi / 4))
    chi = np.cos(t) * frame[:, 0] + np.sin(t) * frame[:, 1:] @ random_pure(rng, dim - 1).amplitudes
    states = []
    for _ in range(2):
        rank = dim - draw(gaps if gaps is not None else st.one_of(
            st.integers(0, min(3, dim - 1)), st.integers(0, dim - 1)))
        w = 1.0 if rank == 1 else 10.0 ** draw(st.floats(-7, -0.3))
        others = frame[:, 1:] @ random_unitary(rng, dim - 1)[:, : rank - 1]
        levels = 10.0 ** rng.uniform(-3, 0, size=rank - 1)
        sigma = (others * levels) @ others.conj().T / (levels.sum() or 1.0)
        states.append(validate_density(w * np.outer(chi, chi.conj()) + (1 - w) * sigma))
    return states


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(decomposable_pairs())
def test_remainder_terms_come_from_the_kept_spectrum(pair):
    a, b = pair
    d = build_shared_decomposition(a, b)
    sides = ((a, d.p0, d.rest_a, d.rho_a()), (b, d.q0, d.rest_b, d.rho_b()))
    for state, head, rest, rebuilt in sides:
        values = state.spectrum[0]
        kept = values[values > Tolerances().eigenvalue_zero_tol]
        assert len(rest) == kept.size - 1
        assert all(w >= kept[-1] * (1 - 1e-10) for w, _ in rest)
        assert abs(head + sum(w for w, _ in rest) - 1) <= WEIGHT_TOL
        assert max_abs(rebuilt.matrix - state.matrix) <= 1e-9


# few examples, each large: the five take under a second together
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(decomposable_pairs(dims=st.integers(129, 256), gaps=st.integers(0, 3)))
def test_large_near_full_rank_pairs_round_trip_through_the_witness(pair):
    d = build_shared_decomposition(*pair)
    w = build_witness(d)
    result = simulate_protocol(w)
    assert max_abs(result.rho_alice.matrix - d.rho_a().matrix) <= ROUND_TRIP_TOL
    assert max_abs(result.rho_bob.matrix - d.rho_b().matrix) <= ROUND_TRIP_TOL
    overlap = abs(np.vdot(result.joint.amplitudes, d.chi.amplitudes)) ** 2
    assert overlap >= 1 - ROUND_TRIP_TOL
