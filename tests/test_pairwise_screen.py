"""The pairwise pass screens every pair in complex64 and forms in double only
the pairs that can set an extreme.

The oracle is ``whole_stack_norms`` of ``test_pairwise_chunks``: every pair
formed in double and its norms kept.  The screened pass must report that
oracle's smallest product norm and largest commutator norm bit for bit, on
any set, in any observer order and at any scale, however few pairs it forms.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcompat.compat as compat
from qcompat import DensityMatrix, Tolerances, check_bfm, validate_density
from qcompat.compat import (
    _CHUNK_BYTES,
    _SCREEN_SLACK,
    _hermitian_deviation,
    _pairwise_norms,
    _screen,
    _screen_error,
    _thin_pair_error,
    _walk,
)
from qcompat.linalg import _split_spectrum
from conftest import random_density_exact
from test_pairwise_chunks import (
    counting_deviation,
    mixed_ranks,
    planted_set,
    recording_walk,
    walked_pairs,
    whole_stack_norms,
)

U32 = np.finfo(np.float32).eps / 2
TINY32 = np.finfo(np.float32).tiny


def assert_oracle_extremes(states, tol=None):
    products, commutators = whole_stack_norms(states, tol)
    got = np.array(_pairwise_norms(states, tol))
    assert got.tobytes() == np.array([products.min(), commutators.max()]).tobytes()


def recording_screen(monkeypatch):
    """Wrap the screen; the returned list collects each call's ``keep`` (or None)."""
    seen = []
    original = compat._screen

    def recorded(*args):
        seen.append(original(*args))
        return seen[-1]

    monkeypatch.setattr(compat, "_screen", recorded)
    return seen


def counting_double_products(monkeypatch):
    """Wrap the double fold; the returned list counts the products it reduces."""
    seen = [0]
    original = compat._fold_extremes

    def counted(p, product, commutator):
        seen[0] += len(p)
        return original(p, product, commutator)

    monkeypatch.setattr(compat, "_fold_extremes", counted)
    return seen


@contextlib.contextmanager
def screen_from(n_states, dim):
    """Screen from ``n_states`` states and dimension ``dim`` up, below the measured gate."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compat, "_SCREEN_MIN_STATES", n_states)
        mp.setattr(compat, "_SCREEN_MIN_DIM", dim)
        yield recording_screen(mp)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    dim=st.integers(32, 128),
    n=st.integers(3, 9),
    seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.floats(-30, 0), min_size=9, max_size=9),
    data=st.data(),
)
def test_screened_extremes_are_the_oracles_bit_for_bit(dim, n, seed, exponents, data):
    # mixed ranks, any order, each state scaled by 10^-30 to 1: entries from
    # O(1) down to where float32 products underflow
    rng = np.random.default_rng(seed)
    scales = 10.0 ** np.array(exponents[:n])
    drawn = [DensityMatrix(s * rho.matrix) for s, rho in zip(scales, mixed_ranks(rng, dim, n))]
    states = [drawn[k] for k in data.draw(st.permutations(range(n)))]
    tol = Tolerances(eigenvalue_zero_tol=1e-9 * scales.min())
    with screen_from(3, 32) as seen:
        assert_oracle_extremes(states, tol)
    assert len(seen) == 1 and seen[0] is not None


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    dim=st.integers(129, 256),
    fractions=st.lists(st.floats(0, 1), min_size=3, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.floats(-30, 0), min_size=8, max_size=8),
    data=st.data(),
)
def test_one_partner_screen_keeps_the_oracles_bits(dim, fractions, seed, exponents, data):
    # from D = 129 a complex64 chunk is one partner, and a pair of thin states
    # is screened through both kept factors: ranks from 1 to D (mostly thin),
    # any order, each state scaled by 10^-30 to 1
    rng = np.random.default_rng(seed)
    n = len(fractions)
    ranks = [max(1, min(dim, int(f * f * dim))) for f in fractions]
    scales = 10.0 ** np.array(exponents[:n])
    drawn = [DensityMatrix(s * random_density_exact(rng, dim, k).matrix)
             for s, k in zip(scales, ranks)]
    states = [drawn[k] for k in data.draw(st.permutations(range(n)))]
    tol = Tolerances(eigenvalue_zero_tol=1e-9 * scales.min())
    with screen_from(3, 32) as seen:
        assert_oracle_extremes(states, tol)
    assert len(seen) == 1 and seen[0] is not None


@pytest.mark.parametrize("dim, both", [(128, False), (129, True), (256, True)])
def test_thin_pairs_enter_by_both_factors_only_in_one_partner_screens(dim, both):
    # where a complex64 chunk is one partner, the screen forms a pair of thin
    # states from both kept factors and never reads the partner's matrix, and
    # stays within the pair's bound; the double walk always multiplies by it
    rng = np.random.default_rng(467 + dim)
    states = [random_density_exact(rng, dim, k) for k in (5, dim // 3)]
    splits = [_split_spectrum(s.spectrum, Tolerances()) for s in states]
    unread = [states[0].matrix, np.full((dim, dim), np.nan, dtype=complex)]
    [(pos, cols, screened, flagged)] = list(_walk(splits, unread, np.complex64))
    assert (pos, range(2)[cols], flagged) == (0, range(1, 2), both)
    assert np.isfinite(screened).all() == both
    assert np.isnan(next(_walk(splits, unread, complex))[2]).all()
    if both:
        exact = next(_walk(splits, [s.matrix for s in states], complex))[2]
        g_a, g_b = ((np.abs(s.support.basis) @ s.kept).max() for s in splits)
        values = states[1].spectrum[0]
        e = _thin_pair_error(dim, splits[0].rank, splits[1].rank, g_a, g_b,
                             max(values[0], -values[-1]), np.abs(values[splits[1].rank :]).max())
        assert np.abs(np.abs(screened) - np.abs(exact)).max() <= e


@pytest.mark.parametrize("dim", [64, 128, 129, 256])
def test_walk_flags_exactly_the_thin_pairs_of_one_partner_complex64_chunks(dim):
    # the flag is the route: True for a thin left and a thin partner where a
    # complex64 chunk is one partner, False for every other chunk and in double
    rng = np.random.default_rng(479 + dim)
    states = mixed_ranks(rng, dim, 5)
    splits = [_split_spectrum(s.spectrum, Tolerances()) for s in states]
    thin = [2 * split.rank < dim for split in splits]
    assert any(thin) and not all(thin)
    lefts = [split if t else s.matrix for s, split, t in zip(states, splits, thin)]
    mats = [s.matrix for s in states]
    one_partner = _CHUNK_BYTES // (8 * dim * dim) <= 1
    assert one_partner == (dim >= 129)
    for dtype in (np.complex64, complex):
        flags = [(pos, j, both) for pos, cols, _, both in _walk(lefts, mats, dtype)
                 for j in range(5)[cols]]
        assert [(pos, j) for pos, j, _ in flags] == [(i, j) for i in range(4)
                                                       for j in range(i + 1, 5)]
        for pos, j, both in flags:
            route = dtype == np.complex64 and one_partner and thin[pos] and thin[j]
            assert both is route
    keep = np.triu(np.ones((5, 5), dtype=bool), 1)
    assert not any(both for *_, both in _walk(lefts, mats, complex, keep))


@pytest.mark.parametrize("dim, ranks, route", [(256, [3] * 6, "both"), (128, [3] * 6, "one"),
                                               (256, [3, 200] * 3, "mixed")])
def test_screen_bounds_each_chunk_by_its_routes_bound(monkeypatch, dim, ranks, route):
    # a NaN bound table makes the screen give up (None) exactly when a chunk
    # reads it: a chunk formed from both kept factors reads _thin_pair_error's,
    # every other chunk _screen_error's
    rng = np.random.default_rng(487 + dim + len(set(ranks)))
    states = [random_density_exact(rng, dim, k) for k in ranks]
    for name, read in (("_thin_pair_error", route != "one"), ("_screen_error", route != "both")):
        with pytest.MonkeyPatch.context() as mp:
            original = getattr(compat, name)
            mp.setattr(compat, name, lambda *args, f=original: np.nan * f(*args))
            seen = recording_screen(mp)
            assert_oracle_extremes(states)
        assert len(seen) == 1 and (seen[0] is None) == read


def flat_row_state(rng, dim, rank):
    """A thin state whose basis has rows of equal magnitudes ``1/sqrt(k)``: its
    ``g = max_r sum_m |V_rm| lambda_m`` is ``||lambda||_1 / sqrt(k)``, above
    ``lambda_max`` once the eigenvalues are near equal."""
    dft = np.exp(2j * np.pi * np.outer(np.arange(rank), np.arange(rank)) / rank) / np.sqrt(rank)
    v = np.zeros((dim, rank), dtype=complex)
    v[rng.permutation(dim)[:rank]] = dft * np.exp(2j * np.pi * rng.random(rank))[:, None]
    m = (v * rng.uniform(0.8, 1.2, size=rank)) @ v.conj().T
    return validate_density((m + m.conj().T) / 2 / np.trace(m).real)


def test_a_flat_row_state_with_g_above_lambda_max_keeps_the_oracles_bits(monkeypatch):
    # g bounds a thin state's rows by the vector norm of its kept eigenvalues,
    # not by lambda_max: here g is about 3 lambda_max, in a screened (256, 8)
    # set whose other states are drawn as the benchmark draws them
    rng = np.random.default_rng(491)
    flat = flat_row_state(rng, 256, 16)
    split = _split_spectrum(flat.spectrum, Tolerances())
    g = (np.abs(split.support.basis) @ split.kept).max()
    assert split.rank == 16 and g > 2.5 * split.kept[0]
    states = planted_set(rng, 256, 7, 2)
    seen = recording_screen(monkeypatch)
    for at in (0, 3, 7):
        assert_oracle_extremes(states[:at] + [flat] + states[at:])
    assert len(seen) == 3 and all(keep is not None for keep in seen)


def test_g_is_within_the_kept_eigenvalues_vector_norm():
    # g <= ||lambda||_2 (Cauchy-Schwarz over a row of V, of norm at most 1)
    # <= sqrt(k) lambda_max
    rng = np.random.default_rng(499)
    for dim in (32, 64, 129, 256):
        for rank in (1, 2, dim // 8, dim // 2 - 1):
            split = _split_spectrum(random_density_exact(rng, dim, rank).spectrum, Tolerances())
            g = (np.abs(split.support.basis) @ split.kept).max()
            vector_norm = np.linalg.norm(split.kept)
            assert split.kept[0] / np.sqrt(dim) <= g <= vector_norm
            assert vector_norm <= np.sqrt(rank) * split.kept[0]


def test_entries_beyond_float32_fall_back_without_a_warning(monkeypatch):
    # entries near 1e39 are finite in double and inf in float32; pytest turns
    # an overflow warning into an error
    rng = np.random.default_rng(401)
    states = [DensityMatrix(64e39 * rho.matrix) for rho in mixed_ranks(rng, 64, 6)]
    with np.errstate(over="ignore"):
        assert not np.isfinite(states[0].matrix.astype(np.complex64)).all()
    seen = recording_screen(monkeypatch)
    assert_oracle_extremes(states)
    assert len(seen) == 1 and seen[0] is None


def test_products_beyond_float32_fall_back(monkeypatch):
    # every entry fits float32, but the pair of the two large states
    # overflows there: its screened norms are not finite, and it holds the
    # largest commutator
    rng = np.random.default_rng(409)
    states = mixed_ranks(rng, 64, 6)
    states[:2] = [DensityMatrix(1e22 * s.matrix) for s in states[:2]]
    assert max(np.abs(s.matrix).max() for s in states) < np.finfo(np.float32).max
    seen = recording_screen(monkeypatch)
    assert_oracle_extremes(states)
    assert len(seen) == 1 and seen[0] is None


def test_disjoint_projectors_read_exact_zeros_with_no_commutator_pass(monkeypatch):
    eye = np.eye(64)
    states = [validate_density(np.diag(eye[8 * k : 8 * k + 8].sum(axis=0)) / 8) for k in range(8)]
    passes = counting_deviation(monkeypatch)
    seen = recording_screen(monkeypatch)
    report = check_bfm(states)
    assert np.float64(report.product_norm).tobytes() == np.float64(0.0).tobytes()
    assert np.float64(report.commutator_norm).tobytes() == np.float64(0.0).tobytes()
    assert passes == [0, 0]  # neither in the screen nor in double
    assert seen[0][np.triu_indices(8, 1)].all()  # all-zero screens decide nothing


@pytest.mark.parametrize(
    "pattern", [[0] * 6, [0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2, 0], [2, 2, 1, 1, 0, 0]]
)
def test_repeated_states_tie_and_keep_their_bits(pattern):
    rng = np.random.default_rng(419)
    base = [random_density_exact(rng, 64, rank) for rank in (20, 64, 40)]
    assert_oracle_extremes([base[k] for k in pattern])


def test_near_tie_that_float32_orders_the_other_way(monkeypatch):
    # a2 is a within 2e-11 per entry: [a, b] and [a2, b] differ in double by
    # less than float32 resolves, and the four I/D states commute exactly
    rng = np.random.default_rng(431)
    dim = 64
    a, b = (random_density_exact(rng, dim, dim) for _ in range(2))

    def deviation(x, y, dtype):
        return float(_hermitian_deviation(x.astype(dtype) @ y.astype(dtype)[None])[0])

    for _ in range(200):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a2 = DensityMatrix(a.matrix + 1e-11 * (g + g.conj().T))
        double = deviation(a.matrix, b.matrix, complex) - deviation(a2.matrix, b.matrix, complex)
        single = (deviation(a.matrix, b.matrix, np.complex64)
                  - deviation(a2.matrix, b.matrix, np.complex64))
        if double * single < 0:
            break
    else:
        pytest.fail("no near-tie that float32 orders the other way")
    states = [a, a2, b] + [validate_density(np.eye(dim) / dim)] * 4
    seen = recording_screen(monkeypatch)
    assert_oracle_extremes(states)
    assert seen[0][0, 2] and seen[0][1, 2]  # both tied pairs go on to double


def test_underflow_floor_keeps_the_pair_float32_reads_high():
    # float32 reads the pair (0, 1) as 0 (three products of 0.45 times its
    # smallest subnormal each round to 0) and the pair (0, 2) as exactly that
    # subnormal, though (0, 2) holds the smaller product; the pair (1, 2)
    # holds the largest commutator, 2^-140.  The relative term alone is far
    # below one subnormal here, so only the floor keeps (0, 2).
    dim, eta = 64, float(np.finfo(np.float32).smallest_subnormal)
    c, g = np.sqrt(0.45 * eta), 2.0**-70
    mats = [np.zeros((dim, dim), dtype=complex) for _ in range(3)]
    mats[0][0, :3] = c
    mats[1][:3, 0] = c
    mats[1][6, 7] = g
    mats[2][0, 0] = eta / c
    mats[2][7, 7] = g
    products = {(i, j): mats[i] @ mats[j] for i, j in ((0, 1), (0, 2), (1, 2))}
    norms = {pair: np.abs(p).max() for pair, p in products.items()}
    assert min(norms, key=norms.get) == (0, 2)
    spectral = [np.linalg.norm(m, 2) for m in mats]
    assert (dim + 4) * _SCREEN_SLACK * spectral[0] * spectral[1] < eta / 1000
    keep = _screen(mats[:2], mats, np.array([(0, s, s, 0) for s in spectral]))
    assert keep[0, 2] and keep[1, 2]


@pytest.mark.parametrize("dim", [64, 100, 256, 1024])
def test_bound_covers_the_worst_case_rounding(dim):
    # the derivation of _SCREEN_SLACK: casts (two for a dense pair, three for
    # a thin one), one product of inner length D (and k), the float32 hypot,
    # and the double product's own rounding; then the absolute underflow terms
    def gamma(m, u=U32):
        return m * u / (1 - m * u)

    for k in (0, 1, dim // 4, dim // 2 - 1):
        for left, right in ((1.0, 1.0), (0.5, 3e-3), (0.0, 0.0), (2e-30, 1e-25)):
            rel = (3 if k else 2) * U32 + np.sqrt(2) * (gamma(2 * dim) + gamma(2 * k)) + U32
            rel += np.sqrt(2) * (gamma(2 * dim, 2**-53) + gamma(2 * k, 2**-53))
            per_op = np.sqrt(2) * TINY32 * (1 + np.sqrt(k))
            absolute = per_op * (np.sqrt(dim) * (left + right) + 2 * (dim + k) + 1)
            worst = rel * (1 + gamma(4)) * left * right + absolute
            assert _screen_error(dim, k, left, right) >= worst


@pytest.mark.parametrize("dim", [129, 256, 1024])
def test_thin_pair_bound_covers_the_worst_case_rounding(dim):
    # the derivation beside _SCREEN_SLACK for a pair formed from both thin
    # factors: the casts of Lambda_a V_a^dag and V_b, the core of inner length
    # D and its double scaling, weighted by g_a g_b and carried through the
    # later roundings; the casts of V_b, Lambda_b and V_a, the scaling, the
    # products of inner lengths k_b and k_a and the hypot, weighted by g_a R
    # (R the partner's norm plus delta); the double pass's own rounding,
    # with ||Lambda_a||_2 <= sqrt(D) g_a; the absolute underflow terms; and
    # the dropped part of the dense rho_b
    def gamma(m, u=U32):
        return m * u / (1 - m * u)

    half = dim // 2 - 1
    for k_a, k_b in ((1, 1), (1, half), (dim // 4, dim // 4), (half, half)):
        rest = 5 * U32 + np.sqrt(2) * (gamma(2 * k_b) + gamma(2 * k_a)) + U32
        core = (2 * U32 + np.sqrt(2) * gamma(2 * dim) + 2**-53) * (1 + rest)
        double = np.sqrt(2) * (gamma(2 * dim, 2**-53) + gamma(2 * k_a, 2**-53)) * np.sqrt(dim)
        for g_a, g_b, norm, delta in ((1.0, 1.0, 1.0, 1e-9), (0.08, 0.05, 0.02, 1e-17),
                                      (0.3, 0.2, 1e-3, 1e-9), (0.3, 1e-9, 1.1e-9, 1e-9),
                                      (0.0, 0.0, 0.0, 0.0), (2e-30, 1e-25, 3e-26, 1e-40)):
            r = norm + delta
            per_op = np.sqrt(2) * TINY32
            absolute = per_op * ((2 * dim + np.sqrt(dim)) * np.sqrt(k_a) * (1 + g_b)
                                 + 2 * np.sqrt(k_a * k_b) + 2 * k_b * np.sqrt(k_a) + 2 * k_a + 1
                                 + (np.sqrt(k_b) + np.sqrt(k_a * dim)) * (g_a + r))
            worst = (core * g_a * g_b + (rest + double) * (1 + gamma(4)) * g_a * r
                     + absolute + g_a * delta * (1 + dim * 2**-52))
            assert _thin_pair_error(dim, k_a, k_b, g_a, g_b, norm, delta) >= worst


def test_thin_pair_screen_holds_one_product_at_a_time():
    # from D = 129 the screen casts each thin partner's D x k basis per pair,
    # not its D x D matrix, and holds no stack of factors: the pass stays
    # within the bytes that test_one_partner_chunks_stack_nothing allows
    rng = np.random.default_rng(463)
    states = planted_set(rng, 256, 8, 2)
    for s in states:
        s.spectrum
    tracemalloc.start()
    try:
        _pairwise_norms(states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 256 * 256 * 16


def test_bench_like_set_forms_few_pairs_in_double(monkeypatch):
    rng = np.random.default_rng(443)
    formed = counting_double_products(monkeypatch)
    for _ in range(2):
        states = planted_set(rng, 256, 8, 2)
        formed[0] = 0
        assert_oracle_extremes(states)
        assert 0 < formed[0] <= 4  # of 28 pairs


def test_screened_walk_forms_each_pair_once_per_pass(monkeypatch):
    # every pair once in complex64, then exactly the kept pairs in double
    rng = np.random.default_rng(457)
    n = 8
    states = planted_set(rng, 64, n, 2)
    seen = recording_walk(monkeypatch)
    keeps = recording_screen(monkeypatch)
    assert_oracle_extremes(states)
    assert len(keeps) == 1 and keeps[0] is not None
    every = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    assert walked_pairs(seen, np.dtype(np.complex64)) == every
    kept = [(int(i), int(j)) for i, j in zip(*np.nonzero(keeps[0]))]
    assert walked_pairs(seen, np.dtype(complex)) == kept
    assert 0 < len(kept) < len(every)
    assert all(len(partners) == 1 for kind, _, partners in seen if kind == np.dtype(complex))


@pytest.mark.parametrize("dim, n, screened", [(64, 6, True), (63, 6, False), (64, 5, False),
                                              (256, 3, False), (32, 32, False)])
def test_screen_runs_from_its_measured_gate(monkeypatch, dim, n, screened):
    rng = np.random.default_rng(449 + dim + n)
    states = mixed_ranks(rng, dim, n)
    seen = recording_screen(monkeypatch)
    assert_oracle_extremes(states)
    assert len(seen) == int(screened)
