"""The pairwise pass reduces its products a cache-sized chunk at a time, and
skips every commutator pass that cannot raise the maximum.

The oracle is the earlier implementation: each left state forms the whole
stack of products against its later partners, the commutator pass reads each
mirror block through a conjugated, transposed view, and every pair's norms are
kept.  Every product is its own GEMM in either, so the per-pair norms must
have the same bytes, and the two extremes the n-state pass reports must be
their minimum and maximum, bit for bit, however many passes it skipped.
"""

import tracemalloc

import numpy as np
import pytest

import qcompat.compat as compat
from qcompat import DensityMatrix, Tolerances, check_bfm, validate_density
from qcompat.compat import _CHUNK_BYTES, _fold_extremes, _pairwise_norms
from qcompat.linalg import _BLOCK, _hermitian_deviation
from conftest import per_pair_norms, random_density_exact, random_unitary, spy


def whole_stack_deviation(p):
    dim = p.shape[-1]
    out = None
    for r in range(0, dim, _BLOCK):
        for c in range(r, dim, _BLOCK):
            block = np.abs(
                p[:, r : r + _BLOCK, c : c + _BLOCK]
                - p[:, c : c + _BLOCK, r : r + _BLOCK].conj().transpose(0, 2, 1)
            ).max(axis=(1, 2))
            out = block if out is None else np.maximum(out, block, out=out)
    return out


def whole_stack_norms(states, tol=None):
    tol = tol or Tolerances()
    n, dim = len(states), states[0].dim
    ranks = [dim] * n
    if dim >= 32:
        for i, s in enumerate(states):
            k = int(np.count_nonzero(s.spectrum[0] > tol.eigenvalue_zero_tol))
            ranks[i] = k if 2 * k < dim else dim
    order = sorted(range(n), key=ranks.__getitem__)
    m = np.stack([states[i].matrix for i in order])
    norms = np.zeros((2, n, n))
    caller = np.array(order)
    for pos, i in enumerate(order[:-1]):
        k = ranks[i]
        if k == dim:
            p = m[pos] @ m[pos + 1 :]
        else:
            values, vectors = states[i].spectrum
            v = vectors[:, :k]
            p = v @ ((values[:k, None] * v.conj().T) @ m[pos + 1 :])
        partners = caller[pos + 1 :]
        norms[0, i, partners] = np.abs(p).max(axis=(1, 2))
        norms[1, i, partners] = whole_stack_deviation(p)
    products, commutators = norms + norms.transpose(0, 2, 1)
    r = np.arange(n)
    upper = r[:, None] < r
    return products[upper], commutators[upper]


def mixed_ranks(rng, dim, n):
    """``n`` states, thin (rank below ``D / 2``) and dense by turns, ranks drawn."""
    half = max(1, dim // 2)
    return [
        random_density_exact(rng, dim, int(rng.integers(1, half) if k % 2 and half > 1
                                           else rng.integers(half, dim + 1)))
        for k in range(n)
    ]


def assert_same_bytes(states):
    products, commutators = whole_stack_norms(states)
    for got, want in zip(per_pair_norms(states), (products, commutators)):
        assert got.tobytes() == want.tobytes()
    extremes = np.array(_pairwise_norms(states))
    assert extremes.tobytes() == np.array([products.min(), commutators.max()]).tobytes()


def partners_per_chunk(dim):
    return max(1, _CHUNK_BYTES // (16 * dim * dim))


@pytest.mark.parametrize(
    "dim, n",
    [(8, 5), (8, 33), (31, 4), (32, 17), (33, 17), (65, 5), (65, 9), (128, 3), (256, 3)]
    + [(64, n) for n in (2, 4, 5, 9, 17, 33)],
)
def test_chunked_pass_matches_the_whole_stack(dim, n):
    rng = np.random.default_rng(1000 * dim + n)
    states = mixed_ranks(rng, dim, n)
    assert_same_bytes(states)
    for _ in range(2):  # other observer orders put other states on the left
        assert_same_bytes([states[k] for k in rng.permutation(n)])


def test_corpus_straddles_every_chunk_boundary():
    # at D = 64 a chunk holds 4 partners: n - 1 partners of 1, 3, 4, 8, 16 and
    # 32 end on, just past and well past a chunk edge
    assert partners_per_chunk(64) == 4
    assert partners_per_chunk(65) == 3
    assert partners_per_chunk(128) == partners_per_chunk(256) == 1
    assert partners_per_chunk(8) > 32


def test_check_bfm_norms_match_the_whole_stack():
    rng = np.random.default_rng(211)
    for dim, n in ((64, 9), (256, 4)):
        states = mixed_ranks(rng, dim, n)
        products, commutators = whole_stack_norms(states)
        report = check_bfm(states)
        assert report.product_norm == float(products.min())
        assert report.commutator_norm == float(commutators.max())


def test_pass_keeps_one_chunk_of_products_alive():
    # the whole stack of seven 1 MiB products, their magnitudes and the
    # commutator pass's temporaries took about 22 MiB on top of the inputs
    rng = np.random.default_rng(223)
    states = [validate_density(random_density_exact(rng, 256, 256).matrix) for _ in range(8)]
    for s in states:
        s.spectrum
    stack = 8 * 256 * 256 * 16
    tracemalloc.start()
    try:
        _pairwise_norms(states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack + 4 * 2**20


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("dim", [1, 2, 63, 64, 65, 256])
def test_mirror_pass_never_writes_its_input(dim, batch):
    rng = np.random.default_rng(dim + 100 * batch)
    p = rng.standard_normal((batch, dim, dim)) + 1j * rng.standard_normal((batch, dim, dim))
    before = p.tobytes()
    whole = np.abs(p - p.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    p.setflags(write=False)
    assert _hermitian_deviation(p).tobytes() == whole.tobytes()
    assert p.tobytes() == before


# ---------------------------------------------------------------------------
# the commutator skip rule


def recording_walk(monkeypatch):
    """Wrap the product walker; the returned list collects ``(dtype, pos, partners)``
    per chunk it yields, ``partners`` the positions its products pair ``pos`` with."""
    seen = []
    original = compat._walk

    def recorded(lefts, mats, dtype, keep=None):
        for pos, cols, p, both in original(lefts, mats, dtype, keep):
            partners = list(range(len(mats))[cols])
            assert p.dtype == dtype and p.shape == (len(partners),) + mats[0].shape
            seen.append((np.dtype(dtype), pos, partners))
            yield pos, cols, p, both

    monkeypatch.setattr(compat, "_walk", recorded)
    return seen


def walked_pairs(seen, dtype):
    """The ``(pos, j)`` pairs the walker formed in ``dtype``, in the order formed."""
    return [(pos, j) for kind, pos, partners in seen if kind == dtype for j in partners]


@pytest.mark.parametrize("dim, n", [(64, 9), (100, 6)])
def test_unscreened_walk_forms_each_pair_once(monkeypatch, dim, n):
    # (64, 9): chunks of 4 partners, with 8, 7, ..., 1 partners per left
    # state, end on and straddle chunk edges; (100, 6): one-partner chunks
    monkeypatch.setattr(compat, "_SCREEN_MIN_STATES", n + 1)
    rng = np.random.default_rng(241 + dim)
    states = mixed_ranks(rng, dim, n)
    seen = recording_walk(monkeypatch)
    products, commutators = whole_stack_norms(states)
    got = np.array(_pairwise_norms(states))
    assert got.tobytes() == np.array([products.min(), commutators.max()]).tobytes()
    assert walked_pairs(seen, np.dtype(complex)) == [(i, j) for i in range(n - 1)
                                                     for j in range(i + 1, n)]
    assert len(seen) == sum(-(-(n - 1 - i) // partners_per_chunk(dim)) for i in range(n - 1))


@pytest.mark.parametrize("c", [1.0, 0.3, 2.0**-600, 5e-324])
@pytest.mark.parametrize("unit", [[[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]])
def test_skip_rule_runs_the_pass_at_its_edge(monkeypatch, c, unit):
    # |P_01 - conj(P_10)| = 2c = 2 max |P| exactly: the pass must run while
    # the running maximum lies below 2c, however close
    p = c * np.array([unit], dtype=complex)
    assert _hermitian_deviation(p)[0] == 2 * c
    seen = spy(monkeypatch, _hermitian_deviation, compat, keep=len)  # products per pass
    for below in (0.0, c, np.nextafter(2 * c, 0)):
        product, commutator = _fold_extremes(p, np.inf, below)
        assert (product, commutator) == (c, 2 * c)
    assert len(seen) == 3
    assert _fold_extremes(p, np.inf, 2 * c) == (c, 2 * c)


def test_skip_rule_reaches_the_edge_through_the_pass():
    # sigma_x sigma_z = [[0, -1], [1, 0]]: product norm 1, commutator norm 2
    sx, sz = (DensityMatrix(np.array(m, dtype=complex))
              for m in ([[0, 1], [1, 0]], [[1, 0], [0, -1]]))
    assert _pairwise_norms([sx, sz]) == (1.0, 2.0)
    assert _pairwise_norms([DensityMatrix(np.eye(2) / 2), sx, sz]) == (0.5, 2.0)


def test_all_zero_products_skip_the_pass(monkeypatch):
    seen = spy(monkeypatch, _hermitian_deviation, compat, keep=len)  # products per pass
    assert _fold_extremes(np.zeros((3, 4, 4), dtype=complex), np.inf, 0.0) == (0.0, 0.0)
    # disjoint basis projectors give exactly zero products: both norms are 0.0, no pass runs
    states = [validate_density(np.diag(np.eye(6)[k])) for k in range(4)]
    report = check_bfm(states)
    assert (report.product_norm, report.commutator_norm) == (0.0, 0.0)
    assert np.float64(report.commutator_norm).tobytes() == np.float64(0.0).tobytes()
    assert seen == []


def test_non_finite_products_keep_the_full_reduction():
    # inf - inf is NaN in the pass; neither a running inf nor a NaN may hide it
    p = np.array([[[0, np.inf], [np.inf, 0]]], dtype=complex)
    with np.errstate(invalid="ignore"):
        assert np.isnan(_hermitian_deviation(p)[0])
        for running in (0.0, 1.0, np.inf):
            product, commutator = _fold_extremes(p, np.inf, running)
            assert product == np.inf and np.isnan(commutator)
        product, commutator = _fold_extremes(np.full((1, 2, 2), np.nan + 0j), 1.0, 0.0)
        assert np.isnan(product) and np.isnan(commutator)
    product, commutator = _fold_extremes(np.ones((1, 2, 2), dtype=complex), np.nan, np.nan)
    assert np.isnan(product) and np.isnan(commutator)


def planted_set(rng, dim, n, common_dim):
    """``n`` states of rank at most ``D / 2`` around a shared ``common_dim``
    subspace, like the benchmark's compatible sets."""
    states = []
    common = random_unitary(rng, dim)[:, :common_dim]
    for _ in range(n):
        extra = random_unitary(rng, dim)[:, : int(rng.integers(1, dim // 2 - common_dim + 1))]
        frame = np.linalg.qr(np.hstack([common, extra]))[0]
        m = (frame * rng.uniform(0.1, 1.0, size=frame.shape[1])) @ frame.conj().T
        states.append(validate_density((m + m.conj().T) / 2 / np.trace(m).real))
    return states


def test_bench_like_set_skips_most_commutator_passes(monkeypatch):
    rng = np.random.default_rng(229)
    states = planted_set(rng, 64, 32, 2)
    products, commutators = whole_stack_norms(states)
    seen = spy(monkeypatch, _hermitian_deviation, compat, keep=len)  # products per pass
    got = np.array(_pairwise_norms(states))
    assert got.tobytes() == np.array([products.min(), commutators.max()]).tobytes()
    # 496 pairs in chunks of up to 4 partners: 136 chunks
    assert 0 < len(seen) < 136
    assert sum(seen) < 496


@pytest.mark.parametrize("dim", [8, 32, 33, 64, 65, 128, 256])
def test_observer_orders_keep_the_report_norms(dim):
    # each order forms some pairs the other way round, and skips other passes;
    # the report still reads the extremes of every pair of that order
    rng = np.random.default_rng(233 + dim)
    n = 5 if dim >= 128 else 9
    states = mixed_ranks(rng, dim, n)
    for _ in range(3):
        moved = [states[k] for k in rng.permutation(n)]
        products, commutators = whole_stack_norms(moved)
        report = check_bfm(moved)
        assert np.float64(report.product_norm).tobytes() == products.min().tobytes()
        assert np.float64(report.commutator_norm).tobytes() == commutators.max().tobytes()


def test_one_partner_chunks_stack_nothing():
    # from D = 91 up a chunk is one partner, read from its own matrix: the
    # pass keeps about one product and its magnitudes alive, whatever n is
    rng = np.random.default_rng(239)
    states = [validate_density(random_density_exact(rng, 256, 256).matrix) for _ in range(8)]
    for s in states:
        s.spectrum
    tracemalloc.start()
    try:
        _pairwise_norms(states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert partners_per_chunk(91) == 1 < partners_per_chunk(90)
    assert peak < 3 * 256 * 256 * 16
