"""The pairwise pass reduces its products a cache-sized chunk at a time.

The oracle is the earlier implementation: each left state forms the whole
stack of products against its later partners, and the commutator pass reads
each mirror block through a conjugated, transposed view.  Every product is its
own GEMM in either, so the chunked pass must give the same bytes.
"""

import tracemalloc

import numpy as np
import pytest

from qcompat import Tolerances, check_bfm, validate_density
from qcompat.compat import _BLOCK, _CHUNK_BYTES, _hermitian_deviation, _pairwise_norms
from conftest import random_density_exact


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
    for got, want in zip(_pairwise_norms(states), whole_stack_norms(states)):
        assert got.tobytes() == want.tobytes()


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
