"""The one split of a kept spectrum at ``eigenvalue_zero_tol``.

Spectra are planted with eigenvalues exactly at ``+cutoff`` and ``-cutoff``
and one ulp on either side of each, where a rank count or a sign check that
used the wrong comparison would slip.  The split only slices, so a planted
spectrum (descending, as :func:`~qcompat.linalg._eigh_canonical` returns it)
stands in for an eigendecomposition; the public readers are checked against
the spectrum they compute.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcompat import (
    NegativeEigenvalue,
    Tolerances,
    build_shared_decomposition,
    check_bfm,
    choose_common_state,
    hermitian_eigendecompose,
    null_of,
    projector_from,
    support_of,
    validate_density,
    verify_joint,
)
from qcompat import cli, compat, states
from qcompat.linalg import _split_spectrum
from conftest import compatible_pair, planted_set, spy

CUTOFFS = (0.0, 1e-9, 1e-3, 0.25)


def edges(cutoff):
    """``+-cutoff`` and their neighbours one ulp away on either side."""
    return [x for c in (cutoff, -cutoff)
            for x in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf))]


def planted(values, cutoff):
    """A read-only descending spectrum with the identity as eigenvectors, and its tolerances."""
    values = np.sort(np.asarray(values, dtype=float))[::-1].copy()
    vectors = np.eye(values.size, dtype=complex)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return values, vectors, Tolerances(eigenvalue_zero_tol=cutoff)


@st.composite
def planted_spectra(draw):
    cutoff = draw(st.sampled_from(CUTOFFS))
    value = st.one_of(st.sampled_from(edges(cutoff)), st.floats(-1.0, 1.0))
    values = draw(st.lists(value, min_size=1, max_size=64))
    return planted(values, cutoff)


@settings(max_examples=300)
@given(planted_spectra())
@example(planted([0.0], 0.0))
@example(planted([-0.0, np.nextafter(0.0, -np.inf)], 0.0))
@example(planted(edges(1e-9), 1e-9))
@example(planted([1e-3, -1e-3], 1e-3))
def test_split_counts_and_signs_at_the_cutoff(case):
    values, vectors, tol = case
    cutoff = tol.eigenvalue_zero_tol
    # the rank reads no sign: nothing raises, whatever the spectrum
    split = _split_spectrum((values, vectors), tol, psd=False)
    assert split.rank + split.null.dimension == values.size
    assert split.support.dimension == split.rank
    assert split.kept.tobytes() == values[values > cutoff].tobytes()
    assert np.all(values[split.rank :] <= cutoff)
    for part in (split.support, split.null):
        assert np.shares_memory(part.basis, vectors) or part.dimension == 0
        assert not part.basis.flags.writeable
    assert np.array_equal(np.hstack([split.support.basis, split.null.basis]), vectors)

    negative = values[-1] < -cutoff
    if negative:
        for name in (None, "state"):
            with pytest.raises(NegativeEigenvalue):
                _split_spectrum((values, vectors), tol, name)
    else:
        checked = _split_spectrum((values, vectors), tol)
        assert checked.rank == split.rank
        assert checked.kept.tobytes() == split.kept.tobytes()
        if split.rank == 0:
            with pytest.raises(ValueError, match="^state has an empty support"):
                _split_spectrum((values, vectors), tol, "state")


@settings(max_examples=60)
@given(planted_spectra())
def test_support_and_null_readers_raise_exactly_below_minus_cutoff(case):
    values, _, tol = case
    m = np.diag(values)
    lam_min = hermitian_eigendecompose(m, tol)[0][-1]
    for reader in (support_of, null_of):
        if lam_min < -tol.eigenvalue_zero_tol:
            with pytest.raises(NegativeEigenvalue):
                reader(m, tol)
        else:
            reader(m, tol)  # an emptied support is reported, not raised


@pytest.mark.parametrize("dim", [6, 64])
@pytest.mark.parametrize("build", [build_shared_decomposition, choose_common_state])
def test_witness_stages_split_each_state_once(monkeypatch, build, dim):
    # the intersection and the decomposition both read the one named split
    a, b, _ = compatible_pair(np.random.default_rng(dim), dim)
    seen = spy(monkeypatch, _split_spectrum)  # in every module that binds it
    assert all(vars(m)["_split_spectrum"] is not _split_spectrum for m in (compat, states, cli))
    build(a, b)
    assert len(seen) == 2


@pytest.mark.parametrize("dim, n", [(32, 3), (64, 6)])
def test_check_bfm_and_verify_joint_split_each_state_once(monkeypatch, dim, n):
    # from D = 32 the pairwise pass reads each state's rank from its split:
    # check_bfm hands it the named splits its intersection read, with the
    # screen off (3 states) and on (6 states at D = 64)
    rng = np.random.default_rng(dim + n)
    states, common = planted_set(rng, dim, 2, rng.integers(1, dim // 2 - 1, size=n))
    seen = spy(monkeypatch, _split_spectrum)  # in every module that binds it
    screens = spy(monkeypatch, compat._screen, compat)
    assert check_bfm(states).intersection_dim == 2
    assert (len(seen), len(screens)) == (n, int(n >= compat._SCREEN_MIN_STATES))
    seen.clear()
    ok, _ = verify_joint(validate_density(projector_from(common) / 2), states)
    assert ok and len(seen) == n + 1
