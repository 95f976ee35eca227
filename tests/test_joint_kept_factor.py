"""``verify_joint`` reads the joint state through its kept spectrum.

With ``W`` the joint's support basis and ``Lambda`` its kept eigenvalues, the
leakage is ``max |(W - B_c (B_c^dag W)) W^dag|``, the same operator as the
dense ``P_J - B_c (B_c^dag P_J)``, and an observer's leak is the largest
entry of the PSD block ``(x Lambda) x^dag`` with ``x = N^dag W``, read off its
diagonal ``sum_m lambda_m |x_rm|^2``.  The oracle below forms the whole block
and allows the diagonal reading ``4 k_J eps`` relative, ``k_J`` the joint's
rank.  That leak omits the joint's eigenvalues at or below
``eigenvalue_zero_tol``, so the oracle allows ``delta_J``, the largest of
them in magnitude, on top of product rounding against the dense leak.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompat import Tolerances, max_abs, projector_from, validate_density, verify_joint
from qcompat.compat import _common_support, _named_splits
from qcompat.linalg import _split_spectrum
from conftest import product_rounding, random_unitary

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
TOL = Tolerances()
EPS = np.finfo(float).eps


def planted_observers(rng, dim, n, common):
    """``n`` observers whose supports share exactly ``common`` planted directions."""
    frame = random_unitary(rng, dim)
    shared, complement = frame[:, :common], frame[:, common:]
    free = dim - common
    observers = []
    for _ in range(n):
        own = complement @ random_unitary(rng, free)[:, : int(rng.integers(0, free // 2 + 1))]
        basis = np.column_stack([shared, own])
        weights = rng.uniform(0.1, 1.1, size=basis.shape[1])
        m = (basis * weights) @ basis.conj().T
        observers.append(validate_density(m / np.trace(m).real))
    return observers, shared


def joint_state(rng, shared, leak, tiny, level):
    """A joint state on directions of ``shared`` (plus one random direction when
    ``leak``), with ``tiny`` further orthogonal eigenvalues equal to ``level``."""
    dim = shared.shape[0]
    rank = int(rng.integers(1, shared.shape[1] + 1))
    main = shared @ random_unitary(rng, shared.shape[1])[:, :rank]
    if leak:
        main = np.column_stack([main, random_unitary(rng, dim)[:, :1]])
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    frame, _ = np.linalg.qr(np.column_stack([main, g])[:, :dim])
    r = main.shape[1]
    tiny = min(tiny, dim - r)
    weights = np.concatenate([rng.uniform(0.1, 1.1, size=r), np.full(tiny, level)])
    weights[:r] *= (1.0 - tiny * level) / weights[:r].sum()
    m = (frame[:, : r + tiny] * weights) @ frame[:, : r + tiny].conj().T
    return validate_density((m + m.conj().T) / 2)


def dropped(state):
    """``delta``: the largest eigenvalue magnitude at or below the cutoff, else 0."""
    values = state.spectrum[0]
    return float(np.abs(values[values <= TOL.eigenvalue_zero_tol]).max(initial=0.0))


def assert_within_dense_rule(joint, observers):
    ok, report = verify_joint(joint, observers)
    dim = joint.dim
    b = _common_support(_named_splits(observers, TOL), TOL).basis
    split = _split_spectrum(joint.spectrum, TOL, "joint")
    p_joint = projector_from(split.support)
    dense = max_abs(p_joint - b @ (b.conj().T @ p_joint))
    assert abs(report.leakage - dense) <= product_rounding(dim)
    if abs(dense - TOL.overlap_tol) > product_rounding(dim):
        assert ok == (dense <= TOL.overlap_tol)
    slack = dropped(joint) + product_rounding(dim)
    for leak, obs in zip(report.per_observer, observers):
        null = _split_spectrum(obs.spectrum, TOL).null.basis
        assert leak.null_dim == null.shape[1]
        assert abs(leak.leaked_norm - max_abs(null.conj().T @ joint.matrix @ null)) <= slack
        x = null.conj().T @ split.support.basis
        block = max_abs((x * split.kept) @ x.conj().T)
        assert abs(leak.leaked_norm - block) <= 4 * split.rank * EPS * block + 1e-30
    return ok, report


@st.composite
def joint_cases(draw):
    dim = draw(st.integers(2, 64))
    n = draw(st.integers(1, 4))
    common = draw(st.integers(1, max(1, dim // 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    observers, shared = planted_observers(rng, dim, n, common)
    tiny = draw(st.integers(0, 3))
    level = draw(st.one_of(st.just(TOL.eigenvalue_zero_tol), st.floats(1e-13, 1e-9)))
    return joint_state(rng, shared, draw(st.booleans()), tiny, level), observers


@PROPERTY
@given(joint_cases())
def test_leaks_stay_within_the_dropped_eigenvalues_of_the_dense_ones(case):
    assert_within_dense_rule(*case)


def test_a_dropped_eigenvalue_in_a_null_space_is_not_reported():
    # the joint's 1e-10 eigenvalue lies in the observer's null space: the dense
    # leak sees it, the kept factor does not, and the gap is delta_J
    rng = np.random.default_rng(227)
    dim = 16
    frame = random_unitary(rng, dim)
    obs = validate_density((frame[:, :4] * 0.25) @ frame[:, :4].conj().T)
    m = 0.5 * np.outer(frame[:, 0], frame[:, 0].conj()) + (0.5 - 1e-10) * np.outer(
        frame[:, 1], frame[:, 1].conj()) + 1e-10 * np.outer(frame[:, 9], frame[:, 9].conj())
    joint = validate_density((m + m.conj().T) / 2)
    ok, report = assert_within_dense_rule(joint, [obs])
    assert ok
    assert 0.0 < dropped(joint) <= 1.1e-10
    # N^dag J N holds 1e-10 x x^dag with x a unit vector in 12 dimensions,
    # so some |x_i|^2 is at least 1/12
    null = _split_spectrum(obs.spectrum, TOL).null.basis
    assert max_abs(null.conj().T @ joint.matrix @ null) > 0.9e-10 / 12
    assert report.per_observer[0].leaked_norm < 1e-15


def test_dim_256_verdicts_follow_the_dense_rule():
    rng = np.random.default_rng(229)
    observers, shared = planted_observers(rng, 256, 3, 3)
    verdicts = set()
    for leak in (False, True):
        ok, _ = assert_within_dense_rule(joint_state(rng, shared, leak, 2, 5e-10), observers)
        verdicts.add(ok)
    assert verdicts == {True, False}
