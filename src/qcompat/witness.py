"""Constructive proof machinery for compatible state assignments.

Given two compatible density matrices, this module finds a pure state
common to both supports, builds decompositions of each state that share it,
and simulates the measurement protocol on the tripartite witness state
those decompositions define, to verify the round trip numerically.  The
witness is kept as its decomposition: each observer's outcome-0 block is
formed from the terms when needed, and the dense ``dim_a * dim_b * D``
amplitude vector only on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChiOutsideSupport, Incompatible
from .linalg import Subspace, Tolerances, _Split, _lex_order, _tolerances
from .states import DensityMatrix, PureState, _mixture, validate_density
from .states import _mixture_terms, _nonzero_probability, _state_split
from .compat import _common_support, _named_splits

__all__ = [
    "SharedDecomposition",
    "WitnessState",
    "ProtocolResult",
    "choose_common_state",
    "max_common_weight",
    "build_shared_decomposition",
    "build_witness",
    "simulate_protocol",
]

Component = tuple[float, PureState]

# chi comes from the support intersection, so only rounding moves it off a support
CHI_SUPPORT_RESIDUAL = 1e-8

# Structural: how far a simulated round trip may stray from the decomposition
# (reduced states entrywise, the pooled state's overlap with chi), and the
# amplitudes an older witness file stores from the ones its decomposition gives.
ROUND_TRIP_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SharedDecomposition:
    """Decompositions of two density matrices sharing one pure state.

    ``rho_a = p0 |chi><chi| + sum_i p_i |psi_i><psi_i|`` with the ``rest_a``
    terms carrying the ``(p_i, |psi_i>)`` pairs, and likewise ``rho_b`` with
    ``q0`` and ``rest_b``.  Each side's terms follow the one mixture rule of
    ``states`` (``states._mixture_terms``): every weight a number, strictly
    positive, the weights summing to one within ``WEIGHT_TOL``, and every
    vector of chi's dimension.  Each side's state is rebuilt on first use and
    kept (:meth:`rho_a`, :meth:`rho_b`).
    """

    chi: PureState
    p0: float
    q0: float
    rest_a: tuple[Component, ...]
    rest_b: tuple[Component, ...]

    def __post_init__(self):
        a, b = (_mixture_terms(t, f"decomposition {side}") for side, t in zip("ab", self._terms()))
        for name, value in (("p0", a[0][0]), ("q0", b[0][0]), ("rest_a", a[1:]), ("rest_b", b[1:])):
            object.__setattr__(self, name, value)

    def _terms(self) -> tuple[tuple[Component, ...], tuple[Component, ...]]:
        """Each state's terms, the shared one first: ``((p0, chi), *rest_a)``
        for the first state and ``((q0, chi), *rest_b)`` for the second."""
        return ((self.p0, self.chi), *self.rest_a), ((self.q0, self.chi), *self.rest_b)

    @property
    def dim(self) -> int:
        return self.chi.dim

    def _rebuilt(self, side: int) -> DensityMatrix:
        """The state of side ``side`` (0 for "A", 1 for "B"), validated from its
        terms on first use and kept.  No lock, as for ``DensityMatrix.spectrum``:
        callers racing on first use build equal states."""
        kept = self.__dict__.setdefault("_states", {})
        if side not in kept:
            kept[side] = validate_density(_mixture(self._terms()[side]), label="AB"[side])
        return kept[side]

    def rho_a(self) -> DensityMatrix:
        """The first state, rebuilt from its decomposition once and kept."""
        return self._rebuilt(0)

    def rho_b(self) -> DensityMatrix:
        """The second state, rebuilt from its decomposition once and kept."""
        return self._rebuilt(1)


@dataclass(frozen=True, eq=False)
class WitnessState:
    """Tripartite pure state on ancilla_A (x) ancilla_B (x) system.

    The state is ``N (|0>|0>|chi> + sum_i sqrt(p_i/p0) |0>|i>|psi_i>
    + sum_j sqrt(q_j/q0) |j>|0>|phi_j>)`` with ``1/N^2 = 1/p0 + 1/q0 - 1``,
    so the decomposition is all it stores; ``dims`` and ``normalization``
    derive from it.  Ancilla dimensions are minimal: ancilla A indexes the
    second decomposition's extra terms, ancilla B the first's.
    """

    decomposition: SharedDecomposition

    @property
    def dims(self) -> tuple[int, int, int]:
        d = self.decomposition
        return (1 + len(d.rest_b), 1 + len(d.rest_a), d.dim)

    @property
    def normalization(self) -> float:
        d = self.decomposition
        return (1.0 / d.p0 + 1.0 / d.q0 - 1.0) ** -0.5

    @property
    def amplitudes(self) -> PureState:
        """The dense ``dim_a * dim_b * D`` amplitude vector, built from the terms
        on every read (unit-scaled, absorbing the ``WEIGHT_TOL`` slack of the
        weights).  In the library only the check of an older file reads it."""
        t = np.zeros(self.dims, dtype=complex)
        t[0], t[:, 0] = _zero_blocks(self)
        t /= np.linalg.norm(t)
        return PureState._adopt(t)


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Outcome of simulating the two-ancilla measurement protocol.

    ``rho_alice``/``rho_bob`` are the system states inferred by each
    observer after seeing outcome 0 on their own ancilla (without sharing
    results); ``joint`` is the system state after both outcomes are pooled.
    The outcome probabilities are reported as well; only positivity is
    guaranteed for them.
    """

    rho_alice: DensityMatrix
    rho_bob: DensityMatrix
    joint: PureState
    p_alice: float
    p_bob: float
    p_both: float


def choose_common_state(
    a: DensityMatrix, b: DensityMatrix, tol: Tolerances | None = None
) -> PureState:
    """Pick a deterministic unit vector from the support intersection.

    Among the intersection basis vectors, takes the one with the largest
    ``min(<chi|rho_a|chi>, <chi|rho_b|chi>)`` (keeping the extractable
    weights away from the numerical floor); exact ties go to the
    lexicographically smallest phase-fixed vector.

    Raises
    ------
    Incompatible
        If the support intersection is trivial.
    """
    tol = _tolerances(tol)
    return _common_state(a, b, _common_support(_named_splits([a, b], tol), tol))


def _common_state(a: DensityMatrix, b: DensityMatrix, common: Subspace) -> PureState:
    """:func:`choose_common_state` from ``common``, the supports' intersection."""
    basis = common.basis
    if basis.shape[1] == 0:
        raise Incompatible("support intersection is trivial; no common state exists")
    quad = [np.einsum("ik,ik->k", basis.conj(), s.matrix @ basis).real for s in (a, b)]
    return PureState(basis[:, _lex_order(np.minimum(*quad), basis)[0]])


def max_common_weight(
    rho: DensityMatrix, chi: PureState, tol: Tolerances | None = None
) -> float:
    """Largest weight with which ``|chi><chi|`` fits inside ``rho``.

    Computed as ``1 / <chi|rho^+|chi>`` (capped at 1) from the overlaps of
    ``chi`` with the support columns of ``rho``'s kept spectrum (same zero
    cutoff as everywhere else), which also give the residual ``|P chi - chi|``.
    ``rho^+`` inverts the kept eigenvalues rescaled to sum to one, so the
    mass the zero cutoff drops stays in the support and the weights of the
    decomposition still sum to one.  At this weight the remainder
    ``rho - p |chi><chi|`` touches the PSD boundary; any larger weight breaks
    positivity.

    Raises
    ------
    ChiOutsideSupport
        If ``chi`` leaves the support of ``rho`` by more than
        ``CHI_SUPPORT_RESIDUAL``.
    ValueError
        If the zero cutoff empties the support of ``rho``.
    """
    if rho.dim != chi.dim:
        raise ChiOutsideSupport(
            f"state dimension {chi.dim} does not match rho dimension {rho.dim}"
        )
    return _common_weight(_state_split(rho, tol), chi)[0]


def _common_weight(split: _Split, chi: PureState) -> tuple[float, np.ndarray, np.ndarray]:
    """The maximal weight ``p = 1/|u|^2`` of ``|chi><chi|`` in the state of ``split``,
    with ``u = L^(-1/2) V^dag chi`` for the support columns ``V`` of its kept
    spectrum and their eigenvalues ``L`` rescaled to sum to one (``split.weights``);
    returns ``p``, ``L`` and ``V^dag chi``.  Raises :class:`ChiOutsideSupport` as
    :func:`max_common_weight` does."""
    basis, kept = split.support.basis, split.weights
    overlaps = basis.conj().T @ chi.amplitudes
    residual = float(np.linalg.norm(basis @ overlaps - chi.amplitudes))
    if residual > CHI_SUPPORT_RESIDUAL:
        raise ChiOutsideSupport(f"chi leaves the support by {residual:.3e}")
    weight = min(1.0 / float(np.sum(np.abs(overlaps) ** 2 / kept)), 1.0)
    return weight, kept, overlaps


def _split_off(split: _Split, chi: PureState) -> tuple[float, tuple[Component, ...]]:
    """The maximal weight ``p`` of ``|chi><chi|`` in the state ``rho`` of ``split``
    and the remainder ``rho - p |chi><chi|`` as terms, both read from its kept spectrum.

    With ``V``, ``L`` and ``u`` as in :func:`_common_weight` and
    ``F = V L^(1/2)``, the remainder is ``F (I - u u^dag/|u|^2) F^dag``.  So
    the ``k - 1`` columns of ``F Q``, for ``Q`` an orthonormal basis of u's
    complement, decompose it (the ensemble freedom of
    Hughston-Jozsa-Wootters), each weighted by its squared norm, which is at
    least the smallest kept eigenvalue.  They are not orthogonal.
    """
    weight, kept, overlaps = _common_weight(split, chi)
    complement = np.linalg.qr((overlaps / np.sqrt(kept))[:, None], mode="complete")[0][:, 1:]
    terms = (split.support.basis * np.sqrt(kept)) @ complement
    norms = np.linalg.norm(terms, axis=0)
    return weight, tuple((float(n) ** 2, PureState._adopt(t / n)) for n, t in zip(norms, terms.T))


def build_shared_decomposition(
    a: DensityMatrix, b: DensityMatrix, tol: Tolerances | None = None
) -> SharedDecomposition:
    """Decompose a compatible pair around a common pure state.

    The shared weight in each state is the maximal extractable one, which
    keeps the ancillas minimal and the witness coefficients
    well-conditioned; each remainder becomes ``rank - 1`` terms read from
    the state's kept spectrum (see :func:`_split_off`), with no further
    eigendecomposition.  These terms are not orthogonal.
    """
    tol = _tolerances(tol)
    splits = _named_splits([a, b], tol)
    return _decompose(a, b, splits, _common_support(splits, tol))


def _decompose(a: DensityMatrix, b: DensityMatrix, splits: list[_Split], common: Subspace):
    """:func:`build_shared_decomposition` from the states' :func:`_named_splits`
    ``splits`` and ``common``, the intersection of their supports."""
    chi = _common_state(a, b, common)
    (p0, rest_a), (q0, rest_b) = (_split_off(split, chi) for split in splits)
    return SharedDecomposition(chi=chi, p0=p0, q0=q0, rest_a=rest_a, rest_b=rest_b)


def build_witness(d: SharedDecomposition) -> WitnessState:
    """The tripartite witness state of a shared decomposition, which is all it stores.

    Its superposition puts the shared state under both ancillas' zero
    outcome, each extra term of the first decomposition under a distinct
    ancilla-B label with coefficient ``sqrt(p_i/p0)``, and each extra term
    of the second under a distinct ancilla-A label with ``sqrt(q_j/q0)``.
    """
    return WitnessState(d)


def _zero_blocks(w: WitnessState) -> list[np.ndarray]:
    """The amplitudes each observer's outcome 0 leaves, a row per label of the
    other ancilla: ``N [chi; sqrt(p_i/p0) psi_i]`` for Alice, then
    ``N [chi; sqrt(q_j/q0) phi_j]`` for Bob."""
    return [w.normalization * np.array([np.sqrt(p / side[0][0]) * s.amplitudes for p, s in side])
            for side in w.decomposition._terms()]


def _outcome_zero(block: np.ndarray, label: str, tol: Tolerances) -> tuple[float, DensityMatrix]:
    """Probability of outcome 0 and the reduced state of the block ``M`` it leaves."""
    p = _nonzero_probability(float(np.vdot(block, block).real), tol)
    return p, validate_density(block.T @ block.conj() / p, tol, label=label)


def simulate_protocol(
    w: WitnessState, tol: Tolerances | None = None
) -> ProtocolResult:
    """Run the two-ancilla measurement protocol on a witness state.

    Alice projects ancilla A onto outcome 0 and, not knowing Bob's result,
    traces out ancilla B; Bob does the mirror image.  Pooling both zero
    outcomes leaves the pure system state.  These reproduce the decomposed
    states.

    Alice's outcome leaves the block ``M = N [chi; sqrt(p_i/p0) psi_i]``, so
    ``p_alice = |M|^2`` and her reduced state is the partial trace
    ``M^T conj(M) / p_alice``; Bob's block is ``N [chi; sqrt(q_j/q0) phi_j]``
    and the pooled state is their common row ``N chi`` renormalized.  This
    takes O((dim_a + dim_b) D^2) time and O(D^2) memory.

    Raises
    ------
    ZeroProbabilityOutcome
        If an outcome's probability is at the numerical floor, which needs a
        leading weight ``p0`` or ``q0`` near ``eigenvalue_zero_tol``.
    """
    tol = _tolerances(tol)
    alice, bob = _zero_blocks(w)
    p_alice, rho_alice = _outcome_zero(alice, "A", tol)
    p_bob, rho_bob = _outcome_zero(bob, "B", tol)
    p_both = float(np.vdot(alice[0], alice[0]).real)
    # Bob's outcome 0 measured after Alice's: its conditional probability
    _nonzero_probability(p_both / p_alice, tol)
    return ProtocolResult(
        rho_alice=rho_alice,
        rho_bob=rho_bob,
        joint=PureState._adopt(alice[0] / np.sqrt(p_both)),
        p_alice=p_alice,
        p_bob=p_bob,
        p_both=p_both,
    )
