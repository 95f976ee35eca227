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

from .errors import ChiOutsideSupport, Incompatible, ZeroProbabilityOutcome
from .linalg import DEFAULT_TOLERANCES, Tolerances, _lex_order
from .states import DensityMatrix, PureState, _mixture, _support_weights, validate_density
from .states import _check_weights
from .compat import _common_support

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
    ``q0`` and ``rest_b``.  Each side's weights follow the one mixture rule
    of ``states``: strictly positive, summing to one within ``WEIGHT_TOL``.
    """

    chi: PureState
    p0: float
    q0: float
    rest_a: tuple[Component, ...]
    rest_b: tuple[Component, ...]

    def __post_init__(self):
        object.__setattr__(self, "p0", float(self.p0))
        object.__setattr__(self, "q0", float(self.q0))
        object.__setattr__(self, "rest_a", tuple((float(w), s) for w, s in self.rest_a))
        object.__setattr__(self, "rest_b", tuple((float(w), s) for w, s in self.rest_b))
        for name, head, rest in (("a", self.p0, self.rest_a), ("b", self.q0, self.rest_b)):
            _check_weights([head, *(w for w, _ in rest)], f"weights of decomposition {name}")
            if any(s.dim != self.chi.dim for _, s in rest):
                raise ValueError(f"rest_{name} states must match the shared-state dimension")

    @property
    def dim(self) -> int:
        return self.chi.dim

    def rho_a(self) -> DensityMatrix:
        """Reconstruct the first state from its decomposition."""
        return self._reconstruct(self.p0, self.rest_a, "A")

    def rho_b(self) -> DensityMatrix:
        """Reconstruct the second state from its decomposition."""
        return self._reconstruct(self.q0, self.rest_b, "B")

    def _reconstruct(self, head: float, rest: tuple[Component, ...], label: str) -> DensityMatrix:
        return validate_density(_mixture(((head, self.chi),) + rest), label=label)


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
        t[0], t[:, 0] = _zero_block(self, "A"), _zero_block(self, "B")
        t /= np.linalg.norm(t)
        return PureState(t)


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
    tol = tol or DEFAULT_TOLERANCES
    basis = _common_support([a, b], tol).basis
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
    """
    return _common_weight(rho, chi, tol or DEFAULT_TOLERANCES)[0]


def _common_weight(
    rho: DensityMatrix, chi: PureState, tol: Tolerances
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The maximal weight ``p = 1/|u|^2`` of ``|chi><chi|`` in ``rho``, with
    ``u = L^(-1/2) V^dag chi`` for the support columns ``V`` of the kept
    spectrum and their eigenvalues ``L`` rescaled to sum to one
    (``states._support_weights``); returns ``p``, ``V``, ``L`` and
    ``V^dag chi``.  Raises ``ChiOutsideSupport`` as :func:`max_common_weight`."""
    if rho.dim != chi.dim:
        raise ChiOutsideSupport(
            f"state dimension {chi.dim} does not match rho dimension {rho.dim}"
        )
    basis, kept = _support_weights(rho, tol)
    overlaps = basis.conj().T @ chi.amplitudes
    residual = float(np.linalg.norm(basis @ overlaps - chi.amplitudes))
    if residual > CHI_SUPPORT_RESIDUAL:
        raise ChiOutsideSupport(f"chi leaves the support by {residual:.3e}")
    weight = min(1.0 / float(np.sum(np.abs(overlaps) ** 2 / kept)), 1.0)
    return weight, basis, kept, overlaps


def _split_off(
    rho: DensityMatrix, chi: PureState, tol: Tolerances
) -> tuple[float, tuple[Component, ...]]:
    """The maximal weight ``p`` of ``|chi><chi|`` in ``rho`` and the remainder
    ``rho - p |chi><chi|`` as terms, both read from the kept spectrum.

    With ``V``, ``L`` and ``u`` as in :func:`_common_weight` and
    ``F = V L^(1/2)``, the remainder is ``F (I - u u^dag/|u|^2) F^dag``.  So
    the ``k - 1`` columns of ``F Q``, for ``Q`` an orthonormal basis of u's
    complement, decompose it (the ensemble freedom of
    Hughston-Jozsa-Wootters), each weighted by its squared norm, which is at
    least the smallest kept eigenvalue.  They are not orthogonal.
    """
    weight, basis, kept, overlaps = _common_weight(rho, chi, tol)
    complement = np.linalg.qr((overlaps / np.sqrt(kept))[:, None], mode="complete")[0][:, 1:]
    terms = (basis * np.sqrt(kept)) @ complement
    norms = np.linalg.norm(terms, axis=0)
    return weight, tuple((float(n) ** 2, PureState(t / n)) for n, t in zip(norms, terms.T))


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
    tol = tol or DEFAULT_TOLERANCES
    chi = choose_common_state(a, b, tol)
    (p0, rest_a), (q0, rest_b) = _split_off(a, chi, tol), _split_off(b, chi, tol)
    return SharedDecomposition(chi=chi, p0=p0, q0=q0, rest_a=rest_a, rest_b=rest_b)


def build_witness(d: SharedDecomposition) -> WitnessState:
    """The tripartite witness state of a shared decomposition, which is all it stores.

    Its superposition puts the shared state under both ancillas' zero
    outcome, each extra term of the first decomposition under a distinct
    ancilla-B label with coefficient ``sqrt(p_i/p0)``, and each extra term
    of the second under a distinct ancilla-A label with ``sqrt(q_j/q0)``.
    """
    return WitnessState(d)


def _zero_block(w: WitnessState, side: str) -> np.ndarray:
    """The amplitudes one observer's outcome 0 leaves, a row per label of the
    other ancilla: ``N [chi; sqrt(p_i/p0) psi_i]`` for Alice ("A") and
    ``N [chi; sqrt(q_j/q0) phi_j]`` for Bob ("B")."""
    d = w.decomposition
    head, rest = (d.p0, d.rest_a) if side == "A" else (d.q0, d.rest_b)
    terms = ((head, d.chi),) + rest
    return w.normalization * np.array([np.sqrt(p / head) * s.amplitudes for p, s in terms])


def _outcome_zero(block: np.ndarray, label: str, tol: Tolerances) -> tuple[float, DensityMatrix]:
    """Probability of outcome 0 and the reduced state of the block ``M`` it leaves."""
    p = float(np.vdot(block, block).real)
    if p <= tol.eigenvalue_zero_tol:
        raise ZeroProbabilityOutcome(p)
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
    tol = tol or DEFAULT_TOLERANCES
    alice, bob = _zero_block(w, "A"), _zero_block(w, "B")
    p_alice, rho_alice = _outcome_zero(alice, "A", tol)
    p_bob, rho_bob = _outcome_zero(bob, "B", tol)
    p_both = float(np.vdot(alice[0], alice[0]).real)
    # Bob's outcome 0 measured after Alice's: its conditional probability
    if p_both / p_alice <= tol.eigenvalue_zero_tol:
        raise ZeroProbabilityOutcome(p_both / p_alice)
    return ProtocolResult(
        rho_alice=rho_alice,
        rho_bob=rho_bob,
        joint=PureState(alice[0] / np.sqrt(p_both)),
        p_alice=p_alice,
        p_bob=p_bob,
        p_both=p_both,
    )
