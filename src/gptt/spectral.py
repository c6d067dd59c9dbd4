"""Pure-state decompositions and everything built on top of them.

A diagonalization writes a state as a convex combination of jointly
perfectly distinguishable pure states, by one route per model family.
Matrix models get it from one block eigendecomposition of the state, all
blocks at once.  Polytope models look the state up among their stored
distinguishable sets: one batched least-squares solve finds every set whose
hull holds it, and the state is refused when no set does or when two give
it different spectra.  Both routes certify their reconstruction of the
state within `core.DEFAULT_TOL` and report eigenvalues in descending
order.  On matrix models the identifying effect of an eigenstate is
`dagger(s)`, which the self-dual embedding gives the state's own
coordinates; `transition_matrix` reads them off the eigenstates directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    DiagonalizationError,
    EffectVec,
    GPTError,
    ModelSpec,
    StateVec,
    UnsupportedModelError,
    _block_to_kron,
    _certified_eigenstates,
    _kron_to_coords,
    _same_model,
    as_coords,
    per_model_id,
)
from .embedding import (_frozen, block_eigh, blocks_to_vec, canonical_rows,
                        rank_one_coords)
from . import zoo


def _lex_key(x: np.ndarray):
    return tuple(np.round(x, 10))


def _descending_order(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Order of a decomposition: eigenvalues descending at 12 digits, ties
    broken by the eigenstates' coordinates at 10 digits, lexicographically,
    and then by position.  Coordinates are read only within groups of tied
    eigenvalues."""
    first = [-round(v, 12) for v in values.tolist()]
    order = []
    for _, group in itertools.groupby(
            sorted(range(len(first)), key=first.__getitem__), first.__getitem__):
        tied = list(group)
        if len(tied) > 1:
            tied = [tied[i] for i in
                    np.lexsort(np.round(rows[tied], 10).T[::-1]).tolist()]
        order += tied
    return np.array(order, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class Diagonalization:
    """Spectrum and eigenbasis of a state, padded to a maximal basis.

    `residual` is the route's certificate figure.  Matrix models: the
    largest of the eigenstates' Gram deviation max|E E^T - I|, their
    unit-pairing deviation and the reconstruction residual max|w^T E - x|
    with the raw eigenvalues w, each certified at most `core.DEFAULT_TOL`
    (1e-9).  Polytopes: the reconstruction residual max|p^T E - x| of the
    reported eigenvalues p, certified at most `core.DEFAULT_TOL`.
    """

    model: ModelSpec
    eigenvalues: np.ndarray
    eigenstates: tuple
    residual: float

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)

    def reconstruct(self) -> np.ndarray:
        return sum(p * s.coords for p, s in zip(self.eigenvalues, self.eigenstates))


def _block_spectrum(x: np.ndarray, st, pairs=None) -> tuple:
    """Raw eigenvalues of x, block by block and ascending within a block,
    the coordinates of their eigenstates, one row each, and each
    eigenstate's support (block, unit vector in canonical phase): the
    vectors are read-only rows of one array per block.  `pairs`, the
    `block_eigh` pairs of x kept by its StateVec, replace the eigensolve."""
    parts = [(w, canonical_rows(V)) for w, V in pairs or block_eigh(x, st)]
    return (np.concatenate([w for w, _ in parts]),
            np.concatenate([rank_one_coords(st, b, U)
                            for b, (_, U) in enumerate(parts)]),
            [(b, u) for b, (_, U) in enumerate(parts) for u in U])


@per_model_id
def _stored_sets(model: ModelSpec) -> tuple:
    """The stored distinguishable sets' vertex matrices V, one per set, and
    the pseudo-inverses of their transposes, both read-only."""
    V = model.pure_states[np.asarray(model.distinguishable_sets)]
    return _frozen(V, np.linalg.pinv(V.transpose(0, 2, 1)))


def _stored_set_decomposition(model: ModelSpec, x: np.ndarray) -> tuple:
    """Weights and vertices, in decomposition order, of x over the stored
    distinguishable set of a polytope model whose hull holds it.

    One batched least-squares solve fits x by every stored set at once,
    with pseudo-inverses kept from the model's first one (`_stored_sets`).  A
    set holds x when its weights w are at least -DEFAULT_TOL and, clipped at
    0, rebuild x within DEFAULT_TOL.  Held sets must agree on the spectrum
    within DEFAULT_TOL; the first decomposition in `_descending_order` terms
    is returned.  Raises DiagonalizationError when no set holds x (residue:
    the smallest miss over the sets) or when two held sets give different
    spectra (residue: their largest difference).
    """
    V, pinv = _stored_sets(model)
    w = pinv @ x
    p = np.clip(w, 0.0, None)
    fit = np.abs(np.einsum("sc,scd->sd", p, V) - x).max(axis=1)
    miss = np.maximum(fit, -w.min(axis=1))
    held = np.flatnonzero(miss <= DEFAULT_TOL)
    if not held.size:
        raise DiagonalizationError(
            f"state of {model.model_id} lies in the hull of no perfectly "
            f"distinguishable set of {model.capacity} pure states",
            residue=float(miss.min()))

    decompositions = []
    for i in held:
        order = _descending_order(p[i], V[i])
        decompositions.append((p[i][order], V[i][order]))
    values, rows = min(decompositions, key=lambda d: [
        (-round(v, 12), _lex_key(r)) for v, r in zip(d[0].tolist(), d[1])])
    spectra = -np.sort(-p[held], axis=1)
    gaps = np.abs(spectra - values).max(axis=1)
    if gaps.max() > DEFAULT_TOL:
        other = spectra[gaps.argmax()]
        raise DiagonalizationError(
            f"state of {model.model_id} has two spectra over perfectly "
            f"distinguishable sets: {np.round(values, 12).tolist()} and "
            f"{np.round(other, 12).tolist()}", residue=float(gaps.max()))
    return values, rows


def diagonalize(state: StateVec) -> Diagonalization:
    """Decompose a state into perfectly distinguishable pure states.

    One route per model family.  On a matrix model the decomposition is the
    state's block eigendecomposition; on a polytope the state is looked up
    among the stored distinguishable sets (`_stored_set_decomposition`).
    Failures raise DiagonalizationError carrying the failed figure as its
    residue.

    The matrix route makes no eigensolve of its own on a constructed state:
    it takes out (pops) the `block_eigh` pairs the state's cone check kept
    (`core.StateVec`), so each block is solved once in the state's life;
    an eigenstate of an earlier diagonalization, built without pairs, gets
    one eigensolve per block here.  Popped before the check, the pairs are
    gone whether it passes or not, and a retry after a refusal solves
    afresh.  It certifies the whole decomposition once: the eigenstates'
    Gram matrix, their unit pairings and their reconstruction of the state
    with the raw eigenvalues must each be exact within `core.DEFAULT_TOL`
    (1e-9), and the smallest raw eigenvalue at least -`core.DEFAULT_TOL`,
    the cone tolerance the state was accepted under.  A failure raises
    DiagonalizationError with the failed figure as its residue; otherwise
    the eigenstates are built without a cone check of their own, negative
    eigenvalues are reported as 0, and the largest of the three deviations
    is the result's `residual`.  The polytope route's `residual` is the
    reconstruction residual of the reported eigenvalues, and one above
    `core.DEFAULT_TOL` raises DiagonalizationError.

    The result is cached on the state: later calls return the same
    Diagonalization object.  Errors are not cached and are raised again on
    every call.
    """
    cached = state._derived.get("diagonalization")
    if cached is not None:
        return cached
    model = state.model
    if model.structure is not None:
        kept = state._derived.pop("block_eigh", None)
        raw, rows, supports = _block_spectrum(state.coords, model.structure,
                                              kept)
        values = np.where(raw < 0.0, 0.0, raw)
        order = _descending_order(values, rows)
        values = values[order]
        eigenstates, residual = _certified_eigenstates(
            model, state.coords, raw[order], rows[order])
        for s, i in zip(eigenstates, order.tolist()):
            s._derived["pure_support"] = supports[i]
    else:
        values, rows = _stored_set_decomposition(model, state.coords)
        eigenstates = tuple(StateVec(r, model) for r in rows)
        residual = float(np.abs(
            sum(p * s.coords for p, s in zip(values, eigenstates))
            - state.coords).max())
        if not residual <= DEFAULT_TOL:
            raise DiagonalizationError(
                f"decomposition of a {model.model_id} state fails its "
                f"reconstruction check (deviation {residual:.3e})",
                residue=residual)
    d = state._derived["diagonalization"] = Diagonalization(
        model, values, eigenstates, residual)
    return d


# ---------------------------------------------------------------------------
# dagger and functional calculus


def dagger(state: StateVec) -> EffectVec:
    """The effect certain on the given state and vanishing on its complement.

    In the self-dual embedding used by all matrix models it shares the
    state's coordinates.
    """
    if state.model.structure is None:
        raise UnsupportedModelError(
            f"{state.model.model_id} has no dagger correspondence")
    return EffectVec(state.coords, state.model)


def functional_calculus(model: ModelSpec, x, fn) -> np.ndarray:
    """Apply fn to the spectrum of a block-Hermitian vector.

    One `block_eigh` of x.  Raises GPTError when fn produces a non-finite
    value (for instance a logarithm evaluated at zero).
    """
    if model.structure is None:
        raise UnsupportedModelError(
            f"{model.model_id} has no functional calculus")
    return _calculus_on_pairs(block_eigh(as_coords(x), model.structure), fn,
                              model.structure)


def _calculus_on_pairs(pairs, fn, st) -> np.ndarray:
    """Coordinates of sum fn(w) v v^dagger over the `block_eigh` pairs."""
    out_blocks = []
    for w, V in pairs:
        try:
            fw = np.array([fn(v) for v in w], dtype=float)
        except ValueError as exc:
            raise GPTError(f"functional calculus failed on the spectrum: {exc}")
        if not np.all(np.isfinite(fw)):
            raise GPTError("functional calculus produced a non-finite value")
        out_blocks.append((V * fw) @ V.conj().T)
    return blocks_to_vec(out_blocks, st)


def transition_matrix(diag_from: Diagonalization,
                      diag_to: Diagonalization) -> np.ndarray:
    """T[i, j] = identifying effect of target state i on source state j.

    The identifying effect `dagger(s)` of a matrix-model eigenstate has the
    state's coordinates, so T pairs the two bases' coordinates directly.
    For two maximal bases of the same model this matrix is doubly
    stochastic.
    """
    if diag_to.model.structure is None:
        raise UnsupportedModelError(
            f"{diag_to.model.model_id} has no identifying effects")
    _same_model(diag_to.model, diag_from.model)
    T = np.array([[float(t.coords @ s.coords) for s in diag_from.eigenstates]
                  for t in diag_to.eigenstates])
    return np.clip(T, 0.0, None)


# ---------------------------------------------------------------------------
# bipartite pure states


def schmidt_coefficients(state: StateVec, tol: float = 1e-8) -> np.ndarray:
    """Squared Schmidt weights of a pure bipartite state, descending.

    These are the shared nonvanishing marginal spectra.
    """
    model = state.model
    if model.composite is None:
        raise UnsupportedModelError("needs a composite-model state")
    M = _block_to_kron(model, state.coords)
    w, V = np.linalg.eigh(M)
    if w[-1] < 1.0 - tol:
        raise GPTError("Schmidt weights need a pure state "
                       f"(largest weight {w[-1]:.6f})")
    psi = V[:, -1]
    mA, mB = model.composite.factors
    C = psi.reshape(mA.structure.hilbert_dim, mB.structure.hilbert_dim)
    s = np.linalg.svd(C, compute_uv=False)
    return np.sort(s * s)[::-1]


def purify(state: StateVec):
    """Pure bipartite extension of a state over a second copy of its model.

    Returns (composite model, pure composite state) with first marginal
    equal to the input.  Classical and polytope models admit none.
    """
    model = state.model
    if not model.flags.is_sharp_with_purification:
        raise UnsupportedModelError(
            f"{model.model_id} does not admit purification")
    comp = zoo.compose_systems(model, model)
    st = model.structure
    N = st.block_count
    offs = st.hilbert_offsets()
    diag = diagonalize(state)
    sup = [zoo.pure_support(s) for s in diag.eigenstates]
    dH = st.hilbert_dim
    psi = np.zeros(dH * dH, dtype=complex if st.field == "C" else float)
    counters = [0] * N
    for p, (b, vec) in zip(diag.eigenvalues, sup):
        if p <= 1e-14:
            continue
        l = (-b) % max(N, 1)
        r = counters[b]
        counters[b] += 1
        b_index = offs[l] + r
        amp = math.sqrt(p)
        for i, c in enumerate(vec):
            psi[(offs[b] + i) * dH + b_index] += amp * c
    rho = np.outer(psi, psi.conj())
    coords = _kron_to_coords(comp, rho)
    return comp, StateVec(coords, comp)
