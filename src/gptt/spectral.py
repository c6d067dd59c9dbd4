"""Pure-state decompositions and everything built on top of them.

A diagonalization writes a state as a convex combination of jointly
perfectly distinguishable pure states.  Matrix models get it from block
eigendecompositions; generic models get the peeling construction, which
repeatedly strips the largest pure-state weight and must reach a pure
remainder within the model's capacity; on polytope models the peeled
vertices must lie in one of the model's stored distinguishable sets, which
also completes them to a maximal basis.  Both routes report eigenvalues in
descending order.  On matrix models the identifying effect of an eigenstate
is `dagger(s)`, which the self-dual embedding gives the state's own
coordinates; `transition_matrix` reads them off the eigenstates directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    FACET_TOL,
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
)
from .embedding import block_eigh, blocks_to_vec, pure_block_coords, vec_to_blocks
from . import zoo


def _lex_key(x: np.ndarray):
    return tuple(np.round(x, 10))


def _descending_order(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Order of a decomposition: eigenvalues descending at 12 digits, ties
    broken by the eigenstates' coordinates at 10 digits, lexicographically."""
    first = [-round(v, 12) for v in values.tolist()]
    return np.lexsort(np.vstack([np.round(rows, 10).T[::-1], first]))


@dataclass(frozen=True, eq=False)
class Diagonalization:
    """Spectrum and eigenbasis of a state, padded to a maximal basis.

    `residual` is the route's certificate figure.  Fast route: the largest
    of the eigenstates' Gram deviation max|E E^T - I|, their unit-pairing
    deviation and the reconstruction residual max|w^T E - x| with the raw
    eigenvalues w, each certified at most `core.DEFAULT_TOL` (1e-9).
    Peel route: the reconstruction residual max|p^T E - x| of the reported
    eigenvalues p, recorded only.
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


@dataclass(frozen=True, eq=False)
class PeelStep:
    """One peel: the weight p_star of a pure eigenstate, the normalized
    remainder (None once the state is pure) and, on polytope models, the
    eigenstate's vertex index."""

    p_star: float
    eigenstate: StateVec
    remainder: Optional[StateVec]
    vertex: Optional[int] = None


def _peel_weights(F: np.ndarray, verts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """For each vertex v, the largest p with x - p v in the cone {y : F y >= 0}.

    A facet through v does not bound p; every other facet caps it at
    F_i.x / F_i.v, so the weight is the smallest of those ratios.
    """
    Fv = F @ verts.T
    off = Fv > FACET_TOL * np.linalg.norm(verts, axis=1)
    ratios = np.divide((F @ x)[:, None], Fv, out=np.full(Fv.shape, np.inf),
                       where=off)
    return ratios.min(axis=0)


def _block_spectrum(x: np.ndarray, st) -> tuple:
    """Raw eigenvalues of x, block by block and ascending within a block,
    and the coordinates of their eigenstates, one row each."""
    parts = block_eigh(x, st)
    return (np.concatenate([w for w, _ in parts]),
            np.concatenate([pure_block_coords(st, b, V)
                            for b, (_, V) in enumerate(parts)]))


def max_eigenvalue_peel(state: StateVec) -> PeelStep:
    """Largest weight of a pure state inside the given state.

    Matrix models read it off a block eigendecomposition; ray-cone models
    take, over the vertices in lexicographic order, the largest weight that
    can be removed while staying inside the cone, read off the facets.
    """
    model = state.model
    x = state.coords
    if model.structure is not None:
        vals, rows = _block_spectrum(x, model.structure)
        best = 0
        for i, val in enumerate(vals.tolist()):
            if (val > vals[best] + 1e-14
                    or (abs(val - vals[best]) <= 1e-14
                        and _lex_key(rows[i]) < _lex_key(rows[best]))):
                best = i
        p_star = float(vals[best])
        alpha = StateVec(rows[best], model)
        vertex = None
    else:
        weights = _peel_weights(model.state_cone.facets, model.pure_states, x)
        best = None
        for j in _lex_order(model):
            if best is None or weights[j] > best[0] + 1e-12:
                best = (float(weights[j]), j)
        p_star, vertex = best
        alpha = StateVec(model.pure_states[vertex], model)
    if p_star >= 1.0 - 1e-11:
        return PeelStep(1.0, alpha, None, vertex)
    sigma = StateVec((x - p_star * alpha.coords) / (1.0 - p_star), model)
    return PeelStep(float(p_star), alpha, sigma, vertex)


def _complete_matrix_basis(model: ModelSpec, used: list) -> list:
    """Pure states spanning the orthocomplement of the used eigenvectors."""
    st = model.structure
    out = []
    for b, n in enumerate(st.dims):
        P = np.eye(n, dtype=complex if st.field == "C" else float)
        for (bb, vec) in used:
            if bb == b:
                P = P - np.outer(vec, vec.conj())
        w, V = np.linalg.eigh(P)
        out.extend(StateVec(c, model)
                   for c in pure_block_coords(st, b, V[:, w > 0.5]))
    return out


def _lex_order(model: ModelSpec) -> list:
    """Vertex indices of a polytope model, its pure states in lexicographic
    order."""
    return sorted(range(len(model.pure_states)),
                  key=lambda j: _lex_key(model.pure_states[j]))


def _complete_polytope_basis(model: ModelSpec, peeled: list) -> list:
    """The remaining pure states of the first stored distinguishable set that
    holds the peeled vertices, sets ranked by their vertices in
    lexicographic order; DiagonalizationError when no set holds them."""
    rank = {j: r for r, j in enumerate(_lex_order(model))}
    held = [c for c in model.distinguishable_sets if set(peeled) <= set(c)]
    if not held:
        raise DiagonalizationError(
            f"the peeled pure states of {model.model_id} are not part of a "
            f"perfectly distinguishable set of {model.capacity}",
            residue=0.0)
    first = min(held, key=lambda c: sorted(rank[j] for j in c))
    return [StateVec(model.pure_states[j], model)
            for j in first if j not in peeled]


def diagonalize(state: StateVec, method: str = "auto") -> Diagonalization:
    """Decompose a state into perfectly distinguishable pure states.

    method 'fast' uses per-block eigendecomposition (matrix models only);
    'peel' strips maximal pure weights one at a time and works on any
    model whose state actually admits such a decomposition.  Failures
    raise DiagonalizationError carrying the undecomposed residue.

    The fast route makes one eigensolve per block and certifies the whole
    decomposition once: the eigenstates' Gram matrix, their unit pairings
    and their reconstruction of the state with the raw eigenvalues must
    each be exact within `core.DEFAULT_TOL` (1e-9), and the smallest raw
    eigenvalue at least -`core.DEFAULT_TOL`, the cone tolerance the state
    was accepted under.  A failure raises DiagonalizationError with
    the failed figure as its residue; otherwise the eigenstates are built
    without a cone check of their own, negative eigenvalues are reported
    as 0, and the largest of the three deviations is the result's
    `residual`.  The peel route records its reconstruction residual there
    and refuses nothing more.

    The result is cached on the state, one entry per resolved method
    ('auto' picks 'fast' on matrix models, 'peel' elsewhere): later calls
    return the same Diagonalization object.  Errors are not cached and are
    raised again on every call.
    """
    model = state.model
    if method == "auto":
        method = "fast" if model.structure is not None else "peel"
    elif method != "fast":
        method = "peel"
    cached = state._derived.get(method)
    if cached is not None:
        return cached
    if method == "fast":
        if model.structure is None:
            raise UnsupportedModelError(
                f"{model.model_id} has no block eigendecomposition")
        raw, rows = _block_spectrum(state.coords, model.structure)
        values = np.where(raw < 0.0, 0.0, raw)
        order = _descending_order(values, rows)
        values = values[order]
        eigenstates, residual = _certified_eigenstates(
            model, state.coords, raw[order], rows[order])
    else:
        values_l, eigenstates_l, vertices = [], [], []
        cur, weight = state, 1.0
        done = False
        for _ in range(model.capacity):
            step = max_eigenvalue_peel(cur)
            values_l.append(step.p_star * weight)
            eigenstates_l.append(step.eigenstate)
            vertices.append(step.vertex)
            if step.remainder is None:
                done = True
                break
            weight *= (1.0 - step.p_star)
            cur = step.remainder
        if not done:
            raise DiagonalizationError(
                f"state of {model.model_id} admits no decomposition into "
                f"{model.capacity} perfectly distinguishable pure states",
                residue=weight,
                partial=(np.asarray(values_l), tuple(eigenstates_l)),
            )
        if model.structure is None:
            extra = _complete_polytope_basis(model, vertices)
        elif len(eigenstates_l) < model.capacity:
            used = [zoo.pure_support(s) for s in eigenstates_l]
            extra = _complete_matrix_basis(model, used)
        else:
            extra = []
        eigenstates_l.extend(extra)
        values_l.extend([0.0] * len(extra))
        if len(eigenstates_l) != model.capacity:
            raise DiagonalizationError(
                "could not complete the eigenbasis to a maximal set",
                residue=0.0)
        rows = np.array([s.coords for s in eigenstates_l])
        order = _descending_order(np.array(values_l, dtype=float), rows)
        values = np.array([values_l[i] for i in order])
        eigenstates = tuple(eigenstates_l[i] for i in order)
        residual = float(np.abs(values @ rows[order] - state.coords).max())
    d = state._derived[method] = Diagonalization(
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

    Raises GPTError when fn produces a non-finite value (for instance a
    logarithm evaluated at zero).
    """
    if model.structure is None:
        raise UnsupportedModelError(
            f"{model.model_id} has no functional calculus")
    x = as_coords(x)
    st = model.structure
    out_blocks = []
    for B in vec_to_blocks(x, st):
        w, V = np.linalg.eigh(B)
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
