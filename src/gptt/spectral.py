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
    _kron_to_coords,
    _same_model,
    as_coords,
)
from .embedding import block_eigh, blocks_to_vec, pure_block_vec, vec_to_blocks
from . import zoo


def _canonical_phase(v: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    for c in v:
        if abs(c) > tol:
            return v * (abs(c) / c)
    return v


def _lex_key(x: np.ndarray):
    return tuple(np.round(x, 10))


@dataclass(frozen=True, eq=False)
class Diagonalization:
    """Spectrum and eigenbasis of a state, padded to a maximal basis."""

    model: ModelSpec
    eigenvalues: np.ndarray
    eigenstates: tuple

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


def max_eigenvalue_peel(state: StateVec) -> PeelStep:
    """Largest weight of a pure state inside the given state.

    Matrix models read it off a block eigendecomposition; ray-cone models
    take, over the vertices in lexicographic order, the largest weight that
    can be removed while staying inside the cone, read off the facets.
    """
    model = state.model
    x = state.coords
    if model.structure is not None:
        best = None
        for b, val, vec in block_eigh(x, model.structure):
            cand = (val, b, _canonical_phase(vec))
            if best is None or cand[0] > best[0] + 1e-14:
                best = cand
            elif abs(cand[0] - best[0]) <= 1e-14:
                cb = pure_block_vec(model.structure, cand[1], cand[2])
                bb = pure_block_vec(model.structure, best[1], best[2])
                if _lex_key(cb) < _lex_key(bb):
                    best = cand
        p_star, b, vec = best
        alpha = StateVec(pure_block_vec(model.structure, b, vec), model)
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
        for i in range(n):
            if w[i] > 0.5:
                out.append(StateVec(
                    pure_block_vec(st, b, _canonical_phase(V[:, i])), model))
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
        entries = []
        for b, val, vec in block_eigh(state.coords, model.structure):
            vec = _canonical_phase(vec)
            coords = pure_block_vec(model.structure, b, vec)
            entries.append((max(val, 0.0), coords))
        entries.sort(key=lambda e: (-round(e[0], 12), _lex_key(e[1])))
        eigenstates = tuple(StateVec(c, model) for _, c in entries)
        values = np.array([v for v, _ in entries])
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
        order = sorted(range(len(values_l)),
                       key=lambda i: (-round(values_l[i], 12),
                                      _lex_key(eigenstates_l[i].coords)))
        values = np.array([values_l[i] for i in order])
        eigenstates = tuple(eigenstates_l[i] for i in order)
    d = state._derived[method] = Diagonalization(model, values, eigenstates)
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
