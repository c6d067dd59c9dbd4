"""Pure-state decompositions and everything built on top of them.

A diagonalization writes a state as a convex combination of jointly
perfectly distinguishable pure states, by one route per model family.
Matrix models get it from one block eigendecomposition of the state, all
blocks at once.  Polytope models look the state up among their stored
distinguishable sets: one batched least-squares solve finds every set whose
hull holds it, and the state is refused when no set does or when two give
it different spectra.  Both routes certify their reconstruction of the
state within `core.DEFAULT_TOL` and report eigenvalues in descending
order.  A decomposition's eigenbasis is kept as arrays, its `Frame`,
built when first read: the conversion witnesses of `resource` and `purify`
read it.  Eigenstate `StateVec`s are built on the frame's rows only when a
caller reads `eigenstates`, as `diag --json` and the helpers that take
states do.  Entropies, majorisation and relative entropy need neither.  On
matrix models the identifying effect of an eigenstate is `dagger(s)`, which
the self-dual embedding gives the state's own coordinates, those of a
rank-one projector; `transition_matrix` pairs the projectors from the block
eigenvectors that each diagonalization keeps, without building an
eigenstate or a frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    BLOCK_TOL,
    DEFAULT_TOL,
    DiagonalizationError,
    EffectVec,
    GPTError,
    ModelSpec,
    StateVec,
    UnsupportedModelError,
    _block_figures,
    _block_to_kron,
    _certified_rows,
    _certify,
    _checked_state,
    _kron_to_coords,
    _same_model,
    as_coords,
)
from .embedding import (block_eigh, blocks_to_vec, canonical_rows,
                        rank_one_coords, total_vectors)
from . import zoo


def _lex_key(x: np.ndarray):
    return tuple(np.round(x, 10))


def _descending_order(values: np.ndarray) -> np.ndarray:
    """Order of a decomposition: eigenvalues descending at 12 digits, ties
    in position order (a stable sort).  This is the whole rule on matrix
    models: inside a degenerate eigenspace the eigenvectors are an
    arbitrary basis, so ordering them by their coordinates would make
    nothing canonical, and position reads no eigenstate."""
    first = [-round(v, 12) for v in values.tolist()]
    return np.array(sorted(range(len(first)), key=first.__getitem__),
                    dtype=np.intp)


class Frame(NamedTuple):
    """A diagonalization's eigenbasis as arrays, one entry per eigenstate in
    the decomposition's order.

    `rows` are the eigenstates' coordinates, read-only: on a matrix model
    after one check of the whole decomposition (`core._certified_rows`), on
    a polytope the vertices of the stored set that holds the state.  On a
    matrix model `blocks` is each eigenstate's block, an int array, and
    `vectors` its unit vector in canonical phase
    (`embedding.canonical_rows`), zero-padded to the total Hilbert space,
    one read-only row each; a polytope has neither (None)."""

    rows: np.ndarray
    blocks: Optional[np.ndarray]
    vectors: Optional[np.ndarray]


@dataclass(frozen=True, eq=False, init=False)
class Diagonalization:
    """Spectrum and eigenbasis of a state, padded to a maximal basis.

    `frame` is built by `build()` when first read, then kept; a build that
    raises is tried again on the next read.  `eigenstates` are `StateVec`s
    on the frame's rows, built when first read (on a matrix model each with
    its `pure_support`, a view of its frame vector); `diag --json` and the
    callers of the public state-based helpers read them.  The conversion
    witnesses and `purify` read the frame and build no eigenstate.  A
    matrix model's diagonalization also keeps the certified block
    eigenvectors V, shape (N, n, n), and the descending `order` of their
    flattened indices as `_eigensystem`, outside the fields (None on a
    polytope); `transition_matrix` reads them, and neither them nor the
    spectrum needs a frame.
    `residual` is the route's certificate figure:
    on a matrix model the largest `core._block_figures` figure, at most
    `core.BLOCK_TOL` (5e-10); on a polytope the reconstruction residual
    max|p^T E - x| of the reported eigenvalues p, at most
    `core.DEFAULT_TOL`.
    """

    model: ModelSpec
    eigenvalues: np.ndarray
    eigenstates: tuple  # a field, built by the cached property below
    residual: float

    def __init__(self, model: ModelSpec, eigenvalues, residual: float,
                 build: Callable, eigensystem: Optional[tuple] = None):
        ev = np.asarray(eigenvalues, dtype=float)
        ev.setflags(write=False)
        self.__dict__.update(model=model, eigenvalues=ev, residual=residual,
                             _build=build, _eigensystem=eigensystem)

    @cached_property
    def frame(self) -> Frame:
        return self._build()

    @cached_property
    def eigenstates(self) -> tuple:
        rows, blocks, vectors = self.frame
        states = tuple(_checked_state(r, self.model) for r in rows)
        if blocks is not None:
            n = self.model.structure.n
            for s, b, v in zip(states, blocks.tolist(), vectors):
                s._derived["pure_support"] = (b, v[b * n:(b + 1) * n])
        return states

    def reconstruct(self) -> np.ndarray:
        return sum(p * s.coords for p, s in zip(self.eigenvalues, self.eigenstates))


def _eigenstate_rows(st, eig) -> tuple:
    """The coordinates of the eigenstates of a `block_eigh` (w, V), one row
    each in the order of the flattened w, and their unit vectors in
    canonical phase, one read-only row each: one `canonical_rows` and one
    `rank_one_coords` for all N n eigenvectors."""
    V = eig[1]
    N, n = V.shape[:2]
    U = canonical_rows(V.transpose(1, 0, 2).reshape(n, N * n))
    return rank_one_coords(st, np.repeat(np.arange(N), n), U), U


def _stored_set_decomposition(model: ModelSpec, x: np.ndarray) -> tuple:
    """Weights and vertices, in decomposition order, of x over the stored
    distinguishable set of a polytope model whose hull holds it.

    One batched least-squares solve fits x by every stored set at once,
    with pseudo-inverses kept from the model's first one
    (`ModelSpec._stored_sets`); a vertex of the model takes its exact
    weights from there instead.  A set holds x when its weights w are at
    least -DEFAULT_TOL and, clipped at 0, rebuild x within DEFAULT_TOL.
    A held set's decomposition is ordered by eigenvalue, descending at 12
    digits, and ties are broken by vertex coordinates at 10 digits,
    lexicographically, then by position; the lexsort runs only when a tie
    exists.  Each held set's 12-digit keys are rounded once and serve both
    its order and the comparison of sets.  One held set's decomposition is
    returned as it is.  Two or more must agree on the spectrum within
    DEFAULT_TOL, and the first by eigenvalue at 12 digits and then vertex
    coordinates at 10 (`_lex_key`), compared in that order, is returned.
    One held set needs no such check: it would compare the decomposition
    with its own sort, and values tied at 12 digits differ by less than
    1e-12.  Raises DiagonalizationError when no set holds x (residue: the
    smallest miss over the sets) or when two held sets give different
    spectra (residue: their largest difference).
    """
    V, pinv, vertex_weights = model._stored_sets
    w = vertex_weights.get((x + 0.0).tobytes())
    if w is None:
        w = pinv @ x
    p = np.maximum(w, 0.0)
    fit = np.abs(np.einsum("sc,scd->sd", p, V) - x).max(axis=1)
    miss = np.maximum(fit, -w.min(axis=1))
    held = np.flatnonzero(miss <= DEFAULT_TOL)
    if not held.size:
        raise DiagonalizationError(
            f"state of {model.model_id} lies in the hull of no perfectly "
            f"distinguishable set of {model.capacity} pure states",
            residue=float(miss.min()))

    def ordered(i):
        first = [-round(v, 12) for v in p[i].tolist()]
        order = (np.lexsort(np.vstack([np.round(V[i], 10).T[::-1], first]))
                 if len(set(first)) < len(first)
                 else sorted(range(len(first)), key=first.__getitem__))
        return p[i][order], V[i][order], [first[j] for j in order]

    if held.size == 1:
        return ordered(held[0])[:2]
    values, rows, _ = min(
        map(ordered, held),
        key=lambda d: [(k, _lex_key(r)) for k, r in zip(d[2], d[1])])
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

    A matrix model's decomposition is the state's block eigendecomposition,
    from the `block_eigh` (w, V) its cone check kept (popped, so the stack
    is solved once in the state's life; a state without it, or a retry
    after a refusal, solves afresh).  It is certified here, in block form:
    the `core._block_figures` within `core.BLOCK_TOL` and the smallest raw
    eigenvalue at least -`core.DEFAULT_TOL`, the state's cone tolerance.
    Negative eigenvalues are reported as 0.  The order reads eigenvalues
    alone (`_descending_order`: ties keep their flattened index b n + r),
    so no eigenstate row is made until the frame is first read; it is built
    then, after the rows pass the same figures within `core.DEFAULT_TOL`
    (`core._certified_rows`).  A polytope state is looked up among the
    stored distinguishable sets (`_stored_set_decomposition`) and refused
    when the reported eigenvalues rebuild it only beyond
    `core.DEFAULT_TOL`; its frame is the set's vertices.  Failures raise
    DiagonalizationError carrying the failed figure as its residue.  The
    result is cached on the state; errors are not.
    """
    cached = state._derived.get("diagonalization")
    if cached is not None:
        return cached
    model = state.model
    if model.structure is not None:
        st, x = model.structure, state.coords
        eig = state._derived.pop("block_eigh", None) or block_eigh(x, st)
        raw = eig[0].reshape(-1)
        residual = _certify(model, _block_figures(x, raw, eig, st), raw,
                            BLOCK_TOL)
        values = np.where(raw < 0.0, 0.0, raw)
        order = _descending_order(values)
        values = values[order]

        def build():
            E, U = _eigenstate_rows(st, eig)
            E = _certified_rows(model, x, raw[order], E[order])
            blocks = order // st.n   # flattened index b n + r is in block b
            vectors = total_vectors(st, blocks, U[order])
            blocks.setflags(write=False)
            vectors.setflags(write=False)
            return Frame(E, blocks, vectors)
        eigensystem = (eig[1], order)
    else:
        values, rows = _stored_set_decomposition(model, state.coords)
        residual = float(np.abs(sum(p * r for p, r in zip(values, rows))
                                - state.coords).max())
        if not residual <= DEFAULT_TOL:
            raise DiagonalizationError(
                f"decomposition of a {model.model_id} state fails its "
                f"reconstruction check (deviation {residual:.3e})",
                residue=residual)
        rows.setflags(write=False)

        def build():
            return Frame(rows, None, None)
        eigensystem = None
    d = state._derived["diagonalization"] = Diagonalization(
        model, values, residual, build, eigensystem)
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
    return _calculus_on_eig(block_eigh(as_coords(x), model.structure), fn,
                            model.structure)


def _calculus_on_eig(eig, fn, st) -> np.ndarray:
    """Coordinates of sum fn(w) v v^dagger over a `block_eigh` (w, V), one
    product on the block stack."""
    w, V = eig
    try:
        fw = np.array([fn(v) for v in w.reshape(-1)], dtype=float)
    except ValueError as exc:
        raise GPTError(f"functional calculus failed on the spectrum: {exc}")
    if not np.all(np.isfinite(fw)):
        raise GPTError("functional calculus produced a non-finite value")
    return blocks_to_vec((V * fw.reshape(w.shape)[:, None, :])
                         @ V.conj().transpose(0, 2, 1), st)


def transition_matrix(diag_from: Diagonalization,
                      diag_to: Diagonalization) -> np.ndarray:
    """T[i, j] = identifying effect of target state i on source state j.

    The identifying effect `dagger(s)` of a matrix-model eigenstate has the
    coordinates of the rank-one projector onto its eigenvector, so T[i, j]
    is the trace of two projectors: |v_i^dagger u_j|^2 / (|v_i|^2 |u_j|^2)
    for target and source eigenvectors v_i and u_j of one block, and 0
    across blocks.  It is read from the block eigenvectors each
    diagonalization certified (`_eigensystem`): one stacked product
    V_to^dagger V_from of the (N, n, n) stacks, divided by the columns'
    squared norms, with rows and columns in each diagonalization's
    descending order.  No eigenstate is built, and reading `eigenstates`
    first changes no bit.  For two maximal bases of the same model this
    matrix is doubly stochastic.
    """
    if diag_to.model.structure is None:
        raise UnsupportedModelError(
            f"{diag_to.model.model_id} has no identifying effects")
    _same_model(diag_to.model, diag_from.model)
    (Vf, order_f), (Vt, order_t) = diag_from._eigensystem, diag_to._eigensystem
    N, n = Vf.shape[:2]
    nt, nf = (np.abs(Vt) ** 2).sum(axis=1), (np.abs(Vf) ** 2).sum(axis=1)
    T = np.zeros((N, n, N, n))
    blocks = np.arange(N)
    T[blocks, :, blocks, :] = (np.abs(Vt.conj().transpose(0, 2, 1) @ Vf) ** 2
                               / (nt[:, :, None] * nf[:, None, :]))
    return T.reshape(N * n, N * n)[order_t[:, None], order_f]


# ---------------------------------------------------------------------------
# bipartite pure states


def schmidt_coefficients(state: StateVec) -> np.ndarray:
    """Squared Schmidt weights of a pure bipartite state, descending.

    These are the shared nonvanishing marginal spectra.  A state whose
    largest eigenvalue is below 1 - 1e-8 is refused as not pure (GPTError).
    """
    model = state.model
    if model.composite is None:
        raise UnsupportedModelError("needs a composite-model state")
    M = _block_to_kron(model, state.coords)
    w, V = np.linalg.eigh(M)
    if w[-1] < 1.0 - 1e-8:
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
    N, n = st.block_count, st.n
    diag = diagonalize(state)
    keep = diag.eigenvalues > 1e-14
    # eigenstate k, in sector b and the r-th kept one there, pairs with
    # partner basis state r of sector -b (mod N): column (-b % N) * n + r
    _, blocks, vectors = diag.frame
    b, T = blocks[keep], vectors[keep]
    r = (np.cumsum(b[:, None] == np.arange(N), axis=0) - 1)[np.arange(len(b)), b]
    Psi = np.zeros((N * n, N * n), dtype=T.dtype)
    Psi[:, ((-b) % N) * n + r] += (np.sqrt(diag.eigenvalues[keep])[:, None] * T).T
    psi = Psi.reshape(-1)
    rho = np.outer(psi, psi.conj())
    coords = _kron_to_coords(comp, rho)
    return comp, StateVec(coords, comp)
