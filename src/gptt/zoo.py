"""Builtin model families and composite-system construction.

Every family is one row of `FAMILIES`.  Matrix families (states =
block-Hermitian matrices): classical, quantum, rebit, real quantum, doubled
quantum, extended classical.  Polytope families (states = convex polytopes
given by vertices): square bit, restricted trit, diamond bit.  Composites
exist for matrix families only; sectorized families compose by grouping
sector pairs by residue, which makes the composite dimension exceed the
product of the factors' dimensions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from itertools import combinations

import numpy as np

from .core import (
    DEFAULT_TOL,
    FACET_TOL,
    ChannelMap,
    CompositeInfo,
    ConeSpec,
    EffectVec,
    GPTError,
    GroupSpec,
    ModelCompatibilityError,
    ModelFlags,
    ModelSpec,
    StateVec,
    UnsupportedModelError,
    _channel_check,
    _checked_channel,
    _same_model,
    cone_facets,
)
from .embedding import (
    BlockStructure,
    block_eigh,
    blocks_to_vec,
    canonical_rows,
    conjugation_matrices,
    conjugation_matrix,
    pure_block_vec,
    rank_one_coords,
    total_vectors,
    vec_to_blocks,
)


# ---------------------------------------------------------------------------
# samplers


def _ginibre_block(rng: np.random.Generator, n: int, field: str) -> np.ndarray:
    G = rng.normal(size=(n, n))
    if field == "C":
        G = G + 1j * rng.normal(size=(n, n))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def _haar_unitary(rng: np.random.Generator, n: int, field: str) -> np.ndarray:
    Z = rng.normal(size=(n, n))
    if field == "C":
        Z = Z + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    ph = d / np.abs(d)
    return Q * ph


def _matrix_state_sampler(model: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    st = model.structure
    w = rng.dirichlet(np.ones(st.block_count))
    # one draw per block, in block order, so a seed draws the same numbers
    blocks = [_ginibre_block(rng, st.n, st.field) for _ in range(st.block_count)]
    return blocks_to_vec(w[:, None, None] * np.array(blocks), st)


def _matrix_pure_sampler(model: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    st = model.structure
    b = int(rng.choice(st.block_count,
                       p=np.full(st.block_count, 1 / st.block_count)))
    psi = rng.normal(size=st.n)
    if st.field == "C":
        psi = psi + 1j * rng.normal(size=st.n)
    return pure_block_vec(st, b, psi)


def _polytope_state_sampler(model: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    V = model.state_cone.generators
    w = rng.dirichlet(np.ones(V.shape[0]))
    x = V.T @ w
    return x / float(model.unit_effect @ x)


def _polytope_pure_sampler(model: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    return model.pure_states[int(rng.integers(len(model.pure_states)))]


# ---------------------------------------------------------------------------
# group machinery

# `close_group` refuses a group with more elements than this.
MAX_GROUP_ELEMENTS = 10_000


def close_group(vertices, generators):
    """The group the matrices `generators` generate, as (perms, matrices):
    element k sends vertex i to vertex perms[k, i] and has the matrix
    matrices[k].  Both arrays are read-only.

    Each generator must map the vertices one to one onto themselves, each
    image within 1e-9 of its vertex, or it raises GPTError.  The closure
    runs breadth first from the identity, each element multiplied on the
    left by every generator in turn, and keys elements by their
    permutation, which is exact; an element keeps the product it was first
    found as.  More than MAX_GROUP_ELEMENTS elements raise GPTError.
    """
    V = np.asarray(vertices, dtype=float)
    n = len(V)
    gens = []
    for G in generators:
        miss = np.abs((V @ G.T)[:, None, :] - V).max(axis=2)
        p = miss.argmin(axis=1)
        if miss[np.arange(n), p].max() > 1e-9 or len(set(p.tolist())) != n:
            raise GPTError("group generator does not permute the state vertices")
        gens.append((p, G))
    ident = (np.arange(n), np.eye(V.shape[1]))
    elements = {ident[0].tobytes(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p, M in frontier:
            for g, G in gens:
                key = g[p].tobytes()
                if key not in elements:
                    elements[key] = (g[p], G @ M)
                    nxt.append(elements[key])
                    if len(elements) > MAX_GROUP_ELEMENTS:
                        raise GPTError(f"group closure exceeded "
                                       f"{MAX_GROUP_ELEMENTS} elements")
        frontier = nxt
    perms, mats = (np.array(a) for a in zip(*elements.values()))
    perms.setflags(write=False)
    mats.setflags(write=False)
    return perms, mats


def _finite_group_sampler(model: ModelSpec, rng: np.random.Generator) -> ChannelMap:
    _, mats = model.group.table
    return model.make_reversible(mats[int(rng.integers(len(mats)))])


def block_reversible(model: ModelSpec, blocks, perm=None) -> ChannelMap:
    """The reversible whose Kraus operator carries sector j onto sector
    perm[j] through the unitary blocks[j]; without perm every sector stays.

    The blocks, an (N, n, n) stack, are written straight into the
    Hilbert-space matrix, whose dtype is theirs.
    """
    st = model.structure
    N, n = st.block_count, st.n
    blocks = np.asarray(blocks)
    K = np.zeros((N, n, N, n), dtype=blocks.dtype)
    K[np.arange(N) if perm is None else np.asarray(perm), :, np.arange(N)] = blocks
    K = K.reshape(N * n, N * n)
    return model.make_reversible(conjugation_matrix([K], st), kraus=[K])


def _matrix_group_sampler(model: ModelSpec, rng: np.random.Generator) -> ChannelMap:
    st = model.structure
    Us = [_haar_unitary(rng, st.n, st.field) for _ in range(st.block_count)]
    perm = rng.permutation(st.block_count) if st.block_count > 1 else None
    return block_reversible(model, Us, perm)


# every matrix family: block unitaries (orthogonals over R), then a random
# permutation of the sectors
_MATRIX_GROUP = GroupSpec(sampler=_matrix_group_sampler)


# ---------------------------------------------------------------------------
# distinguishability search


def _support_projector(x: np.ndarray, structure: BlockStructure) -> np.ndarray:
    """Projector onto the support of x (eigenvalues above 1e-9), as a
    stack of one block per sector."""
    w, V = block_eigh(x, structure)
    keep = V * (w > 1e-9)[:, None, :]
    return keep @ keep.conj().transpose(0, 2, 1)


def _effects_check(E: np.ndarray, X: np.ndarray, u: np.ndarray) -> bool:
    """Whether the rows of E tell the states X apart: E X^T = I and the rows
    sum to u, each within 1e-8."""
    return bool(np.abs(E @ X.T - np.eye(len(X))).max() <= 1e-8
                and np.abs(E.sum(axis=0) - u).max() <= 1e-8)


def _farkas_check(H: np.ndarray, u: np.ndarray, y: np.ndarray) -> bool:
    """Whether y certifies that u is not in the cone of the unit rows of H:
    H y >= -FACET_TOL and u.y < -FACET_TOL, with u and y at unit length."""
    y = y / np.linalg.norm(y)
    return bool((H @ y).min(initial=0.0) >= -FACET_TOL
                and u @ y / np.linalg.norm(u) < -FACET_TOL)


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least |A c - b| over c >= 0, by the active-set method of Lawson and
    Hanson (1974, ch. 23): least-squares weights on the passive set."""
    n, tol = A.shape[1], 10 * np.finfo(float).eps * max(A.shape)
    passive, c = np.zeros(n, dtype=bool), np.zeros(n)
    for _ in range(3 * n):
        w = np.where(passive, -np.inf, A.T @ (b - A @ c))
        if w.max() <= tol:
            break
        passive[w.argmax()] = True
        while passive.any():
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            if z[passive].min() > 0:
                break
            out = passive & (z <= 0)    # step back to the first weight at 0
            c += (c[out] / (c[out] - z[out])).min() * (z - c)
            passive &= c > tol
        c = z
    return c


def _ray_distinguishability(G: np.ndarray, u: np.ndarray, X) -> tuple:
    """Whether the states X are perfectly distinguishable, decided with no
    LP: (effects, None) when they are, the effects as rows, and (None, y)
    with a Farkas vector y when they are not.

    Effect generators are nonnegative on states, so a distinguishing effect
    e_i uses only generators that vanish on every x_j with j != i.  With H
    the unit generators positive (above FACET_TOL) on at most one state, the
    states are distinguishable iff u lies in cone(H).  "Yes": weights of H
    from `_nnls`, at least -FACET_TOL and rebuilding u within FACET_TOL,
    each given to the effect of the state its generator is positive on (or
    the first), with the effects passing `_effects_check`.  "No": u's
    component off span(H), negated, or a facet of cone(H) (`cone_facets`),
    passing `_farkas_check`.  Both are tried; neither or both checking, or
    ambiguous facets of cone(H), raise GPTError.
    """
    X = np.asarray(X, dtype=float)
    U = G / np.linalg.norm(G, axis=1)[:, None]
    positive = U @ X.T > FACET_TOL
    keep = positive.sum(axis=1) <= 1
    H, owner = U[keep], positive[keep].argmax(axis=1)
    try:
        B, F = cone_facets(H, H.sum(axis=0))
    except ValueError as exc:   # cone(H) has ambiguous facets
        raise GPTError(f"distinguishability is undecided: {exc}") from exc
    n_u = u / np.linalg.norm(u)
    c = _nnls(H.T, n_u)
    E = np.eye(len(X))[owner].T @ (np.linalg.norm(u) * c[:, None] * H)
    effects = E if (np.abs(c @ H - n_u).max() <= FACET_TOL
                    and c.min(initial=0.0) >= -FACET_TOL
                    and _effects_check(E, X, u)) else None
    farkas = next((y for y in [B.T @ (B @ n_u) - n_u, *F]
                   if np.linalg.norm(y) > FACET_TOL
                   and _farkas_check(H, u, y)), None)
    if (effects is None) == (farkas is None):
        raise GPTError("distinguishability is numerically undecided: "
                       + ("both certificates check" if effects is not None
                          else "neither certificate checks"))
    return effects, farkas


def distinguishing_effects(model: ModelSpec, states):
    """Effects perfectly distinguishing the given states, in input order,
    or None.

    Matrix models: exists iff the supports are pairwise orthogonal, and the
    effects are support projectors (remainder folded into the first).
    Ray-cone models take states: a StateVec, a vertex within 1e-9 in every
    coordinate, or a vector that passes as a StateVec (one that does not
    raises its ConeError or NormalizationError).  More states than
    `capacity` get None, since a vertex from each support would be as many
    distinguishable vertices; when all of them are StateVecs that answer
    comes before any distance to a vertex is measured, and raw vectors are
    checked first.  Vertices are answered from the build's
    `maximal_sets`: distinct vertices get the measurement of the first
    maximal set that holds them, found from the model's read-only
    membership matrix (`ModelSpec._set_members`, sets by vertices), its
    other members' effects folded into the first input's, or None when no
    set does; a repeated vertex gets None.  That answer is kept on the
    model (`ModelSpec._vertex_effects`, keyed by the ordered vertex
    indices, at most one entry per distinct ordered tuple of up to
    `capacity` vertices asked about): its EffectVecs pass their
    constructor's checks once, when first built, and a later lookup of the
    same vertices returns a new list of the same read-only objects.  Other
    inputs are decided by `_ray_distinguishability`, whose effects or
    Farkas vector is checked before it answers, and are never kept.  A
    StateVec of another model raises ModelCompatibilityError.
    """
    states = list(states)
    for s in states:
        if isinstance(s, StateVec):
            _same_model(model, s.model)
    xs = [np.asarray(s.coords if isinstance(s, StateVec) else s, dtype=float)
          for s in states]
    m = len(xs)
    if m == 0:
        raise ValueError("need at least one state")
    if model.structure is not None:
        st = model.structure
        P = np.array([_support_projector(x, st) for x in xs])
        overlap = np.abs(P[:, None] @ P[None]).max(axis=(2, 3, 4))
        if (overlap[np.triu_indices(m, 1)] > 1e-7).any():
            return None
        P[0] += np.eye(st.n) - P.sum(axis=0)
        return [EffectVec(blocks_to_vec(Ps, st), model) for Ps in P]
    if m > model.capacity and all(isinstance(s, StateVec) for s in states):
        return None
    miss = np.abs(np.asarray(xs)[:, None, :] - model.pure_states).max(axis=2)
    idx = miss.argmin(axis=1).tolist()
    vertex = miss.min(axis=1) <= 1e-9
    for x, v, s in zip(xs, vertex, states):
        if not (v or isinstance(s, StateVec)):
            StateVec(x, model)
    if m > model.capacity:
        return None
    if vertex.all():
        if len(set(idx)) < m:
            return None
        kept, key = model._vertex_effects, tuple(idx)
        if key not in kept:
            held = model._set_members[:, idx].all(axis=1)
            k = int(held.argmax())     # the first set that holds them, if any
            if held[k]:
                c, E = model.maximal_sets[k]
                pos = [c.index(i) for i in idx]
                F = E[pos]
                F[0] += E[[p for p in range(len(c)) if p not in pos]].sum(axis=0)
                kept[key] = tuple(EffectVec(f, model) for f in F)
            else:
                kept[key] = None
        return None if kept[key] is None else list(kept[key])
    raw, _ = _ray_distinguishability(model.effect_cone.generators,
                                     model.unit_effect, xs)
    if raw is None:
        return None
    return [EffectVec(f, model) for f in raw]


def _maximal_sets(verts: np.ndarray, G: np.ndarray, u: np.ndarray):
    """Every maximal jointly distinguishable set of vertices, as
    (index tuple, effects) pairs in lexicographic order; row i of the
    read-only effects array is 1 on the set's i-th vertex.

    The search climbs from single vertices, which the unit effect alone
    tells apart: a set of s + 1 vertices is decided only when each of its
    s-subsets passed, since dropping a state from a distinguishable set
    leaves one (its effect merges into a kept one).  So it finds every
    distinguishable set, and a set that passed is maximal when no passing
    set one larger contains it.  All vertices are tried first, which
    settles a simplex in one decision instead of one per subset.  Each
    decision is `_ray_distinguishability`'s, so every set kept stands on
    checked effects and every set left out on a checked Farkas vector; an
    undecided set raises GPTError and is never read as "no".
    """
    n = len(verts)
    E, _ = _ray_distinguishability(G, u, verts)
    if E is not None:
        found = [(tuple(range(n)), E)]
    else:
        found = []
        level = {(i,): u[None, :].copy() for i in range(n)}
        while level:
            grown = {}
            for c in level:
                for j in range(c[-1] + 1, n):
                    g = c + (j,)
                    if all(sub in level for sub in combinations(g, len(g) - 1)):
                        E, _ = _ray_distinguishability(G, u, verts[list(g)])
                        if E is not None:
                            grown[g] = E
            covered = {sub for g in grown
                       for sub in combinations(g, len(g) - 1)}
            found += [(c, E) for c, E in level.items() if c not in covered]
            level = grown
    for _, E in found:
        E.setflags(write=False)
    return tuple(sorted(found, key=lambda item: item[0]))


# ---------------------------------------------------------------------------
# family table


@dataclasses.dataclass(frozen=True)
class MatrixFamily:
    """States are `sectors` Hermitian blocks of size `block_dim` over `field`.

    `sectors` and `block_dim` are each a fixed int or a (parameter name,
    minimum) pair; those pairs, sectors first, are the family's parameters.
    Composites belong to family `composite`: sectorized families group
    sector pairs by residue, the others take the full tensor product.
    """

    sectors: object
    block_dim: object
    field: str
    flags: ModelFlags
    composite: str

    @property
    def params(self) -> tuple:
        return tuple(s for s in (self.sectors, self.block_dim)
                     if isinstance(s, tuple))


@dataclasses.dataclass(frozen=True)
class PolytopeFamily:
    """A parameter-free polytope: state vertices, effect-cone generators,
    unit effect and generators of the finite reversible group."""

    vertices: tuple
    effects: tuple
    unit: tuple
    group: tuple
    params = ()


_FULL = ModelFlags(is_sharp_with_purification=True,
                   unrestricted_reversibility=True)
_SECTORS = ModelFlags(is_sharp_with_purification=True, sectorized=True)

FAMILIES = {
    "classical": MatrixFamily(("d", 1), 1, "R",
                              ModelFlags(unrestricted_reversibility=True),
                              "classical"),
    "quantum": MatrixFamily(1, ("n", 2), "C", _FULL, "quantum"),
    "rebit": MatrixFamily(1, 2, "R", _FULL, "real_quantum"),
    "real_quantum": MatrixFamily(1, ("n", 1), "R", _FULL, "real_quantum"),
    "doubled_quantum": MatrixFamily(2, ("n", 2), "C", _SECTORS,
                                    "doubled_quantum"),
    "extended_classical": MatrixFamily(("N", 1), ("n", 1), "C", _SECTORS,
                                       "extended_classical"),
    "square_bit": PolytopeFamily(
        vertices=((1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)),
        effects=((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)),
        unit=(0, 0, 1),
        group=(((0, -1, 0), (1, 0, 0), (0, 0, 1)),     # quarter turn
               ((1, 0, 0), (0, -1, 0), (0, 0, 1)))),   # reflection
    "diamond_bit": PolytopeFamily(
        vertices=((1, 0, 1), (-1, 0, 1), (0, 0.5, 1), (0, -0.5, 1)),
        effects=((1, 2, 1), (1, -2, 1), (-1, 2, 1), (-1, -2, 1)),
        unit=(0, 0, 1),
        group=(((-1, 0, 0), (0, 1, 0), (0, 0, 1)),
               ((1, 0, 0), (0, -1, 0), (0, 0, 1)))),
    "restricted_trit": PolytopeFamily(
        vertices=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        effects=((1, 0.5, 0.5), (0.5, 1, 0.5), (0.5, 0.5, 1)),
        unit=(1, 1, 1),
        group=(((0, 1, 0), (1, 0, 0), (0, 0, 1)),      # swap
               ((0, 0, 1), (1, 0, 0), (0, 1, 0)))),    # cycle
}


# ---------------------------------------------------------------------------
# builders


def _matrix_model(kind: str, sectors: int, block_dim: int) -> ModelSpec:
    fam = FAMILIES[kind]
    params = {s[0]: v for s, v in ((fam.sectors, sectors), (fam.block_dim, block_dim))
              if isinstance(s, tuple)}
    st = BlockStructure((block_dim,) * sectors, fam.field)
    u = blocks_to_vec(np.broadcast_to(np.eye(block_dim),
                                      (sectors, block_dim, block_dim)), st)
    cone = ConeSpec("psd", st.coord_dim, structure=st)
    return ModelSpec(
        model_id=f"{kind}:{'x'.join(map(str, params.values()))}" if params else kind,
        kind=kind,
        params=params,
        vector_dim=st.coord_dim,
        capacity=st.hilbert_dim,
        unit_effect=u,
        chi=u / st.hilbert_dim,
        state_cone=cone,
        effect_cone=cone,
        flags=fam.flags,
        structure=st,
        group=_MATRIX_GROUP,
        pure_sampler=_matrix_pure_sampler,
        state_sampler=_matrix_state_sampler,
    )


def _polytope_model(kind: str, model_id: str, state_vertices,
                    effect_generators, unit_effect, group_matrices) -> ModelSpec:
    V = np.asarray(state_vertices, dtype=float)
    G = np.asarray(effect_generators, dtype=float)
    u = np.asarray(unit_effect, dtype=float)
    D = V.shape[1]
    state_cone = ConeSpec("rays", D, generators=V)
    effect_cone = ConeSpec("rays", D, generators=G)
    group_matrices = [np.asarray(M, dtype=float) for M in group_matrices]
    for M in group_matrices:
        if np.abs(M.T @ u - u).max() > 1e-9:
            raise GPTError("group generator does not preserve the unit effect")
    pairing = V @ u
    if not np.all(pairing > 0):
        raise ValueError("unit effect must be positive on every vertex")
    verts = V / pairing[:, None]
    if (np.abs(verts[:, None] - verts).max(axis=2) <= 1e-9).sum() > len(V):
        raise ValueError("state vertices must be distinct rays")
    # closed and checked now, so a bad group fails the load before the search
    table = close_group(verts, group_matrices)
    # effects must stay effects: e M^-1 in the effect cone for every generator
    for M in group_matrices:
        margin = min(effect_cone.margin(e) for e in G @ np.linalg.inv(M))
        if margin < -1e-9:
            raise GPTError(f"group generator does not preserve the effect "
                           f"cone (margin {margin:.3e})")
    # the distinguishability decision is sound only on these two facts
    probs = G @ verts.T
    if (probs / np.linalg.norm(G, axis=1)[:, None]).min() < -DEFAULT_TOL:
        raise ValueError(f"an effect generator is negative on a state "
                         f"vertex (probability {probs.min():.3e})")
    margin = effect_cone.margin(u)
    if margin < -DEFAULT_TOL:
        raise ValueError(f"unit effect is outside the effect cone "
                         f"(margin {margin:.3e})")
    maximal = _maximal_sets(verts, G, u)
    capacity = max(len(c) for c, _ in maximal)
    group = GroupSpec(generators=tuple(group_matrices),
                      sampler=_finite_group_sampler, table=table)
    model = ModelSpec(
        model_id=model_id,
        kind=kind,
        params={},
        vector_dim=D,
        capacity=capacity,
        unit_effect=u,
        chi=verts.mean(axis=0),
        state_cone=state_cone,
        effect_cone=effect_cone,
        flags=ModelFlags(),
        structure=None,
        group=group,
        pure_sampler=_polytope_pure_sampler,
        state_sampler=_polytope_state_sampler,
        pure_states=verts,
        maximal_sets=maximal,
        distinguishable_sets=tuple(c for c, _ in maximal if len(c) == capacity),
    )
    return model


def build_model(kind: str, **params) -> ModelSpec:
    """Construct a builtin model from its row of `FAMILIES`.

    Kinds and parameters: classical(d), quantum(n), rebit, real_quantum(n),
    doubled_quantum(n), extended_classical(N, n), square_bit,
    restricted_trit, diamond_bit.
    """
    fam = FAMILIES.get(kind)
    if fam is None:
        raise ValueError(f"unknown model kind {kind!r}")
    names = [name for name, _ in fam.params]
    if set(params) != set(names):
        raise ValueError(f"{kind} takes parameters {names}, got {list(params)}")
    for name, minimum in fam.params:
        if int(params[name]) < minimum:
            raise ValueError(f"{name} must be at least {minimum}")
    if isinstance(fam, PolytopeFamily):
        return _polytope_model(kind, kind, fam.vertices, fam.effects,
                               fam.unit, fam.group)
    sectors, block_dim = (int(params[s[0]]) if isinstance(s, tuple) else s
                          for s in (fam.sectors, fam.block_dim))
    return _matrix_model(kind, sectors, block_dim)


def parse_model_string(text: str) -> ModelSpec:
    """Parse 'kind', 'kind:p1' or 'kind:p1xp2' (also 'kind:p1,p2').

    The number of parameters must be the family's.
    """
    kind, sep, rest = text.partition(":")
    kind = kind.strip()
    if kind not in FAMILIES:
        raise ValueError(f"unknown model kind {kind!r}")
    names = [name for name, _ in FAMILIES[kind].params]
    tokens = rest.replace("x", ",").split(",") if sep else []
    if len(tokens) != len(names):
        raise ValueError(f"{kind} takes {len(names)} parameter(s) "
                         f"{names}: cannot parse {text!r}")
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise ValueError(f"model parameters must be integers: {text!r}") from None
    return build_model(kind, **dict(zip(names, values)))


# ---------------------------------------------------------------------------
# composites


def _residue_perm(stA: BlockStructure, stB: BlockStructure):
    """Basis permutation for sector-grouped composition.

    Composite sector k collects the factor sector pairs (j, l) with
    j + l = k modulo the larger sector count, the sum running over the
    system with fewer sectors.  Returns (composite sector count, block
    size, perm) with perm[block_position] = kron index.
    """
    NA, NB = stA.block_count, stB.block_count
    nA, nB = stA.n, stB.n
    M, Nmin = max(NA, NB), min(NA, NB)
    k, js, i, m = np.ix_(range(M), range(Nmin), range(nA), range(nB))
    lo = (k - js) % M
    j, l = (js, lo) if NA <= NB else (lo, js)
    perm = (j * nA + i) * stB.hilbert_dim + l * nB + m
    return M, nA * nB * Nmin, perm.reshape(-1)


def compose_systems(mA: ModelSpec, mB: ModelSpec) -> ModelSpec:
    """Bipartite composite of two matrix models whose families compose into
    the same family."""
    if mA.structure is None or mB.structure is None:
        raise UnsupportedModelError(
            "polytope models are single-system; no composite is defined")
    kind = FAMILIES[mA.kind].composite
    if FAMILIES[mB.kind].composite != kind:
        raise ModelCompatibilityError(
            f"no composite rule for {mA.kind} with {mB.kind}")
    stA, stB = mA.structure, mB.structure
    if FAMILIES[kind].flags.sectorized:
        sectors, block_dim, perm = _residue_perm(stA, stB)
        base = _matrix_model(kind, sectors, block_dim)
    else:
        base = _matrix_model(kind, stA.block_count * stB.block_count,
                             stA.n * stB.n)
        perm = np.arange(base.structure.hilbert_dim)
    info = CompositeInfo(factors=(mA, mB), perm=perm)
    return dataclasses.replace(base, model_id=f"({mA.model_id})x({mB.model_id})",
                               composite=info)


def swap_channel(comp: ModelSpec) -> ChannelMap:
    """Reversible exchange of the two (identical) factors of a composite:
    the kron-order swap W|a, b> = |b, a>, gathered into the composite's
    block order with its kept index (`CompositeInfo.to_block`), is the one
    Kraus operator."""
    info = comp.composite
    if info is None:
        raise ModelCompatibilityError("swap needs a composite model")
    mA, mB = info.factors
    if mA.model_id != mB.model_id:
        raise UnsupportedModelError("swap is defined for identical factors")
    dH = mA.structure.hilbert_dim
    # row (b, a) of W is row (a, b) of the identity
    W = np.eye(dH * dH).reshape(dH, dH, -1).swapaxes(0, 1)
    K = W.reshape(-1)[info.to_block].reshape(dH * dH, dH * dH)
    M = conjugation_matrix([K], comp.structure)
    return comp.make_reversible(M, kraus=[K])


# ---------------------------------------------------------------------------
# sector and basis helpers


def sector_weights(state: StateVec) -> np.ndarray:
    """Probability carried by each superselection sector (block traces)."""
    model = state.model
    if model.structure is None:
        raise UnsupportedModelError(f"{model.model_id} has no sector structure")
    return vec_to_blocks(state.coords, model.structure).trace(axis1=1, axis2=2).real


def pure_maximal_set(model: ModelSpec) -> list:
    """A maximal set of jointly perfectly distinguishable pure states."""
    if model.capacity < 2:
        raise UnsupportedModelError("no perfectly distinguishable states")
    if model.structure is not None:
        st = model.structure
        blocks = np.repeat(np.arange(st.block_count), st.n)
        rows = np.tile(np.eye(st.n), (st.block_count, 1))
        return [StateVec(c, model) for c in rank_one_coords(st, blocks, rows)]
    return [StateVec(model.pure_states[i], model)
            for i in model.distinguishable_sets[0]]


# ---------------------------------------------------------------------------
# transporting pure states with reversibles


def pure_support(state: StateVec):
    """(sector, unit vector) carrying a pure matrix-model state.

    The vector is read-only, in canonical phase (`embedding.canonical_rows`:
    its first entry above 1e-10 in absolute value real and positive), and
    cached on the state.  An eigenstate made by `spectral.diagonalize`
    arrives with the vector its coordinates were built from; any other
    state reads it off the `block_eigh` (w, V) its cone check kept (left
    for `spectral.diagonalize`), else solves it: the first block whose top
    eigenvalue exceeds 1 - 1e-7.  Errors are not cached and are raised
    again on every call.
    """
    cached = state._derived.get("pure_support")
    if cached is not None:
        return cached
    st = state.model.structure
    if st is None:
        raise UnsupportedModelError("no sector support for polytope models")
    w, V = state._derived.get("block_eigh") or block_eigh(state.coords, st)
    top = w[:, -1] > 1.0 - 1e-7
    if not top.any():
        raise GPTError("state is not pure")
    b = int(top.argmax())
    v = canonical_rows(V[b, :, -1:])[0]
    state._derived["pure_support"] = (b, v)
    return b, v


def _unitary_with_first_column(v: np.ndarray, field: str) -> np.ndarray:
    v = np.asarray(v, dtype=complex if field == "C" else float)
    n = len(v)
    Q, R = np.linalg.qr(np.hstack([v[:, None], np.eye(n, dtype=v.dtype)]))
    Q = Q.copy()
    Q[:, 0] = Q[:, 0] * (R[0, 0] / abs(R[0, 0]))
    return Q


def _unitary_sending_vec(va, vb, field) -> np.ndarray:
    Qa = _unitary_with_first_column(va, field)
    Qb = _unitary_with_first_column(vb, field)
    return Qb @ Qa.conj().T


def reversible_sending(model: ModelSpec, s_from: StateVec,
                       s_to: StateVec) -> ChannelMap:
    """A reversible mapping one pure state onto another.

    Rotates within the source sector, then shifts the sectors cyclically
    so that the source sector lands on the target's; the shift is the
    identity when the two states share a sector.
    """
    st = model.structure
    if st is None:
        raise UnsupportedModelError("reversible transport needs a matrix model")
    ja, va = pure_support(s_from)
    jb, vb = pure_support(s_to)
    U = _unitary_sending_vec(va, vb, st.field)
    blocks = np.tile(np.eye(st.n, dtype=U.dtype), (st.block_count, 1, 1))
    blocks[ja] = U
    return block_reversible(model, blocks,
                            (np.arange(st.block_count) + jb - ja) % st.block_count)


def basis_aligning_reversibles(model: ModelSpec, from_states, to_states,
                               perms) -> list:
    """For each perm of `perms`, the reversible mapping pure state
    from_states[perm[i]] onto to_states[i] for every i, all built as one
    stack by `_aligning_reversibles` from the states' `pure_support`s, read
    once, with its checks."""
    st = model.structure
    if st is None:
        raise UnsupportedModelError("basis alignment needs a matrix model")
    if len(from_states) != len(to_states):
        raise ValueError("bases must have equal size")
    if not len(perms):
        return []

    def supports(states):
        sups = [pure_support(s) for s in states]
        b = np.array([b for b, _ in sups], dtype=int)
        return b, total_vectors(st, b, np.reshape([u for _, u in sups],
                                                  (len(sups), st.n)))
    return _aligning_reversibles(model, *supports(from_states),
                                 *supports(to_states), perms)


def _aligning_reversibles(model: ModelSpec, sa: np.ndarray, TA: np.ndarray,
                          sb: np.ndarray, TB: np.ndarray, perms) -> list:
    """For each perm of `perms`, the reversible sending the pure state of
    sector sa[perm[i]] and total-space unit vector TA[perm[i]] onto the one
    of sector sb[i] and vector TB[i], for every i, all built as one stack;
    `basis_aligning_reversibles` on states, and the conversion witnesses on
    a diagonalization's `spectral.Frame`, call it.

    Every term is checked: its sector transport must be consistent and a
    permutation of the sectors, which the sectorized families make a real
    obstruction, and its Kraus operator K = sum_i tb_i ta_perm(i)†, summed
    in the order of i over the total-space support vectors, must satisfy
    |K K† - I| <= 1e-8 (one batched product).  The coordinate matrices
    come from one
    `conjugation_matrices` call; their unit effect and invariant state
    residuals come from two batched products, each term refused on its own
    figures in turn with the `ChannelMap` constructor's ConeError
    (`core._channel_check`).  Each term is then a read-only `ChannelMap`
    with its matrix and its one Kraus operator (`core._checked_channel`).
    A failed alignment check raises GPTError naming the check.
    """
    st = model.structure
    P = np.asarray(perms, dtype=int).reshape(len(perms), len(sb))
    # image[t, j]: the sector term t sends sector j to, -1 where unused
    src = sa[P]
    terms = np.arange(len(P))[:, None]
    image = np.full((len(P), st.block_count), -1)
    image[terms, src] = sb
    if (image[terms, src] != sb).any():
        raise GPTError("no reversible aligns these bases: "
                       "inconsistent sector transport")
    image.sort(axis=1)
    if ((image[:, 1:] == image[:, :-1]) & (image[:, 1:] >= 0)).any():
        raise GPTError("no reversible aligns these bases: "
                       "sector transport is not a permutation")
    K = np.zeros((len(P), st.hilbert_dim, st.hilbert_dim), dtype=TA.dtype)
    for i in range(len(sb)):
        K += TB[i][:, None] * TA[P[:, i]].conj()[:, None, :]
    gram = K @ K.conj().transpose(0, 2, 1)
    if np.abs(gram - np.eye(st.hilbert_dim)).max() > 1e-8:
        raise GPTError("basis alignment produced a non-reversible map")
    M = conjugation_matrices(K, st)
    u, chi = model.unit_effect, model.chi
    unit = np.abs(M.transpose(0, 2, 1) @ u - u).max(axis=1)
    moved = np.abs(M @ chi - chi).max(axis=1)
    for figures in zip(unit.tolist(), moved.tolist()):
        _channel_check(*figures)
    M.setflags(write=False)
    return [_checked_channel(Mt, model, (Kt,)) for Mt, Kt in zip(M, K)]


def basis_aligning_reversible(model: ModelSpec, from_states,
                              to_states) -> ChannelMap:
    """A reversible mapping each pure state of one maximal basis onto the
    corresponding member of another: `basis_aligning_reversibles` with the
    identity as its one perm, and the same checks."""
    return basis_aligning_reversibles(model, from_states, to_states,
                                      [range(len(from_states))])[0]


# ---------------------------------------------------------------------------
# serialization


def model_to_json(model: ModelSpec) -> dict:
    if model.kind == "polytope":
        return {
            "kind": "polytope",
            "vector_dim": model.vector_dim,
            "unit_effect": model.unit_effect.tolist(),
            "state_vertices": model.state_cone.generators.tolist(),
            "effect_generators": model.effect_cone.generators.tolist(),
            "group_generators": [M.tolist() for M in model.group.generators],
        }
    if model.composite is not None:
        raise UnsupportedModelError("composites are not serializable; "
                                    "serialize the factors")
    return {"kind": model.kind, "params": dict(model.params)}


def _polytope_id(*arrays) -> str:
    """Model id derived from a polytope's defining data.

    Models are compared by id (`core._same_model`), so two different
    polytopes must never share one.
    """
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return f"polytope:{h.hexdigest()[:16]}"


def model_from_json(data: dict) -> ModelSpec:
    kind = data["kind"]
    if kind != "polytope":
        return build_model(kind, **data.get("params", {}))
    group = ([np.asarray(M, dtype=float) for M in data.get("group_generators", [])]
             or [np.eye(int(data["vector_dim"]))])
    vertices = data["state_vertices"]
    effects = data["effect_generators"]
    unit = data["unit_effect"]
    return _polytope_model(
        "polytope", _polytope_id(vertices, effects, unit, group),
        state_vertices=vertices,
        effect_generators=effects,
        unit_effect=unit,
        group_matrices=group,
    )


def load_model(path: str) -> ModelSpec:
    with open(path) as fh:
        return model_from_json(json.load(fh))


def save_model(model: ModelSpec, path: str):
    with open(path, "w") as fh:
        json.dump(model_to_json(model), fh, indent=2)
        fh.write("\n")
