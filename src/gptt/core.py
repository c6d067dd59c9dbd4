"""Core state/effect/channel layer for finite-dimensional probabilistic models.

A model lives in a real vector space of dimension D.  States are cone
elements normalized against the unit effect, effects are dual-cone elements
dominated by the unit, and channels are linear maps that preserve the unit
effect.  Two cone representations are supported: positivity of Hermitian
blocks (matrix models) and finitely generated ray cones (polytope models).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .embedding import (
    BlockStructure,
    block_eigh,
    block_eigvalsh,
    conjugation_matrix,
    vec_to_total,
    total_to_vec,
)

DEFAULT_TOL = 1e-9

# Composed, tensored and mixed channels keep a Kraus form of at most this
# many operators; longer lists are dropped and only the matrix is kept.
KRAUS_CAP = 64

# Tags a composite or product channel keeps when every part carries them.
_SHARED_TAGS = frozenset({"reversible", "unital", "rare"})

# `cone_facets` refuses a cone with more generators than this, before any
# work on it; the base-norm ball of a polygon with 200 vertices has 400.
MAX_CONE_GENERATORS = 400

# Facet normals and generators are compared at unit length: a generator lies
# on a facet when their product is at most this in absolute value.
FACET_TOL = 1e-10


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use.  No function of the
    package calls it; it stays because a benchmark tracer binds
    `core.linprog` when it installs, to count LP solves."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


class GPTError(Exception):
    """Base error for model-layer failures."""


class ConeError(GPTError):
    """A vector left its cone (invalid state, effect, or channel output)."""


class NormalizationError(GPTError):
    pass


class ModelCompatibilityError(GPTError):
    """Objects from different models were mixed, or a composite is undefined."""


class DiagonalizationError(GPTError):
    """No pure-state decomposition with the required structure exists.

    `residue` is the failed figure: a certificate's deviation, or on a
    polytope the smallest miss over the stored distinguishable sets (or the
    gap between two spectra).
    """

    def __init__(self, message: str, residue: float | None = None):
        super().__init__(message)
        self.residue = residue


class UnsupportedModelError(GPTError):
    """The requested operation is not available for this model family."""


def as_coords(x) -> np.ndarray:
    if isinstance(x, (StateVec, EffectVec)):
        return x.coords
    return np.asarray(x, dtype=float)


def _finite_coords(x) -> np.ndarray:
    """as_coords, refusing a NaN or infinite coordinate with ValueError."""
    x = as_coords(x)
    if not np.isfinite(x).all():
        raise ValueError("vector has a NaN or infinite coordinate")
    return x


# ---------------------------------------------------------------------------
# Cones


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """A proper cone, either finitely generated or a product of PSD blocks.

    kind 'rays': generators are rows of `generators`, spanning a pointed,
    full-dimensional cone.  Its facets, unit inward normals in the rows of
    `facets`, are found once, when the cone is built (`cone_facets`).  The
    cone is the set where every facet is nonnegative, and the margin
    against the interior direction e is min_i F_i.x / F_i.e.
    kind 'psd': membership means every Hermitian block has nonnegative
    spectrum; the margin is the smallest block eigenvalue.
    """

    kind: str
    dim: int
    generators: Optional[np.ndarray] = None
    structure: Optional[BlockStructure] = None
    interior_direction: Optional[np.ndarray] = field(default=None)
    facets: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind == "rays":
            G = np.asarray(self.generators, dtype=float)
            if G.ndim != 2 or G.shape[1] != self.dim:
                raise ValueError("generator matrix must be (k, dim)")
            norms = np.linalg.norm(G, axis=1)
            if np.any(norms < 1e-12):
                raise ValueError("zero generator ray")
            object.__setattr__(self, "generators", G)
            if np.linalg.matrix_rank(G, tol=1e-10) < self.dim:
                raise ValueError("cone is not full-dimensional")
            U = G / norms[:, None]
            e = U.sum(axis=0)       # about 0 only in a cone with a line
            object.__setattr__(self, "facets", cone_facets(U, e)[1])
            object.__setattr__(self, "interior_direction", e / np.linalg.norm(e))
        elif self.kind == "psd":
            if self.structure is None:
                raise ValueError("psd cone needs a block structure")
            if self.structure.coord_dim != self.dim:
                raise ValueError("block structure does not match dim")
        else:
            raise ValueError(f"unknown cone kind {self.kind!r}")

    def margin(self, x, eig: Optional[list] = None) -> float:
        """Largest m with x - m * (interior direction) still in the cone.

        Nonnegative exactly on cone members; for psd cones this is the
        minimum block eigenvalue.  Given a list `eig`, a psd cone finds it
        with `block_eigh` and fills the list with the blocks' (w, V) pairs:
        this is where a matrix-model state's one eigensolve happens
        (`StateVec`).  Without it, eigenvalues alone are computed.  A NaN or
        infinite coordinate raises ValueError, found from a non-finite margin
        on a ray cone and beforehand on a psd one (LAPACK may pass it).
        """
        x = as_coords(x)
        if x.shape != (self.dim,):
            raise ValueError("vector has wrong dimension")
        if self.kind == "psd":
            _finite_coords(x)
            if eig is not None:
                eig[:] = block_eigh(x, self.structure)
                return min(float(w[0]) for w, _ in eig)
            return min(float(w[0]) for w in block_eigvalsh(x, self.structure))
        F = self.facets
        m = float(np.min((F @ x) / (F @ self.interior_direction)))
        if not -np.inf < m < np.inf:
            _finite_coords(x)
        return m

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        return self.margin(x) >= -tol


def cone_membership(model: "ModelSpec", x, which: str = "state",
                    tol: float = DEFAULT_TOL, eig: Optional[list] = None):
    """Membership test with a signed separation margin.

    Returns (inside, margin); margin >= -tol counts as inside.  `eig` is
    passed on to `ConeSpec.margin`.
    """
    cone = model.state_cone if which == "state" else model.effect_cone
    m = cone.margin(as_coords(x), eig)
    return (m >= -tol, m)


def cone_facets(U: np.ndarray, e: np.ndarray):
    """(B, F): orthonormal rows B spanning span(U), the identity when the
    unit rows of U span the whole space, and the unit inward facet normals
    F of their cone within that span; e lies in its relative interior.

    Double description (Motzkin et al., 1953; Fukuda and Prodon, 1996)
    finds the extreme rays of {y in span(U) : U y >= 0} and the generators
    each is zero on: from the cone of r = rank(U) generators of largest
    residual, the others are added in order.  Rays below -FACET_TOL on the
    new one go; each adjacent pair across it (the generators zero on both
    have rank r - 2 at FACET_TOL) gives the ray between them.  Each zero
    set, in `np.unique` order, gives a facet refit by SVD and oriented to
    be positive on e.  Normals summing to at most FACET_TOL on a generator
    mean a line in the cone (ValueError, not pointed).  Else at least r
    facets, each nonnegative on the generators, positive on e, zero on
    r - 1 independent ones and on no other, holding no other facet's zero
    set, are returned, or ValueError.  More than MAX_CONE_GENERATORS
    generators, or its square in ray pairs at one step, raise
    UnsupportedModelError.
    """
    k, n = U.shape
    if k > MAX_CONE_GENERATORS:
        raise UnsupportedModelError(f"a cone with {k} generators is past "
                                    f"MAX_CONE_GENERATORS = {MAX_CONE_GENERATORS}")
    s, Vt = np.linalg.svd(U)[1:]
    r = int((s > FACET_TOL).sum())
    if r == 0:
        return Vt[:0], Vt[:0]
    B = np.eye(n) if r == n else Vt[:r]
    C, e = (U, e) if r == n else (U @ B.T, B @ e)   # coordinates in span
    start, res = [], C.copy()
    for _ in range(r):
        d = (res * res).sum(axis=1)
        start.append(j := int(d.argmax()))
        res -= np.outer(res @ res[j], res[j] / d[j])
    R = np.linalg.inv(C[start]).T
    R /= np.linalg.norm(R, axis=1)[:, None]
    Z = np.zeros((r, k), dtype=bool)
    Z[:, start] = ~np.eye(r, dtype=bool)
    for g in (g for g in range(k) if g not in start):
        v = R @ C[g]
        pos, neg = v > FACET_TOL, v < -FACET_TOL
        Z[:, g] = ~(pos | neg)
        rays, sets = [R[~neg]], [Z[~neg]]
        P, N = np.flatnonzero(pos), np.flatnonzero(neg)
        if len(P) * len(N) > MAX_CONE_GENERATORS ** 2:   # bounds the memory
            raise UnsupportedModelError("cone ray pairs past MAX_CONE_GENERATORS ** 2")
        shared = Z[P].astype(float) @ Z[N].T.astype(float)
        for i, j in zip(*np.nonzero(shared >= r - 2)):
            both = Z[P[i]] & Z[N[j]]    # unit rows: rank = count up to one
            if (shared[i, j] if shared[i, j] <= 1 else np.linalg.matrix_rank(
                    C[both], tol=FACET_TOL)) == r - 2:
                y = v[P[i]] * R[N[j]] - v[N[j]] * R[P[i]]
                both[g] = True
                rays.append(y[None] / np.linalg.norm(y))
                sets.append(both[None])
        R, Z = np.vstack(rays), np.vstack(sets)
    Z = Z[np.lexsort(Z.T[::-1])]    # sorted as np.unique sorts them
    F, rank, size = np.zeros((len(Z), r)), np.zeros(len(Z), int), Z.sum(1)
    for m in set(size.tolist()):    # one batch of SVDs per set size
        i = np.flatnonzero(size == m)
        _, sv, Vt = np.linalg.svd(C[np.nonzero(Z[i])[1].reshape(len(i), m)])
        F[i], rank[i] = Vt[:, -1], (sv > FACET_TOL).sum(axis=1)
    F[F @ e <= 0] *= -1
    if (C @ F.sum(axis=0)).min() <= FACET_TOL:
        raise ValueError("cone contains a line (not pointed)")
    vals, O = F @ C.T, Z.astype(float)
    nested = (O @ (1.0 - O).T == 0).sum() > len(Z)   # a set within another
    if (len(F) < r or (rank != r - 1).any() or nested
            or not np.array_equal(np.abs(vals) <= FACET_TOL, Z)
            or (vals < -FACET_TOL).any()
            or (F @ e <= FACET_TOL * np.linalg.norm(e)).any()):
        raise ValueError("cone facets are numerically ambiguous: a "
                         "generator lies too close to a facet")
    return B, F if r == n else F @ B


# ---------------------------------------------------------------------------
# Model description


@dataclass(frozen=True)
class ModelFlags:
    is_sharp_with_purification: bool = False
    unrestricted_reversibility: bool = False
    sectorized: bool = False


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """Reversible transformations of a model.

    kind 'finite': `generators` (matrix, kraus-or-None pairs) generate the
    whole group under composition.  kind 'parametric': `sampler` draws a
    random reversible.
    """

    kind: str
    generators: tuple = ()
    sampler: Optional[Callable] = None  # (model, rng) -> ChannelMap


@dataclass(frozen=True, eq=False)
class CompositeInfo:
    """How a bipartite model relates to its factors.

    `perm` lists, for each total-Hilbert basis index in the composite's
    block order, the corresponding index of the factor-kron ordered basis.
    """

    factors: tuple
    perm: np.ndarray


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A model's data.  Polytope models also carry `pure_states`, their
    vertices normalized to unit pairing; `maximal_sets`, every maximal
    jointly perfectly distinguishable set of vertex indices in
    lexicographic order, each with one distinguishing measurement (a
    read-only array whose row i is the effect that is 1 on the set's i-th
    vertex); and `distinguishable_sets`, the largest of those index sets.
    `capacity` is their size.  A maximal set can be smaller than
    `capacity`: a vertex that is in no distinguishable pair is one alone."""

    model_id: str
    kind: str
    params: dict
    vector_dim: int
    capacity: int
    unit_effect: np.ndarray
    chi: np.ndarray
    state_cone: ConeSpec
    effect_cone: ConeSpec
    flags: ModelFlags
    structure: Optional[BlockStructure] = None
    group: Optional[GroupSpec] = None
    composite: Optional[CompositeInfo] = None
    pure_sampler: Optional[Callable] = None   # (model, rng) -> coords
    state_sampler: Optional[Callable] = None  # (model, rng) -> coords
    pure_states: Optional[np.ndarray] = None
    maximal_sets: tuple = ()
    distinguishable_sets: tuple = ()

    def __post_init__(self):
        for name in ("unit_effect", "chi", "pure_states"):
            if getattr(self, name) is not None:
                a = np.asarray(getattr(self, name), dtype=float)
                a.setflags(write=False)
                object.__setattr__(self, name, a)

    def __repr__(self):
        return f"ModelSpec({self.model_id}, D={self.vector_dim}, d={self.capacity})"

    @property
    def unit(self) -> "EffectVec":
        return EffectVec(self.unit_effect, self)

    @property
    def invariant_state(self) -> "StateVec":
        return StateVec(self.chi, self)

    def make_reversible(self, matrix: np.ndarray, kraus=None) -> "ChannelMap":
        return ChannelMap(
            matrix=np.asarray(matrix, dtype=float),
            model_in=self,
            model_out=self,
            tags=frozenset({"reversible", "unital", "rare"}),
            kraus=None if kraus is None else tuple(kraus),
        )


def _same_model(a: ModelSpec, b: ModelSpec):
    if a is not b and a.model_id != b.model_id:
        raise ModelCompatibilityError(
            f"objects belong to different models: {a.model_id} vs {b.model_id}"
        )


def per_model_id(build):
    """Decorator for fixed data of a model: build(model) runs on the first
    call for each model id, and its result, None included, is kept and
    returned to every later call.  Two different models never share an id,
    so a kept result never serves the wrong model.  Errors are not kept."""
    kept = {}

    @functools.wraps(build)
    def cached(model):
        if model.model_id not in kept:
            kept[model.model_id] = build(model)
        return kept[model.model_id]
    return cached


# ---------------------------------------------------------------------------
# States, effects, observables


@dataclass(frozen=True, eq=False)
class StateVec:
    """Normalized state: cone member with unit pairing against the unit effect.

    The constructor refuses a NaN or infinite coordinate, then checks the
    unit pairing (within 1e-7) and cone membership (margin at least
    -DEFAULT_TOL).  On a matrix model the membership check is the state's
    one block eigendecomposition: its (w, V) pairs are kept in
    `_derived["block_eigh"]` until `spectral.diagonalize` takes them out, so
    no second eigensolve runs.  The eigenstates of a diagonalization are the
    one exception to these checks (`_checked_state`): on a matrix model
    `_certified_eigenstates` builds them, without kept pairs, after a
    single check of the whole decomposition, which they pass with tighter
    tolerances than these; on a polytope they are rows of `pure_states`,
    generators of the state cone normalized to unit pairing.  The state is
    frozen and its coordinates are read-only, so results derived from it
    alone (its diagonalization, the support of a pure state) are cached in
    `_derived` and never go stale.
    """

    coords: np.ndarray
    model: ModelSpec
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        x = np.asarray(self.coords, dtype=float)
        if x.shape != (self.model.vector_dim,):
            raise ValueError("state has wrong dimension")
        x = x.copy()
        x.setflags(write=False)
        object.__setattr__(self, "coords", x)
        # before the pairing, which would warn and come out NaN, and the
        # cone check, where LAPACK may give such a matrix finite eigenvalues
        if not np.isfinite(x).all():
            raise ConeError("state has a NaN or infinite coordinate")
        p = float(self.model.unit_effect @ x)
        if not abs(p - 1.0) <= 1e-7:
            raise NormalizationError(f"state has unit pairing {p!r}, expected 1")
        eig = []
        ok, margin = cone_membership(self.model, x, "state", eig=eig)
        if not ok:
            raise ConeError(f"state outside cone (margin {margin:.3e})")
        if eig:
            self._derived["block_eigh"] = eig

    @classmethod
    def normalized(cls, model: ModelSpec, raw) -> "StateVec":
        raw = as_coords(raw)
        p = float(model.unit_effect @ raw)
        if p < 1e-12:
            raise NormalizationError("vector has vanishing normalization")
        return cls(raw / p, model)

    def __repr__(self):
        return f"StateVec({self.model.model_id}, {np.array2string(self.coords, precision=4)})"


def _certified_eigenstates(model: ModelSpec, x: np.ndarray, raw: np.ndarray,
                           E: np.ndarray):
    """Eigenstates of the state with coordinates x, one per row of E, built
    after one check of the whole decomposition instead of one cone check per
    eigenstate.

    raw holds the eigenvalues as the eigensolver gave them, before clipping.
    The check: the Gram matrix max|E E^T - I|, every unit pairing, and the
    reconstruction max|raw^T E - x| each within DEFAULT_TOL, and the
    smallest raw eigenvalue at least -DEFAULT_TOL, the tolerance x was
    accepted under.  Each row is then a unit-pairing projector, orthogonal
    to the others, and together they rebuild x.  Raises DiagonalizationError
    carrying the failed figure as its residue; otherwise returns
    (eigenstates, residual), the largest of the three deviations; E is made
    read-only and its rows are the eigenstates' coordinates, built with
    `_checked_state`.
    """
    G = E @ E.T
    G.flat[::len(E) + 1] -= 1.0
    deviations = (
        ("Gram matrix", float(np.abs(G).max())),
        ("unit pairing", float(np.abs(E @ model.unit_effect - 1.0).max())),
        ("reconstruction", float(np.abs(raw @ E - x).max())),
    )
    for name, r in deviations:
        if not r <= DEFAULT_TOL:
            raise DiagonalizationError(
                f"eigendecomposition of a {model.model_id} state fails its "
                f"{name} check (deviation {r:.3e})", residue=r)
    low = float(raw.min())
    if not low >= -DEFAULT_TOL:
        raise DiagonalizationError(
            f"eigendecomposition of a {model.model_id} state has eigenvalue "
            f"{low:.3e} below the cone tolerance", residue=-low)
    E.setflags(write=False)
    return (tuple(_checked_state(row, model) for row in E),
            max(r for _, r in deviations))


def _checked_state(row: np.ndarray, model: ModelSpec) -> StateVec:
    """A StateVec on the read-only row, built without the constructor's
    checks: the caller has already checked it as a state of the model."""
    s = object.__new__(StateVec)
    object.__setattr__(s, "coords", row)
    object.__setattr__(s, "model", model)
    object.__setattr__(s, "_derived", {})
    return s


@dataclass(frozen=True, eq=False)
class EffectVec:
    """Proper effect: in the effect cone, with its complement also in it."""

    coords: np.ndarray
    model: ModelSpec

    def __post_init__(self):
        f = np.asarray(self.coords, dtype=float)
        if f.shape != (self.model.vector_dim,):
            raise ValueError("effect has wrong dimension")
        f = f.copy()
        f.setflags(write=False)
        object.__setattr__(self, "coords", f)
        if not np.isfinite(f).all():
            raise ConeError("effect has a NaN or infinite coordinate")
        ok, margin = cone_membership(self.model, f, "effect")
        if not ok:
            raise ConeError(f"effect outside cone (margin {margin:.3e})")
        ok, margin = cone_membership(self.model, self.model.unit_effect - f, "effect")
        if not ok:
            raise ConeError(f"effect exceeds the unit (margin {margin:.3e})")

    def __repr__(self):
        return f"EffectVec({self.model.model_id}, {np.array2string(self.coords, precision=4)})"


def pairing(effect, state) -> float:
    """Probability pairing; the embedding makes it a plain dot product."""
    if isinstance(effect, EffectVec) and isinstance(state, StateVec):
        _same_model(effect.model, state.model)
    return float(as_coords(effect) @ as_coords(state))


@per_model_id
def _base_norm_facets(model: ModelSpec):
    """Rows (a_i, b_i), b_i > 0, of the ball conv(Omega u -Omega) = {x :
    a_i.x + b_i >= 0 for every i}: the facets (`cone_facets`) of the cone
    over the lifted points (+-omega, 1), found once per model id.
    """
    P = model.pure_states
    L = np.hstack([np.vstack([P, -P]), np.ones((2 * len(P), 1))])
    return cone_facets(L / np.linalg.norm(L, axis=1)[:, None],
                       np.eye(P.shape[1] + 1)[-1])[1]


def state_norm(model: ModelSpec, x) -> float:
    """Base norm of a state-space vector.

    For matrix models this is the total absolute spectrum (sum of |eigenvalue|
    over all blocks).  For ray-cone models it is the gauge of the ball
    conv(Omega u -Omega), Omega the normalized states: the largest
    -a_i.x / b_i over the ball's facets (`_base_norm_facets`; past
    MAX_CONE_GENERATORS, twice the vertices, UnsupportedModelError).  A NaN
    or infinite coordinate raises ValueError.
    """
    x = _finite_coords(x)
    if model.structure is not None:
        return sum(float(np.abs(w).sum())
                   for w in block_eigvalsh(x, model.structure))
    F = _base_norm_facets(model)
    return float(np.max(-(F[:, :-1] @ x) / F[:, -1]))


def effect_norm(model: ModelSpec, f) -> float:
    """Observable norm: the largest absolute value over normalized states.

    For matrix models this is the largest absolute block eigenvalue.  A NaN
    or infinite coordinate raises ValueError.
    """
    f = _finite_coords(f)
    if model.structure is not None:
        return max(float(np.abs(w).max())
                   for w in block_eigvalsh(f, model.structure))
    return float(np.abs(model.pure_states @ f).max())


# ---------------------------------------------------------------------------
# Channels


@dataclass(frozen=True, eq=False)
class ChannelMap:
    """Linear map between model state spaces that preserves the unit effect.

    Tags record structure the builder certifies: 'reversible', 'unital',
    'rare' (mixture of reversibles), 'measure_and_prepare'.  `witness`
    carries the certifying data.  `kraus` holds total-Hilbert-space Kraus
    operators when the map has a matrix-model presentation; they make
    tensoring exact.
    """

    matrix: np.ndarray
    model_in: ModelSpec
    model_out: ModelSpec
    tags: frozenset = frozenset()
    kraus: Optional[tuple] = None
    witness: Optional[dict] = None

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.shape != (self.model_out.vector_dim, self.model_in.vector_dim):
            raise ValueError("channel matrix has wrong shape")
        M = M.copy()
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)
        resid = float(np.abs(M.T @ self.model_out.unit_effect
                             - self.model_in.unit_effect).max())
        if not resid <= DEFAULT_TOL:
            raise ConeError(f"channel does not preserve the unit effect "
                            f"(residual {resid:.3e})")
        if "unital" in self.tags:
            r = float(np.abs(M @ self.model_in.chi - self.model_out.chi).max())
            if not r <= 1e-8:
                raise ConeError(f"channel tagged unital moves the invariant "
                                f"state (residual {r:.3e})")

    def __call__(self, state: StateVec) -> StateVec:
        return apply_channel(self, state)

    def __repr__(self):
        t = ",".join(sorted(self.tags)) or "-"
        return (f"ChannelMap({self.model_in.model_id}->{self.model_out.model_id},"
                f" tags={t})")


def apply_channel(channel: ChannelMap, state: StateVec) -> StateVec:
    """The channel's output state; StateVec rejects an output outside the cone."""
    _same_model(channel.model_in, state.model)
    return StateVec(channel.matrix @ state.coords, channel.model_out)


def compose(outer: ChannelMap, inner: ChannelMap) -> ChannelMap:
    """outer after inner."""
    _same_model(outer.model_in, inner.model_out)
    tags = set(_SHARED_TAGS & outer.tags & inner.tags)
    if "measure_and_prepare" in outer.tags | inner.tags:
        tags.add("measure_and_prepare")
    kraus = None
    if outer.kraus is not None and inner.kraus is not None:
        prods = [K2 @ K1 for K2 in outer.kraus for K1 in inner.kraus]
        if len(prods) <= KRAUS_CAP:
            kraus = tuple(prods)
    return ChannelMap(
        matrix=outer.matrix @ inner.matrix,
        model_in=inner.model_in,
        model_out=outer.model_out,
        tags=frozenset(tags),
        kraus=kraus,
    )


# ---------------------------------------------------------------------------
# Composite-system operations (the composite model itself is built in zoo)


def _require_composite(model: ModelSpec) -> CompositeInfo:
    if model.composite is None:
        raise ModelCompatibilityError(f"{model.model_id} is not a composite model")
    return model.composite


def _block_to_kron(model: ModelSpec, x: np.ndarray) -> np.ndarray:
    """Total-Hilbert matrix of composite coords, in factor-kron basis order."""
    info = _require_composite(model)
    M_block = vec_to_total(x, model.structure)
    M_kron = np.zeros_like(M_block)
    M_kron[np.ix_(info.perm, info.perm)] = M_block
    return M_kron


def _kron_to_coords(model: ModelSpec, M_kron: np.ndarray,
                    tol: float = 1e-8) -> np.ndarray:
    info = _require_composite(model)
    M_block = M_kron[np.ix_(info.perm, info.perm)]
    x, resid = total_to_vec(M_block, model.structure, check_tol=tol)
    if resid > tol:
        raise ConeError(f"matrix violates the composite sector structure "
                        f"(off-block residual {resid:.3e})")
    return x


def tensor_states(comp: ModelSpec, a: StateVec, b: StateVec) -> StateVec:
    info = _require_composite(comp)
    mA, mB = info.factors
    _same_model(mA, a.model)
    _same_model(mB, b.model)
    MA = vec_to_total(a.coords, mA.structure)
    MB = vec_to_total(b.coords, mB.structure)
    return StateVec(_kron_to_coords(comp, np.kron(MA, MB)), comp)


def marginal(comp_state: StateVec, which: int) -> StateVec:
    """Reduced state of factor 0 or 1 of a composite model's state."""
    model = comp_state.model
    info = _require_composite(model)
    if which not in (0, 1):
        raise ValueError("which must be 0 or 1")
    mA, mB = info.factors
    dA = mA.structure.hilbert_dim
    dB = mB.structure.hilbert_dim
    M = _block_to_kron(model, comp_state.coords).reshape(dA, dB, dA, dB)
    if which == 0:
        R = np.einsum("ijkj->ik", M)
        target = mA
    else:
        R = np.einsum("ijil->jl", M)
        target = mB
    x, resid = total_to_vec(R, target.structure, check_tol=1e-7)
    if resid > 1e-7:
        raise ConeError(f"marginal violates the factor sector structure "
                        f"(residual {resid:.3e})")
    return StateVec(x, target)


def _lifted_kraus(comp: ModelSpec, kraus_A, kraus_B) -> list:
    info = _require_composite(comp)
    out = []
    for KA in kraus_A:
        for KB in kraus_B:
            K_kron = np.kron(KA, KB)
            out.append(K_kron[np.ix_(info.perm, info.perm)])
    return out


def tensor_channels(comp_in: ModelSpec, comp_out: ModelSpec,
                    chan_A: ChannelMap, chan_B: ChannelMap) -> ChannelMap:
    """Product channel acting factor-wise on composite models.

    Both composites must be built from the channels' endpoint models; the
    factors must carry Kraus presentations.
    """
    info_in = _require_composite(comp_in)
    info_out = _require_composite(comp_out)
    _same_model(info_in.factors[0], chan_A.model_in)
    _same_model(info_in.factors[1], chan_B.model_in)
    _same_model(info_out.factors[0], chan_A.model_out)
    _same_model(info_out.factors[1], chan_B.model_out)
    if chan_A.kraus is None or chan_B.kraus is None:
        raise UnsupportedModelError(
            "tensoring needs Kraus presentations of both factors")
    if comp_in is not comp_out and comp_in.model_id != comp_out.model_id:
        raise UnsupportedModelError("factor-wise maps must preserve the "
                                    "composite model in this version")
    kraus = _lifted_kraus(comp_in, chan_A.kraus, chan_B.kraus)
    M = conjugation_matrix(kraus, comp_in.structure)
    return ChannelMap(matrix=M, model_in=comp_in, model_out=comp_out,
                      tags=_SHARED_TAGS & chan_A.tags & chan_B.tags,
                      kraus=tuple(kraus) if len(kraus) <= KRAUS_CAP else None)


def lift_channel(comp: ModelSpec, chan: ChannelMap, which: int) -> ChannelMap:
    """Act with a single-factor channel on one leg of a composite."""
    info = _require_composite(comp)
    other = info.factors[1 - which]
    ident = other.make_reversible(
        np.eye(other.vector_dim),
        kraus=[np.eye(other.structure.hilbert_dim)],
    )
    if which == 0:
        return tensor_channels(comp, comp, chan, ident)
    return tensor_channels(comp, comp, ident, chan)
