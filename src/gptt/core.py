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
    _block_stack,
    _eigensolve,
    _frozen,
    _stack_coords,
    block_eigvalsh,
    conjugation_matrix,
    vec_to_total,
    total_to_vec,
)

DEFAULT_TOL = 1e-9

# A matrix-model decomposition is certified on its blocks within this, so
# that its eigenstates' coordinates pass DEFAULT_TOL (`_block_figures`).
BLOCK_TOL = DEFAULT_TOL / 2

# Composed, tensored and mixed channels keep a Kraus form of at most this
# many operators; longer lists are dropped and only the matrix is kept.
KRAUS_CAP = 64

# Tags a composite or product channel keeps when every part carries them.
_SHARED_TAGS = frozenset({"reversible", "unital", "rare"})

# Tags of a reversible: its mixtures are rare and it fixes chi.
_REVERSIBLE_TAGS = frozenset({"reversible", "unital", "rare"})

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


def _all_finite(x: np.ndarray) -> bool:
    """np.isfinite(x).all(), without the method's Python wrapper."""
    return np.count_nonzero(np.isfinite(x)) == x.size


def _finite_coords(x) -> np.ndarray:
    """as_coords, refusing a NaN or infinite coordinate with ValueError."""
    x = as_coords(x)
    if not _all_finite(x):
        raise ValueError("vector has a NaN or infinite coordinate")
    return x


# ---------------------------------------------------------------------------
# Cones


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """A proper cone, either finitely generated or a product of PSD blocks.

    kind 'rays': generators are rows of `generators`, spanning a pointed,
    full-dimensional cone.  Its facets, unit inward normals in the rows of
    `facets`, are found once, when the cone is built (`cone_facets`), and
    so is `facet_scale`, their products F.e with the interior direction e.
    The cone is the set where every facet is nonnegative, and the margin
    against e is min_i F_i.x / F_i.e.  `checks` keeps the rows of that
    figure, F_i / F_i.e, under one more first row: `unit`, the unit effect
    of the model whose state cone this is, or e when none is given.  Both
    `facet_scale` and `checks` are read-only.
    kind 'psd': membership means every Hermitian block has nonnegative
    spectrum; the margin is the smallest block eigenvalue.
    """

    kind: str
    dim: int
    generators: Optional[np.ndarray] = None
    structure: Optional[BlockStructure] = None
    unit: Optional[np.ndarray] = field(default=None, repr=False)
    interior_direction: Optional[np.ndarray] = field(default=None, init=False)
    facets: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    facet_scale: Optional[np.ndarray] = field(default=None, init=False,
                                              repr=False)
    checks: Optional[np.ndarray] = field(default=None, init=False, repr=False)

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
            F = cone_facets(U, e)[1]
            e = e / np.linalg.norm(e)
            scale = F @ e
            unit = e if self.unit is None else np.asarray(self.unit, dtype=float)
            if unit.shape != (self.dim,):
                raise ValueError("unit effect must have shape (dim,)")
            checks = np.vstack([unit, F / scale[:, None]])
            _frozen(scale, checks)
            object.__setattr__(self, "facets", F)
            object.__setattr__(self, "interior_direction", e)
            object.__setattr__(self, "facet_scale", scale)
            object.__setattr__(self, "checks", checks)
        elif self.kind == "psd":
            if self.structure is None:
                raise ValueError("psd cone needs a block structure")
            if self.structure.coord_dim != self.dim:
                raise ValueError("block structure does not match dim")
        else:
            raise ValueError(f"unknown cone kind {self.kind!r}")

    def margin(self, x, eig: Optional[list] = None) -> float:
        """Largest m with x - m * (interior direction) still in the cone.

        Nonnegative exactly on cone members.  A ray cone's margin is the
        smallest of its `checks` rows after the first, taken on x in one
        product, checks @ x, and read as Python floats; given a list `eig`,
        it fills the list with one float, the first row's entry: x's unit
        pairing on a model's state cone (`StateVec`).  A psd cone's margin
        is the minimum block eigenvalue: it scatters the checked x into its
        block stack once and runs `embedding._eigensolve` on it, the kernel
        of `block_eigh`, without validating the stack again.  Given a list
        `eig`, it fills the list with the stacked (w, V): this is where a
        matrix-model state's one eigensolve happens (`StateVec`).  Without
        it, eigenvalues alone are computed.  A NaN or infinite coordinate
        raises ValueError, found from a non-finite product on a ray cone
        and beforehand on a psd one (LAPACK may pass it).  A float ndarray
        is read as it is; anything else goes through `as_coords`.
        """
        if type(x) is not np.ndarray or x.dtype != np.float64:
            x = as_coords(x)
        if x.shape != (self.dim,):
            raise ValueError("vector has wrong dimension")
        if self.kind == "psd":
            _finite_coords(x)
            H = _block_stack(x, self.structure)
            if eig is None:
                return min(_eigensolve(H, False)[:, 0].tolist())
            eig[:] = _eigensolve(H)
            return min(eig[0][:, 0].tolist())
        v = self.checks.dot(x).tolist()
        m = min(v[1:])
        if not -np.inf < sum(v) < np.inf:   # a NaN or infinity among them
            _finite_coords(x)
            m = float(np.min(v[1:]))        # a NaN from overflow, as np.min
        if eig is not None:
            eig[:] = v[:1]
        return m

    def contains(self, x) -> bool:
        return self.margin(x) >= -DEFAULT_TOL


def cone_membership(model: "ModelSpec", x, which: str = "state",
                    tol: float = DEFAULT_TOL, eig: Optional[list] = None):
    """Membership test with a signed separation margin.

    Returns (inside, margin); margin >= -tol counts as inside.  `eig` is
    passed on to `ConeSpec.margin`, which fills it with a ray cone's unit
    pairing or a psd cone's stacked (w, V).
    """
    cone = model.state_cone if which == "state" else model.effect_cone
    m = cone.margin(x, eig)
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
    """Reversible transformations of a model: `sampler` draws one at random.
    A finite group also has `generators`, matrices permuting the pure
    states and keeping effects effects (e M^-1 in the effect cone, within
    1e-9, for every effect generator e), and `table`, its elements as
    `zoo.close_group` gives them."""

    generators: tuple = ()
    sampler: Optional[Callable] = None  # (model, rng) -> ChannelMap
    table: Optional[tuple] = None       # (perms, matrices)


@dataclass(frozen=True, eq=False)
class CompositeInfo:
    """How a bipartite model relates to its factors.

    `perm` lists, for each total-Hilbert basis index in the composite's
    block order, the corresponding index of the factor-kron ordered basis.
    The perm is applied to an H x H matrix as one gather from its flat
    view: `to_block` takes kron order to block order (entry (i, j) of the
    result is entry (perm[i], perm[j])) and `to_kron` takes it back.  Both
    are read-only index arrays of H^2 entries, computed on first read and
    kept.
    """

    factors: tuple
    perm: np.ndarray

    @staticmethod
    def _pair_index(p: np.ndarray) -> np.ndarray:
        idx = (p[:, None] * len(p) + p).reshape(-1)
        idx.setflags(write=False)
        return idx

    @functools.cached_property
    def to_block(self) -> np.ndarray:
        return self._pair_index(np.asarray(self.perm))

    @functools.cached_property
    def to_kron(self) -> np.ndarray:
        return self._pair_index(np.argsort(self.perm))


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A model's data.  Polytope models also carry `pure_states`, their
    vertices normalized to unit pairing; `maximal_sets`, every maximal
    jointly perfectly distinguishable set of vertex indices in
    lexicographic order, each with one distinguishing measurement (a
    read-only array whose row i is the effect that is 1 on the set's i-th
    vertex); and `distinguishable_sets`, the largest of those index sets.
    `capacity` is their size.  A maximal set can be smaller than
    `capacity`: a vertex that is in no distinguishable pair is one alone.
    A polytope's `group` is finite, closed once when the model is built
    (`zoo.close_group`, kept as `group.table`) and refused past 10,000
    elements.  A polytope's `_base_norm_facets`, `_set_members` and
    `_stored_sets` are computed on their first read and kept on the
    model, and so is `_vertex_effects`, which keeps the answers of
    `zoo.distinguishing_effects` to vertex lookups."""

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
            tags=_REVERSIBLE_TAGS,
            kraus=None if kraus is None else tuple(kraus),
        )

    @functools.cached_property
    def _base_norm_facets(self) -> np.ndarray:
        """Rows (a_i, b_i), b_i > 0, of the ball conv(Omega u -Omega) = {x :
        a_i.x + b_i >= 0 for every i}: the facets (`cone_facets`) of the
        cone over the lifted points (+-omega, 1)."""
        P = self.pure_states
        L = np.hstack([np.vstack([P, -P]), np.ones((2 * len(P), 1))])
        return cone_facets(L / np.linalg.norm(L, axis=1)[:, None],
                           np.eye(P.shape[1] + 1)[-1])[1]

    @functools.cached_property
    def _set_members(self) -> np.ndarray:
        """The membership matrix of `maximal_sets`, read-only: entry [k, i]
        is whether set k holds vertex i."""
        M = np.zeros((len(self.maximal_sets), len(self.pure_states)), dtype=bool)
        for k, (c, _) in enumerate(self.maximal_sets):
            M[k, list(c)] = True
        M.setflags(write=False)
        return M

    @functools.cached_property
    def _stored_sets(self) -> tuple:
        """The stored distinguishable sets' vertex matrices V, one per set,
        the pseudo-inverses of their transposes, and each vertex's exact
        weights over every set (1 and 0 where a set holds it, the solve's
        elsewhere), keyed by its bytes with -0.0 read as 0.0; all read-only.
        """
        V = self.pure_states[np.asarray(self.distinguishable_sets)]
        V, pinv = _frozen(V, np.linalg.pinv(V.transpose(0, 2, 1)))
        vertex_weights = {}
        for x in self.pure_states:
            hit = (V == x).all(axis=2)
            vertex_weights[(x + 0.0).tobytes()] = _frozen(np.where(
                hit.any(axis=1, keepdims=True), hit, pinv @ x))[0]
        return V, pinv, vertex_weights

    @functools.cached_property
    def _vertex_effects(self) -> dict:
        """The vertex lookups of `zoo.distinguishing_effects` answered so
        far on this model: the ordered tuple of distinct vertex indices to
        the tuple of read-only EffectVecs built for it, each checked by the
        EffectVec constructor once, or to None when no stored set holds
        those vertices.  It holds at most one entry per distinct ordered
        tuple, of length up to `capacity`, that callers asked about."""
        return {}


def _same_model(a: ModelSpec, b: ModelSpec):
    if a is not b and a.model_id != b.model_id:
        raise ModelCompatibilityError(
            f"objects belong to different models: {a.model_id} vs {b.model_id}"
        )


# ---------------------------------------------------------------------------
# States, effects, observables


@dataclass(frozen=True, eq=False, init=False)
class StateVec:
    """Normalized state: cone member with unit pairing against the unit effect.

    The constructor refuses complex coordinates (ValueError) before it
    makes its one float copy, then a wrong shape (ValueError), a NaN or
    infinite coordinate (ConeError), a unit pairing off by more than 1e-7
    (NormalizationError) and a margin below -DEFAULT_TOL, from one
    `cone_membership` check (ConeError).  On a polytope that check is one
    product of the float copy with the state cone's kept `checks` matrix,
    which gives the unit pairing and the margin together (`ConeSpec.margin`).
    On a matrix model the pairing is taken first, and the membership check
    is the state's one block eigendecomposition: its stacked (w, V) is kept
    in `_derived["block_eigh"]` until `spectral.diagonalize` takes it out,
    so no second eigensolve runs.  The eigenstates of a diagonalization
    are the one exception to these checks (`_checked_state`): on a matrix
    model they are built, without a kept (w, V), when first read, on rows
    that passed one check of the whole decomposition (`_certified_rows`)
    with tighter tolerances than these; on a polytope they are rows of
    `pure_states`, generators of the state cone normalized to unit pairing.
    The state is frozen and its coordinates are read-only, so results
    derived from it alone (its diagonalization, the support of a pure
    state) are cached in `_derived` and never go stale.
    """

    coords: np.ndarray
    model: ModelSpec
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __init__(self, coords, model: ModelSpec):
        self.__dict__.update(coords=coords, model=model, _derived={})
        self.__post_init__()

    # the checks stay in __post_init__, where the benchmark's tracer
    # counts the states built
    def __post_init__(self):
        if np.iscomplexobj(self.coords):
            raise ValueError("state has complex coordinates")
        model = self.model
        x = np.array(self.coords, dtype=float)
        if x.shape != (model.vector_dim,):
            raise ValueError("state has wrong dimension")
        x.setflags(write=False)
        self.__dict__["coords"] = x
        # before any product, which would warn and come out NaN, and the
        # cone check, where LAPACK may give such a matrix finite eigenvalues
        if not _all_finite(x):
            raise ConeError("state has a NaN or infinite coordinate")
        eig = []
        if model.state_cone.kind == "psd":
            _check_pairing(float(model.unit_effect @ x))
            ok, margin = cone_membership(model, x, "state", eig=eig)
            if eig:
                self._derived["block_eigh"] = tuple(eig)
        else:
            ok, margin = cone_membership(model, x, "state", eig=eig)
            _check_pairing(eig[0])
        if not ok:
            raise ConeError(f"state outside cone (margin {margin:.3e})")

    @classmethod
    def normalized(cls, model: ModelSpec, raw) -> "StateVec":
        raw = as_coords(raw)
        p = float(model.unit_effect @ raw)
        if p < 1e-12:
            raise NormalizationError("vector has vanishing normalization")
        return cls(raw / p, model)

    def __repr__(self):
        return f"StateVec({self.model.model_id}, {np.array2string(self.coords, precision=4)})"


def _check_pairing(p: float):
    """A state's refusal of a unit pairing off by more than 1e-7."""
    if not abs(p - 1.0) <= 1e-7:
        raise NormalizationError(f"state has unit pairing {p!r}, expected 1")


def _block_figures(x: np.ndarray, raw: np.ndarray, eig,
                   st: BlockStructure) -> tuple:
    """The figures of a matrix-model decomposition from its `block_eigh`
    (w, V), taken on the block stack, with the w in `raw`.

    Gram matrix: max |v_i^dagger v_j| over distinct eigenvectors of a
    block; those of different blocks are orthogonal by construction.  Unit
    pairing: max ||v_i|^2 - 1|, since the unit effect is the trace.
    Reconstruction: the largest |coordinate| of the embedded sum_i w_i v_i
    v_i^dagger / |v_i|^2, minus x.  A NaN makes its figure NaN.  Within
    BLOCK_TOL = DEFAULT_TOL / 2 they put the eigenstates'
    `_coordinate_figures` within DEFAULT_TOL: the rows embed v_i v_i^dagger
    / |v_i|^2, so their Gram entries off the diagonal are below (BLOCK_TOL /
    (1 - BLOCK_TOL))^2, those on it and the unit pairings are exact up to
    rounding, and the reconstruction is this one up to rounding.  It is
    taken on coordinates because on matrix entries it could be up to
    sqrt(2) times smaller.  The sum, of the stack's shape already, is
    embedded by `blocks_to_vec`'s gather without its checks, and each
    maximum is one np.maximum.reduce, the reduction ndarray.max runs, so
    the figures keep the bits of `blocks_to_vec` and `.max()`.
    """
    V = eig[1]
    N, n = V.shape[:2]
    Vh = V.conj().transpose(0, 2, 1)
    G = (Vh @ V).reshape(N, n * n)
    d = G.real[:, ::n + 1]   # a view of the diagonals, read before they are zeroed
    P = (V * (raw.reshape(N, n) / d)[:, None]) @ Vh
    recon = np.abs(_stack_coords(P, st) - x)
    pairing = np.abs(d - 1.0)
    G[:, ::n + 1] = 0.0
    top = np.maximum.reduce
    return (("Gram matrix", float(top(np.abs(G), axis=None))),
            ("unit pairing", float(top(pairing, axis=None))),
            ("reconstruction", float(top(recon, axis=None))))


def _coordinate_figures(model: ModelSpec, x: np.ndarray, raw: np.ndarray,
                        E: np.ndarray) -> tuple:
    """The same three figures on the eigenstates' coordinates, one per row
    of E: max|E E^T - I|, max|E u - 1| for the unit effect u and
    max|raw^T E - x|."""
    G = E @ E.T
    G.flat[::len(E) + 1] -= 1.0
    return (("Gram matrix", float(np.abs(G).max())),
            ("unit pairing", float(np.abs(E @ model.unit_effect - 1.0).max())),
            ("reconstruction", float(np.abs(raw @ E - x).max())))


def _certify(model: ModelSpec, figures: tuple, raw: np.ndarray,
             tol: float) -> float:
    """The one check of a decomposition: each figure at most tol, and the
    smallest raw eigenvalue at least -DEFAULT_TOL, the tolerance the state
    was accepted under.  Raises DiagonalizationError carrying the first
    failed figure as its residue; otherwise returns the largest figure."""
    for name, r in figures:
        if not r <= tol:
            raise DiagonalizationError(
                f"eigendecomposition of a {model.model_id} state fails its "
                f"{name} check (deviation {r:.3e})", residue=r)
    low = float(raw.min())
    if not low >= -DEFAULT_TOL:
        raise DiagonalizationError(
            f"eigendecomposition of a {model.model_id} state has eigenvalue "
            f"{low:.3e} below the cone tolerance", residue=-low)
    return max(r for _, r in figures)


def _certified_rows(model: ModelSpec, x: np.ndarray, raw: np.ndarray,
                    E: np.ndarray) -> np.ndarray:
    """E, made read-only, after one check of the decomposition of the state
    x into its rows: `_certify` of the `_coordinate_figures` at
    DEFAULT_TOL, with raw the eigenvalues before clipping.  Each row is then
    a unit-pairing projector orthogonal to the others, together they
    rebuild x, and each can be made a state with `_checked_state`."""
    _certify(model, _coordinate_figures(model, x, raw, E), raw, DEFAULT_TOL)
    E.setflags(write=False)
    return E


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
    """Proper effect: in the effect cone, with its complement also in it.

    The constructor refuses, in this order, complex coordinates and a wrong
    shape (ValueError) and a NaN or infinite coordinate (ConeError) on its
    one float copy, then an effect outside the effect cone and one above
    the unit (ConeError), each from one `cone_membership` check.
    """

    coords: np.ndarray
    model: ModelSpec

    def __post_init__(self):
        if np.iscomplexobj(self.coords):
            raise ValueError("effect has complex coordinates")
        f = np.array(self.coords, dtype=float)
        if f.shape != (self.model.vector_dim,):
            raise ValueError("effect has wrong dimension")
        f.setflags(write=False)
        object.__setattr__(self, "coords", f)
        if not _all_finite(f):
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


def state_norm(model: ModelSpec, x) -> float:
    """Base norm of a state-space vector.

    For matrix models this is the total absolute spectrum (sum of |eigenvalue|
    over all blocks).  For ray-cone models it is the gauge of the ball
    conv(Omega u -Omega), Omega the normalized states: the largest
    -a_i.x / b_i over the ball's facets (`ModelSpec._base_norm_facets`; past
    MAX_CONE_GENERATORS, twice the vertices, UnsupportedModelError).  A NaN
    or infinite coordinate raises ValueError.
    """
    x = _finite_coords(x)
    if model.structure is not None:
        # block sums added in block order
        return sum(np.abs(block_eigvalsh(x, model.structure)).sum(axis=1).tolist())
    F = model._base_norm_facets
    return float((-(F[:, :-1] @ x) / F[:, -1]).max())


def effect_norm(model: ModelSpec, f) -> float:
    """Observable norm: the largest absolute value over normalized states.

    For matrix models this is the largest absolute block eigenvalue.  A NaN
    or infinite coordinate raises ValueError.
    """
    f = _finite_coords(f)
    if model.structure is not None:
        return float(np.abs(block_eigvalsh(f, model.structure)).max())
    return float(np.abs(model.pure_states @ f).max())


# ---------------------------------------------------------------------------
# Channels


@dataclass(frozen=True, eq=False, init=False)
class ChannelMap:
    """Linear map between model state spaces that preserves the unit effect.

    Tags record structure the builder certifies: 'reversible', 'unital',
    'rare' (mixture of reversibles), 'measure_and_prepare'.  `witness`
    carries the certifying data.  `kraus` holds total-Hilbert-space Kraus
    operators when the map has a matrix-model presentation; they make
    tensoring exact.

    Either form may be given.  A channel given its `matrix` keeps a
    read-only copy and is applied as matrix @ coords; a Kraus form given
    with it rides along unchecked.  A channel of a matrix model to a model
    of the same block structure may be given `kraus` alone (matrix=None):
    its operators are kept as one read-only (t, H, H) stack, it is applied
    as sum_K K X K† on the total Hilbert matrix (`apply_channel`), and its
    `matrix`, `conjugation_matrix(kraus)`, is built read-only when first
    read and then kept.  Such a channel is refused (ConeError) when an
    operator sends one block into more than one (`_check_block_transport`),
    since that part is no map of block-diagonal matrices; its unit effect
    and invariant-state figures are taken on the Kraus form,
    total_to_vec(sum K† U K) - u and total_to_vec(sum K X_chi K†) - chi, the
    matrix's M^T u - u and M chi - chi.
    """

    matrix: np.ndarray  # a field, built by the cached property below
    model_in: ModelSpec
    model_out: ModelSpec
    tags: frozenset = frozenset()
    kraus: Optional[tuple] = None
    witness: Optional[dict] = None

    # the Kraus stack of a channel given by its Kraus form alone
    _stack = None

    def __init__(self, matrix: Optional[np.ndarray], model_in: ModelSpec,
                 model_out: ModelSpec, tags: frozenset = frozenset(),
                 kraus: Optional[tuple] = None, witness: Optional[dict] = None):
        self.__dict__.update(model_in=model_in, model_out=model_out,
                             tags=tags, kraus=kraus, witness=witness)
        if matrix is not None:
            self.__dict__["matrix"] = matrix
        self.__post_init__()

    # the checks stay in __post_init__, where the benchmark's tracer
    # counts the channels built
    def __post_init__(self):
        if "matrix" not in self.__dict__:
            self._check_kraus_form()
            return
        M = np.asarray(self.matrix, dtype=float)
        if M.shape != (self.model_out.vector_dim, self.model_in.vector_dim):
            raise ValueError("channel matrix has wrong shape")
        M = M.copy()
        M.setflags(write=False)
        self.__dict__["matrix"] = M
        _channel_check(
            float(np.abs(M.T @ self.model_out.unit_effect
                         - self.model_in.unit_effect).max()),
            float(np.abs(M @ self.model_in.chi - self.model_out.chi).max())
            if "unital" in self.tags else None)

    def _check_kraus_form(self):
        st = self.model_in.structure
        if self.kraus is None:
            raise ValueError("a channel needs its matrix or its Kraus operators")
        if st is None or st != self.model_out.structure:
            raise ValueError("Kraus operators alone define a channel only "
                             "between models of one block structure")
        K = np.array(self.kraus)
        if K.ndim != 3 or K.shape[1:] != (st.hilbert_dim,) * 2:
            raise ValueError("Kraus operators have wrong shape")
        _check_block_transport(K, st)
        Kh = K.conj().transpose(0, 2, 1)
        U = vec_to_total(self.model_out.unit_effect, st)
        unit = total_to_vec((Kh @ U @ K).sum(axis=0), st)[0]
        moved = None
        if "unital" in self.tags:
            X = vec_to_total(self.model_in.chi, st)
            moved = float(np.abs(total_to_vec((K @ X @ Kh).sum(axis=0), st)[0]
                                 - self.model_out.chi).max())
        _channel_check(float(np.abs(unit - self.model_in.unit_effect).max()),
                       moved)
        K.setflags(write=False)
        self.__dict__.update(kraus=tuple(K), _stack=K)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        M = conjugation_matrix(self.kraus, self.model_in.structure)
        M.setflags(write=False)
        return M

    def __call__(self, state: StateVec) -> StateVec:
        return apply_channel(self, state)

    def __repr__(self):
        t = ",".join(sorted(self.tags)) or "-"
        return (f"ChannelMap({self.model_in.model_id}->{self.model_out.model_id},"
                f" tags={t})")


def _check_block_transport(K: np.ndarray, st: BlockStructure):
    """Refuse a stack of Kraus operators (t, H, H) on the block structure
    with ConeError when one of them sends a block into more than one block:
    block j reaches block i when an entry of K[i-block, j-block] exceeds
    DEFAULT_TOL in absolute value.  Such an operator takes a block-diagonal
    matrix to one with entries across blocks, which `conjugation_matrices`
    would drop without a word."""
    N, n = st.block_count, st.n
    reached = (np.abs(K.reshape(len(K), N, n, N, n)) > DEFAULT_TOL).any(axis=(2, 4))
    if (reached.sum(axis=1) > 1).any():
        raise ConeError("a Kraus operator sends one block into more than one "
                        "block, so it is not a map of block-diagonal matrices")


def _channel_check(unit: float, moved: Optional[float] = None):
    """The constructor's refusals on a channel's figures: the unit effect
    residual max|M^T u - u| above DEFAULT_TOL, then, for a channel tagged
    unital, the invariant state residual max|M chi - chi| above 1e-8."""
    if not unit <= DEFAULT_TOL:
        raise ConeError(f"channel does not preserve the unit effect "
                        f"(residual {unit:.3e})")
    if moved is not None and not moved <= 1e-8:
        raise ConeError(f"channel tagged unital moves the invariant "
                        f"state (residual {moved:.3e})")


def _checked_channel(matrix: np.ndarray, model: ModelSpec,
                     kraus: tuple) -> ChannelMap:
    """A reversible of the model, as `make_reversible` gives it, on the
    read-only matrix, built without the constructor's copy and checks: the
    caller has already checked its figures (`_channel_check`)."""
    c = object.__new__(ChannelMap)
    c.__dict__.update(matrix=matrix, model_in=model, model_out=model,
                      tags=_REVERSIBLE_TAGS, kraus=kraus, witness=None)
    return c


def apply_channel(channel: ChannelMap, state: StateVec) -> StateVec:
    """The channel's output state; StateVec rejects an output outside the cone.

    A channel given its matrix is applied as matrix @ coords.  One given by
    its Kraus form alone is applied as one stacked sum_K K X K† on the total
    Hilbert matrix X of the state, read back with `total_to_vec`; an
    off-block residual above 1e-8 raises ConeError.  The route depends only
    on how the channel was built, not on whether its matrix has been read.
    """
    _same_model(channel.model_in, state.model)
    K = channel._stack
    if K is None:
        return StateVec(channel.matrix @ state.coords, channel.model_out)
    X = vec_to_total(state.coords, channel.model_in.structure)
    x, resid = total_to_vec((K @ X @ K.conj().transpose(0, 2, 1)).sum(axis=0),
                            channel.model_out.structure)
    if resid > 1e-8:
        raise ConeError(f"channel output violates the sector structure "
                        f"(off-block residual {resid:.3e})")
    return StateVec(x, channel.model_out)


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
    return M_block.reshape(-1)[info.to_kron].reshape(M_block.shape)


def _kron_to_coords(model: ModelSpec, M_kron: np.ndarray) -> np.ndarray:
    info = _require_composite(model)
    M_block = M_kron.reshape(-1)[info.to_block].reshape(M_kron.shape)
    x, resid = total_to_vec(M_block, model.structure)
    if resid > 1e-8:
        raise ConeError(f"matrix violates the composite sector structure "
                        f"(off-block residual {resid:.3e})")
    return x


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A ⊗ B by broadcasting: the elementwise products of the Kronecker
    product, without its dispatch."""
    H = A.shape[0] * B.shape[0]
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(H, H)


def tensor_states(comp: ModelSpec, a: StateVec, b: StateVec) -> StateVec:
    """The product state a ⊗ b of a composite's two factors: the factors'
    total matrices multiplied by broadcasting (`_kron`), gathered into
    block order and checked as a state of the composite."""
    info = _require_composite(comp)
    mA, mB = info.factors
    _same_model(mA, a.model)
    _same_model(mB, b.model)
    MA = vec_to_total(a.coords, mA.structure)
    MB = vec_to_total(b.coords, mB.structure)
    return StateVec(_kron_to_coords(comp, _kron(MA, MB)), comp)


def marginal(comp_state: StateVec, which: int) -> StateVec:
    """Reduced state of factor 0 or 1 of a composite model's state: the
    state's total matrix gathered into kron order (`_block_to_kron`) and
    traced over the other factor."""
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
    x, resid = total_to_vec(R, target.structure)
    if resid > 1e-7:
        raise ConeError(f"marginal violates the factor sector structure "
                        f"(residual {resid:.3e})")
    return StateVec(x, target)


def _lifted_kraus(comp: ModelSpec, kraus_A, kraus_B) -> list:
    """KA ⊗ KB for every pair, KA outer, each formed by broadcasting
    (`_kron`) and gathered into the composite's block order."""
    to_block = _require_composite(comp).to_block
    out = []
    for KA in kraus_A:
        for KB in kraus_B:
            K = _kron(np.asarray(KA), np.asarray(KB))
            out.append(K.reshape(-1)[to_block].reshape(K.shape))
    return out


def tensor_channels(comp_in: ModelSpec, comp_out: ModelSpec,
                    chan_A: ChannelMap, chan_B: ChannelMap) -> ChannelMap:
    """Product channel acting factor-wise on composite models.

    Both composites must be built from the channels' endpoint models; the
    factors must carry Kraus presentations.  Up to KRAUS_CAP lifted
    operators, the product is given by them alone (so it is applied
    through them and its matrix is built only if read); past it, by its
    dense matrix with no Kraus form.  Either way a lifted operator that
    sends one block of the composite into more than one is refused
    (ConeError, `_check_block_transport`).  Only the Kraus forms are lifted,
    so a factor given its matrix as well is refused (ConeError) when
    `conjugation_matrix` of its Kraus form differs from that matrix by more
    than DEFAULT_TOL in some entry; a factor given its Kraus form alone has
    no second form to disagree with.
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
    for chan in (chan_A, chan_B):
        if chan._stack is None:
            gap = float(np.abs(conjugation_matrix(
                chan.kraus, chan.model_in.structure) - chan.matrix).max())
            if not gap <= DEFAULT_TOL:
                raise ConeError(f"a factor's Kraus operators and matrix "
                                f"disagree (by {gap:.3e}), so its lift "
                                f"would not be the channel")
    kraus = _lifted_kraus(comp_in, chan_A.kraus, chan_B.kraus)
    tags = _SHARED_TAGS & chan_A.tags & chan_B.tags
    if len(kraus) <= KRAUS_CAP:
        return ChannelMap(None, comp_in, comp_out, tags, kraus=kraus)
    _check_block_transport(np.array(kraus), comp_in.structure)
    return ChannelMap(conjugation_matrix(kraus, comp_in.structure), comp_in,
                      comp_out, tags)


def lift_channel(comp: ModelSpec, chan: ChannelMap, which: int) -> ChannelMap:
    """Act with a single-factor channel on one leg of a composite."""
    info = _require_composite(comp)
    other = info.factors[1 - which]
    ident = ChannelMap(None, other, other, _REVERSIBLE_TAGS,
                       kraus=[np.eye(other.structure.hilbert_dim)])
    if which == 0:
        return tensor_channels(comp, comp, chan, ident)
    return tensor_channels(comp, comp, ident, chan)
