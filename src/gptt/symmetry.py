"""Group-action utilities: invariant states, transitivity, twirling.

Finite reversible groups are handled exhaustively through their closure.
On the matrix families three exact reversibles fix the same states as the
whole group (`_group_probe_matrices`), so no random probe is drawn; two act
alike on every block and the third permutes the blocks, so their fixed
space is found on one block and the span of the sectors.
"""

from __future__ import annotations

import numpy as np

from .core import (
    GPTError,
    ModelSpec,
    StateVec,
    tensor_states,
)
from .embedding import BlockStructure, conjugation_matrix
from . import zoo


def _group_probe_matrices(model: ModelSpec):
    """Reversibles whose common fixed points are the group's.  A polytope
    gives its whole group table.  A matrix model gives two matrices on one
    block's coordinates: those of diag(-1, 1, ..., 1) and of the cyclic
    shift.  Acting on every block at once, they and the cyclic shift of the
    sectors, valid since blocks are equal, are three
    `zoo.block_reversible`s.  A block commuting with the first two is
    block-diagonal on {0} and the rest, and circulant, so a multiple of the
    identity; the third makes the multiples equal, so the fixed points are
    the multiples of the unit effect's coordinates, as under the whole
    group."""
    st = model.structure
    if st is None:
        return model.group.table[1]
    n = st.n
    one = BlockStructure((n,), st.field)
    return [conjugation_matrix([K], one) for K in (
        np.diag([-1.0] + [1.0] * (n - 1)), np.roll(np.eye(n), 1, axis=0))]


def _fixed_rows(mats) -> np.ndarray:
    """Orthonormal rows spanning the common fixed space of the square
    matrices: the right singular vectors of the stacked M - I whose singular
    values are at most 1e-9.  The stack has at least as many rows as
    columns, so every direction gets a singular value."""
    D = len(mats[0])
    _, s, Vt = np.linalg.svd(np.vstack([M - np.eye(D) for M in mats]),
                             full_matrices=False)
    return Vt[s <= 1e-9]


def _matrix_fixed_rows(st, mats) -> np.ndarray:
    """The fixed space of a matrix model's three probes, from the two
    block matrices `mats` of `_group_probe_matrices`, without a D x D
    matrix.  They act alike on every block, so a vector is fixed by both
    exactly when each of its blocks lies in their common fixed space on one
    block, B (r rows).  Those vectors are the span of Q, whose N r rows put
    a row of B into one block.  The sector shift moves block b to block
    b + 1 (mod N), a roll of the blocks that permutes the rows of Q, so on
    that span it is the N r x N r matrix R = (shifted Q) Q^T, and its fixed
    rows W give the fixed vectors W Q.  They are refused (GPTError) when
    one of the three probes moves them by more than 1e-9 in a coordinate.
    """
    N, d = st.block_count, st.block_coord_dim
    B = _fixed_rows(mats)
    r = len(B)
    Q = np.zeros((N, r, N, d))
    Q[np.arange(N), :, np.arange(N)] = B
    Q = Q.reshape(N * r, N * d)
    rolled = np.roll(Q.reshape(N * r, N, d), 1, axis=1).reshape(N * r, N * d)
    basis = _fixed_rows([rolled @ Q.T]) @ Q
    Z = basis.reshape(-1, N, d)
    resid = max([np.abs(Z @ M.T - Z).max(initial=0.0) for M in mats]
                + [np.abs(np.roll(Z, 1, axis=1) - Z).max(initial=0.0)])
    if not resid <= 1e-9:
        raise GPTError(f"fixed points of the block probes are moved by "
                       f"{resid:.3e}")
    return basis


def invariant_state(model: ModelSpec) -> dict:
    """Fixed points of the reversible group, normalized to states.

    Returns the unique invariant state when the fixed-point space meets the
    normalization plane in a single point, otherwise the basis of the
    invariant family and a non-uniqueness flag.  A polytope's fixed space
    is found over its group table (`_fixed_rows`), a matrix model's on one
    block and then on the span of the sectors (`_matrix_fixed_rows`), so
    the cost grows with a block's coordinates, not with D.
    """
    mats = _group_probe_matrices(model)
    if model.structure is None:
        basis = _fixed_rows(mats)
    else:
        basis = _matrix_fixed_rows(model.structure, mats)
    dim = basis.shape[0]
    if dim == 0:
        raise GPTError("group action has no fixed direction")
    if dim == 1:
        v = basis[0]
        scale = float(model.unit_effect @ v)
        if abs(scale) < 1e-12:
            raise GPTError("fixed direction is not normalizable")
        state = StateVec(v / scale, model)
        return {"unique": True, "state": state, "dimension": 1,
                "matches_reference": bool(
                    np.abs(state.coords - model.chi).max() <= 1e-9)}
    return {"unique": False, "dimension": int(dim), "basis": basis,
            "state": model.invariant_state}


def is_transitive(model: ModelSpec) -> bool:
    """Whether the reversible group carries every pure state to every other:
    on a polytope, whether the orbit of vertex 0 is every vertex."""
    if model.structure is not None:
        # block rotations act transitively inside a sector, and sector
        # permutations connect any two sectors, all of one size
        # (`embedding.BlockStructure` refuses unequal blocks)
        return True
    perms, _ = model.group.table
    return len(set(perms[:, 0].tolist())) == len(model.pure_states)


def twirl(state: StateVec) -> StateVec:
    """Group-average of a state.

    Exact over a polytope's group table: one stacked product of its
    matrices with the state, added up element by element in table order
    from 0.0 and divided by the group's order.  On the matrix families the
    average lands on the invariant state, unique there (`invariant_state`).
    """
    model = state.model
    if model.structure is None:
        _, mats = model.group.table
        return StateVec(np.add.reduce(mats @ state.coords, axis=0, initial=0.0)
                        / len(mats), model)
    return invariant_state(model)["state"]


def informational_equilibrium_check(model_a: ModelSpec,
                                    model_b: ModelSpec) -> dict:
    """Whether the product of invariant states is the composite's invariant
    state, within 1e-8 in every coordinate."""
    comp = zoo.compose_systems(model_a, model_b)
    prod = tensor_states(comp, model_a.invariant_state,
                         model_b.invariant_state)
    resid = float(np.abs(prod.coords - comp.chi).max())
    return {"holds": resid <= 1e-8, "residual": resid, "composite": comp}


def perfectly_distinguishable_search(model: ModelSpec, states) -> dict:
    """Measurement telling the given states apart with certainty, if any.

    The matrix families reduce to support orthogonality.  On the ray models
    vertices are looked up among the build's maximal distinguishable sets,
    more states than `capacity` are refused outright, and other states get
    a decision whose "no" is a checked Farkas vector (see
    `zoo.distinguishing_effects`).  So a miss is a certificate of
    impossibility, not a search failure.
    """
    effects = zoo.distinguishing_effects(model, list(states))
    if effects is None:
        return {"found": False, "effects": None, "certified_none": True}
    return {"found": True, "effects": effects, "certified_none": False}
