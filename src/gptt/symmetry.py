"""Group-action utilities: invariant states, transitivity, twirling.

Finite reversible groups are handled exhaustively through their closure.
On the matrix families three exact reversibles fix the same states as the
whole group (`_group_probe_matrices`), so no random probe is drawn.
"""

from __future__ import annotations

import numpy as np

from .core import (
    GPTError,
    ModelSpec,
    StateVec,
    tensor_states,
)
from . import zoo


def _group_probe_matrices(model: ModelSpec):
    """Reversibles whose common fixed points are the group's.  A polytope
    gives its whole group table.  A matrix model gives three
    `zoo.block_reversible`s: diag(-1, 1, ..., 1) on every block, the cyclic
    shift on every block, and the cyclic shift of the sectors, valid since
    blocks are equal.  A block commuting with the first two is block-
    diagonal on {0} and the rest, and circulant, so a multiple of the
    identity; the third makes the multiples equal, so the fixed points are
    the multiples of the unit effect's coordinates, as under the whole
    group."""
    st = model.structure
    if st is None:
        return model.group.table[1]
    N, n = st.block_count, st.n
    flip, cycle, eye = (np.broadcast_to(B, (N, n, n)) for B in (
        np.diag([-1.0] + [1.0] * (n - 1)), np.roll(np.eye(n), 1, axis=0),
        np.eye(n)))
    return [zoo.block_reversible(model, flip).matrix,
            zoo.block_reversible(model, cycle).matrix,
            zoo.block_reversible(model, eye, (np.arange(N) + 1) % N).matrix]


def invariant_state(model: ModelSpec) -> dict:
    """Fixed points of the reversible group, normalized to states.

    Returns the unique invariant state when the fixed-point space meets the
    normalization plane in a single point, otherwise the basis of the
    invariant family and a non-uniqueness flag.
    """
    mats = _group_probe_matrices(model)
    D = model.vector_dim
    stack = np.vstack([M - np.eye(D) for M in mats])
    _, s, Vt = np.linalg.svd(stack, full_matrices=False)
    # the stack always has at least D rows, so s has exactly D entries
    basis = Vt[s <= 1e-9]
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

    Exact over a polytope's group table; on the matrix families the
    average lands on the invariant state, unique there (`invariant_state`).
    """
    model = state.model
    if model.structure is None:
        _, mats = model.group.table
        avg = sum(M @ state.coords for M in mats) / len(mats)
        return StateVec(avg, model)
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
