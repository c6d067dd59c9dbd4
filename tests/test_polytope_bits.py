"""The polytope request path in its array form gives the bits of the loops
it replaced (`tests/oracles.py`): the twirl over the stacked group table,
the stored-set lookup that skips the rounded key for one held set, and the
vertex route of `distinguishing_effects` through the membership matrix.
Inputs are vertices, points on distinguishable sets, interior points and
points held by two sets, on the builtin polytopes and on regular 5-, 8-
and 26-gons."""

from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from gptt import spectral, symmetry, zoo
from gptt.core import DiagonalizationError, StateVec
from test_facets import kgon_json

MODELS = ("square_bit", "diamond_bit", "restricted_trit", "5-gon", "8-gon",
          "26-gon")


@lru_cache(maxsize=None)
def _model(name):
    if name in zoo.FAMILIES:
        return zoo.build_model(name)
    return zoo.model_from_json(kgon_json(int(name.split("-")[0])))


@lru_cache(maxsize=None)
def _crossings(name):
    """(a, b, c, d, p): the point p v_a + (1 - p) v_b also lies on the
    segment from v_c to v_d, both weights in [0.01, 0.99], for two
    distinct two-vertex sets."""
    m = _model(name)
    V = m.pure_states
    pairs = [c for c, _ in m.maximal_sets if len(c) == 2]
    out = []
    for (a, b), (c, d) in combinations(pairs, 2):
        if len({a, b, c, d}) < 4:
            continue
        A = np.column_stack([V[a] - V[b], V[d] - V[c]])
        (p, q), *_ = np.linalg.lstsq(A, V[d] - V[b], rcond=None)
        if (np.abs(A @ [p, q] - (V[d] - V[b])).max() <= 1e-12
                and 0.01 <= p <= 0.99 and 0.01 <= q <= 0.99):
            out.append((a, b, c, d, float(p)))
    return out


@st.composite
def _points(draw):
    name = draw(st.sampled_from(MODELS))
    m = _model(name)
    V, sets = m.pure_states, [c for c, _ in m.maximal_sets]
    kind = draw(st.sampled_from(("vertex", "set", "interior", "crossing")))
    if kind == "crossing" and _crossings(name):
        a, b, _, _, p = draw(st.sampled_from(_crossings(name)))
        return m, p * V[a] + (1 - p) * V[b]
    if kind == "interior":
        w = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=len(V),
                                     max_size=len(V))))
        return m, (w / w.sum()) @ V
    if kind == "set":
        c = draw(st.sampled_from(sets))
        w = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=len(c),
                                     max_size=len(c))))
        return m, (w / w.sum()) @ V[list(c)]
    return m, V[draw(st.integers(0, len(V) - 1))].copy()


def _same_outcome(f, g):
    """Both raise the same DiagonalizationError, or return the same bits."""
    try:
        want = g()
    except DiagonalizationError as exc:
        with pytest.raises(DiagonalizationError) as got:
            f()
        assert str(got.value) == str(exc)
        assert got.value.residue == exc.residue
        return exc
    got = f()
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    return None


@settings(max_examples=300, deadline=None)
@given(_points(), st.data())
def test_request_path_matches_the_loops(point, data):
    model, x = point
    s = StateVec(x, model)
    x = s.coords
    refusal = _same_outcome(
        lambda: spectral._stored_set_decomposition(model, x),
        lambda: oracles.stored_set_decomposition_scan(model, x))
    # a refused point is at least 1e-8 from every set that could hold it
    assume(refusal is None or refusal.residue > 1e-8)
    assert (symmetry.twirl(s).coords.tobytes()
            == oracles.twirl_sum(s).coords.tobytes())
    V = model.pure_states
    idx = data.draw(st.lists(st.integers(0, len(V) - 1), min_size=1,
                             max_size=model.capacity + 1))
    states = [StateVec(V[i], model) if data.draw(st.booleans()) else V[i]
              for i in idx]
    if data.draw(st.booleans()):
        states.insert(data.draw(st.integers(0, len(states))), s)
    got = zoo.distinguishing_effects(model, states)
    want = oracles.distinguishing_effects_scan(model, states)
    assert (got is None) == (want is None)
    if got is not None:
        assert ([e.coords.tobytes() for e in got]
                == [e.coords.tobytes() for e in want])


@pytest.mark.parametrize("name", MODELS)
def test_every_vertex_set_matches_the_scan(name):
    """Every set of up to capacity + 1 distinct vertices, in increasing
    and in decreasing order, is answered with the bits of the scan over
    `maximal_sets`."""
    m = _model(name)
    n = len(m.pure_states)
    for size in range(1, m.capacity + 2):
        for idx in combinations(range(n), size):
            for order in (idx, idx[::-1]):
                states = [m.pure_states[i] for i in order]
                got = zoo.distinguishing_effects(m, states)
                want = oracles.distinguishing_effects_scan(m, states)
                assert (got is None) == (want is None)
                if got is not None:
                    assert ([e.coords.tobytes() for e in got]
                            == [e.coords.tobytes() for e in want])


def test_membership_matrix_is_kept_and_read_only():
    m = _model("8-gon")
    M = m._set_members
    assert M is m._set_members and not M.flags.writeable
    assert M.shape == (len(m.maximal_sets), len(m.pure_states))
    assert [tuple(np.flatnonzero(row)) for row in M] == [
        c for c, _ in m.maximal_sets]


def test_two_held_sets_reach_the_key():
    """The square's center is held by both diagonals with one spectrum;
    the lookup still compares the two decompositions."""
    m = _model("square_bit")
    x = m.chi.copy()
    values, rows = spectral._stored_set_decomposition(m, x)
    want = oracles.stored_set_decomposition_scan(m, x)
    assert values.tobytes() == want[0].tobytes()
    assert rows.tobytes() == want[1].tobytes()
