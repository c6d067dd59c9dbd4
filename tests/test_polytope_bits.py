"""The polytope request path in its array form gives the bits of the loops
it replaced (`tests/oracles.py`): the twirl over the stacked group table,
the stored-set lookup that skips the rounded key for one held set, and the
vertex route of `distinguishing_effects` through the membership matrix.
Inputs are vertices, points on distinguishable sets, interior points and
points held by two sets, on the builtin polytopes and on regular 5-, 8-
and 26-gons.  Vertex lookups kept on the model return the same checked
effects, built once per model and key, and never those of another
model."""

import json
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from gptt import core, spectral, symmetry, zoo
from gptt.core import (ConeError, DiagonalizationError, NormalizationError,
                       StateVec)
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


@pytest.mark.parametrize("name", MODELS)
def test_too_many_inputs(name):
    """More inputs than `capacity` get None; when every input is a
    StateVec, vertices and interior points alike, that answer comes first,
    and a raw vector that is no state still raises among too many."""
    m = _model(name)
    V = m.pure_states
    chi = m.invariant_state
    vertices = [StateVec(V[i % len(V)], m) for i in range(m.capacity + 1)]
    assert zoo.distinguishing_effects(m, vertices) is None
    assert zoo.distinguishing_effects(m, [chi] * (m.capacity + 1)) is None
    assert zoo.distinguishing_effects(m, [*vertices[1:], V[0]]) is None
    with pytest.raises(ConeError):
        zoo.distinguishing_effects(m, [*vertices, 2 * V[0] - chi.coords])
    with pytest.raises(NormalizationError):
        zoo.distinguishing_effects(m, [*vertices, 2 * V[0]])


KEPT = ("square_bit", "diamond_bit", "restricted_trit", "3-gon", "5-gon")


def _fresh(name):
    """A model built anew, with nothing kept on it yet."""
    if name in zoo.FAMILIES:
        return zoo.build_model(name)
    return zoo.model_from_json(kgon_json(int(name.split("-")[0])))


def _vertex_tuples(m):
    """Every ordered tuple of up to `capacity` distinct vertex indices."""
    n = len(m.pure_states)
    for size in range(1, m.capacity + 1):
        for c in combinations(range(n), size):
            yield from (c, c[::-1]) if size > 1 else (c,)


@pytest.fixture
def built(monkeypatch):
    """The coordinates of every EffectVec constructed, in order."""
    out = []
    post_init = core.EffectVec.__post_init__

    def counted(self):
        out.append(self.coords)
        post_init(self)

    monkeypatch.setattr(core.EffectVec, "__post_init__", counted)
    return out


@pytest.mark.parametrize("name", KEPT)
def test_kept_lookup_returns_the_same_effects(name, built):
    """A second lookup of the same vertices, as StateVecs or raw vectors,
    returns a new list of the first answer's objects with the scan's bits,
    and constructs no effect; the first lookup constructs one per input.
    The 3-gon's pairs fold the third vertex's effect into the first."""
    m = _fresh(name)
    V = m.pure_states
    for idx in _vertex_tuples(m):
        n_built = len(built)
        first = zoo.distinguishing_effects(m, [V[i] for i in idx])
        assert len(built) - n_built == (0 if first is None else len(idx))
        states = [StateVec(V[i], m) for i in idx]
        n_built = len(built)
        again = zoo.distinguishing_effects(m, states)
        assert len(built) == n_built
        want = oracles.distinguishing_effects_scan(m, [V[i] for i in idx])
        assert (first is None) == (want is None) == (again is None)
        if first is None:
            continue
        assert again is not first
        assert all(a is b for a, b in zip(again, first))
        assert ([e.coords.tobytes() for e in again]
                == [e.coords.tobytes() for e in want])
        assert all(e.model is m and not e.coords.flags.writeable
                   for e in again)
    assert set(m._vertex_effects) == set(_vertex_tuples(m))


def test_returned_list_is_the_callers():
    """Changing a returned list leaves the next answer as it was."""
    m = _fresh("3-gon")
    V = m.pure_states
    got = zoo.distinguishing_effects(m, [V[2], V[0]])
    want = list(got)
    got[0] = None
    got.append(got[1])
    del got[1]
    again = zoo.distinguishing_effects(m, [V[2], V[0]])
    assert len(again) == 2 and all(a is b for a, b in zip(again, want))
    E = m.maximal_sets[0][1]
    assert again[0].coords.tobytes() == (E[2] + E[1]).tobytes()


def test_kept_none_stays_none(built):
    """A pair that no stored set holds is kept as None and answered None
    again, with no effect constructed; refusals before the lookup (a
    repeated vertex, more inputs than `capacity`) keep nothing."""
    m = _fresh("5-gon")
    V = m.pure_states
    assert (0, 1) not in [c for c, _ in m.maximal_sets]
    for _ in range(2):
        assert zoo.distinguishing_effects(m, [V[0], V[1]]) is None
        assert zoo.distinguishing_effects(m, [V[1], V[0]]) is None
    assert m._vertex_effects == {(0, 1): None, (1, 0): None}
    assert zoo.distinguishing_effects(m, [V[0], V[0]]) is None
    assert zoo.distinguishing_effects(m, [V[0], V[2], V[4]]) is None
    assert zoo.distinguishing_effects(m, [m.invariant_state, V[0]]) is None
    assert list(m._vertex_effects) == [(0, 1), (1, 0)] and built == []


def test_models_never_share_kept_effects(tmp_path, built):
    """Two loads of one model file are two models: each builds and keeps
    its own effects.  A key kept on one model answers nothing on another,
    even one with the same vertex indices."""
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(kgon_json(3)))
    a, b = zoo.load_model(str(path)), zoo.load_model(str(path))
    assert a.model_id == b.model_id and a is not b
    got_a = zoo.distinguishing_effects(a, [a.pure_states[0], a.pure_states[1]])
    got_b = zoo.distinguishing_effects(b, [StateVec(a.pure_states[0], a),
                                           b.pure_states[1]])
    assert len(built) == 4
    assert all(e.model is a for e in got_a) and all(e.model is b for e in got_b)
    assert not any(x is y for x, y in zip(got_a, got_b))
    assert [e.coords.tobytes() for e in got_a] == [e.coords.tobytes()
                                                   for e in got_b]
    assert a._vertex_effects is not b._vertex_effects
    square, diamond = _fresh("square_bit"), _fresh("diamond_bit")
    for m in (square, diamond):
        got = zoo.distinguishing_effects(m, list(m.pure_states[[0, 1]]))
        want = oracles.distinguishing_effects_scan(m, m.pure_states[[0, 1]])
        assert all(e.model is m for e in got)
        assert ([e.coords.tobytes() for e in got]
                == [e.coords.tobytes() for e in want])
    assert (square._vertex_effects[(0, 1)][0].coords.tobytes()
            != diamond._vertex_effects[(0, 1)][0].coords.tobytes())


def test_matrix_models_keep_nothing():
    q = zoo.build_model("quantum", n=2)
    a, b = q.invariant_state, zoo.pure_maximal_set(q)[0]
    assert zoo.distinguishing_effects(q, [b]) is not None
    assert zoo.distinguishing_effects(q, [a, b]) is None
    assert "_vertex_effects" not in q.__dict__
