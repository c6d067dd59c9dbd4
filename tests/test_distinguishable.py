"""Distinguishable vertex sets of polytope models: the sets stored at build
against an independent LP, no LP after build, distinguishing measurements
looked up among the maximal sets, diagonalization as a lookup
of the state among the stored sets (checked against hull-membership and
distinguishability LPs), its refusals, and model files with a non-positive
unit pairing."""

import json
from itertools import combinations

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import oracles
from gptt import core, resource, spectral, symmetry, zoo
from gptt.cli import main
from gptt.core import (DiagonalizationError, GPTError,
                       ModelCompatibilityError, StateVec)
from test_facets import MODELS, _model, failed_lp, kgon_json


def _distinguishable(m, c):
    V = m.state_cone.generators
    val = oracles.best_guess_lp(m.effect_cone.generators, m.unit_effect,
                                (V / (V @ m.unit_effect)[:, None])[list(c)])
    return val >= len(c) - 1e-7


@pytest.mark.parametrize("name", MODELS)
def test_stored_sets_match_reference(name):
    m = _model(name)
    V = m.state_cone.generators
    assert np.array_equal(m.pure_states, V / (V @ m.unit_effect)[:, None])
    assert not m.pure_states.flags.writeable
    n = len(V)
    cap = m.capacity
    ref = tuple(c for c in combinations(range(n), cap)
                if _distinguishable(m, c))
    assert m.distinguishable_sets == ref
    assert all(len(c) == cap for c in ref)
    assert not any(_distinguishable(m, c)
                   for c in combinations(range(n), cap + 1))


@pytest.mark.parametrize("name,lps", [
    ("3-gon", 1),            # all vertices at once
    ("restricted_trit", 4),  # all, then 3 pairs
    ("square_bit", 11),      # all, 6 pairs, 4 triples
    ("8-gon", 29),           # all, 28 pairs; no triple has only passing pairs
])
def test_search_lp_count(name, lps, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return core.linprog(*args, **kwargs)

    monkeypatch.setattr(zoo, "linprog", counted)
    m = _model(name)
    zoo._maximal_sets(m.pure_states, m.effect_cone.generators, m.unit_effect)
    assert len(calls) == lps


@pytest.mark.parametrize("name", [n for n in MODELS if _model(n).capacity > 1])
def test_completion_is_first_in_lexicographic_scan(name):
    # reference: scan the vertices in lexicographic order and keep each one
    # that stays distinguishable from those kept
    m = _model(name)
    V = m.state_cone.generators
    order = sorted(range(len(V)), key=lambda j: tuple(np.round(V[j], 10)))
    for start in range(len(V)):
        kept = [start]
        for j in order:
            if j not in kept and _distinguishable(m, kept + [j]):
                kept.append(j)
        d = spectral.diagonalize(StateVec(V[start], m))
        got = sorted(int(np.flatnonzero((V == s.coords).all(axis=1))[0])
                     for s in d.eigenstates)
        assert got == sorted(kept)


@pytest.mark.parametrize("name", [n for n in MODELS if _model(n).capacity > 1])
def test_no_lp_after_build(name, monkeypatch):
    m = _model(name)

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(core, "linprog", no_lp)
    monkeypatch.setattr(zoo, "linprog", no_lp)
    basis = zoo.pure_maximal_set(m)
    assert [list(b.coords) for b in basis] == [
        list(m.pure_states[i]) for i in m.distinguishable_sets[0]]
    resource.check_unrestricted_reversibility(m)
    for v in m.pure_states:  # one peel, then completion to a stored set
        d = spectral.diagonalize(StateVec(v, m))
        assert len(d.eigenstates) == m.capacity
        idx = [int(np.flatnonzero((m.pure_states == s.coords).all(axis=1))[0])
               for s in d.eigenstates]
        assert tuple(sorted(idx)) in m.distinguishable_sets


HOUSE = {  # a square with a roof vertex that lies in no distinguishable pair
    "kind": "polytope", "vector_dim": 3, "unit_effect": [0, 0, 1],
    "state_vertices": [[1, 1, 1], [1, -1, 1], [-1, 1, 1], [-1, -1, 1],
                       [0, 2, 1]],
    "effect_generators": [[1, 0, 1], [-1, 0, 1], [0, -0.5, 1], [0, 0.5, 1]],
    "group_generators": [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]]],
}


def _lookup_model(name):
    return zoo.model_from_json(HOUSE) if name == "house" else _model(name)


@pytest.mark.parametrize("name", MODELS + ("house",))
def test_lookup_matches_lp_on_every_vertex_subset(name, monkeypatch):
    m = _lookup_model(name)
    P = m.pure_states
    subsets = [c for r in range(1, len(P) + 1)
               for c in combinations(range(len(P)), r)]
    verdicts = {c: _distinguishable(m, c) for c in subsets}

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(core, "linprog", no_lp)
    monkeypatch.setattr(zoo, "linprog", no_lp)
    rng = np.random.default_rng(len(P))
    for c, ok in verdicts.items():
        for order in (list(c), list(rng.permutation(c))):
            effects = zoo.distinguishing_effects(m, [StateVec(P[i], m)
                                                     for i in order])
            assert (effects is not None) == ok, (c, order)
            if ok:
                E = np.asarray([e.coords for e in effects])
                assert np.abs(E.sum(axis=0) - m.unit_effect).max() <= 1e-9
                assert np.abs(E @ P[order].T - np.eye(len(c))).max() <= 1e-9
        if len(c) > 1:  # a repeated vertex is never told apart
            assert zoo.distinguishing_effects(m, P[[c[0], *c]]) is None
    chi = m.invariant_state
    assert zoo.distinguishing_effects(m, [chi] * (m.capacity + 1)) is None


def test_house_vertex_alone_is_a_maximal_set():
    m = zoo.model_from_json(HOUSE)
    assert m.capacity == 2
    assert ((4,), ) == tuple(c for c, _ in m.maximal_sets if 4 in c)
    assert not any(4 in c for c in m.distinguishable_sets)
    effects = zoo.distinguishing_effects(m, [m.pure_states[4]])
    assert np.abs(effects[0].coords - m.unit_effect).max() <= 1e-12
    assert symmetry.perfectly_distinguishable_search(
        m, [StateVec(m.pure_states[4], m), StateVec(m.pure_states[0], m)]
    )["certified_none"]


def test_states_of_another_model_refused():
    sq, dm = _model("square_bit"), _model("diamond_bit")
    for n in (2, 3):  # the LP and the capacity routes
        with pytest.raises(ModelCompatibilityError):
            zoo.distinguishing_effects(
                sq, [StateVec(p, dm) for p in dm.pure_states[:n]])


def test_failed_distinguishability_lp_is_not_a_verdict(monkeypatch):
    # two mixed states that are not vertices take the LP
    m = _model("square_bit")
    P = m.pure_states
    xs = [0.9 * P[0] + 0.1 * P[1], 0.9 * P[1] + 0.1 * P[0]]
    assert zoo.distinguishing_effects(m, xs) is None  # infeasible: status 2
    monkeypatch.setattr(zoo, "linprog", failed_lp)
    with pytest.raises(GPTError, match="numerical difficulties"):
        zoo.distinguishing_effects(m, xs)


def _pentagon_mixture():
    m = _model("5-gon")
    v = m.state_cone.generators  # each vertex already has unit pairing
    return m, 0.7 * v[0] + 0.3 * v[1]


def test_peel_refuses_pieces_not_distinguishable():
    m, x = _pentagon_mixture()
    assert not _distinguishable(m, (0, 1))
    with pytest.raises(DiagonalizationError, match="distinguishable"):
        spectral.diagonalize(StateVec(x, m))
    # a distinguishable pair still decomposes
    y = 0.7 * m.state_cone.generators[0] + 0.3 * m.state_cone.generators[2]
    d = spectral.diagonalize(StateVec(y, m))
    assert np.abs(d.eigenvalues - [0.7, 0.3]).max() < 1e-12


def _cli(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def _diag_file(tmp_path, k, state):
    path = tmp_path / f"{k}-gon.json"
    path.write_text(json.dumps(kgon_json(k)))
    return _cli("diag", str(path), "--state", state, "--json")


def test_pentagon_diagonal_mixture_decomposes(tmp_path):
    # 0.6 v0 + 0.4 v2: the vertex with the largest removable weight is v1,
    # which lies in no distinguishable set with the rest of the state
    m = _model("5-gon")
    assert _distinguishable(m, (0, 2))
    res = _diag_file(tmp_path, 5, "[0.27639320225, 0.235114100917, 1.0]")
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert np.abs(np.asarray(rep["results"]["eigenvalues"])
                  - [0.6, 0.4]).max() < 1e-10
    got = np.asarray(rep["results"]["eigenstates"])
    assert np.abs(got - m.pure_states[[0, 2]]).max() < 1e-11


def test_hexagon_two_spectra_refused(tmp_path):
    # 0.75 v1 + 0.25 v4 = 0.5 v0 + 0.5 v2: two stored hulls cross at the
    # state and give it different spectra, so neither is reported
    m = _model("6-gon")
    P = m.pure_states
    x = 0.75 * P[1] + 0.25 * P[4]
    assert np.abs(x - (0.5 * P[0] + 0.5 * P[2])).max() < 1e-15
    res = _diag_file(tmp_path, 6, json.dumps(x.tolist()))
    assert res.exit_code == 3, res.output
    rep = json.loads(res.output)
    assert "[0.75, 0.25]" in rep["error"] and "[0.5, 0.5]" in rep["error"]
    assert abs(rep["results"]["residue"] - 0.25) < 1e-12
    assert rep["results"].keys() == {"residue"}


def test_triangle_state_near_an_edge_decomposes(tmp_path):
    # its smallest weight is 8e-9: removing the largest vertex weight first
    # leaves a remainder 1.7e-8 outside the cone
    res = _diag_file(tmp_path, 3,
                     "[-0.456844439107496, 0.8411095148532495, "
                     "1.0000000000000002]")
    assert res.exit_code == 0, res.output
    rep = json.loads(res.output)
    assert len(rep["results"]["eigenvalues"]) == 3
    assert rep["checks"][0]["pass"]


def _index(m, s):
    return int(np.flatnonzero((m.pure_states == s.coords).all(axis=1))[0])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(MODELS), st.integers(0, 2**16), st.booleans(),
       st.lists(st.floats(0, 1), min_size=8, max_size=8))
def test_lookup_matches_hull_lps(name, which, on_hull, weights):
    """A point drawn on a stored hull decomposes into a stored set that the
    reference LP tells apart, unless two held sets give it two spectra;
    a point drawn anywhere that is refused lies in no stored hull."""
    m = _model(name)
    P = m.pure_states
    sets = m.distinguishable_sets
    idx = list(sets[which % len(sets)]) if on_hull else range(len(P))
    w = np.asarray(weights[:len(idx)]) + 1e-3
    x = (w / w.sum()) @ P[list(idx)]
    try:
        d = spectral.diagonalize(StateVec(x, m))
    except DiagonalizationError as exc:
        held = [c for c in sets if oracles.in_hull_lp(P[list(c)], x, 2e-9)]
        if "two spectra" in str(exc):
            assert len(held) >= 2
        else:
            assert not on_hull
            assert not any(oracles.in_hull_lp(P[list(c)], x, 1e-10)
                           for c in sets)
        return
    got = tuple(sorted(_index(m, s) for s in d.eigenstates))
    assert got in sets
    assert _distinguishable(m, got)
    assert oracles.in_hull_lp(P[list(got)], x, 2e-9)
    assert np.abs(d.reconstruct() - x).max() <= 1e-9


def test_cli_refuses_peel_pieces_not_distinguishable(tmp_path):
    m, x = _pentagon_mixture()
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(kgon_json(5)))
    state = json.dumps(x.tolist())
    for command in ("diag", "entropy"):
        res = _cli(command, str(path), "--state", state, "--json")
        assert res.exit_code == 3, res.output
        assert "distinguishable" in json.loads(res.output)["error"]


def _square_with_vertex(v):
    return {"kind": "polytope", "vector_dim": 3, "unit_effect": [0, 0, 1],
            "state_vertices": [[1, 1, 1], [1, -1, 1], [-1, 1, 1], v],
            "effect_generators": [[1, 0, 1], [-1, 0, 1], [0, 1, 1],
                                  [0, -1, 1]],
            "group_generators": []}


@pytest.mark.parametrize("vertex", [[0, 1, 0], [0, 2, -1]],
                         ids=["zero_pairing", "negative_pairing"])
def test_non_positive_unit_pairing_refused(tmp_path, vertex):
    data = _square_with_vertex(vertex)
    with pytest.raises(ValueError, match="unit effect must be positive"):
        zoo.model_from_json(data)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    for args in (("verify",), ("diag", "--state", "chi")):
        res = _cli(args[0], str(path), *args[1:])
        assert res.exit_code == 2
        assert "unit effect must be positive on every vertex" in res.output
