"""Distinguishable vertex sets of polytope models: the sets stored at build
against an independent LP, the certified decision behind them (its effects
and Farkas vectors, checked and corrupted, against reference LPs), no LP in
build or after it, distinguishing measurements looked up among the maximal
sets, diagonalization as a lookup
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
from gptt.core import (ConeError, DiagonalizationError, GPTError,
                       ModelCompatibilityError, StateVec,
                       UnsupportedModelError)
from test_facets import BUILTINS, MODELS, _model, kgon_json


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


@pytest.mark.parametrize("name,decisions", [
    ("3-gon", 1),            # all vertices at once
    ("restricted_trit", 4),  # all, then 3 pairs
    ("square_bit", 11),      # all, 6 pairs, 4 triples
    ("8-gon", 29),           # all, 28 pairs; no triple has only passing pairs
])
def test_search_decision_count(name, decisions, monkeypatch):
    calls = []
    decide = zoo._ray_distinguishability

    def counted(*args):
        calls.append(1)
        return decide(*args)

    monkeypatch.setattr(zoo, "_ray_distinguishability", counted)
    m = _model(name)
    zoo._maximal_sets(m.pure_states, m.effect_cone.generators, m.unit_effect)
    assert len(calls) == decisions


def _no_lp(*args, **kwargs):
    raise AssertionError("an LP was solved")


@pytest.mark.parametrize("name", MODELS + ("house",))
def test_build_solves_no_lp(name, monkeypatch):
    monkeypatch.setattr(core, "linprog", _no_lp)
    if name in BUILTINS:
        m = zoo.build_model(name)
    else:
        m = zoo.model_from_json(HOUSE if name == "house" else
                                kgon_json(int(name.split("-")[0])))
    assert [(c, E.tolist()) for c, E in m.maximal_sets] == [
        (c, E.tolist()) for c, E in _lookup_model(name).maximal_sets]


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

    monkeypatch.setattr(core, "linprog", _no_lp)
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

    monkeypatch.setattr(core, "linprog", _no_lp)
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


def _usable_generators(m, X):
    """The unit effect generators of m positive on at most one state of X:
    the only ones a distinguishing effect can use."""
    G = m.effect_cone.generators
    U = G / np.linalg.norm(G, axis=1)[:, None]
    return U[((U @ np.asarray(X).T) > core.FACET_TOL).sum(axis=1) <= 1]


def _certificate_checks(m, X, effects, farkas):
    """Check the decision's certificate on the states X of model m, with
    the package's check and restated here: the effects tell X apart, or the
    Farkas vector y separates u from every usable generator.  Returns
    whether the states are distinguishable."""
    u = m.unit_effect
    if effects is not None:
        assert farkas is None and zoo._effects_check(effects, X, u)
        assert np.abs(effects @ np.asarray(X).T - np.eye(len(X))).max() <= 1e-8
        assert np.abs(effects.sum(axis=0) - u).max() <= 1e-8
        assert all(m.effect_cone.contains(e) for e in effects)
        return True
    H = _usable_generators(m, X)
    assert zoo._farkas_check(H, u, farkas)
    y = farkas / np.linalg.norm(farkas)
    assert (H @ y).min(initial=0.0) >= -core.FACET_TOL
    assert u @ y / np.linalg.norm(u) < -core.FACET_TOL
    return False


def _rotation_class(c, k):
    """The least rotation of the vertex subset c of a regular k-gon."""
    return min(tuple(sorted((i + s) % k for i in c)) for s in range(k))


@pytest.mark.parametrize("name", MODELS + ("12-gon", "26-gon"))
def test_decision_matches_lp_on_vertex_subsets(name):
    """Every vertex subset of at most 4 vertices: the decision agrees with
    the reference LP and its certificate checks.  On a regular polygon the
    rotation maps the model onto itself, so the reference runs once per
    rotation class of subsets; the decision runs on every subset."""
    m = _model(name)
    P, G, u = m.pure_states, m.effect_cone.generators, m.unit_effect
    k = len(P) if name.endswith("-gon") else None
    reference = {}
    for r in range(1, 5):
        for c in combinations(range(len(P)), r):
            key = _rotation_class(c, k) if k else c
            if key not in reference:
                reference[key] = oracles.best_guess_lp(
                    G, u, P[list(key)]) >= len(c) - 1e-7
            effects, farkas = zoo._ray_distinguishability(G, u, P[list(c)])
            assert _certificate_checks(m, P[list(c)], effects, farkas) \
                == reference[key], c


_mixture = st.lists(st.integers(0, 3), min_size=8, max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MODELS), st.lists(_mixture, min_size=1, max_size=3))
def test_decision_matches_lp_on_mixed_states(name, weights):
    """States mixed from a few vertices, often on a face: the decision of
    distinguishing_effects agrees with a feasibility LP, and the effects or
    the Farkas vector behind it check."""
    m = _model(name)
    P = m.pure_states
    W = np.asarray([w[:len(P)] for w in weights], dtype=float)
    if (W.sum(axis=1) == 0).any():
        return
    X = (W / W.sum(axis=1)[:, None]) @ P
    ref = oracles.distinguishable_lp(m.effect_cone.generators,
                                     m.unit_effect, X)
    effects, farkas = zoo._ray_distinguishability(
        m.effect_cone.generators, m.unit_effect, X)
    assert _certificate_checks(m, X, effects, farkas) == ref
    assert (zoo.distinguishing_effects(m, list(X)) is not None) == ref


def test_corrupted_certificates_refused():
    m = _model("square_bit")
    G, u, P = m.effect_cone.generators, m.unit_effect, m.pure_states
    effects, _ = zoo._ray_distinguishability(G, u, P[[0, 3]])
    assert zoo._effects_check(effects, P[[0, 3]], u)
    for i in range(2):
        bad = effects.copy()
        bad[i, 0] += 1e-6
        assert not zoo._effects_check(bad, P[[0, 3]], u)
    # two mixed states on one edge: no measurement
    X = np.array([0.9 * P[0] + 0.1 * P[1], 0.9 * P[1] + 0.1 * P[0]])
    effects, y = zoo._ray_distinguishability(G, u, X)
    assert effects is None
    H = _usable_generators(m, X)
    assert len(H) and zoo._farkas_check(H, u, y)
    assert not zoo._farkas_check(H, u, -y)
    h = H[np.argmax(H @ y)]   # tilt y until one generator goes negative
    assert not zoo._farkas_check(H, u, y - (h @ y + 1e-6) * h)


def test_input_that_is_no_state_refused():
    # the decision holds for states only: (2, 0, 1) lies outside the square
    m = _model("square_bit")
    with pytest.raises(ConeError):
        zoo.distinguishing_effects(m, [m.invariant_state, [2.0, 0.0, 1.0]])


def test_undecided_distinguishability_raises(monkeypatch):
    # the cone of g0 = (0, 0, 1) and g+- = (cos 0.1, +-sin 0.1, 0) has the
    # facets n+- = (sin 0.1, -+cos 0.1, 0) through g0, 0.2 rad apart.
    # u = (-5e-10, 0, 1) lies 5e-11 outside each of them, above -FACET_TOL,
    # so no facet is a Farkas vector; its distance from the cone, along
    # their sharp edge g0, is 5e-10, so no nonnegative weights rebuild it
    # within FACET_TOL: neither certificate checks
    G = np.array([[0.0, 0.0, 1.0], [np.cos(0.1), np.sin(0.1), 0.0],
                  [np.cos(0.1), -np.sin(0.1), 0.0]])
    X = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(GPTError, match="neither"):
        zoo._ray_distinguishability(G, np.array([-5e-10, 0.0, 1.0]), X)
    assert zoo._ray_distinguishability(G, np.array([5e-10, 0.0, 1.0]), X)[0] \
        is not None
    monkeypatch.setattr(zoo, "_farkas_check", lambda H, u, y: True)
    with pytest.raises(GPTError, match="both"):
        zoo._ray_distinguishability(G, np.array([0.05, 0.0, 1.0]), X)


def test_decision_past_the_old_enumeration_cap():
    # 60 generators, all positive on the one state: C(60, 3) = 34,220
    # Caratheodory bases, past the 20,000 subsets an enumeration was once
    # capped at.  u = (0, 0, 1) lies in their cone and (1, 0, 1) does not;
    # both decisions match the reference LP, and their certificates check
    t = np.arange(60)
    G = np.column_stack([np.cos(t), np.sin(t), np.full(60, 2.0)])
    X = np.array([[0.0, 0.0, 1.0]])
    U = G / np.linalg.norm(G, axis=1)[:, None]
    for u, ok in (([0.0, 0.0, 1.0], True), ([1.0, 0.0, 1.0], False)):
        u = np.asarray(u)
        assert oracles.distinguishable_lp(G, u, X) == ok
        effects, farkas = zoo._ray_distinguishability(G, u, X)
        if ok:
            assert farkas is None and zoo._effects_check(effects, X, u)
            assert oracles.cone_margin_lp(G, U.sum(axis=0), effects[0]) >= 0
        else:
            assert effects is None and zoo._farkas_check(U, u, farkas)


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
