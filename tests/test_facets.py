"""Facets of ray cones: the closed-form margin and base norm against their
LP references, the stored facets themselves, polytope requests without an
LP, and the refusals."""

import ast
import itertools
import json
import pathlib
import time
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import oracles
from gptt import core, resource, spectral, symmetry, zoo
from gptt.cli import main
from gptt.core import (ConeSpec, DiagonalizationError, StateVec,
                       UnsupportedModelError)

BUILTINS = ("square_bit", "diamond_bit", "restricted_trit")
KGONS = tuple(range(3, 9))
MODELS = BUILTINS + tuple(f"{k}-gon" for k in KGONS)


def kgon_json(k: int) -> dict:
    """A regular k-gon polytope: its vertices, its edge functionals as
    effect generators, and the rotation by 2 pi / k."""
    t = 2 * np.pi * np.arange(k) / k
    mid = t + np.pi / k
    c, s = np.cos(2 * np.pi / k), np.sin(2 * np.pi / k)
    return {
        "kind": "polytope", "vector_dim": 3, "unit_effect": [0, 0, 1],
        "state_vertices": np.column_stack(
            [np.cos(t), np.sin(t), np.ones(k)]).tolist(),
        "effect_generators": np.column_stack(
            [-np.cos(mid), -np.sin(mid), np.full(k, np.cos(np.pi / k))]).tolist(),
        "group_generators": [[[c, -s, 0], [s, c, 0], [0, 0, 1]]],
    }


@lru_cache(maxsize=None)
def _model(name):
    if name in BUILTINS:
        return zoo.build_model(name)
    return zoo.model_from_json(kgon_json(int(name.split("-")[0])))


def _cones():
    for name in MODELS:
        m = _model(name)
        yield f"{name}/state", m.state_cone
        yield f"{name}/effect", m.effect_cone


@pytest.mark.parametrize("name,cone", list(_cones()),
                         ids=[n for n, _ in _cones()])
def test_stored_facets_bound_and_touch_the_generators(name, cone):
    G, F = cone.generators, cone.facets
    D = cone.dim
    vals = F @ G.T
    assert np.abs(np.linalg.norm(F, axis=1) - 1).max() < 1e-12
    assert vals.min() >= -1e-10
    for row in vals:
        on = np.abs(row) <= 1e-10
        assert np.linalg.matrix_rank(G[on], tol=1e-10) == D - 1
    assert (F @ cone.interior_direction).min() > 0


def test_facet_counts():
    for k in KGONS:
        m = _model(f"{k}-gon")
        assert len(m.state_cone.facets) == len(m.effect_cone.facets) == k
    for name in BUILTINS:
        assert len(_model(name).state_cone.facets) == len(
            _model(name).state_cone.generators)


def test_restricted_trit_facets_are_not_its_effects():
    # the state cone is the positive orthant; its effect generators are not
    # its facets, so facets cannot be read off the model data
    m = _model("restricted_trit")
    F = m.state_cone.facets
    E = m.effect_cone.generators
    E = E / np.linalg.norm(E, axis=1)[:, None]
    assert sorted(map(tuple, np.round(F, 12) + 0.0)) == sorted(
        map(tuple, np.eye(3)))
    assert np.abs(np.abs(F @ E.T) - 1).min() > 0.05


_weights = st.lists(st.floats(0, 1), min_size=max(KGONS), max_size=max(KGONS))
_offset = st.lists(st.floats(-1, 1), min_size=3, max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODELS), st.sampled_from(["state_cone", "effect_cone"]),
       _weights, _offset, st.booleans())
def test_margin_matches_lp(name, which, weights, offset, shift):
    cone = getattr(_model(name), which)
    G = cone.generators
    x = np.asarray(weights[:len(G)]) @ G
    if shift:  # a shifted point may lie inside or outside the cone
        x = x + np.asarray(offset)
    ref = oracles.cone_margin_lp(G, cone.interior_direction, x)
    assert abs(cone.margin(x) - ref) <= 1e-9


def _no_lp(*args, **kwargs):
    raise AssertionError("an LP was solved")


def test_cone_checks_and_peel_solve_no_lp(monkeypatch):
    """The polytope request mix solves no LP once the model is built."""
    models = [_model(name) for name in BUILTINS + ("5-gon",)]
    monkeypatch.setattr(core, "linprog", _no_lp)
    rng = np.random.default_rng(0)
    for m in models:
        P = m.pure_states
        if m.capacity > 1:
            a, b = m.distinguishable_sets[0][:2]
            x = StateVec(0.7 * P[a] + 0.3 * P[b], m)
            d = spectral.diagonalize(x)
            assert np.abs(d.eigenvalues - [0.7, 0.3]).max() < 1e-12
            assert np.abs(d.reconstruct() - x.coords).max() < 1e-12
        for _ in range(4):
            x = StateVec(rng.dirichlet(np.ones(len(P))) @ P, m)
            try:
                spectral.diagonalize(x)
            except DiagonalizationError:
                pass
            tw = symmetry.twirl(x)
            assert core.state_norm(m, x.coords - tw.coords) >= 0
        for r in (2, 3):
            for c in combinations(range(len(P)), r):
                symmetry.perfectly_distinguishable_search(
                    m, [StateVec(P[i], m) for i in c])
        resource.check_unrestricted_reversibility(m)
        symmetry.invariant_state(m)
        symmetry.is_transitive(m)


_vector = st.lists(st.floats(-2, 2), min_size=3, max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODELS + ("26-gon",)), _vector)
@example("square_bit", [1e-7, 0.0, 0.0])  # both read 0.0 by the LP with
@example("26-gon", [0.0, 0.0, 6e-8])      # HiGHS's default tolerances
def test_base_norm_matches_lp(name, x):
    m = _model(name)
    ref = oracles.base_norm_lp(m.state_cone.generators, m.unit_effect, x)
    assert abs(core.state_norm(m, x) - ref) <= 1e-9


def test_base_norm_lp_past_the_subset_cap(monkeypatch):
    """The 26-gon's ball has C(52, 3) = 22,100 (D - 1)-subsets, past the
    20,000 a subset enumeration of its facets was once capped at.  Its 28
    facets (a prism: 26 sides, top and bottom) come from the double
    description, and state_norm matches the reference LP without one."""
    monkeypatch.setattr(core, "linprog", _no_lp)
    m = _model("26-gon")
    F = m._base_norm_facets
    assert F.shape == (28, 4) and (F[:, -1] > 0).all()
    P, G, u = m.pure_states, m.state_cone.generators, m.unit_effect
    rng = np.random.default_rng(26)
    for x in [P[0] - P[13], P[0] - P[1], 0.3 * P[5] - P[9],
              *rng.normal(size=(20, 3))]:
        assert abs(core.state_norm(m, x) - oracles.base_norm_lp(G, u, x)) \
            <= 1e-9
    assert abs(core.state_norm(m, P[0] - P[13]) - 2.0) <= 1e-9


def test_no_function_calls_linprog():
    """No function of src/gptt calls linprog: every cone fact, the base
    norm included, comes from `core.cone_facets`."""
    callers = set()
    for path in pathlib.Path(core.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                callers |= {fn.name for node in ast.walk(fn)
                            if isinstance(node, ast.Call)
                            and getattr(node.func, "id", None) == "linprog"}
    assert callers == set()


def _unit_cone(G):
    U = G / np.linalg.norm(G, axis=1)[:, None]
    e = U.sum(axis=0)
    return U, e / np.linalg.norm(e)


@settings(max_examples=120, deadline=None)
@given(st.integers(4, 6), st.integers(0, 6), st.integers(0, 2**32 - 1),
       st.booleans())
def test_facets_match_subset_reference(D, extra, seed, rounded):
    """On random pointed cones in D = 4 to 6, half of them with coordinates
    rounded to integers (so that many generators share a facet), the
    engine's facets are bit-identical to the subset enumeration of
    `oracles.facets_by_subsets` wherever that reference answers."""
    G = np.random.default_rng(seed).normal(size=(D + extra, D))
    if rounded:
        G = np.round(G)
    G[:, -1] = np.abs(G[:, -1]) + 1.0
    U, e = _unit_cone(G)
    if np.linalg.matrix_rank(U, tol=1e-10) < D:
        return
    try:
        ref = oracles.facets_by_subsets(U, e)
    except ValueError:
        return
    assert np.array_equal(core.cone_facets(U, e)[1], ref)


def _cube_cone(D):
    V = np.array(list(itertools.product((-1.0, 1.0), repeat=D)))
    return np.hstack([V, np.ones((len(V), 1))])


def _kgon_ball(k):
    P = np.asarray(kgon_json(k)["state_vertices"])
    return np.hstack([np.vstack([P, -P]), np.ones((2 * k, 1))])


@pytest.mark.parametrize("G,count", [
    (_kgon_ball(26), 28), (_kgon_ball(25), 52), (_kgon_ball(100), 102),
    (_cube_cone(5), 10), (_cube_cone(3), 6),
], ids=["26-gon ball", "25-gon ball", "100-gon ball", "5-cube", "3-cube"])
def test_facets_past_the_old_subset_cap(G, count):
    """Cones with more (D - 1)-subsets than a subset enumeration could try
    get their facets, each checked here: a unit normal, nonnegative on
    every generator, zero on D - 1 independent ones and positive on the
    interior direction.  A prism over an even polygon has k + 2 facets, an
    antiprism over an odd one 2k + 2, and the 5-cube 10."""
    U, e = _unit_cone(G)
    B, F = core.cone_facets(U, e)
    D = G.shape[1]
    assert np.array_equal(B, np.eye(D)) and F.shape == (count, D)
    vals = F @ U.T
    assert np.abs(np.linalg.norm(F, axis=1) - 1).max() < 1e-12
    assert vals.min() >= -1e-10 and (F @ e).min() > 0
    for row in vals:
        assert np.linalg.matrix_rank(U[np.abs(row) <= 1e-10],
                                     tol=1e-10) == D - 1


def test_facets_within_the_span():
    """Generators spanning a plane of R^3: the basis spans that plane and
    the facets lie in it, each zero on one generator."""
    G = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    U, e = _unit_cone(G)
    B, F = core.cone_facets(U, e)
    assert B.shape == (2, 3) and F.shape == (2, 3)
    assert np.abs(F - F @ B.T @ B).max() < 1e-12
    assert np.abs(np.sort(np.abs(F @ U.T), axis=1)[:, 0]).max() < 1e-12
    assert (F @ U.T).min() >= -1e-12
    B, F = core.cone_facets(np.zeros((0, 3)), np.zeros(3))
    assert B.shape == F.shape == (0, 3)


_SMALL_INT = st.lists(st.integers(-2, 2), min_size=3, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SMALL_INT, min_size=3, max_size=7))
def test_pointedness_matches_lp(rows):
    """A full-dimensional ray cone is refused as not pointed exactly when
    the reference LP finds a vanishing nonnegative combination of its
    generators; a cone that builds has facets that bound it."""
    G = np.asarray(rows, dtype=float)
    G = G[np.abs(G).sum(axis=1) > 0]
    if len(G) == 0 or np.linalg.matrix_rank(G) < 3:
        return
    pointed = oracles.is_pointed_lp(G)
    try:
        cone = ConeSpec("rays", 3, generators=G)
    except ValueError as exc:
        assert "not pointed" in str(exc) and not pointed
        return
    assert pointed
    assert (cone.facets @ G.T).min() >= -1e-10


def test_generators_summing_to_zero_refused():
    G = np.vstack([np.eye(3), -np.eye(3)])
    with pytest.raises(ValueError, match="not pointed"):
        ConeSpec("rays", 3, generators=G)


def test_generator_cap_refused():
    """A cone with more than MAX_CONE_GENERATORS generators is refused
    before any work on it: a polygon model file with one vertex too many
    within a second, a ray cone, and the engine itself.  A step with more
    than MAX_CONE_GENERATORS ** 2 ray pairs is refused too: the cone over a
    cyclic polytope in D = 7, 60 points on the moment curve."""
    k = core.MAX_CONE_GENERATORS + 1
    start = time.perf_counter()
    with pytest.raises(UnsupportedModelError, match="MAX_CONE_GENERATORS"):
        zoo.model_from_json(kgon_json(k))
    assert time.perf_counter() - start < 1.0
    G = np.column_stack([np.cos(np.arange(k)), np.sin(np.arange(k)), np.ones(k)])
    with pytest.raises(UnsupportedModelError, match="MAX_CONE_GENERATORS"):
        ConeSpec("rays", 3, generators=G)
    with pytest.raises(UnsupportedModelError, match="MAX_CONE_GENERATORS"):
        core.cone_facets(*_unit_cone(G))
    core.cone_facets(*_unit_cone(G[:-1]))
    t = np.linspace(0.1, 3.0, 60)
    G = np.column_stack([t ** p for p in range(7)])
    with pytest.raises(UnsupportedModelError,
                       match=r"MAX_CONE_GENERATORS \*\* 2"):
        core.cone_facets(*_unit_cone(G))


_LINE = {  # generators (1, 0, 0) and (-1, 0, 0): the cone contains a line
    "kind": "polytope", "vector_dim": 3, "unit_effect": [0, 0, 1],
    "state_vertices": [[1, 0, 0], [-1, 0, 0], [0, 1, 1], [0, -1, 1]],
    "effect_generators": [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]],
    "group_generators": [],
}


def test_cone_with_a_line_refused():
    with pytest.raises(ValueError, match="not pointed"):
        zoo.model_from_json(_LINE)


def _cli(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


_SQUARE = {"kind": "polytope", "vector_dim": 3, "unit_effect": [0, 0, 1],
           "state_vertices": [[1, 1, 1], [1, -1, 1], [-1, 1, 1], [-1, -1, 1]],
           "effect_generators": [[1, 0, 1], [-1, 0, 1], [0, 1, 1],
                                 [0, -1, 1]],
           "group_generators": []}
# (2, 0, 1) gives probability -1 on the vertex (-1, 1, 1)
_NEGATIVE_EFFECT = {**_SQUARE, "effect_generators": [
    [2, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]}
# every effect generator is nonnegative on the triangle's vertices, but no
# nonnegative combination of them is the unit (0, 0, 1)
_UNIT_OUTSIDE = {**_SQUARE,
                 "state_vertices": [[0, 0, 1], [1, 0, 1], [0, 1, 1]],
                 "effect_generators": [[1, 0, 1], [0, 1, 1], [1, 1, 1]]}
# the square with its first vertex again, at twice the length
_REPEATED_VERTEX = {**_SQUARE,
                    "state_vertices": [*_SQUARE["state_vertices"], [2, 2, 2]]}
# preserves the square's cone and unit, but shrinks it: no reversible
_CONTRACTION = {**_SQUARE, "group_generators": [np.diag([0.5, 0.5, 1]).tolist()]}
# the 3-simplex with two extra effects: its swap and 3-cycle permute the
# vertices, but the swap sends the effect (1, 0, 0) outside the effect cone
_EFFECT_SWAP = {"kind": "polytope", "vector_dim": 3, "unit_effect": [1, 1, 1],
                "state_vertices": np.eye(3).tolist(),
                "effect_generators": [[1, .5, .5], [.5, 1, .5], [.5, .5, 1],
                                      [1, 0, 0], [0, 1, 1]],
                "group_generators": [np.eye(3)[[1, 0, 2]].tolist(),
                                     np.eye(3)[[2, 0, 1]].tolist()]}
# the classical 8-simplex under a transposition and an 8-cycle: S8, whose
# 40,320 elements are past the closure's cap of 10,000
_SIMPLEX_S8 = {"kind": "polytope", "vector_dim": 8, "unit_effect": [1] * 8,
               "state_vertices": np.eye(8).tolist(),
               "effect_generators": np.eye(8).tolist(),
               "group_generators": [np.eye(8)[[1, 0, 2, 3, 4, 5, 6, 7]].tolist(),
                                    np.eye(8)[np.roll(np.arange(8), 1)].tolist()]}


@pytest.mark.parametrize("data,message", [
    (kgon_json(core.MAX_CONE_GENERATORS + 1), "MAX_CONE_GENERATORS"),
    (_LINE, "not pointed"),
    (_NEGATIVE_EFFECT, "effect generator is negative on a state vertex"),
    (_UNIT_OUTSIDE, "unit effect is outside the effect cone"),
    (_REPEATED_VERTEX, "state vertices must be distinct rays"),
    (_CONTRACTION, "group generator does not permute the state vertices"),
    (_SIMPLEX_S8, "group closure exceeded 10000 elements"),
    (_EFFECT_SWAP, "group generator does not preserve the effect cone"),
], ids=["generator_cap", "line", "negative_effect", "unit_outside",
        "repeated_vertex", "contraction", "group_cap", "effect_swap"])
def test_cli_refuses_model_file(tmp_path, data, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    res = _cli("verify", str(path))
    assert res.exit_code == 2
    assert message in res.output


def _counting(monkeypatch, name):
    calls = []
    inner = getattr(zoo, name)
    monkeypatch.setattr(zoo, name, lambda *a: calls.append(a) or inner(*a))
    return calls


def test_bad_generator_refused_before_the_search(monkeypatch):
    """A 60-gon file with a contraction among its generators is refused by
    the group closure, and the maximal-set search never starts."""
    searches = _counting(monkeypatch, "_maximal_sets")
    data = kgon_json(60)
    data["group_generators"].append(np.diag([0.5, 0.5, 1]).tolist())
    with pytest.raises(core.GPTError,
                       match="group generator does not permute the state"):
        zoo.model_from_json(data)
    assert searches == []


def test_group_closed_once_per_model(monkeypatch):
    closures = _counting(monkeypatch, "close_group")
    searches = _counting(monkeypatch, "_maximal_sets")
    data = kgon_json(9)
    data["group_generators"].append(np.diag([1, -1, 1]).tolist())
    m = zoo.model_from_json(data)
    assert len(closures) == 1 and len(searches) == 1
    perms, mats = m.group.table
    assert m.group.table[0] is perms and len(mats) == 18
    symmetry.twirl(StateVec(m.pure_states[0], m))
    assert symmetry.is_transitive(m)
    assert len(closures) == 1


def test_cli_reads_model_file(tmp_path):
    path = tmp_path / "hexagon.json"
    zoo.save_model(_model("6-gon"), str(path))
    res = _cli("diag", str(path), "--state", "chi", "--json")
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["model"] == _model("6-gon").model_id
    assert np.abs(np.asarray(rep["results"]["eigenvalues"]) - 0.5).max() < 1e-12
