"""Facets of ray cones: the closed-form margin and base norm against their
LP references, the stored facets themselves, polytope requests without an
LP, and the refusals."""

import ast
import json
import pathlib
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


def test_cone_checks_and_peel_solve_no_lp(monkeypatch):
    """The polytope request mix solves no LP once the model is built."""
    models = [_model(name) for name in BUILTINS + ("5-gon",)]

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(core, "linprog", no_lp)
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
    # the 26-gon's ball has C(52, 3) = 22,100 facet candidates, more than
    # MAX_FACET_SUBSETS, while the 25-gon's has 19,600
    calls = []
    solve = core.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(core, "linprog", counted)
    m = _model("26-gon")
    x = m.pure_states[0] - m.pure_states[13]
    assert abs(core.state_norm(m, x) - 2.0) <= 1e-9
    assert core._base_norm_facets(m) is None and len(calls) == 1
    assert core._base_norm_facets(_model("8-gon")) is not None


def test_only_state_norm_calls_linprog():
    """The one LP left in the package is state_norm's, past the subset cap:
    no other function of src/gptt calls core.linprog."""
    callers = set()
    for path in pathlib.Path(core.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                callers |= {fn.name for node in ast.walk(fn)
                            if isinstance(node, ast.Call)
                            and getattr(node.func, "id", None) == "linprog"}
    assert callers == {"state_norm"}


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


def test_subset_cap_refused():
    k = 2
    while k * (k - 1) // 2 <= core.MAX_FACET_SUBSETS:
        k += 1
    with pytest.raises(UnsupportedModelError, match="MAX_FACET_SUBSETS"):
        zoo.model_from_json(kgon_json(k))
    G = np.column_stack([np.cos(np.arange(k)), np.sin(np.arange(k)), np.ones(k)])
    with pytest.raises(UnsupportedModelError):
        ConeSpec("rays", 3, generators=G)


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


@pytest.mark.parametrize("data,message", [
    (kgon_json(201), "MAX_FACET_SUBSETS"),
    (_LINE, "not pointed"),
    (_NEGATIVE_EFFECT, "effect generator is negative on a state vertex"),
    (_UNIT_OUTSIDE, "unit effect is outside the effect cone"),
], ids=["subset_cap", "line", "negative_effect", "unit_outside"])
def test_cli_refuses_model_file(tmp_path, data, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    res = _cli("verify", str(path))
    assert res.exit_code == 2
    assert message in res.output


def test_cli_reads_model_file(tmp_path):
    path = tmp_path / "hexagon.json"
    zoo.save_model(_model("6-gon"), str(path))
    res = _cli("diag", str(path), "--state", "chi", "--json")
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["model"] == _model("6-gon").model_id
    assert np.abs(np.asarray(rep["results"]["eigenvalues"]) - 0.5).max() < 1e-12
