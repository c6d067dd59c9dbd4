"""The polytope state check: one product of the float copy with the state
cone's kept `checks` matrix gives the unit pairing and the margin, and the
constructor refuses what the separate steps of `oracles.state_check_sequence`
refuse, with the same exception and message."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gptt import core, zoo
from gptt.core import StateVec
from test_facets import kgon_json

NAMES = ("square_bit", "diamond_bit", "restricted_trit", "5-gon", "8-gon",
         "26-gon")


@lru_cache(maxsize=None)
def _model(name):
    if name.endswith("-gon"):
        return zoo.model_from_json(kgon_json(int(name.split("-")[0])))
    return zoo.build_model(name)


def _outcome(check, model, coords):
    """(coordinate bits, None) of an accepted state, or (None, (exception
    type, message)) of a refused one."""
    try:
        x = check(coords, model)
    except Exception as exc:
        return None, (type(exc), str(exc))
    return np.asarray(x).tobytes(), None


def _constructor(coords, model):
    return StateVec(coords, model).coords


def _sequence(coords, model):
    return oracles.state_check_sequence(model, coords)


@st.composite
def _points(draw):
    """(model name, a state input): vertices, interior points, points moved
    off a facet by k * 1e-9 within the unit-pairing plane, and points whose
    unit pairing is 1 +- 1e-7 +- a few ulps."""
    name = draw(st.sampled_from(NAMES))
    m = _model(name)
    V, u = m.pure_states, m.unit_effect
    kind = draw(st.sampled_from(["vertex", "interior", "facet", "pairing"]))
    if kind == "vertex":
        return name, V[draw(st.integers(0, len(V) - 1))].copy()
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(V),
                               max_size=len(V))))
    if w.sum() <= 0:
        w = np.ones(len(V))
    x = (w / w.sum()) @ V
    if kind == "facet":
        rows = m.state_cone.checks[1:]
        i = draw(st.integers(0, len(rows) - 1))
        on = np.flatnonzero(np.abs(V @ rows[i]) <= 1e-9)   # the facet's vertices
        t = draw(st.floats(0.0, 1.0))
        b = t * V[on[0]] + (1 - t) * V[on[-1]]
        g = rows[i] - (rows[i] @ u) / (u @ u) * u        # keeps the pairing
        k = draw(st.integers(-3, 3))
        return name, b + k * 1e-9 * g / (g @ g)
    if kind == "pairing":
        d = draw(st.sampled_from([1e-7, -1e-7]))
        ulps = draw(st.integers(-4, 4))
        x = x * (1 + d + ulps * 2.0 ** -52)
    return name, x


@settings(max_examples=600, deadline=None)
@given(_points())
@pytest.mark.filterwarnings("error")
def test_fused_check_matches_the_separate_steps(point):
    name, x = point
    m = _model(name)
    got, want = (_outcome(check, m, x) for check in (_constructor, _sequence))
    assert got == want
    # the kept product and the margin as F.x / F.e differ by rounding only
    cone = m.state_cone
    old = float(((cone.facets @ x) / cone.facet_scale).min())
    assert abs(cone.margin(x) - old) <= 1e-15 * (1 + np.abs(x).sum())


def _malformed(m):
    D, chi = m.vector_dim, m.chi
    out = [np.zeros(D + 1), np.zeros(D - 1), chi[:, None], chi[None],
           np.float64(1.0), chi.tolist(), list(chi[:-1]), [chi.tolist()],
           chi.astype(complex), (chi + 1j * np.eye(D)[0]).tolist(),
           np.round(3 * m.unit_effect).astype(int), m.pure_states[0].tolist(),
           np.rint(m.pure_states[0]).astype(int), 2 * chi, -chi,
           chi.astype(np.float32), chi.astype(np.float16)]
    for i in range(D):
        for bad in (np.nan, np.inf, -np.inf):
            x = chi.copy()
            x[i] = bad
            out += [x, x.tolist()]
    return out


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.filterwarnings("error")
def test_malformed_inputs_refused_alike(name):
    """NaN and infinities, complex input, lists, integer and narrower float
    arrays and wrong shapes: the same verdict, type and message."""
    m = _model(name)
    for x in _malformed(m):
        assert _outcome(_constructor, m, x) == _outcome(_sequence, m, x), x


@pytest.mark.parametrize("name", NAMES)
def test_kept_matrix_is_unit_then_scaled_facets(name):
    """The state cone keeps one read-only matrix, built with the model: the
    unit effect, then each facet over its product with e."""
    m = _model(name)
    cone = m.state_cone
    F, e = cone.facets, cone.interior_direction
    assert np.array_equal(cone.checks,
                          np.vstack([m.unit_effect, F / (F @ e)[:, None]]))
    assert not cone.checks.flags.writeable
    assert _model(name).state_cone.checks is cone.checks
    # the effect cone, with no unit given, pairs with its interior direction
    f = m.effect_cone
    assert np.array_equal(f.checks[0], f.interior_direction)


@pytest.mark.parametrize("name", NAMES)
def test_pairing_handed_back_through_the_list(name):
    m = _model(name)
    x = m.chi
    eig = ["stale"]
    margin = m.state_cone.margin(x, eig)
    assert eig == [float(m.unit_effect @ x)]
    assert margin == m.state_cone.margin(x)


class _NaNProduct(np.ndarray):
    """A kept matrix whose product with x has a NaN after the first margin
    entry, as a product without fused multiply-adds may give for a finite
    x whose terms overflow into inf - inf."""

    def dot(self, x):
        v = np.asarray(self).dot(x)
        v[2] = np.nan
        return v


@pytest.mark.parametrize("name", NAMES)
def test_nan_among_the_products_makes_the_margin_nan(name):
    """A NaN in any margin entry of the product makes the margin NaN, as
    np.min gives it, wherever Python's min would pass over it; so the
    vector is no member."""
    cone = core.ConeSpec("rays", 3, generators=_model(name).state_cone.generators)
    object.__setattr__(cone, "checks", cone.checks.view(_NaNProduct))
    x = _model(name).chi
    assert np.isnan(cone.margin(x)) and not cone.contains(x)
