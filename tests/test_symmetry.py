import dataclasses
import warnings
from itertools import combinations

import numpy as np
import pytest

from gptt import symmetry, zoo
from gptt.core import GroupSpec, StateVec

rng = np.random.default_rng(19)

ZOO = [
    ("quantum", dict(n=2)),
    ("quantum", dict(n=3)),
    ("classical", dict(d=4)),
    ("rebit", dict()),
    ("doubled_quantum", dict(n=2)),
    ("extended_classical", dict(N=3, n=2)),
    ("square_bit", dict()),
    ("diamond_bit", dict()),
    ("restricted_trit", dict()),
]


@pytest.mark.parametrize("kind,kwargs", ZOO)
def test_invariant_state_unique_and_matches(kind, kwargs):
    m = zoo.build_model(kind, **kwargs)
    rep = symmetry.invariant_state(m)
    assert rep["unique"]
    assert rep["matches_reference"]


def test_transitivity_table():
    assert symmetry.is_transitive(zoo.build_model("quantum", n=3))
    assert symmetry.is_transitive(zoo.build_model("classical", d=3))
    assert symmetry.is_transitive(zoo.build_model("doubled_quantum", n=2))
    assert symmetry.is_transitive(zoo.build_model("square_bit"))
    assert symmetry.is_transitive(zoo.build_model("restricted_trit"))
    assert not symmetry.is_transitive(zoo.build_model("diamond_bit"))


class TestTwirl:
    def test_continuous_average_is_invariant_state(self):
        q3 = zoo.build_model("quantum", n=3)
        s = StateVec(q3.state_sampler(q3, rng), q3)
        tw = symmetry.twirl(s)
        assert np.abs(tw.coords - q3.chi).max() < 1e-9

    def test_idempotent(self):
        sq = zoo.build_model("square_bit")
        corner = StateVec(np.array([1.0, 1.0, 1.0]), sq)
        once = symmetry.twirl(corner)
        twice = symmetry.twirl(once)
        assert np.abs(once.coords - twice.coords).max() < 1e-12

    def test_square_corner_to_center(self):
        sq = zoo.build_model("square_bit")
        tw = symmetry.twirl(StateVec(np.array([1.0, 1.0, 1.0]), sq))
        assert np.abs(tw.coords - np.array([0.0, 0.0, 1.0])).max() < 1e-12

    def test_degenerate_family_warns_and_projects(self):
        sq = zoo.build_model("square_bit")
        frozen = dataclasses.replace(
            sq, model_id="square_no_motion",
            group=GroupSpec(kind="parametric", generators=(),
                            sampler=lambda m, r: m.make_reversible(np.eye(3))))
        rep = symmetry.invariant_state(frozen)
        assert not rep["unique"] and rep["dimension"] == 3
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            out = symmetry.twirl(StateVec(np.array([1.0, 1.0, 1.0]), frozen))
            assert any("not unique" in str(x.message) for x in w)
        assert abs(float(frozen.unit_effect @ out.coords) - 1) < 1e-12


class TestInformationalEquilibrium:
    @pytest.mark.parametrize("a,b", [
        (("classical", dict(d=2)), ("classical", dict(d=3))),
        (("quantum", dict(n=2)), ("quantum", dict(n=3))),
        (("doubled_quantum", dict(n=2)), ("doubled_quantum", dict(n=2))),
        (("extended_classical", dict(N=2, n=1)),
         ("extended_classical", dict(N=2, n=2))),
        (("rebit", dict()), ("rebit", dict())),
    ])
    def test_product_of_flat_states_is_flat(self, a, b):
        ma = zoo.build_model(a[0], **a[1])
        mb = zoo.build_model(b[0], **b[1])
        rep = symmetry.informational_equilibrium_check(ma, mb)
        assert rep["holds"]
        assert rep["residual"] < 1e-8


class TestDistinguishabilitySearch:
    def test_restricted_trit_fully_blind(self):
        rt = zoo.build_model("restricted_trit")
        verts = [StateVec(np.asarray(v, float) / float(rt.unit_effect @ v), rt)
                 for v in np.asarray(rt.state_cone.generators)]
        for pair in combinations(verts, 2):
            rep = symmetry.perfectly_distinguishable_search(rt, pair)
            assert not rep["found"]
            assert rep["certified_none"]
        rep = symmetry.perfectly_distinguishable_search(rt, verts)
        assert not rep["found"]

    def test_square_diagonal_pair(self):
        sq = zoo.build_model("square_bit")
        pts = [StateVec(np.array([1.0, 1.0, 1.0]), sq),
               StateVec(np.array([-1.0, -1.0, 1.0]), sq)]
        rep = symmetry.perfectly_distinguishable_search(sq, pts)
        assert rep["found"]
        P = np.array([[float(e.coords @ s.coords) for s in pts]
                      for e in rep["effects"]])
        assert np.abs(P - np.eye(2)).max() < 1e-9

    def test_quantum_overlapping_states_blocked(self):
        q2 = zoo.build_model("quantum", n=2)
        a = q2.invariant_state
        b = zoo.pure_maximal_set(q2)[0]
        rep = symmetry.perfectly_distinguishable_search(q2, [a, b])
        assert not rep["found"]
        assert rep["certified_none"]
