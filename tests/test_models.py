import json

import numpy as np
import pytest

from gptt import zoo
from gptt.core import GPTError, StateVec, pairing

rng = np.random.default_rng(1)

EXPECTED = [
    # kind, kwargs, vector_dim, capacity, (sharp, unrestricted, sectorized)
    ("classical", dict(d=4), 4, 4, (False, True, False)),
    ("quantum", dict(n=2), 4, 2, (True, True, False)),
    ("quantum", dict(n=3), 9, 3, (True, True, False)),
    ("rebit", dict(), 3, 2, (True, True, False)),
    ("real_quantum", dict(n=3), 6, 3, (True, True, False)),
    ("doubled_quantum", dict(n=2), 8, 4, (True, False, True)),
    ("extended_classical", dict(N=2, n=2), 8, 4, (True, False, True)),
    ("extended_classical", dict(N=3, n=1), 3, 3, (True, False, True)),
    ("square_bit", dict(), 3, 2, (False, False, False)),
    ("diamond_bit", dict(), 3, 2, (False, False, False)),
    ("restricted_trit", dict(), 3, 1, (False, False, False)),
]


@pytest.mark.parametrize("kind,kwargs,dim,cap,flags", EXPECTED)
def test_zoo_parameters(kind, kwargs, dim, cap, flags):
    m = zoo.build_model(kind, **kwargs)
    assert m.vector_dim == dim
    assert m.capacity == cap
    got = (m.flags.is_sharp_with_purification,
           m.flags.unrestricted_reversibility,
           m.flags.sectorized)
    assert got == flags


@pytest.mark.parametrize("kind,kwargs", [(k, kw) for k, kw, *_ in EXPECTED])
def test_chi_is_valid_state(kind, kwargs):
    m = zoo.build_model(kind, **kwargs)
    s = m.invariant_state
    assert abs(float(m.unit_effect @ s.coords) - 1) < 1e-12


@pytest.mark.parametrize("kind,kwargs", [(k, kw) for k, kw, *_ in EXPECTED])
def test_samplers_produce_states(kind, kwargs):
    m = zoo.build_model(kind, **kwargs)
    r = np.random.default_rng(3)
    for _ in range(5):
        StateVec(m.state_sampler(m, r), m)
        StateVec(m.pure_sampler(m, r), m)


@pytest.mark.parametrize("kind,kwargs", [(k, kw) for k, kw, *_ in EXPECTED])
def test_group_sampler_reversible(kind, kwargs):
    m = zoo.build_model(kind, **kwargs)
    r = np.random.default_rng(4)
    for _ in range(4):
        U = m.group.sampler(m, r)
        assert "reversible" in U.tags
        # invariant state is fixed
        assert np.abs(U.matrix @ m.chi - m.chi).max() < 1e-9


def test_parse_model_string():
    assert zoo.parse_model_string("quantum:3").capacity == 3
    assert zoo.parse_model_string("classical:5").vector_dim == 5
    assert zoo.parse_model_string("extended_classical:3x2").capacity == 6
    assert zoo.parse_model_string("square_bit").kind == "square_bit"
    with pytest.raises(ValueError):
        zoo.parse_model_string("banana:7")


def _smallest_but_one(kind):
    """The family's model one (or two) above each parameter's minimum."""
    params = zoo.FAMILIES[kind].params
    return zoo.build_model(kind, **{name: low + 1 + i
                                    for i, (name, low) in enumerate(params)})


@pytest.mark.parametrize("kind", list(zoo.FAMILIES))
def test_builtin_id_round_trips(kind):
    m = _smallest_but_one(kind)
    for again in (zoo.parse_model_string(m.model_id),
                  zoo.model_from_json(zoo.model_to_json(m))):
        assert (again.model_id, again.kind, again.params, again.vector_dim) == \
            (m.model_id, m.kind, m.params, m.vector_dim)


@pytest.mark.parametrize("kind", [k for k, fam in zoo.FAMILIES.items()
                                  if isinstance(fam, zoo.MatrixFamily)])
def test_matrix_groups_list_no_generators(kind):
    m = _smallest_but_one(kind)
    for model in (m, zoo.compose_systems(m, m)):
        assert model.group.generators == ()
        assert model.group.sampler is not None


def test_pure_maximal_set_pairwise():
    for kind, kwargs, _, cap, _fl in EXPECTED:
        if cap < 2:
            continue
        m = zoo.build_model(kind, **kwargs)
        basis = zoo.pure_maximal_set(m)
        assert len(basis) == cap
        effs = zoo.distinguishing_effects(m, basis)
        assert effs is not None
        P = np.array([[float(e.coords @ s.coords) for s in basis]
                      for e in effs])
        assert np.abs(P - np.eye(cap)).max() < 1e-8


def test_restricted_trit_has_no_pair():
    m = zoo.build_model("restricted_trit")
    with pytest.raises(GPTError):
        zoo.pure_maximal_set(m)


class TestComposition:
    def test_quantum_times_quantum(self):
        c = zoo.compose_systems(zoo.build_model("quantum", n=2),
                                zoo.build_model("quantum", n=3))
        assert c.kind == "quantum" and c.capacity == 6
        assert c.vector_dim == 36

    def test_rebit_times_rebit_is_real_quartit(self):
        a = zoo.build_model("rebit")
        c = zoo.compose_systems(a, a)
        assert c.kind == "real_quantum"
        assert c.structure.dims == (4,)

    def test_doubled_times_doubled(self):
        a = zoo.build_model("doubled_quantum", n=2)
        c = zoo.compose_systems(a, a)
        assert c.kind == "doubled_quantum"
        assert c.structure.block_count == 2
        assert c.structure.dims == (8, 8)
        assert c.vector_dim == 128

    def test_extended_times_extended(self):
        a = zoo.build_model("extended_classical", N=2, n=1)
        c = zoo.compose_systems(a, a)
        assert c.structure.block_count == 2
        assert c.structure.dims == (2, 2)

    def test_mixed_families_refuse(self):
        a = zoo.build_model("classical", d=2)
        b = zoo.build_model("quantum", n=2)
        with pytest.raises(GPTError):
            zoo.compose_systems(a, b)

    def test_sector_weights(self):
        m = zoo.build_model("doubled_quantum", n=2)
        from gptt.embedding import blocks_to_vec
        s = StateVec(blocks_to_vec([np.eye(2) / 4, np.eye(2) / 4],
                                   m.structure), m)
        w = zoo.sector_weights(s)
        assert np.abs(w - [0.5, 0.5]).max() < 1e-12


class TestSerialization:
    def test_builtin_round_trip(self, tmp_path):
        m = zoo.build_model("quantum", n=3)
        path = tmp_path / "m.json"
        zoo.save_model(m, str(path))
        m2 = zoo.load_model(str(path))
        assert m2.model_id == m.model_id
        assert m2.vector_dim == m.vector_dim

    def test_polytope_json(self, tmp_path):
        m = zoo.build_model("square_bit")
        data = zoo.model_to_json(m)
        m2 = zoo.model_from_json(json.loads(json.dumps(data)))
        assert m2.capacity == 2
        assert np.abs(np.sort(np.asarray(m2.state_cone.generators), axis=0)
                      - np.sort(np.asarray(m.state_cone.generators), axis=0)
                      ).max() < 1e-12

    def test_custom_polytopes_keep_their_own_identity(self):
        from gptt import symmetry

        square = {  # group of order 8
            "kind": "polytope", "vector_dim": 3, "unit_effect": [0, 0, 1],
            "state_vertices": [[1, 1, 1], [1, -1, 1], [-1, 1, 1], [-1, -1, 1]],
            "effect_generators": [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]],
            "group_generators": [[[0, -1, 0], [1, 0, 0], [0, 0, 1]],
                                 [[1, 0, 0], [0, -1, 0], [0, 0, 1]]],
        }
        trit = {  # group of order 6
            "kind": "polytope", "vector_dim": 3, "unit_effect": [1, 1, 1],
            "state_vertices": np.eye(3).tolist(),
            "effect_generators": [[1, .5, .5], [.5, 1, .5], [.5, .5, 1]],
            "group_generators": [np.eye(3)[[1, 0, 2]].tolist(),
                                 np.eye(3)[[2, 0, 1]].tolist()],
        }
        loaded = [(zoo.model_from_json(square), 8), (zoo.model_from_json(trit), 6)]
        (a, _), (b, _) = loaded
        assert a.model_id != b.model_id
        for m, order in loaded:
            perms, mats = m.group.table
            assert len(perms) == len(mats) == order
            s = StateVec(m.pure_sampler(m, np.random.default_rng(3)), m)
            assert np.abs(symmetry.twirl(s).coords - m.chi).max() < 1e-12
        with pytest.raises(GPTError):
            pairing(b.unit, a.invariant_state)
        again = zoo.model_from_json(json.loads(json.dumps(zoo.model_to_json(a))))
        assert again.model_id == a.model_id

    def test_composites_not_serializable(self):
        c = zoo.compose_systems(zoo.build_model("quantum", n=2),
                                zoo.build_model("quantum", n=2))
        with pytest.raises(GPTError):
            zoo.model_to_json(c)


class TestAligningReversibles:
    def test_reversible_sending_cross_sector(self):
        m = zoo.build_model("doubled_quantum", n=2)
        r = np.random.default_rng(9)
        basis = zoo.pure_maximal_set(m)
        U = zoo.reversible_sending(m, basis[0], basis[3])
        out = U.matrix @ basis[0].coords
        assert np.abs(out - basis[3].coords).max() < 1e-9

    def test_alignment_obstruction(self):
        m = zoo.build_model("doubled_quantum", n=2)
        basis = zoo.pure_maximal_set(m)
        crossed = [basis[0], basis[2], basis[1], basis[3]]
        with pytest.raises(GPTError, match="sector transport"):
            zoo.basis_aligning_reversible(m, basis, crossed)

    def test_alignment_quantum_exact(self):
        m = zoo.build_model("quantum", n=3)
        r = np.random.default_rng(10)
        from gptt.core import apply_channel
        from gptt.spectral import diagonalize
        a = diagonalize(StateVec(m.state_sampler(m, r), m)).eigenstates
        b = diagonalize(StateVec(m.state_sampler(m, r), m)).eigenstates
        U = zoo.basis_aligning_reversible(m, a, b)
        for s, t in zip(a, b):
            assert np.abs(U.matrix @ s.coords - t.coords).max() < 1e-9
