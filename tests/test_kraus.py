"""Every library channel that carries a Kraus form reproduces its matrix:
conjugation by the Kraus operators, read back in block coordinates, gives
`matrix` within 1e-12."""

import itertools

import numpy as np
import pytest

from gptt import resource, zoo
from gptt.core import StateVec, compose, lift_channel, tensor_channels
from gptt.embedding import BlockStructure, blocks_to_vec, conjugation_matrix

q2 = zoo.build_model("quantum", n=2)
q3 = zoo.build_model("quantum", n=3)
dq2 = zoo.build_model("doubled_quantum", n=2)
ec22 = zoo.build_model("extended_classical", N=2, n=2)
ec32 = zoo.build_model("extended_classical", N=3, n=2)


def assert_kraus_matches(chan):
    assert chan.kraus is not None
    M = conjugation_matrix(chan.kraus, chan.model_in.structure)
    assert np.abs(M - chan.matrix).max() <= 1e-12


def rand_state(m, r):
    return StateVec(m.state_sampler(m, r), m)


def _sector_moved(K, st):
    return not np.any(K[:st.n, :st.n])


@pytest.mark.parametrize("text", [
    "classical:3", "quantum:2", "quantum:3", "rebit", "real_quantum:3",
    "doubled_quantum:2", "extended_classical:2x2", "extended_classical:3x2",
])
def test_group_samplers(text):
    m = zoo.parse_model_string(text)
    r = np.random.default_rng(5)
    moved = 0
    for _ in range(6):
        U = m.group.sampler(m, r)
        assert_kraus_matches(U)
        moved += _sector_moved(U.kraus[0], m.structure)
    # the sector relabelling is part of the draw wherever sectors exist
    assert (moved > 0) == (m.structure.block_count > 1)


def test_composite_group_sampler():
    comp = zoo.compose_systems(dq2, dq2)
    r = np.random.default_rng(6)
    for _ in range(3):
        assert_kraus_matches(comp.group.sampler(comp, r))


@pytest.mark.parametrize("m", [dq2, ec32], ids=lambda m: m.model_id)
def test_cross_sector_sending(m):
    basis = zoo.pure_maximal_set(m)
    U = zoo.reversible_sending(m, basis[0], basis[-1])
    assert _sector_moved(U.kraus[0], m.structure)
    assert_kraus_matches(U)
    assert np.abs(U.matrix @ basis[0].coords - basis[-1].coords).max() < 1e-9


def test_basis_alignment_with_sector_permutation():
    basis = zoo.pure_maximal_set(dq2)
    swapped = basis[2:] + basis[:2]
    U = zoo.basis_aligning_reversible(dq2, basis, swapped)
    assert _sector_moved(U.kraus[0], dq2.structure)
    assert_kraus_matches(U)


def test_unequal_sectors_refused_at_construction():
    """Sectors of unequal size are refused where the structure is built,
    so no sector permutation can meet two sizes."""
    for dims, field in itertools.product([(1, 2), (2, 3), (2, 2, 1)], "CR"):
        with pytest.raises(ValueError, match="equal dimensions"):
            BlockStructure(dims, field)


def test_sector_matching_witness():
    st = dq2.structure
    rho = StateVec(blocks_to_vec([np.diag([0.7, 0.3]), np.zeros((2, 2))],
                                 st), dq2)
    sigma = StateVec(blocks_to_vec([np.zeros((2, 2)), np.diag([0.3, 0.7])],
                                   st), dq2)
    out = resource.convertible(rho, sigma, "rare")
    assert out.certificate["sector_perm"] == (1, 0)
    assert_kraus_matches(out.channel)


@pytest.mark.parametrize("m", [dq2, ec22], ids=lambda m: m.model_id)
def test_uniformizing_witness(m):
    r = np.random.default_rng(7)
    out = resource.convertible(rand_state(m, r), m.invariant_state, "rare")
    assert out.answer == "yes"
    assert_kraus_matches(out.channel)
    for U in out.channel.witness["reversibles"]:
        assert_kraus_matches(U)


def test_pure_source_mixture():
    r = np.random.default_rng(8)
    psi = StateVec(dq2.pure_sampler(dq2, r), dq2)
    out = resource.convertible(psi, rand_state(dq2, r), "rare")
    assert out.answer == "yes"
    assert_kraus_matches(out.channel)


def test_birkhoff_mixture():
    r = np.random.default_rng(9)
    rho = rand_state(q3, r)
    out = resource.convertible(rho, q3.invariant_state, "rare")
    assert out.answer == "yes"
    assert len(out.certificate["weights"]) > 1
    assert_kraus_matches(out.channel)
    for U in out.channel.witness["reversibles"]:
        assert_kraus_matches(U)


@pytest.mark.parametrize("m", [q3, dq2], ids=lambda m: m.model_id)
def test_measure_and_prepare(m):
    r = np.random.default_rng(10)
    rho = rand_state(m, r)
    out = resource.convertible(rho, m.invariant_state, "unital")
    assert "measure_and_prepare" in out.channel.tags
    assert_kraus_matches(out.channel)


def test_compose():
    r = np.random.default_rng(11)
    U, V = dq2.group.sampler(dq2, r), dq2.group.sampler(dq2, r)
    assert_kraus_matches(compose(U, V))


@pytest.mark.parametrize("m", [q2, dq2], ids=lambda m: m.model_id)
def test_tensor_lift_and_swap(m):
    r = np.random.default_rng(12)
    comp = zoo.compose_systems(m, m)
    U = m.group.sampler(m, r)
    chan = resource.convertible(rand_state(m, r), m.invariant_state,
                                "unital").channel
    assert_kraus_matches(tensor_channels(comp, comp, U, chan))
    assert_kraus_matches(lift_channel(comp, chan, 0))
    assert_kraus_matches(lift_channel(comp, U, 1))
    assert_kraus_matches(zoo.swap_channel(comp))
