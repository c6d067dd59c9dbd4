"""Every library channel that carries a Kraus form reproduces its matrix:
conjugation by the Kraus operators, read back in block coordinates, gives
`matrix` within 1e-12.  Channels given by their Kraus form alone (lifts and
tensor products) are applied through it, refused on the figures the matrix
path refuses, and agree with their dense coordinate matrix."""

import itertools

import numpy as np
import pytest

from gptt import core, embedding, resource, spectral, thermo, zoo
from gptt.core import (ChannelMap, ConeError, StateVec, apply_channel, compose,
                       lift_channel, tensor_channels)
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


# ---------------------------------------------------------------------------
# channels given by their Kraus form alone


def dense_apply(kraus, st, x, limit=4096):
    """conjugation_matrix(kraus, st) @ x.  Past D = limit the matrix (1.8 GiB
    on the `extended_classical:3x2` erasure's triple) is not formed: the
    columns of each operator's matrix where x is nonzero come from the
    closed form of `embedding.conjugation_matrices`, with the same
    elementwise operations, 256 at a time, and are multiplied into x."""
    if st.coord_dim <= limit:
        return conjugation_matrix(kraus, st) @ x
    p, q, r, s, t, c = embedding._conjugation_terms(st)
    y = np.zeros(st.coord_dim)
    nz = np.flatnonzero(x)
    for K in kraus:
        Kp, Kq = r[:, None] * K[p], K[q].conj()
        for j0 in range(0, len(nz), 256):
            js = nz[j0:j0 + 256]
            acc = Kp[:, s[0, js]] * c[0, js] * Kq[:, t[0, js]]
            acc += Kp[:, s[1, js]] * c[1, js] * Kq[:, t[1, js]]
            y += acc.real @ x[js]
    return y


def test_dense_apply_columns_match_the_matrix():
    """The column-wise route of `dense_apply` against the matrix itself."""
    comp = zoo.compose_systems(dq2, dq2)
    r = np.random.default_rng(20)
    K = comp.group.sampler(comp, r).kraus
    x = rand_state(comp, r).coords
    ref = conjugation_matrix(K, comp.structure) @ x
    assert np.abs(dense_apply(K, comp.structure, x, 0) - ref).max() <= 1e-14


def _same(a, b, tol=1e-12):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if hasattr(a, "__dataclass_fields__"):
        return all(_same(getattr(a, k), getattr(b, k))
                   for k in a.__dataclass_fields__)
    if isinstance(a, (bool, np.bool_)):
        return a == b
    return a == b or abs(a - b) <= tol or (np.isnan(a) and np.isnan(b))


@pytest.mark.parametrize("m", [q2, q3, dq2, ec22, ec32],
                         ids=lambda m: m.model_id)
def test_erasure_matches_the_dense_reference(monkeypatch, m):
    """The lifted U_SM is applied through its Kraus form alone; its output,
    and every erase and ledger result, agree within 1e-12 with those of the
    lifted channel's dense coordinate matrix (`dense_apply`)."""
    rho = rand_state(m, np.random.default_rng(21))
    demo = thermo.erasure_demo(rho, 1.3)
    seen, apply = [], thermo.apply_channel

    def dense(channel, state):
        if channel._stack is None:
            return apply(channel, state)
        y = dense_apply(channel.kraus, channel.model_in.structure, state.coords)
        seen.append(np.abs(apply(channel, state).coords - y).max())
        return StateVec(y, channel.model_out)

    monkeypatch.setattr(thermo, "apply_channel", dense)
    ref = thermo.erasure_demo(rho, 1.3)
    assert len(seen) == 1 and seen[0] <= 1e-12
    assert _same(demo, ref)


def test_lazy_matrix_is_the_conjugation_matrix():
    """A Kraus-only channel's matrix is built on first read, read-only, with
    the bits of conjugation_matrix, and kept; reading it leaves the route and
    the bits of an application as they were."""
    r = np.random.default_rng(22)
    comp = zoo.compose_systems(dq2, dq2)
    L = lift_channel(comp, dq2.group.sampler(dq2, r), 0)
    rho = rand_state(comp, r)
    before = apply_channel(L, rho).coords
    assert L.kraus is not None and "matrix" not in L.__dict__
    M = L.matrix
    assert M is L.matrix and not M.flags.writeable
    assert np.array_equal(M, conjugation_matrix(L.kraus, comp.structure))
    assert np.array_equal(apply_channel(L, rho).coords, before)
    assert np.abs(M @ rho.coords - before).max() <= 1e-12
    assert all(not K.flags.writeable for K in L.kraus)
    # a channel given its matrix keeps the matrix-vector route
    U = dq2.group.sampler(dq2, r)
    assert U._stack is None
    assert_kraus_matches(L)


def _refusals(m, kraus, tags):
    """The messages of the Kraus-only and the matrix constructor on the
    same channel."""
    out = []
    for matrix in (None, conjugation_matrix(kraus, m.structure)):
        with pytest.raises(ConeError) as exc:
            ChannelMap(matrix, m, m, tags, kraus=kraus)
        out.append(str(exc.value))
    return out


def test_kraus_only_refusals_match_the_matrix_path():
    U = q2.group.sampler(q2, np.random.default_rng(23)).kraus[0]
    got = _refusals(q2, [1.001 * U], frozenset())
    assert got[0] == got[1]
    assert got[0].startswith("channel does not preserve the unit effect")
    reset = [np.outer(np.eye(2)[0], e) for e in np.eye(2)]
    got = _refusals(q2, reset, frozenset({"unital"}))
    assert got[0] == got[1]
    assert "channel tagged unital moves the invariant state" in got[0]
    # without the tag the reset is a channel
    assert np.allclose(ChannelMap(None, q2, q2, kraus=reset)(
        q2.invariant_state).coords, blocks_to_vec([np.diag([1.0, 0.0])],
                                                  q2.structure))


def test_kraus_only_channel_needs_one_block_structure():
    with pytest.raises(ValueError, match="matrix or its Kraus"):
        ChannelMap(None, q2, q2)
    with pytest.raises(ValueError, match="one block structure"):
        ChannelMap(None, q2, q3, kraus=[np.eye(2)])
    with pytest.raises(ValueError, match="wrong shape"):
        ChannelMap(None, q2, q2, kraus=[np.eye(3)])


def _sector_exchange(m, perm):
    return zoo.block_reversible(
        m, np.broadcast_to(np.eye(m.structure.n), (m.structure.block_count,)
                           + (m.structure.n,) * 2), perm)


def test_lift_of_a_sector_exchange_is_refused(monkeypatch):
    """Exchanging two of three sectors is a map of the system alone, but
    with a second system beside it, it sends a composite sector into two: its
    lift onto a purifying composite is refused, on both tensor routes."""
    rho = rand_state(ec32, np.random.default_rng(24))
    assert spectral.diagonalize(rho).eigenvalues.min() > 1e-3   # full rank
    comp, psi = spectral.purify(rho)
    R = _sector_exchange(ec32, (1, 0, 2))
    assert "reversible" in R.tags   # a reversible of ec32 on its own
    with pytest.raises(ConeError, match="more than one block"):
        lift_channel(comp, R, 1)
    monkeypatch.setattr(core, "KRAUS_CAP", 0)
    with pytest.raises(ConeError, match="more than one block"):
        lift_channel(comp, R, 1)
    # a cyclic shift of the sectors lifts, here on the dense route, and
    # keeps psi pure
    S = lift_channel(comp, _sector_exchange(ec32, (1, 2, 0)), 1)
    assert S.kraus is None and thermo.entropy(S(psi)) <= 1e-9


@pytest.mark.parametrize("m", [dq2, ec22], ids=lambda m: m.model_id)
def test_lift_of_a_two_sector_exchange_is_kept(m):
    """With two sectors the exchange is a cyclic shift, and lifts."""
    comp, psi = spectral.purify(rand_state(m, np.random.default_rng(25)))
    L = lift_channel(comp, _sector_exchange(m, (1, 0)), 1)
    assert "reversible" in L.tags and L._stack is not None
    assert thermo.entropy(L(psi)) <= 1e-9
    assert_kraus_matches(L)


def test_tensor_past_the_kraus_cap_keeps_the_dense_matrix():
    """Past KRAUS_CAP lifted operators a product channel is its dense matrix
    with no Kraus form, applied as matrix @ coords."""
    r = np.random.default_rng(26)
    chan = resource.convertible(rand_state(q3, r), q3.invariant_state,
                                "unital").channel
    twice = compose(chan, chan)
    comp = zoo.compose_systems(q3, q3)
    K = core._lifted_kraus(comp, chan.kraus, twice.kraus)
    assert len(K) > core.KRAUS_CAP
    T = tensor_channels(comp, comp, chan, twice)
    assert T.kraus is None and T._stack is None
    assert np.array_equal(T.matrix, conjugation_matrix(K, comp.structure))
