import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

import oracles
from gptt import core, resource, spectral, zoo
from gptt.core import (KRAUS_CAP, ChannelMap, ConeError, DiagonalizationError,
                       GPTError, ModelCompatibilityError, StateVec,
                       UnsupportedModelError, apply_channel, compose)
from gptt.embedding import blocks_to_vec, conjugation_matrix, pure_block_vec
from gptt.spectral import diagonalize
from oracles import doubly_stochastic_exists, majorizes as oracle_majorizes
from test_kraus import assert_kraus_matches
from test_spectral import _counting

rng = np.random.default_rng(17)

q3 = zoo.build_model("quantum", n=3)
cl4 = zoo.build_model("classical", d=4)
dq2 = zoo.build_model("doubled_quantum", n=2)
ec22 = zoo.build_model("extended_classical", N=2, n=2)


def rand_state(m, r=rng):
    return StateVec(m.state_sampler(m, r), m)


def scipy_matching(support):
    """scipy's maximum matching of a square boolean support: the column of
    each row, -1 for a row left unmatched."""
    return maximum_bipartite_matching(csr_array(support), perm_type="column")


def random_simplex(r, d):
    return r.dirichlet(np.ones(d))


def random_ds(r, d, k=12):
    M = np.zeros((d, d))
    for _ in range(k):
        M[np.arange(d), r.permutation(d)] += 1.0 / k
    return M


class TestMajorization:
    def test_reflexive(self):
        p = [0.5, 0.3, 0.2]
        assert resource.majorizes(p, p)

    def test_uniform_is_bottom(self):
        r = np.random.default_rng(0)
        for _ in range(20):
            p = random_simplex(r, 5)
            assert resource.majorizes(p, np.full(5, 0.2))

    def test_point_mass_is_top(self):
        r = np.random.default_rng(1)
        for _ in range(20):
            p = random_simplex(r, 5)
            assert resource.majorizes([1, 0, 0, 0, 0], p)

    def test_incomparable_pair(self):
        assert not resource.majorizes([0.6, 0.2, 0.2], [0.5, 0.5, 0.0])
        assert not resource.majorizes([0.5, 0.5, 0.0], [0.6, 0.2, 0.2])

    def test_sum_mismatch(self):
        with pytest.raises(ValueError):
            resource.majorizes([0.7, 0.3], [0.5, 0.4])

    def test_padding(self):
        assert resource.majorizes([0.7, 0.3], [0.7, 0.2, 0.1])

    def test_unequal_lengths_padded_certificate(self):
        """A shorter spectrum is padded with zeros: the certificate is the
        one its explicitly padded pair gets."""
        cert = resource._majorization_certificate
        r = np.random.default_rng(4)
        for _ in range(50):
            n, m = r.choice(np.arange(1, 6), size=2, replace=False)
            p, q = random_simplex(r, n), random_simplex(r, m)
            k = max(n, m)
            padded = [np.pad(v, (0, k - len(v))) for v in (p, q)]
            assert cert(p, q) == cert(*padded)
            assert cert(q, p) == cert(*padded[::-1])
        assert cert([0.6, 0.3, 0.1], [0.6, 0.4])["prefix_index"] == 1
        assert cert([0.6, 0.4], [0.6, 0.3, 0.1]) is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_agrees_with_ds_lp(self, seed):
        r = np.random.default_rng(seed)
        d = int(r.integers(2, 6))
        p, q = random_simplex(r, d), random_simplex(r, d)
        assert resource.majorizes(p, q) == doubly_stochastic_exists(p, q)
        assert resource.majorizes(p, q) == oracle_majorizes(p, q)


class TestBirkhoff:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_round_trip_and_bound(self, d):
        r = np.random.default_rng(d)
        for _ in range(20):
            M = random_ds(r, d, k=int(r.integers(1, 30)))
            terms = resource.birkhoff_decompose(M)
            back = resource.permutations_to_matrix(terms, d)
            assert np.abs(back - M).max() < 1e-9
            assert len(terms) <= (d - 1) ** 2 + 1
            assert abs(sum(w for w, _ in terms) - 1) < 1e-9
            assert all(w > 0 for w, _ in terms)

    def test_identity(self):
        terms = resource.birkhoff_decompose(np.eye(4))
        assert len(terms) == 1 and abs(terms[0][0] - 1) < 1e-12

    def test_rejects_non_ds(self):
        with pytest.raises(ValueError):
            resource.birkhoff_decompose(np.array([[0.5, 0.5], [0.5, 0.4]]))

    @pytest.mark.parametrize("d, matchable", [(1, 1), (2, 7), (3, 247)])
    def test_matching_is_scipys_on_every_support(self, d, matchable):
        seen = 0
        for bits in itertools.product((False, True), repeat=d * d):
            support = np.array(bits).reshape(d, d)
            ref = scipy_matching(support)
            got = resource._perfect_matching(support)
            if (ref < 0).any():
                assert got is None
            else:
                assert got.tolist() == ref.tolist()
                seen += 1
        assert seen == matchable

    def test_matching_takes_the_lowest_free_column(self):
        # searching from the highest column down matches rows 0 and 2 the
        # other way round
        support = np.array([[0, 1, 1, 1], [0, 1, 0, 0], [1, 0, 1, 1],
                            [1, 0, 0, 0]], bool)
        assert (resource._perfect_matching(support).tolist()
                == scipy_matching(support).tolist() == [2, 1, 3, 0])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matching_perfect_inside_support(self, data):
        d = data.draw(st.integers(1, 8))
        support = np.array(data.draw(st.lists(
            st.booleans(), min_size=d * d, max_size=d * d))).reshape(d, d)
        planted = data.draw(st.one_of(st.none(), st.permutations(range(d))))
        if planted is not None:
            support[np.arange(d), planted] = True
        ref = scipy_matching(support)
        got = resource._perfect_matching(support)
        if (ref < 0).any():
            assert got is None and planted is None
        else:
            assert sorted(got.tolist()) == list(range(d))
            assert support[np.arange(d), got].all()
            assert got.tolist() == ref.tolist()


class TestTChain:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_maps_exactly(self, seed):
        r = np.random.default_rng(seed)
        d = int(r.integers(2, 7))
        p = np.sort(random_simplex(r, d))[::-1]
        D0 = random_ds(r, d)
        q = np.sort(D0 @ p)[::-1]
        D = resource.t_transform_chain(p, q)
        assert np.abs(D @ p - q).max() < 1e-10
        assert np.abs(D.sum(axis=0) - 1).max() < 1e-10
        assert np.abs(D.sum(axis=1) - 1).max() < 1e-10
        assert D.min() > -1e-12


class TestUnitalSynthesis:
    @pytest.mark.parametrize("model", [q3, cl4, dq2],
                             ids=lambda m: m.model_id)
    def test_channel_hits_comparable_targets(self, model):
        r = np.random.default_rng(23)
        for _ in range(8):
            rho = rand_state(model, r)
            d = diagonalize(rho)
            D0 = random_ds(r, model.capacity)
            qspec = np.sort(D0 @ np.asarray(d.eigenvalues))[::-1]
            sigma = StateVec(sum(float(w) * s.coords
                                 for w, s in zip(qspec, d.eigenstates)), model)
            out = resource.build_unital_channel(rho, sigma)
            assert out.answer == "yes"
            moved = apply_channel(out.channel, rho)
            assert np.abs(moved.coords - sigma.coords).max() < 1e-8
            chi = model.invariant_state
            fixed = apply_channel(out.channel, chi)
            assert np.abs(fixed.coords - chi.coords).max() < 1e-8

    def test_no_comes_with_prefix_certificate(self):
        d = diagonalize(rand_state(q3, np.random.default_rng(2)))
        lo = StateVec(sum(w * s.coords for w, s in
                          zip([0.5, 0.5, 0.0], d.eigenstates)), q3)
        hi = StateVec(sum(w * s.coords for w, s in
                          zip([0.6, 0.2, 0.2], d.eigenstates)), q3)
        out = resource.build_unital_channel(lo, hi)
        assert out.answer == "no"
        cert = out.certificate
        assert cert["source_prefix"] < cert["target_prefix"]

    def test_exactness_against_lp(self):
        r = np.random.default_rng(29)
        base = diagonalize(rand_state(q3, r))
        for _ in range(60):
            p = np.sort(random_simplex(r, 3))[::-1]
            q = np.sort(random_simplex(r, 3))[::-1]
            rho = StateVec(sum(float(w) * s.coords
                               for w, s in zip(p, base.eigenstates)), q3)
            sig = StateVec(sum(float(w) * s.coords
                               for w, s in zip(q, base.eigenstates)), q3)
            verdict = resource.convertible(rho, sig, "unital").answer
            assert (verdict == "yes") == doubly_stochastic_exists(p, q)


class TestRareSynthesis:
    def test_mixture_of_verified_reversibles(self):
        r = np.random.default_rng(31)
        for _ in range(6):
            rho = rand_state(q3, r)
            d = diagonalize(rho)
            qspec = np.sort(random_ds(r, 3) @ np.asarray(d.eigenvalues))[::-1]
            target_basis = diagonalize(rand_state(q3, r)).eigenstates
            sigma = StateVec(sum(float(w) * s.coords
                                 for w, s in zip(qspec, target_basis)), q3)
            out = resource.build_rare_channel(rho, sigma)
            assert out.answer == "yes"
            moved = apply_channel(out.channel, rho)
            assert np.abs(moved.coords - sigma.coords).max() < 1e-8
            w = out.channel.witness
            assert abs(float(np.sum(w["weights"])) - 1) < 1e-9
            for U in w["reversibles"]:
                assert "reversible" in U.tags
                K = U.kraus[0]
                assert np.abs(K @ K.conj().T - np.eye(K.shape[0])).max() < 1e-8

    @pytest.mark.parametrize("text", ["quantum:3", "quantum:4", "rebit",
                                      "classical:4"])
    def test_term_reversible_equals_composed_pair(self, text):
        # each Birkhoff term is one reversible sending source eigenstate
        # perm[i] onto target eigenstate i: the alignment of the two bases
        # followed by the permutation of the target basis, fused
        m = zoo.parse_model_string(text)
        r = np.random.default_rng(33)
        pairs = []
        for _ in range(4):
            rho = rand_state(m, r)
            t = r.uniform(0.2, 0.8)
            pairs.append((rho, StateVec((1 - t) * rho.coords + t * m.chi, m)))
            pure = StateVec(m.pure_sampler(m, r), m)
            pairs.append((pure, rand_state(m, r)))
        terms_seen = 0
        for rho, sigma in pairs:
            out = resource.convertible(rho, sigma, "rare")
            assert out.answer == "yes"
            dr, ds = diagonalize(rho), diagonalize(sigma)
            D = resource.t_transform_chain(dr.eigenvalues, ds.eigenvalues)
            terms = resource.birkhoff_decompose(D)
            fused = out.channel.witness["reversibles"]
            assert len(fused) == len(terms)
            weights = out.channel.witness["weights"]
            assert weights.tolist() == [w for w, _ in terms]
            align = zoo.basis_aligning_reversible(m, dr.eigenstates,
                                                  ds.eigenstates)
            for (_, perm), chan in zip(terms, fused):
                src = [ds.eigenstates[j] for j in perm]
                permute = zoo.basis_aligning_reversible(m, src, ds.eigenstates)
                old = compose(permute, align)
                assert np.abs(chan.matrix - old.matrix).max() <= 1e-12
                assert np.abs(chan.kraus[0] - old.kraus[0]).max() <= 1e-12
                terms_seen += 1
        assert terms_seen > len(pairs)

    def test_gate_on_unflagged_model(self):
        rho, sig = rand_state(dq2), rand_state(dq2)
        with pytest.raises(UnsupportedModelError, match="not sufficient"):
            resource.build_rare_channel(rho, sig)


# ---------------------------------------------------------------------------
# stacked witnesses against the per-term loops they replaced


_STACK_MODELS = [zoo.parse_model_string(t) for t in (
    "classical:3", "classical:4", "rebit", "quantum:2", "quantum:3",
    "quantum:4", "real_quantum:3")]
_INPUTS = ["mixed", "pure", "toward_chi", "chi"]


def _input_state(model, r, kind, t):
    """A mixed or pure state, a pure state moved a fraction 1 - t toward
    chi, or chi itself."""
    if kind == "chi":
        return StateVec(model.chi, model)
    if kind == "mixed":
        return rand_state(model, r)
    x = model.pure_sampler(model, r)
    return StateVec(x if kind == "pure" else t * x + (1 - t) * model.chi,
                    model)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_STACK_MODELS), st.integers(0, 2**32 - 1),
       st.sampled_from(_INPUTS), st.sampled_from(_INPUTS),
       st.floats(0.05, 0.95))
def test_stacked_witnesses_match_term_loops(m, seed, kind_a, kind_b, t):
    """Every Birkhoff term's reversible (matrix, Kraus operator, weight) and
    the measure-and-prepare channel (matrix and Kraus operators) are bit for
    bit what the per-term loops in `oracles` build."""
    r = np.random.default_rng(seed)
    rho, sigma = _input_state(m, r, kind_a, t), _input_state(m, r, kind_b, t)
    if not resource.majorizes(diagonalize(rho).eigenvalues,
                              diagonalize(sigma).eigenvalues):
        rho, sigma = sigma, rho
    if not resource.majorizes(diagonalize(rho).eigenvalues,
                              diagonalize(sigma).eigenvalues):
        sigma = StateVec(0.5 * rho.coords + 0.5 * m.chi, m)
    dr, ds = diagonalize(rho), diagonalize(sigma)
    dims, field = m.structure.dims, m.structure.field
    sup_a = [zoo.pure_support(e) for e in dr.eigenstates]
    sup_b = [zoo.pure_support(e) for e in ds.eigenstates]
    D = resource.t_transform_chain(dr.eigenvalues, ds.eigenvalues)

    chan = resource.convertible(rho, sigma, "unital").channel
    M, kraus = oracles.measure_and_prepare_loop(
        np.array([e.coords for e in dr.eigenstates]),
        np.array([e.coords for e in ds.eigenstates]),
        D, sup_a, sup_b, dims, field, KRAUS_CAP)
    assert chan.matrix.tobytes() == M.tobytes()
    assert len(chan.kraus) == len(kraus)
    for got, want in zip(chan.kraus, kraus):
        assert got.dtype == want.dtype and np.array_equal(got, want)

    out = resource.convertible(rho, sigma, "rare")
    assert out.answer == "yes"
    terms = resource.birkhoff_decompose(D)
    wit = out.channel.witness
    assert np.array_equal(wit["weights"], [w for w, _ in terms])
    assert len(wit["reversibles"]) == len(terms)
    for (_, perm), U in zip(terms, wit["reversibles"]):
        K = oracles.aligning_kraus_loop([sup_a[j] for j in perm], sup_b,
                                        dims, field)
        assert len(U.kraus) == 1 and U.kraus[0].dtype == K.dtype
        assert np.array_equal(U.kraus[0], K)
        assert U.matrix.tobytes() == conjugation_matrix(
            [K], m.structure).tobytes()


def test_measure_and_prepare_in_row_passes():
    """On quantum:16 the matrix is summed a few rows per pass, to bound its
    temporary; it still has the bits of the per-entry loop."""
    m = zoo.build_model("quantum", n=16)
    r = np.random.default_rng(8)
    rho = StateVec(m.pure_sampler(m, r), m)
    sigma = rand_state(m, r)
    dim = m.vector_dim
    assert resource._MP_ELEMENTS // (16 * dim) < dim  # more than one pass
    dr, ds = diagonalize(rho), diagonalize(sigma)
    D = resource.t_transform_chain(dr.eigenvalues, ds.eigenvalues)
    chan = resource.measure_and_prepare_channel(dr, ds, D)
    M, kraus = oracles.measure_and_prepare_loop(
        np.array([e.coords for e in dr.eigenstates]),
        np.array([e.coords for e in ds.eigenstates]), D, [], [],
        m.structure.dims, "C", KRAUS_CAP)
    assert chan.matrix.tobytes() == M.tobytes()
    assert chan.kraus is None and kraus is None


class TestStackedRefusals:
    def test_second_term_with_inconsistent_transport(self):
        """Only the second perm crosses sectors inconsistently; the stack
        is refused with the message the per-term loop gives that term."""
        basis = zoo.pure_maximal_set(dq2)  # sectors 0, 0, 1, 1
        sup = [zoo.pure_support(s) for s in basis]
        ident, cross = [0, 1, 2, 3], [2, 1, 0, 3]
        dims = dq2.structure.dims
        oracles.aligning_kraus_loop(sup, sup, dims, "C")
        with pytest.raises(ValueError) as ref:
            oracles.aligning_kraus_loop([sup[j] for j in cross], sup, dims,
                                        "C")
        with pytest.raises(GPTError) as got:
            zoo.basis_aligning_reversibles(dq2, basis, basis, [ident, cross])
        assert "inconsistent sector transport" in str(ref.value)
        assert str(got.value) == str(ref.value)
        assert len(zoo.basis_aligning_reversibles(dq2, basis, basis,
                                                  [ident, ident])) == 2

    def test_transport_that_is_not_a_permutation(self):
        basis = zoo.pure_maximal_set(dq2)
        onto_one = [basis[0], basis[1], basis[0], basis[1]]
        with pytest.raises(GPTError, match="not a permutation"):
            zoo.basis_aligning_reversibles(dq2, basis, onto_one,
                                           [[0, 1, 2, 3], [1, 0, 3, 2]])

    def test_non_orthonormal_basis_fails_unitarity(self):
        basis = zoo.pure_maximal_set(q3)
        tilted = StateVec(pure_block_vec(q3.structure, 0,
                                         np.array([1.0, 1.0, 0.0])), q3)
        skewed = [basis[0], tilted, basis[2]]
        sup_a = [zoo.pure_support(s) for s in basis]
        sup_b = [zoo.pure_support(s) for s in skewed]
        for perm in ([0, 1, 2], [1, 0, 2]):
            with pytest.raises(ValueError) as ref:
                oracles.aligning_kraus_loop([sup_a[j] for j in perm], sup_b,
                                            (3,), "C")
            assert "non-reversible map" in str(ref.value)
        with pytest.raises(GPTError) as got:
            zoo.basis_aligning_reversibles(q3, basis, skewed,
                                           [[0, 1, 2], [1, 0, 2]])
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("row, figure", [
        (0, "does not preserve the unit effect"),
        (3, "moves the invariant state")])
    def test_each_term_refused_on_its_own_channel_figures(self, monkeypatch,
                                                          row, figure):
        """The stack's batched unit-effect and chi residuals refuse a term
        with the ConeError its own `ChannelMap` constructor gives; unbent,
        every term is the constructor's read-only ChannelMap, bit for bit.
        Row 0 is a diagonal coordinate, read by the unit effect; row 3 is
        an off-diagonal one, which only chi's image reads."""
        basis = zoo.pure_maximal_set(q3)
        perms = [[0, 1, 2], [1, 0, 2], [2, 1, 0]]
        terms = zoo.basis_aligning_reversibles(q3, basis, basis, perms)
        for U in terms:
            ref = q3.make_reversible(U.matrix, kraus=U.kraus)
            assert type(U) is ChannelMap and not U.matrix.flags.writeable
            assert U.matrix.tobytes() == ref.matrix.tobytes()
            assert len(U.kraus) == 1 and np.array_equal(U.kraus[0], ref.kraus[0])
            assert (U.model_in, U.model_out, U.tags, U.witness) == (
                q3, q3, ref.tags, None)
        bent = terms[1].matrix.copy()
        bent[row, 0] += 1e-6
        with pytest.raises(ConeError) as ref:
            q3.make_reversible(bent)
        stack = zoo.conjugation_matrices

        def bending(K, structure):
            M = stack(K, structure)
            M[1, row, 0] += 1e-6
            return M

        monkeypatch.setattr(zoo, "conjugation_matrices", bending)
        with pytest.raises(ConeError) as got:
            zoo.basis_aligning_reversibles(q3, basis, basis, perms)
        assert figure in str(ref.value)
        assert str(got.value) == str(ref.value)

    def test_one_perm_case_is_the_stack_of_one(self):
        r = np.random.default_rng(5)
        a = diagonalize(rand_state(q3, r)).eigenstates
        b = diagonalize(rand_state(q3, r)).eigenstates
        one = zoo.basis_aligning_reversible(q3, a, b)
        [stacked] = zoo.basis_aligning_reversibles(q3, a, b, [[0, 1, 2]])
        assert one.matrix.tobytes() == stacked.matrix.tobytes()
        assert np.array_equal(one.kraus[0], stacked.kraus[0])
        assert zoo.basis_aligning_reversibles(q3, a, b, []) == []


class TestSectorVerdicts:
    def setup_method(self):
        st_ = dq2.structure
        self.rho = StateVec(blocks_to_vec(
            [np.eye(2) / 2, np.zeros((2, 2))], st_), dq2)
        self.sigma = StateVec(blocks_to_vec(
            [np.diag([0.5, 0.0]), np.diag([0.5, 0.0])], st_), dq2)
        self.swapped = StateVec(blocks_to_vec(
            [np.zeros((2, 2)), np.eye(2) / 2], st_), dq2)

    def test_counterexample_pair(self):
        assert resource.convertible(self.rho, self.sigma, "unital").answer == "yes"
        out = resource.convertible(self.rho, self.sigma, "rare")
        assert out.answer == "no"
        assert "sector" in out.certificate["reason"]

    def test_equivalence_under_sector_swap(self):
        out = resource.convertible(self.rho, self.swapped, "rare")
        assert out.answer == "yes"
        assert out.certificate == {"sector_perm": (1, 0)}
        moved = apply_channel(out.channel, self.rho)
        assert np.abs(moved.coords - self.swapped.coords).max() < 1e-9
        out = resource.convertible(self.rho, self.sigma, "rare")
        assert out.answer == "no" and out.channel is None
        assert out.certificate["source_sectors"] == [[0.5, 0.5], [0.0, 0.0]]
        assert out.certificate["target_sectors"] == [[0.5, 0.0], [0.5, 0.0]]

    def test_pure_source_always_converts(self):
        r = np.random.default_rng(41)
        psi = StateVec(dq2.pure_sampler(dq2, r), dq2)
        tgt = rand_state(dq2, r)
        out = resource.convertible(psi, tgt, "rare")
        assert out.answer == "yes"
        moved = apply_channel(out.channel, psi)
        assert np.abs(moved.coords - tgt.coords).max() < 1e-8

    def test_invariant_state_always_reachable(self):
        r = np.random.default_rng(43)
        for model in (dq2, ec22, *(zoo.parse_model_string(t) for t in
                                   ("doubled_quantum:5",
                                    "extended_classical:4x2"))):
            rho = rand_state(model, r)
            out = resource.convertible(rho, model.invariant_state, "rare")
            assert out.answer == "yes"
            moved = apply_channel(out.channel, rho)
            assert np.abs(moved.coords - model.chi).max() < 1e-8
            # every cyclic sector shift times every position shift, mixed
            # uniformly
            st_ = model.structure
            wit = out.channel.witness
            assert len(wit["reversibles"]) == st_.block_count * st_.dims[0]
            assert abs(wit["weights"].sum() - 1.0) <= 1e-12
            eye = np.eye(st_.coord_dim)
            for U in wit["reversibles"]:
                assert np.abs(U.matrix @ U.matrix.T - eye).max() <= 1e-12
                assert_kraus_matches(U)
            assert_kraus_matches(out.channel)

    def test_honest_unknown(self):
        st_ = dq2.structure
        a = StateVec(blocks_to_vec(
            [np.diag([0.6, 0.1]), np.diag([0.2, 0.1])], st_), dq2)
        b = StateVec(blocks_to_vec(
            [np.diag([0.4, 0.2]), np.diag([0.25, 0.15])], st_), dq2)
        assert resource.convertible(a, b, "rare").answer == "unknown"

    def test_majorization_failure_is_no_for_rare(self):
        st_ = dq2.structure
        flat = dq2.invariant_state
        peaked = StateVec(blocks_to_vec(
            [np.diag([0.7, 0.3]), np.zeros((2, 2))], st_), dq2)
        out = resource.convertible(flat, peaked, "rare")
        assert out.answer == "no"
        assert "prefix_index" in out.certificate

    def test_noisy_sandwich(self):
        assert resource.convertible(self.rho, self.swapped, "noisy").answer == "yes"
        assert resource.convertible(self.rho, self.sigma, "noisy").answer == "unknown"
        flat = dq2.invariant_state
        st_ = dq2.structure
        peaked = StateVec(blocks_to_vec(
            [np.diag([0.7, 0.3]), np.zeros((2, 2))], st_), dq2)
        assert resource.convertible(flat, peaked, "noisy").answer == "no"


class TestSectorMatching:
    def test_twelve_sectors_at_once(self):
        """A planted relabeling of 12 distinct sector spectra, the last
        permutation in lexicographic order, is one matching away."""
        sr = np.random.default_rng(12).dirichlet(np.ones(3), size=12)
        perm = np.arange(12)[::-1]
        ss = np.empty_like(sr)
        ss[perm] = sr
        start = time.perf_counter()
        got = resource._matching_sector_perm(sr, ss)
        assert time.perf_counter() - start < 1.0
        assert got == tuple(perm.tolist())
        assert all(type(j) is int for j in got)

    def test_twelve_sector_shift_converts(self):
        """On extended_classical:12x1 a state and its backward cyclic sector
        shift convert with the shift as the sector relabeling."""
        m = zoo.parse_model_string("extended_classical:12x1")
        p = np.random.default_rng(1212).dirichlet(np.ones(12))
        rho, sigma = (StateVec(blocks_to_vec([np.full((1, 1), w) for w in q],
                                             m.structure), m)
                      for q in (p, np.roll(p, -1)))
        start = time.perf_counter()
        out = resource.convertible(rho, sigma, "rare")
        assert time.perf_counter() - start < 1.0
        assert out.answer == "yes"
        assert out.certificate == {"sector_perm": tuple((j - 1) % 12
                                                        for j in range(12))}
        assert np.abs(apply_channel(out.channel, rho).coords
                      - sigma.coords).max() <= 1e-8


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(1, 3), st.integers(1, 6), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_sector_matching_agrees_with_brute_force(N, n, distinct, permuted, seed):
    """A relabeling is returned exactly when one of the N! sector
    permutations carries every spectrum within 1e-8 of its image, and the
    one returned does.  Rows are drawn from a few spectra, so several
    sectors often agree, each moved by up to 6e-9."""
    r = np.random.default_rng(seed)
    pool = r.uniform(size=(min(distinct, N), n))

    def draw(rows):
        return rows + r.uniform(-6e-9, 6e-9, size=(N, n))
    sr = draw(pool[r.integers(len(pool), size=N)])
    ss = draw(sr[r.permutation(N)] if permuted
              else pool[r.integers(len(pool), size=N)])
    brute = [p for p in itertools.permutations(range(N))
             if all(np.abs(sr[j] - ss[p[j]]).max() <= 1e-8 for j in range(N))]
    got = resource._matching_sector_perm(sr, ss)
    assert (got is None) == (not brute)
    assert got is None or got in brute


_SECTOR_MODELS = [zoo.parse_model_string(t) for t in (
    "doubled_quantum:2", "doubled_quantum:3", "doubled_quantum:5",
    "extended_classical:2x2", "extended_classical:3x2",
    "extended_classical:2x3", "extended_classical:4x1",
    "extended_classical:4x2")] + [zoo.compose_systems(dq2, dq2)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SECTOR_MODELS), st.integers(0, 2**32 - 1),
       st.sampled_from(["pure_source", "chi_target", "sector_swap"]))
def test_sectorized_witnesses_reach_the_target(m, seed, case):
    """A pure source, the invariant target and a state moved by a
    reversible that shifts every sector are each reached by a mixture of
    reversibles whose Kraus form matches its matrix."""
    r = np.random.default_rng(seed)
    rho = rand_state(m, r)
    if case == "pure_source":
        rho, sigma = StateVec(m.pure_sampler(m, r), m), rho
    elif case == "chi_target":
        sigma = m.invariant_state
    else:
        st_ = m.structure
        N = st_.block_count
        U = zoo.block_reversible(
            m, [zoo._haar_unitary(r, n, st_.field) for n in st_.dims],
            (np.arange(N) + 1 + r.integers(max(N - 1, 1))) % N)
        sigma = apply_channel(U, rho)
    out = resource.convertible(rho, sigma, "rare")
    assert out.answer == "yes"
    assert np.abs(apply_channel(out.channel, rho).coords
                  - sigma.coords).max() <= 1e-8
    assert abs(out.channel.witness["weights"].sum() - 1.0) <= 1e-12
    assert_kraus_matches(out.channel)
    for U in out.channel.witness["reversibles"]:
        assert_kraus_matches(U)


# ---------------------------------------------------------------------------
# witnesses and purification from the diagonalization's frame


_CONVERT_MODELS = [zoo.parse_model_string(t) for t in (
    "classical:4", "rebit", "quantum:3", "quantum:4", "doubled_quantum:2",
    "extended_classical:2x2", "extended_classical:3x2")]


def _conversion_pairs(model, r):
    """A pure source, the invariant target, a random pair, a target moved
    toward chi, a target moved by a reversible (equal spectra) and a pair
    that fails majorisation."""
    rho, pure = rand_state(model, r), StateVec(model.pure_sampler(model, r),
                                               model)
    return [(pure, rand_state(model, r)),
            (rho, model.invariant_state),
            (rho, rand_state(model, r)),
            (rho, StateVec(0.4 * rho.coords + 0.6 * model.chi, model)),
            (rho, apply_channel(model.group.sampler(model, r), rho)),
            (rand_state(model, r), pure)]


@pytest.mark.parametrize("model", _CONVERT_MODELS, ids=lambda m: m.model_id)
def test_no_eigenstates_built_on_the_conversion_path(monkeypatch, model):
    """Every regime's verdict and witness read the diagonalizations' frames:
    no eigenstate is built and none is kept, while a "yes" from a witness
    leaves both frames read."""
    built = []
    for module in (core, spectral):
        monkeypatch.setattr(module, "_checked_state",
                            lambda *a, inner=core._checked_state:
                            built.append(a) or inner(*a))
    answers = []
    for rho, sigma in _conversion_pairs(model, np.random.default_rng(48)):
        for regime in ("unital", "rare", "noisy"):
            out = resource.convertible(rho, sigma, regime)
            answers.append((regime, out.answer))
            dr, ds = diagonalize(rho), diagonalize(sigma)
            assert "eigenstates" not in dr.__dict__
            assert "eigenstates" not in ds.__dict__
            if out.channel is not None:
                assert "frame" in dr.__dict__ and "frame" in ds.__dict__
    assert built == []
    assert {("unital", "yes"), ("unital", "no"), ("rare", "yes"),
            ("rare", "no"), ("noisy", "yes")} <= set(answers)


def test_majorisation_analysed_once_per_pair(monkeypatch):
    """The unital and rare verdicts on one pair share one prefix check and
    one mixing chain, kept on the source's diagonalization for the last
    target only; another target, even one with the same coordinates, is
    analysed afresh."""
    chains = _counting(monkeypatch, resource, "t_transform_chain")
    prefixes = _counting(monkeypatch, resource,
                               "_majorization_certificate")
    r = np.random.default_rng(49)
    rho = rand_state(q3, r)
    sigma = StateVec(0.5 * rho.coords + 0.5 * q3.chi, q3)
    unital = resource.convertible(rho, sigma, "unital")
    rare = resource.convertible(rho, sigma, "rare")
    assert rare.answer == "yes" and len(chains) == len(prefixes) == 1
    D = unital.certificate["stochastic_matrix"]
    assert not D.flags.writeable
    with pytest.raises(ValueError):
        D[0, 0] = 0.0
    assert diagonalize(rho).__dict__["_majorization"][0] is diagonalize(sigma)
    twin = StateVec(sigma.coords, q3)
    again = resource.convertible(rho, twin, "unital")
    assert len(chains) == len(prefixes) == 2
    assert again.certificate["stochastic_matrix"] is not D
    assert _same_array(again.certificate["stochastic_matrix"], D)
    # a refusal's certificate is a copy, so no caller can edit the kept one
    no = resource.convertible(sigma, rho, "unital")
    no.certificate["prefix_index"] = -1
    assert resource.convertible(sigma, rho, "rare").certificate[
        "prefix_index"] == 0
    assert len(prefixes) == 3


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_kraus(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert len(got) == len(want)
        assert all(_same_array(np.asarray(g), np.asarray(w))
                   for g, w in zip(got, want))


def _same_channel(got, want):
    assert got.tags == want.tags
    assert _same_array(got.matrix, want.matrix)
    _same_kraus(got.kraus, want.kraus)
    if "weights" in (want.witness or {}):
        assert _same_array(got.witness["weights"], want.witness["weights"])
        assert len(got.witness["reversibles"]) == len(want.witness["reversibles"])
        for g, w in zip(got.witness["reversibles"], want.witness["reversibles"]):
            _same_channel(g, w)


def _same_certificate(got, want):
    assert got.keys() == want.keys()
    for k, w in want.items():
        if isinstance(w, np.ndarray):
            assert _same_array(got[k], w)
        else:
            assert got[k] == w


_FRAME_MODELS = _CONVERT_MODELS + [
    zoo.compose_systems(*[zoo.build_model("quantum", n=2)] * 2)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_FRAME_MODELS), st.integers(0, 2**32 - 1),
       st.sampled_from(_INPUTS), st.sampled_from(_INPUTS + ["moved"]),
       st.floats(0.05, 0.95))
def test_frame_witnesses_match_the_eigenstate_route(m, seed, kind_a, kind_b,
                                                     t):
    """The unital witness (matrix, Kraus stack, mixing matrix), the rare
    verdict with every reversible, its weights and certificate, the noisy
    verdict and `purify` are bit for bit what the builders that read
    eigenstates give (`oracles`), on fresh copies of the states.  Sources
    and targets are random, pure, pure moved toward chi (tied lower
    eigenvalues), chi, or the source moved by a reversible (equal
    spectra)."""
    r = np.random.default_rng(seed)
    rho = _input_state(m, r, kind_a, t)
    sigma = (apply_channel(m.group.sampler(m, r), rho) if kind_b == "moved"
             else _input_state(m, r, kind_b, t))
    if not resource.majorizes(diagonalize(rho).eigenvalues,
                              diagonalize(sigma).eigenvalues):
        rho, sigma = sigma, rho
    if not resource.majorizes(diagonalize(rho).eigenvalues,
                              diagonalize(sigma).eigenvalues):
        sigma = StateVec(0.5 * rho.coords + 0.5 * m.chi, m)
    outs = {regime: resource.convertible(rho, sigma, regime)
            for regime in ("unital", "rare", "noisy")}
    comps = ([spectral.purify(s)[1] for s in (rho, sigma)]
             if m.flags.is_sharp_with_purification else [])
    dr, ds = diagonalize(rho), diagonalize(sigma)
    assert "eigenstates" not in dr.__dict__ and "eigenstates" not in ds.__dict__

    rho2, sigma2 = StateVec(rho.coords, m), StateVec(sigma.coords, m)
    er, es = diagonalize(rho2), diagonalize(sigma2)
    D = resource.t_transform_chain(er.eigenvalues, es.eigenvalues)
    M, kraus = oracles.measure_and_prepare_eigenstates(er, es, D)
    unital = outs["unital"]
    assert unital.answer == "yes"
    assert _same_array(unital.channel.matrix, M)
    _same_kraus(unital.channel.kraus, kraus)
    assert _same_array(unital.certificate["stochastic_matrix"], D)
    assert not unital.certificate["stochastic_matrix"].flags.writeable

    ref = oracles.rare_verdict_eigenstates(rho2, sigma2, er, es)
    for regime in ("rare", "noisy"):
        out = outs[regime]
        if regime == "noisy" and ref.answer != "yes":
            assert out.answer == "unknown" and out.channel is None
            continue
        assert out.answer == ref.answer
        _same_certificate(out.certificate, ref.certificate)
        assert (out.channel is None) == (ref.channel is None)
        if ref.channel is not None:
            _same_channel(out.channel, ref.channel)

    for psi, s in zip(comps, (rho2, sigma2)):
        assert _same_array(psi.coords, oracles.purify_eigenstates(s))


def _small_model(kind):
    fam = zoo.FAMILIES[kind]
    return zoo.build_model(kind, **{name: max(low, 2)
                                    for name, low in fam.params})


class TestConvertibleContract:
    REGIMES = ("unital", "rare", "noisy")

    def test_states_of_different_models_refused(self):
        # both models have D=4, so nothing but the model check can notice
        a = rand_state(cl4)
        b = rand_state(zoo.build_model("quantum", n=2))
        for regime in self.REGIMES:
            with pytest.raises(ModelCompatibilityError):
                resource.convertible(a, b, regime)
        for build in (resource.build_unital_channel,
                      resource.build_rare_channel):
            with pytest.raises(ModelCompatibilityError):
                build(a, b)

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("model", [q3, cl4, dq2, ec22],
                             ids=lambda m: m.model_id)
    def test_each_state_diagonalized_once(self, monkeypatch, model, regime):
        r = np.random.default_rng(47)
        pairs = [(rand_state(model, r), rand_state(model, r)),
                 (model.invariant_state, zoo.pure_maximal_set(model)[0]),
                 (zoo.pure_maximal_set(model)[0], model.invariant_state)]
        # equal spectra: on the sectorized models the verdict groups both
        # eigenbases by sector
        rho = rand_state(model, r)
        pairs.append((rho, apply_channel(model.group.sampler(model, r), rho)))
        for rho, sigma in pairs:
            seen = []

            def counting(state):
                seen.append(state)
                return diagonalize(state)

            monkeypatch.setattr(resource, "diagonalize", counting)
            resource.convertible(rho, sigma, regime)
            assert seen == [rho, sigma]

    @pytest.mark.parametrize("kind", sorted(zoo.FAMILIES))
    def test_noisy_reads_rare_and_majorisation(self, kind):
        model = _small_model(kind)
        r = np.random.default_rng(53)
        states = [model.invariant_state, rand_state(model, r),
                  rand_state(model, r)]
        if model.capacity >= 2:
            states.append(zoo.pure_maximal_set(model)[0])
        for rho, sigma in [(states[-1], states[0]), (states[0], states[-1]),
                           (states[1], states[2]), (states[1], states[0])]:
            try:
                spectra = [diagonalize(s).eigenvalues for s in (rho, sigma)]
            except DiagonalizationError:
                with pytest.raises(DiagonalizationError):
                    resource.convertible(rho, sigma, "noisy")
                continue
            out = resource.convertible(rho, sigma, "noisy")
            cert = resource._majorization_certificate(*spectra)
            if cert is not None and model.structure is None:
                # on a polytope the spectra do not decide convertibility
                assert out.answer == "unknown"
                assert "matrix families" in out.certificate["reason"]
            elif cert is not None:
                assert out.answer == "no"
                assert out.certificate == cert
            elif resource.convertible(rho, sigma, "rare").answer == "yes":
                assert out.answer == "yes"
                moved = apply_channel(out.channel, rho)
                assert np.abs(moved.coords - sigma.coords).max() < 1e-8
            else:
                assert out.answer == "unknown"


    @pytest.mark.parametrize("regime", REGIMES)
    def test_polytope_majorisation_failure_is_unknown(self, regime):
        # half the identity plus half the quarter turn, a mixture of
        # reversibles, takes [1,0,1] to [0.5,0.5,1], although the spectra
        # fail majorisation (prefix 0.5 against 0.75)
        sq = zoo.build_model("square_bit")
        rho = StateVec(np.array([1.0, 0.0, 1.0]), sq)
        sigma = StateVec(np.array([0.5, 0.5, 1.0]), sq)
        turn = sq.group.generators[0]
        mix = 0.5 * (np.eye(3) + turn)
        assert np.abs(mix @ rho.coords - sigma.coords).max() == 0
        spectra = [diagonalize(s).eigenvalues for s in (rho, sigma)]
        assert resource._majorization_certificate(*spectra) is not None
        out = resource.convertible(rho, sigma, regime)
        assert out.answer == "unknown"
        assert out.channel is None


class TestAxioms:
    @pytest.mark.parametrize("kind,kwargs,expect", [
        ("quantum", dict(n=2), (True, True)),
        ("quantum", dict(n=3), (True, True)),
        ("classical", dict(d=4), (True, True)),
        ("rebit", dict(), (True, True)),
        ("doubled_quantum", dict(n=2), (False, False)),
        ("extended_classical", dict(N=2, n=2), (False, False)),
        ("extended_classical", dict(N=3, n=1), (True, True)),
        ("square_bit", dict(), (True, False)),
    ])
    def test_axiom_table(self, kind, kwargs, expect):
        m = zoo.build_model(kind, **kwargs)
        rep = resource.check_unrestricted_reversibility(m)
        assert (rep["permutability"], rep["strong_symmetry"]) == expect

    def test_doubled_counterexample_is_verified(self):
        rep = resource.check_unrestricted_reversibility(dq2)
        assert rep["counterexample_verified"]

    def test_square_witness_reported(self):
        sq = zoo.build_model("square_bit")
        witness = resource.check_unrestricted_reversibility(sq)[
            "strong_symmetry_counterexample"]
        # the first ordered edge, which no symmetry carries onto a diagonal
        assert witness == {"source": [[1.0, 1.0, 1.0], [1.0, -1.0, 1.0]],
                           "target": [[1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]]}
        src, dst = np.array(witness["source"]), np.array(witness["target"])
        assert all(np.abs(src @ M.T - dst).max() > 1 for M in
                   sq.group.table[1])
