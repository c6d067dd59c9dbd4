import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from gptt import resource, zoo
from gptt.core import (DiagonalizationError, GPTError, ModelCompatibilityError,
                       StateVec, UnsupportedModelError, apply_channel, compose)
from gptt.embedding import blocks_to_vec
from gptt.spectral import diagonalize
from oracles import doubly_stochastic_exists, majorizes as oracle_majorizes

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
        for model in (dq2, ec22):
            rho = rand_state(model, r)
            out = resource.convertible(rho, model.invariant_state, "rare")
            assert out.answer == "yes"
            moved = apply_channel(out.channel, rho)
            assert np.abs(moved.coords - model.chi).max() < 1e-8
            # the family is fixed data of the model, built once
            fam = resource._uniformizing_mixture(model)
            assert out.channel.witness["reversibles"] == fam
            assert resource._uniformizing_mixture(model) is fam

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
        turn = sq.group.generators[0][0]
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
        rep = resource.check_unrestricted_reversibility(
            zoo.build_model("square_bit"))
        assert "strong_symmetry_counterexample" in rep
