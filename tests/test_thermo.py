import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import logsumexp

from gptt import core, embedding, resource, spectral, thermo, zoo
from gptt.core import (ChannelMap, EffectVec, GPTError, StateVec,
                       UnsupportedModelError, apply_channel, lift_channel)
from gptt.embedding import blocks_to_vec, conjugation_matrix, vec_to_blocks
from gptt.spectral import dagger, diagonalize
import oracles

rng = np.random.default_rng(5)

q2 = zoo.build_model("quantum", n=2)
q3 = zoo.build_model("quantum", n=3)
cl3 = zoo.build_model("classical", d=3)
dq2 = zoo.build_model("doubled_quantum", n=2)

H01 = np.zeros(q2.vector_dim)
H01[1] = 1.0  # energies (0, 1) in the canonical basis


def rand_state(m, r=rng):
    return StateVec(m.state_sampler(m, r), m)


class TestEntropy:
    @pytest.mark.parametrize("model", [q2, q3, cl3, dq2],
                             ids=lambda m: m.model_id)
    def test_range_and_extremes(self, model):
        assert abs(thermo.entropy(model.invariant_state)
                   - math.log(model.capacity)) < 1e-9
        r = np.random.default_rng(1)
        psi = StateVec(model.pure_sampler(model, r), model)
        assert thermo.entropy(psi) < 1e-8

    def test_matches_oracle_family(self):
        r = np.random.default_rng(2)
        for _ in range(40):
            s = rand_state(q3, r)
            p = np.asarray(diagonalize(s).eigenvalues)
            for alpha in (0.0, 0.5, 1.0, 2.0, math.inf):
                assert abs(thermo.entropy(s, alpha)
                           - oracles.renyi(p, alpha)) < 1e-8

    def test_orders_are_monotone(self):
        r = np.random.default_rng(3)
        for _ in range(20):
            s = rand_state(q3, r)
            vals = [thermo.entropy(s, a) for a in (0, 0.5, 1, 2, math.inf)]
            assert all(vals[i] >= vals[i + 1] - 1e-10
                       for i in range(len(vals) - 1))

    def test_negative_order_refused(self):
        with pytest.raises(ValueError):
            thermo.entropy(q2.invariant_state, alpha=-0.5)


    @pytest.mark.parametrize("model", [
        q2, q3, cl3, dq2, zoo.build_model("extended_classical", N=2, n=2),
        zoo.compose_systems(q2, q2), zoo.compose_systems(dq2, dq2)],
        ids=lambda m: m.model_id)
    def test_untied_spectrum_builds_no_eigenstates(self, monkeypatch, model):
        calls = []
        for module in (spectral, core):
            for name in ("rank_one_coords", "canonical_rows", "_checked_state"):
                if hasattr(module, name):
                    inner = getattr(module, name)
                    monkeypatch.setattr(module, name, lambda *a, f=inner: (
                        calls.append(a), f(*a))[1])
        s = rand_state(model, np.random.default_rng(16))
        values = np.round(np.sort(diagonalize(s).eigenvalues), 12)
        assert np.diff(values).min() > 0   # no two eigenvalues tie
        for alpha in (0, 1, 2, math.inf):
            thermo.entropy(s, alpha)
        assert calls == []
        assert "eigenstates" not in diagonalize(s).__dict__


class TestRelativeEntropy:
    def test_zero_on_identical(self):
        s = rand_state(q3)
        assert thermo.relative_entropy(s, s) < 1e-9

    def test_pure_vs_flat(self):
        psi = StateVec(q3.pure_sampler(q3, rng), q3)
        assert abs(thermo.relative_entropy(psi, q3.invariant_state)
                   - math.log(3)) < 1e-9

    def test_infinite_outside_support(self):
        basis = zoo.pure_maximal_set(q2)
        assert math.isinf(thermo.relative_entropy(basis[0], basis[1]))

    def test_matches_quantum_formula(self):
        r = np.random.default_rng(4)
        for _ in range(30):
            a, b = rand_state(q3, r), rand_state(q3, r)
            got = thermo.relative_entropy(a, b)
            A = vec_to_blocks(a.coords, q3.structure)[0]
            B = vec_to_blocks(b.coords, q3.structure)[0]
            assert abs(got - oracles.quantum_relative_entropy(A, B)) < 1e-7

    def test_klein_positivity(self):
        r = np.random.default_rng(6)
        for m in (q2, cl3, dq2):
            for _ in range(10):
                a, b = rand_state(m, r), rand_state(m, r)
                assert thermo.relative_entropy(a, b) >= -1e-10

    @pytest.mark.parametrize("model", [q2, q3, cl3, dq2],
                             ids=lambda m: m.model_id)
    def test_list_loop_keeps_the_bits(self, model):
        """The loop over Python floats gives the bytes of the loop over
        numpy scalars (`oracles`) as a Python float: random pairs, pairs
        with zero eigenvalues on either side, and pairs whose answer is
        inf."""
        r = np.random.default_rng(8)
        mixed = [rand_state(model, r) for _ in range(6)]
        pure = [StateVec(model.pure_sampler(model, r), model)
                for _ in range(3)]
        basis = zoo.pure_maximal_set(model)
        pairs = [(a, b) for a in mixed + pure[:1] for b in mixed[:3] + pure]
        pairs += [(basis[0], basis[1]), (basis[0], basis[0])]
        answers = []
        for a, b in pairs:
            da, db = diagonalize(a), diagonalize(b)
            got = thermo._relative_entropy(da, db)
            want = oracles.relative_entropy_scalars(da, db)
            assert type(got) is float
            assert got.hex() == float(want).hex()
            answers.append(got)
        assert math.inf in answers and 0.0 in answers


class TestBipartite:
    def test_bell_pair(self):
        comp = zoo.compose_systems(q2, q2)
        psi = np.zeros(4)
        psi[0] = psi[3] = 1 / math.sqrt(2)
        bell = StateVec(blocks_to_vec([np.outer(psi, psi)], comp.structure),
                        comp)
        ents = thermo.bipartite_entropies(bell)
        assert abs(ents["joint"]) < 1e-9
        assert abs(ents["marginal_0"] - math.log(2)) < 1e-9
        assert abs(ents["mutual"] - 2 * math.log(2)) < 1e-9
        assert abs(ents["conditional_0_given_1"] + math.log(2)) < 1e-9

    def test_product_has_no_mutual_information(self):
        comp = zoo.compose_systems(q2, q2)
        from gptt.core import tensor_states
        ab = tensor_states(comp, rand_state(q2), rand_state(q2))
        ents = thermo.bipartite_entropies(ab)
        assert abs(ents["mutual"]) < 1e-8

    @pytest.mark.parametrize("factory", [
        lambda: zoo.compose_systems(q2, q2),
        lambda: zoo.compose_systems(dq2, dq2),
    ])
    def test_subadditivity_and_triangle(self, factory):
        comp = factory()
        r = np.random.default_rng(8)
        for _ in range(15):
            s = StateVec(comp.state_sampler(comp, r), comp)
            e = thermo.bipartite_entropies(s)
            assert e["joint"] <= e["marginal_0"] + e["marginal_1"] + 1e-8
            assert e["joint"] >= abs(e["marginal_0"] - e["marginal_1"]) - 1e-8


class TestMonotones:
    def test_spectral_measurement_minimizes(self):
        r = np.random.default_rng(9)
        for _ in range(5):
            s = rand_state(q3, r)
            rep = thermo.monotone_audit(s, thermo.shannon, n_random=10, rng=r)
            assert rep["spectral_attains_minimum"]

    def test_split_outcome_changes_nothing(self):
        s = rand_state(q3)
        d = diagonalize(s)
        effs = [dagger(x) for x in d.eigenstates]
        from gptt.core import EffectVec
        split = [effs[0], effs[1],
                 EffectVec(effs[2].coords * 0.5, q3),
                 EffectVec(effs[2].coords * 0.5, q3)]
        probs = thermo.measurement_distribution(s, split)
        merged = thermo._merge_proportional(split, probs)
        assert abs(thermo.shannon(merged) - thermo.entropy(s)) < 1e-9

    def test_incomplete_measurement_refused(self):
        s = rand_state(q3)
        d = diagonalize(s)
        with pytest.raises(GPTError):
            thermo.measurement_distribution(s, [dagger(d.eigenstates[0])])


class TestGibbs:
    def test_textbook_two_level(self):
        g = thermo.gibbs_state(q2, H01, math.log(3))
        w = np.sort(np.asarray(diagonalize(g).eigenvalues))
        assert np.abs(w - [0.25, 0.75]).max() < 1e-12
        assert abs(thermo.mean_energy(g, H01) - 0.25) < 1e-12

    def test_beta_zero_is_flat(self):
        assert np.abs(thermo.gibbs_state(q2, H01, 0.0).coords
                      - q2.chi).max() < 1e-12

    def test_infinite_beta_ground_state(self):
        g = thermo.gibbs_state(q2, H01, math.inf)
        assert abs(thermo.mean_energy(g, H01)) < 1e-12
        g = thermo.gibbs_state(q2, H01, -math.inf)
        assert abs(thermo.mean_energy(g, H01) - 1) < 1e-12

    def test_degenerate_hamiltonian(self):
        flat = np.zeros(q2.vector_dim)
        for beta in (-2.0, 0.0, 5.0):
            g = thermo.gibbs_state(q2, flat, beta)
            assert np.abs(g.coords - q2.chi).max() < 1e-12

    def test_stabilized_at_large_beta(self):
        g = thermo.gibbs_state(q2, H01, 500.0)
        assert np.all(np.isfinite(g.coords))

    @pytest.mark.parametrize("beta", [800.0, 1e308, -800.0, -1e308])
    def test_large_beta_reaches_limit(self, beta):
        # degenerate top level: beta -> -inf spreads over two states
        h = thermo.basis_hamiltonian(zoo.pure_maximal_set(q3), [0.0, 1.0, 1.0])
        g = thermo.gibbs_state(q3, h, beta)
        limit = thermo.gibbs_state(q3, h, math.copysign(math.inf, beta))
        assert np.abs(g.coords - limit.coords).max() < 1e-12
        S, E = thermo.entropy(g), thermo.mean_energy(g, h)
        assert thermo.entropy_identity_residual(q3, h, beta, S, E) < 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model, levels, beta, limit", [
        (q2, [0.0, 1.0], math.inf, 0.0),
        (q2, [1.0, 2.0], math.inf, -math.inf),
        (q2, [-1.0, 0.0], -math.inf, 0.0),
        (q2, [1.0, 2.0], -math.inf, math.inf),
        (q3, [-1.0, 0.0, 0.0], -math.inf, math.log(2)),
    ])
    def test_log_partition_at_infinite_beta(self, model, levels, beta, limit):
        h = thermo.basis_hamiltonian(zoo.pure_maximal_set(model), levels)
        assert thermo.log_partition(model, h, beta) == limit

    def test_polytope_refused(self):
        sq = zoo.build_model("square_bit")
        with pytest.raises(GPTError):
            thermo.gibbs_state(sq, np.zeros(3), 1.0)

    @pytest.mark.parametrize("kind", ["square_bit", "diamond_bit",
                                      "restricted_trit"])
    def test_polytope_refused_by_energy_solvers(self, kind):
        m = zoo.build_model(kind)
        h = np.array([0.0, 1.0, 3.0])
        with pytest.raises(UnsupportedModelError):
            thermo.beta_from_energy(m, h, 1.0)
        with pytest.raises(UnsupportedModelError):
            thermo.log_partition(m, h, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_energy_solvers_refuse_non_finite(self, bad):
        h = H01.copy()
        h[0] = bad
        for solve in (lambda: thermo.gibbs_state(q2, h, 0.7),
                      lambda: thermo.log_partition(q2, h, 1.0),
                      lambda: thermo.beta_from_energy(q2, h, 0.5),
                      lambda: thermo.entropy_identity_residual(
                          q2, h, 1.0, 0.5, 0.5)):
            with pytest.raises(ValueError, match="NaN or infinite"):
                solve()


def same_bits(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class TestScipyKernels:
    """The log-sum-exp of `_shifted_log_partition` and the root finder
    `_brentq` return the very floats of the scipy routines they port."""

    @settings(max_examples=300, deadline=None)
    @given(levels=st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, -2.0]),
                                     st.floats(-1e6, 1e6)),
                           min_size=1, max_size=24),
           beta=st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300,
                                           math.inf, -math.inf]),
                          st.floats(-1e4, 1e4)))
    def test_log_sum_exp_is_scipys(self, levels, beta):
        levels = np.array(levels)
        with np.errstate(over="ignore", invalid="ignore"):  # beta = +-inf
            e0, got = thermo._shifted_log_partition(levels, beta)
            ref = float(logsumexp(-beta * (levels - e0)))
        assert same_bits(got, ref)

    @settings(max_examples=200, deadline=None)
    @given(levels=st.lists(st.one_of(st.sampled_from([0.0, 1.0, -0.5]),
                                     st.floats(-50, 50)),
                           min_size=3, max_size=3),
           t=st.one_of(st.sampled_from([1e-3, 1 - 1e-3]),
                       st.floats(0, 1)))
    # 1e-11 above the ground level, 1e-9 below the next: beta is 4.6e9
    @example(levels=[0.0, 1.0, 1e-9], t=1e-11)
    def test_beta_root_is_scipys(self, levels, t):
        h = np.zeros(q3.vector_dim)
        for E, s in zip(levels, zoo.pure_maximal_set(q3)):
            h += E * dagger(s).coords
        lo, hi = min(levels), max(levels)
        assume(hi - lo == 0 or hi - lo >= 1e-3)
        roots = []
        port = thermo._brentq

        def both(f, a, b, **kw):
            got = port(f, a, b, **kw)
            assert got == brentq(f, a, b, **kw)
            roots.append(got)
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(thermo, "_brentq", both)
            beta = thermo.beta_from_energy(q3, h, lo + t * (hi - lo))
        assert roots == ([] if math.isinf(beta) or hi - lo <= 1e-12
                         else [beta])

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["cubic", "tanh", "sine"]),
           root=st.floats(-10, 10), scale=st.floats(1e-3, 1e3),
           a=st.floats(-20, 20), b=st.floats(-20, 20))
    def test_brentq_is_scipys(self, kind, root, scale, a, b):
        f = {"cubic": lambda x: scale * (x - root) * (1 + (x - root) ** 2),
             "tanh": lambda x: math.tanh(scale * (x - root)),
             "sine": lambda x: math.sin(scale * (x - root))}[kind]
        kw = dict(xtol=1e-14, rtol=8.9e-16, maxiter=200)
        try:
            ref = brentq(f, a, b, **kw)
        except ValueError:
            with pytest.raises(ValueError, match="different signs"):
                thermo._brentq(f, a, b, **kw)
            return
        except RuntimeError:  # no root within maxiter steps
            with pytest.raises(GPTError, match="did not converge"):
                thermo._brentq(f, a, b, **kw)
            return
        assert thermo._brentq(f, a, b, **kw) == ref


class TestBetaSolve:
    def test_textbook_value(self):
        assert abs(thermo.beta_from_energy(q2, H01, 0.25)
                   - math.log(3)) < 1e-10

    def test_roundtrip(self):
        r = np.random.default_rng(10)
        levels = np.array([0.0, 0.7, 1.3])
        h = np.zeros(q3.vector_dim)
        for E, s in zip(levels, zoo.pure_maximal_set(q3)):
            h += E * dagger(s).coords
        for _ in range(20):
            beta = float(r.uniform(-4, 4))
            E = thermo.mean_energy(thermo.gibbs_state(q3, h, beta), h)
            back = thermo.beta_from_energy(q3, h, E)
            assert abs(back - beta) < 1e-8

    def test_boundaries(self):
        assert thermo.beta_from_energy(q2, H01, 0.0) == math.inf
        assert thermo.beta_from_energy(q2, H01, 1.0) == -math.inf
        with pytest.raises(ValueError):
            thermo.beta_from_energy(q2, H01, 1.5)


class TestMaxEnt:
    def test_identity_and_shell(self):
        rep = thermo.max_entropy_audit(q2, H01, 0.25, n_samples=25,
                                       rng=np.random.default_rng(11))
        assert rep["identity_residual"] < 1e-9
        assert rep["all_below"]
        assert abs(rep["entropy"]
                   - (math.log(3) / 4 + math.log(4 / 3))) < 1e-9
        assert rep["shell_samples"] > 0
        assert rep["max_shell_entropy"] <= rep["entropy"] + 1e-8

    @pytest.mark.parametrize("levels, energy, beta", [
        ((0.0, 0.0, 1.0), 0.0, math.inf), ((0.0, 1.0, 1.0), 1.0, -math.inf)])
    def test_band_edge(self, levels, energy, beta):
        """At an edge of the band the equilibrium state is uniform on the
        edge level: beta is infinite, the identity S = beta E + log Z is not
        formed, and the entropy is the log of the level's degeneracy."""
        h = thermo.basis_hamiltonian(zoo.pure_maximal_set(q3), levels)
        rep = thermo.max_entropy_audit(q3, h, energy)
        assert rep["beta"] == beta
        assert math.isnan(rep["identity_residual"])
        assert abs(rep["entropy"] - math.log(2)) <= 1e-12


class TestLandauer:
    def test_ledger_identity_random_reversibles(self):
        comp = zoo.compose_systems(q2, q2)
        r = np.random.default_rng(12)
        for beta in (0.5, 1.0, 2.0):
            for _ in range(6):
                rho = rand_state(q2, r)
                U = comp.group.sampler(comp, r)
                led = thermo.landauer_ledger(U, rho, H01, beta, comp)
                assert led.equality_residual < 1e-7
                assert led.bound_satisfied
                assert led.second_law_residual >= -1e-9
                assert led.mutual_term >= -1e-10
                assert led.relent_term >= -1e-10

    def test_infinite_temperature(self):
        """At beta = 0 the environment starts uniform and kT is infinite:
        the bound holds, the identity dE = kT (drop + I + D) is not formed,
        and beta dE = 0 leaves drop + I + D = 0."""
        comp = zoo.compose_systems(q2, q2)
        r = np.random.default_rng(15)
        for _ in range(4):
            led = thermo.landauer_ledger(comp.group.sampler(comp, r),
                                         rand_state(q2, r), H01, 0.0, comp)
            assert led.kT == math.inf and led.bound_satisfied
            assert math.isnan(led.equality_residual)
            assert abs(led.entropy_drop_system + led.mutual_term
                       + led.relent_term) <= 1e-9

    def test_identity_channel_all_zero(self):
        comp = zoo.compose_systems(q2, q2)
        idm = q2.make_reversible(np.eye(q2.vector_dim), kraus=[np.eye(2)])
        led = thermo.landauer_ledger(lift_channel(comp, idm, 0),
                                     rand_state(q2), H01, 1.0, comp)
        assert abs(led.delta_E_env) < 1e-10
        assert abs(led.entropy_drop_system) < 1e-9
        assert abs(led.mutual_term) < 1e-9
        assert abs(led.relent_term) < 1e-9

    def test_swap_channel_relent_identity(self):
        comp = zoo.compose_systems(q2, q2)
        rho = rand_state(q2, np.random.default_rng(13))
        led = thermo.landauer_ledger(zoo.swap_channel(comp), rho, H01, 1.0,
                                     comp)
        gam = thermo.gibbs_state(q2, H01, 1.0)
        assert abs(led.relent_term
                   - thermo.relative_entropy(rho, gam)) < 1e-8
        assert abs(led.mutual_term) < 1e-9
        assert led.equality_residual < 1e-7

    def test_each_state_diagonalized_once(self, monkeypatch):
        comp = zoo.compose_systems(q2, q2)
        r = np.random.default_rng(14)
        rho, U = rand_state(q2, r), comp.group.sampler(comp, r)
        seen = []

        def counting(state):
            seen.append(state)
            return diagonalize(state)

        monkeypatch.setattr(thermo, "diagonalize", counting)
        led = thermo.landauer_ledger(U, rho, H01, 1.0, comp)
        # system in/out, environment in/out, joint in/out
        assert len(seen) == 6
        assert sorted(led.details) == [
            "S_env_in", "S_env_out", "S_system_in", "S_system_out",
            "joint_entropy_in", "joint_entropy_out"]

    @pytest.mark.parametrize("model", [q2, dq2], ids=lambda m: m.model_id)
    def test_no_eigenstates_built_on_the_ledger_path(self, monkeypatch, model):
        """A ledger and a bare relative entropy build no eigenstate and no
        frame, since the transition matrix pairs the kept block
        eigenvectors, and each of the ledger's six states is diagonalized
        exactly once."""
        comp = zoo.compose_systems(model, model)
        r = np.random.default_rng(17)
        rho, U = rand_state(model, r), comp.group.sampler(comp, r)
        h = blocks_to_vec([np.diag(np.arange(n, dtype=float) + b)
                           for b, n in enumerate(model.structure.dims)],
                          model.structure)
        seen, made, builds = [], [], []

        def counting(state):
            seen.append((state, diagonalize(state)))
            return seen[-1][1]

        make, build = spectral.Diagonalization, spectral._certified_rows
        monkeypatch.setattr(thermo, "diagonalize", counting)
        monkeypatch.setattr(spectral, "Diagonalization",
                            lambda *a: made.append(a) or make(*a))
        monkeypatch.setattr(spectral, "_certified_rows",
                            lambda *a: builds.append(a) or build(*a))
        led = thermo.landauer_ledger(U, rho, h, 1.0, comp)
        assert len(seen) == len(made) == 6
        assert len({id(s) for s, _ in seen}) == 6
        assert all("eigenstates" not in d.__dict__
                   and "frame" not in d.__dict__ for _, d in seen)
        # the environment's output and its Gibbs state, afresh
        gamma = thermo.gibbs_state(model, h, 1.0)
        out_E = core.marginal(apply_channel(
            U, core.tensor_states(comp, rho, gamma)), 1)
        assert thermo.relative_entropy(out_E, gamma) == led.relent_term
        assert len(made) == 8 and builds == []


class TestErasure:
    def test_flat_qubit_demo(self):
        demo = thermo.erasure_demo(q2.invariant_state, 1.0)
        assert abs(demo["delta_E_env"]) < 1e-10
        assert demo["system_entropy_after"] < 1e-9
        assert abs(demo["system_entropy_before"] - math.log(2)) < 1e-12
        assert abs(demo["conditional_before"] + math.log(2)) < 1e-9
        assert demo["memory_not_degraded"]
        assert abs(demo["assisted_bound_rhs"] + math.log(2)) < 1e-12
        assert demo["bound_satisfied"]

    def test_generic_mixed_state(self):
        rho = rand_state(q2, np.random.default_rng(14))
        demo = thermo.erasure_demo(rho, 2.0)
        assert abs(demo["delta_E_env"]) < 1e-10
        assert demo["system_entropy_after"] < 1e-8
        assert abs(demo["conditional_before"]
                   + demo["system_entropy_before"]) < 1e-8

    def test_doubled_model(self):
        rho = rand_state(dq2, np.random.default_rng(15))
        demo = thermo.erasure_demo(rho, 1.0)
        assert abs(demo["delta_E_env"]) < 1e-10
        assert demo["system_entropy_after"] < 1e-8

    def test_pure_input_refused(self):
        psi = StateVec(q2.pure_sampler(q2, rng), q2)
        with pytest.raises(GPTError, match="pure"):
            thermo.erasure_demo(psi, 1.0)

    def test_doubled_erasure_memory(self):
        """The lifted U_SM on the D = 2048 triple is applied through its one
        Kraus operator: no coordinate matrix of 32 MiB, or its copy, is made
        (the dense route peaked at 64.7 MB)."""
        rho = rand_state(dq2, np.random.default_rng(18))
        tracemalloc.start()
        try:
            thermo.erasure_demo(rho, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_low_rank_triples_stay_small(self):
        """The two triple states an erasure on extended_classical:3x2
        diagonalizes have 216 eigenvalues, most of them tied at 0; ordering
        them makes no eigenstate row, so the traced peak stays below 40 MB
        (124.6 MB when ties were broken by coordinates)."""
        model = zoo.parse_model_string("extended_classical:3x2")
        rho = rand_state(model, np.random.default_rng(0))
        tracemalloc.start()
        try:
            thermo.erasure_demo(rho, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    @pytest.mark.parametrize("model", [q2, dq2], ids=lambda m: m.model_id)
    def test_no_conjugation_matrix_on_the_triple(self, monkeypatch, model):
        """Every coordinate matrix an erasure builds is on the system or on
        the system-memory composite, never on the triple system."""
        rho = rand_state(model, np.random.default_rng(19))
        comp, _ = spectral.purify(rho)
        triple = zoo.compose_systems(comp, comp.composite.factors[1])
        seen, build = [], embedding.conjugation_matrices

        def counting(ops, structure, out=None):
            seen.append(structure)
            return build(ops, structure, out)

        monkeypatch.setattr(embedding, "conjugation_matrices", counting)
        monkeypatch.setattr(zoo, "conjugation_matrices", counting)
        thermo.erasure_demo(rho, 1.0)
        assert seen and triple.structure not in seen


class TestSecondLawLemma:
    def test_unital_channels_never_lower_entropy(self):
        from gptt import resource
        r = np.random.default_rng(16)
        for _ in range(10):
            rho = rand_state(q3, r)
            d = diagonalize(rho)
            D0 = np.full((3, 3), 1 / 3.0)
            mixed = 0.5 * np.asarray(d.eigenvalues) \
                + 0.5 * (D0 @ np.asarray(d.eigenvalues))
            sigma = StateVec(sum(float(w) * s.coords
                                 for w, s in zip(np.sort(mixed)[::-1],
                                                 d.eigenstates)), q3)
            ch = resource.build_unital_channel(rho, sigma).channel
            out = apply_channel(ch, rho)
            assert thermo.entropy(out) >= thermo.entropy(rho) - 1e-9


class TestNegativeTemperatureBounds:
    """At beta < 0 the ledger identity dE = kT (drop + I + D), with I and D
    nonnegative and kT negative, gives dE <= kT * drop: both bounds flip."""

    @pytest.mark.parametrize("beta", [-2.0, -0.5])
    @pytest.mark.parametrize("model", [q2, q3, dq2], ids=lambda m: m.model_id)
    def test_landauer_bound_reverses(self, model, beta):
        comp = zoo.compose_systems(model, model)
        h = thermo.basis_hamiltonian(zoo.pure_maximal_set(model),
                                     np.arange(model.capacity, dtype=float))
        r = np.random.default_rng(16)
        for _ in range(4):
            led = thermo.landauer_ledger(comp.group.sampler(comp, r),
                                         rand_state(model, r), h, beta, comp)
            assert led.equality_residual < 1e-7
            assert led.delta_E_env <= led.kT * led.entropy_drop_system + 1e-7
            assert led.bound_satisfied

    @pytest.mark.parametrize("beta", [-2.0, -0.5])
    @pytest.mark.parametrize("model", [q2, q3, dq2], ids=lambda m: m.model_id)
    def test_assisted_bound_reverses(self, model, beta):
        demo = thermo.erasure_demo(rand_state(model, np.random.default_rng(17)),
                                   beta)
        rhs = -demo["system_entropy_before"] / beta
        assert abs(demo["assisted_bound_rhs"] - rhs) < 1e-12 and rhs > 0
        assert demo["delta_E_env"] <= rhs
        assert demo["bound_satisfied"]

    @pytest.mark.parametrize("beta, level", [(1.0, 0), (-1.0, 1)])
    def test_bound_still_refuses_a_reset(self, beta, level):
        """A channel that resets the environment to one level is not
        reversible, so the identity does not protect the bound: with the
        system untouched (no entropy drop), a reset to the ground level at
        beta > 0 and to the top level at beta < 0 each break it."""
        comp = zoo.compose_systems(q2, q2)
        kraus = [np.outer(np.eye(2)[level], e) for e in np.eye(2)]
        reset = ChannelMap(conjugation_matrix(kraus, q2.structure), q2, q2,
                           kraus=tuple(kraus))
        led = thermo.landauer_ledger(lift_channel(comp, reset, 1),
                                     rand_state(q2), H01, beta, comp)
        assert abs(led.entropy_drop_system) < 1e-9
        assert abs(led.delta_E_env) > 0.1
        assert not led.bound_satisfied


class TestClippedInputs:
    """Distributions and doubly stochastic matrices holding -0.0, tiny
    negatives and exact zeros are clipped at zero with np.maximum, and the
    entropies, relative entropies, measurement distributions and Birkhoff
    terms keep the bytes they had under np.clip(x, 0.0, None) (the tables,
    as float.hex)."""

    DISTS = [[0.5, -0.0, 0.5], [0.7, 0.3, -1e-17], [0.0, 1.0, 0.0],
             [-0.0, -0.0, 1.0], [0.25, 0.25, 0.5, -1e-300],
             [1e-13, -1e-13, 1.0]]
    ENTROPY = [  # orders 0, 1, 2 and inf
        ['0x1.62e42fefa39efp-1',
         '0x1.62e42fefa39efp-1',
         '0x1.62e42fefa39efp-1',
         '0x1.62e42fefa39efp-1'],
        ['0x1.62e42fefa39efp-1',
         '0x1.38c334af3d409p-1',
         '0x1.16e67af787643p-1',
         '0x1.6d3c324e13f50p-2'],
        ['0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0'],
        ['0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0', '-0x0.0p+0'],
        ['0x1.193ea7aad030bp+0',
         '0x1.0a2b23f3bab73p+0',
         '0x1.f62f40794a7b8p-1',
         '0x1.62e42fefa39efp-1'],
        ['0x0.0p+0',
         '0x1.c1ffffffffe75p-44',
         '0x1.c200000000317p-43',
         '0x1.c20000000018cp-44'],
    ]
    STATES = [[0.5, 0.5, -0.0], [0.6, 0.4, 0.0], [0.5, 0.5 + 1e-17, -1e-17],
              [1.0, -0.0, -0.0], [0.2, 0.3, 0.5]]
    RELENT = [  # row: rho, column: sigma
        ['0x0.0p+0',
         '0x1.4e69ed6d80eb0p-6',
         '0x0.0p+0',
         'inf',
         '0x1.6d577f5b0fa65p-1'],
        ['0x1.49e6770c0e4f0p-6',
         '0x0.0p+0',
         '0x1.49e6770c0e4f0p-6',
         'inf',
         '0x1.8c6936373c929p-1'],
        ['0x0.0p+0',
         '0x1.4e69ed6d80eb0p-6',
         '0x0.0p+0',
         'inf',
         '0x1.6d577f5b0fa65p-1'],
        ['0x1.62e42fefa39efp-1',
         '0x1.058aefa811452p-1',
         '0x1.62e42fefa39efp-1',
         '0x0.0p+0',
         '0x1.9c041f7ed8d33p+0'],
        ['inf', 'inf', 'inf', 'inf', '0x0.0p+0'],
    ]
    EFFECTS = [[[-0.0, -0.0, 1.0], [1.0, 1.0, -0.0]],
               [[1.0, -0.0, 0.0], [-0.0, 1.0, 1.0]],
               [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]]
    MEASURED = [  # row: state, column: measurement
        [('0x0.0p+0', '0x1.0000000000000p+0'),
         ('0x1.0000000000000p-1', '0x1.0000000000000p-1'),
         ('0x1.0000000000000p-1', '0x1.0000000000000p-1')],
        [('0x0.0p+0', '0x1.0000000000000p+0'),
         ('0x1.3333333333333p-1', '0x1.999999999999ap-2'),
         ('0x1.0000000000000p-1', '0x1.0000000000000p-1')],
        [('0x0.0p+0', '0x1.0000000000000p+0'),
         ('0x1.0000000000000p-1', '0x1.0000000000000p-1'),
         ('0x1.0000000000000p-1', '0x1.0000000000000p-1')],
        [('0x0.0p+0', '0x1.0000000000000p+0'),
         ('0x1.0000000000000p+0', '0x0.0p+0'),
         ('0x1.0000000000000p-1', '0x1.0000000000000p-1')],
        [('0x1.0000000000000p-1', '0x1.0000000000000p-1'),
         ('0x1.999999999999ap-3', '0x1.999999999999ap-1'),
         ('0x1.0000000000000p-1', '0x1.0000000000000p-1')],
    ]
    MATRICES = [[[0.5, 0.5, -0.0], [0.5, -0.0, 0.5], [-0.0, 0.5, 0.5]],
                [[1.0 + 1e-12, -1e-12, 0.0], [-1e-12, 0.5 + 1e-12, 0.5],
                 [0.0, 0.5, 0.5]],
                [[1.0, 0.0, -0.0], [0.0, 1.0, 0.0], [-0.0, 0.0, 1.0]]]
    BIRKHOFF = [
        [('0x1.0000000000000p-1', (0, 2, 1)),
         ('0x1.0000000000000p-1', (1, 0, 2))],
        [('0x1.0000000000000p-1', (0, 1, 2)),
         ('0x1.0000000000000p-1', (0, 2, 1))],
        [('0x1.0000000000000p+0', (0, 1, 2))],
    ]

    def test_np_maximum_is_np_clip(self):
        x = np.array([-0.0, 0.0, -1e-300, 1e-300, -np.inf, np.inf, np.nan,
                      -1.5, 2.0])
        assert (np.maximum(x, 0.0).tobytes()
                == np.clip(x, 0.0, None).tobytes())

    def test_entropy_of_distribution(self):
        got = [[thermo._entropy_of_distribution(np.array(p), a).hex()
                for a in (0, 1, 2, math.inf)] for p in self.DISTS]
        assert got == self.ENTROPY

    def test_relative_entropy(self):
        c3 = zoo.parse_model_string("classical:3")
        ds = [diagonalize(StateVec(x, c3)) for x in self.STATES]
        assert [[thermo._relative_entropy(a, b).hex() for b in ds]
                for a in ds] == self.RELENT

    def test_measurement_distribution(self):
        c3 = zoo.parse_model_string("classical:3")
        got = [[tuple(float(p).hex() for p in thermo.measurement_distribution(
                    StateVec(x, c3), [EffectVec(e, c3) for e in es]))
                for es in self.EFFECTS] for x in self.STATES]
        assert got == self.MEASURED

    def test_birkhoff_decompose(self):
        got = [[(w.hex(), tuple(int(i) for i in p))
                for w, p in resource.birkhoff_decompose(np.array(M))]
               for M in self.MATRICES]
        assert got == self.BIRKHOFF
