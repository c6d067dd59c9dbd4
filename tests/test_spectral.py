import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptt import core, resource, spectral, thermo, zoo
from gptt.core import (
    ConeSpec,
    DiagonalizationError,
    GPTError,
    StateVec,
    apply_channel,
)
from gptt.embedding import blocks_to_vec, pure_block_vec, vec_to_blocks
from gptt.spectral import (
    dagger,
    diagonalize,
    functional_calculus,
    purify,
    schmidt_coefficients,
    transition_matrix,
)
from oracles import spectrum as oracle_spectrum

rng = np.random.default_rng(7)

q2 = zoo.build_model("quantum", n=2)
q3 = zoo.build_model("quantum", n=3)
cl4 = zoo.build_model("classical", d=4)
dq2 = zoo.build_model("doubled_quantum", n=2)
ec22 = zoo.build_model("extended_classical", N=2, n=2)
sq = zoo.build_model("square_bit")


def rand_state(m, r=rng):
    return StateVec(m.state_sampler(m, r), m)


class TestAgainstOracle:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quantum_spectra(self, n):
        m = zoo.build_model("quantum", n=n)
        r = np.random.default_rng(n)
        for _ in range(40):
            s = rand_state(m, r)
            got = np.asarray(diagonalize(s).eigenvalues)
            rho = vec_to_blocks(s.coords, m.structure)[0]
            want = oracle_spectrum(rho)
            assert np.abs(np.sort(got) - np.sort(want)).max() < 1e-9

    def test_classical_identity(self):
        r = np.random.default_rng(0)
        for _ in range(20):
            s = rand_state(cl4, r)
            got = np.asarray(diagonalize(s).eigenvalues)
            assert np.abs(np.sort(got) - np.sort(s.coords)).max() < 1e-12


class TestDecompositionContract:
    @pytest.mark.parametrize("model", [q2, q3, cl4, dq2, ec22],
                             ids=lambda m: m.model_id)
    def test_reconstruction_and_distinguishability(self, model):
        r = np.random.default_rng(11)
        for _ in range(10):
            s = rand_state(model, r)
            d = diagonalize(s)
            assert np.abs(d.reconstruct() - s.coords).max() < 1e-8
            assert len(d.eigenvalues) == model.capacity
            assert abs(sum(d.eigenvalues) - 1) < 1e-8
            assert all(v >= -1e-10 for v in d.eigenvalues)
            # sorted descending
            assert all(d.eigenvalues[i] >= d.eigenvalues[i + 1] - 1e-10
                       for i in range(len(d.eigenvalues) - 1))
            effs = zoo.distinguishing_effects(model, d.eigenstates)
            assert effs is not None

    @pytest.mark.parametrize("model", [q2, q3, dq2], ids=lambda m: m.model_id)
    def test_near_pure_spectra_match_oracle(self, model):
        """Pure states mixed with a fraction eps of a random one, down to
        eps pieces of 1e-10: every eigenvalue within 1e-10 of the oracle's
        spectrum of the blocks."""
        r = np.random.default_rng(13)
        for eps in 10.0 ** -np.arange(11):
            for _ in range(3):
                x = ((1 - eps) * model.pure_sampler(model, r)
                     + eps * model.state_sampler(model, r))
                s = StateVec(x, model)
                want = np.sort(np.concatenate([
                    oracle_spectrum(B)
                    for B in vec_to_blocks(x, model.structure)]))[::-1]
                assert np.abs(diagonalize(s).eigenvalues - want).max() < 1e-10

    def test_chi_flat_everywhere(self):
        for m in (q2, q3, cl4, dq2, ec22):
            vals = np.asarray(diagonalize(m.invariant_state).eigenvalues)
            assert np.abs(vals - 1 / m.capacity).max() < 1e-9

    def test_pure_state_single_step(self):
        s = StateVec(q3.pure_sampler(q3, rng), q3)
        d = diagonalize(s)
        assert d.eigenvalues[0] > 1 - 1e-10
        assert np.abs(d.eigenstates[0].coords - s.coords).max() < 1e-8

    def test_fast_route_checks_each_eigenstate_once(self, monkeypatch):
        s = rand_state(q3, np.random.default_rng(15))
        margin = ConeSpec.margin
        calls = []

        def counting(cone, x):
            calls.append(cone.kind)
            return margin(cone, x)

        monkeypatch.setattr(ConeSpec, "margin", counting)
        d = diagonalize(s)
        assert len(calls) <= len(d.eigenstates) == 3

    def test_deterministic_under_ties(self):
        a = diagonalize(q3.invariant_state)
        b = diagonalize(q3.invariant_state)
        for x, y in zip(a.eigenstates, b.eigenstates):
            assert np.abs(x.coords - y.coords).max() == 0


class TestSquareBit:
    def test_center_splits_across_diagonal(self):
        d = diagonalize(StateVec(np.array([0.0, 0.0, 1.0]), sq))
        assert np.abs(np.asarray(d.eigenvalues) - 0.5).max() < 1e-12
        coords = sorted(tuple(s.coords) for s in d.eigenstates)
        assert np.abs(np.asarray(coords[0]) - [-1, -1, 1]).max() < 1e-9
        assert np.abs(np.asarray(coords[1]) - [1, 1, 1]).max() < 1e-9

    def test_off_axis_point_fails_with_residue(self):
        with pytest.raises(DiagonalizationError) as exc:
            diagonalize(StateVec(np.array([0.3, 0.1, 1.0]), sq))
        assert abs(exc.value.residue - 0.1) < 1e-9

    def test_vertex_is_pure(self):
        d = diagonalize(StateVec(np.array([1.0, -1.0, 1.0]), sq))
        assert d.eigenvalues[0] > 1 - 1e-10


class TestRestrictedTrit:
    def test_mixed_states_refuse(self):
        m = zoo.build_model("restricted_trit")
        with pytest.raises((DiagonalizationError, GPTError)):
            diagonalize(m.invariant_state)


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestMemo:
    def test_second_call_is_cached(self, monkeypatch):
        s = rand_state(q3, np.random.default_rng(61))
        first = diagonalize(s)
        assert s._derived.keys() == {"diagonalization"}
        calls = _counting(monkeypatch, spectral, "block_eigh")
        assert diagonalize(s) is first
        assert calls == []

    def test_polytope_cached_in_one_entry(self, monkeypatch):
        c = StateVec(np.array([0.0, 0.0, 1.0]), sq)
        first = diagonalize(c)
        assert c._derived.keys() == {"diagonalization"}
        calls = _counting(monkeypatch, spectral, "_stored_set_decomposition")
        assert diagonalize(c) is first
        assert calls == []

    def test_refusal_is_not_cached(self, monkeypatch):
        m = zoo.build_model("restricted_trit")
        s = m.invariant_state
        calls = _counting(monkeypatch, spectral, "_stored_set_decomposition")
        for attempt in (1, 2, 3):
            with pytest.raises(DiagonalizationError):
                diagonalize(s)
            assert len(calls) == attempt
        assert s._derived == {}

    @pytest.mark.parametrize("model", [q3, dq2, ec22, cl4],
                             ids=lambda m: m.model_id)
    def test_pure_support_cached_read_only(self, monkeypatch, model):
        # the matrix route hands each eigenstate the vector its coordinates
        # were built from; a copy reads its vector off the pairs its cone
        # check kept, without an eigensolve, and agrees with it
        st_ = model.structure
        eigh = _counting(monkeypatch, np.linalg, "eigh")
        for e in diagonalize(rand_state(model, np.random.default_rng(63))
                             ).eigenstates:
            b, v = zoo.pure_support(e)
            assert zoo.pure_support(e)[1] is v
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[0] = 0
            lead = v[np.flatnonzero(np.abs(v) > 1e-10)[0]]
            assert lead.real > 0 and abs(lead.imag) <= 1e-15
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
            assert np.abs(pure_block_vec(st_, b, v) - e.coords).max() <= 1e-12
            fresh = StateVec(e.coords, model)
            eigh.clear()
            fb, fv = zoo.pure_support(fresh)
            assert eigh == [] and "block_eigh" in fresh._derived
            assert fb == b and fv.dtype == v.dtype
            assert np.abs(fv - v).max() <= 1e-12

    @pytest.mark.parametrize("model", [q3, dq2, cl4],
                             ids=lambda m: m.model_id)
    def test_request_runs_two_eigendecompositions(self, monkeypatch, model):
        # counted over the two constructions and the first request
        eigh = _counting(monkeypatch, np.linalg, "eigh")
        eigvalsh = _counting(monkeypatch, np.linalg, "eigvalsh")
        r = np.random.default_rng(64)
        rho = rand_state(model, r)
        sigma = StateVec(0.5 * rho.coords + 0.5 * model.chi, model)
        assert "block_eigh" in rho._derived and "block_eigh" in sigma._derived

        def request():
            diagonalize(rho)
            diagonalize(sigma)
            for alpha in (0, 1, 2, math.inf):
                thermo.entropy(rho, alpha)
            thermo.relative_entropy(rho, sigma)
            assert resource.convertible(rho, sigma, "unital").answer == "yes"
            resource.convertible(rho, sigma, "rare")

        decompositions = _counting(monkeypatch, spectral, "block_eigh")
        request()
        # one eigensolve per block per state, in its cone check: the matrix
        # route takes the kept pairs, and the witnesses read every
        # eigenstate's support from the matrix route
        blocks = (vec_to_blocks(rho.coords, model.structure)
                  + vec_to_blocks(sigma.coords, model.structure))
        assert len(eigh) == len(blocks) and eigvalsh == []
        for (B,), want in zip(eigh, blocks):
            assert np.array_equal(B, want)
        assert decompositions == []
        assert "block_eigh" not in rho._derived
        assert "block_eigh" not in sigma._derived
        for s in diagonalize(rho).eigenstates + diagonalize(sigma).eigenstates:
            assert zoo.pure_support(s) is s._derived["pure_support"]
        # a repeat reads every spectrum and eigenstate support from the
        # states: no eigensolver runs at all
        eigh.clear()
        request()
        assert decompositions == [] and eigh == [] and eigvalsh == []

    @pytest.mark.parametrize("model", [q3, dq2, ec22],
                             ids=lambda m: m.model_id)
    def test_kept_pairs_taken_by_the_fast_route(self, monkeypatch, model):
        r = np.random.default_rng(65)
        s = rand_state(model, r)
        kept = s._derived["block_eigh"]
        eigh = _counting(monkeypatch, np.linalg, "eigh")
        d = diagonalize(s)
        assert eigh == [] and s._derived.keys() == {"diagonalization"}
        raw, _, _ = spectral._block_spectrum(s.coords, model.structure)
        assert np.array_equal(np.concatenate([w for w, _ in kept]), raw)
        # eigenstates are built without kept pairs: one solve per block
        e = d.eigenstates[0]
        assert e._derived.keys() == {"pure_support"}
        eigh.clear()
        diagonalize(e)
        assert len(eigh) == model.structure.block_count
        # refused: the pairs are gone too, and the retry solves afresh
        u = rand_state(model, r)
        V = u._derived["block_eigh"][0][1]
        V[:, 1] += 1e-3 * V[:, 0]
        with pytest.raises(DiagonalizationError, match="Gram"):
            diagonalize(u)
        assert u._derived == {}
        eigh.clear()
        assert diagonalize(u).residual <= core.DEFAULT_TOL
        assert len(eigh) == model.structure.block_count

    @pytest.mark.parametrize("beta", [0.7, -0.7, math.inf, -math.inf])
    @pytest.mark.parametrize("model", [q3, dq2], ids=lambda m: m.model_id)
    def test_gibbs_state_solves_h_once(self, monkeypatch, model, beta):
        st_ = model.structure
        h = 3.0 * rand_state(model, np.random.default_rng(66)).coords
        eigh = _counting(monkeypatch, np.linalg, "eigh")
        eigvalsh = _counting(monkeypatch, np.linalg, "eigvalsh")
        g = thermo.gibbs_state(model, h, beta)
        # one eigh per block of h, then the equilibrium state's cone check
        blocks = vec_to_blocks(h, st_) + vec_to_blocks(g.coords, st_)
        assert len(eigh) == len(blocks) and eigvalsh == []
        for (B,), want in zip(eigh, blocks):
            assert np.array_equal(B, want)

    @pytest.mark.parametrize("model", [dq2, ec22], ids=lambda m: m.model_id)
    def test_sector_matched_verdict_solves_nothing(self, monkeypatch, model):
        # the witness aligns the two diagonalizations' eigenstates
        A = np.array([[0.35, 0.1 + 0.05j], [0.1 - 0.05j, 0.25]])
        B = np.array([[0.3, 0.05 - 0.05j], [0.05 + 0.05j, 0.1]])
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        rho = StateVec(blocks_to_vec([A, B], model.structure), model)
        sigma = StateVec(blocks_to_vec([X @ B @ X, A.conj()],
                                       model.structure), model)
        eigh = _counting(monkeypatch, np.linalg, "eigh")
        eigvalsh = _counting(monkeypatch, np.linalg, "eigvalsh")
        out = resource.convertible(rho, sigma, "rare")
        assert out.answer == "yes" and out.certificate["sector_perm"] == (1, 0)
        assert eigh == [] and eigvalsh == []
        assert np.abs(apply_channel(out.channel, rho).coords
                      - sigma.coords).max() <= 1e-8

    def test_stored_set_solve_kept_per_model(self, monkeypatch):
        for kind in ("square_bit", "diamond_bit", "restricted_trit"):
            m = zoo.build_model(kind)
            c = list(m.distinguishable_sets[0])
            w = np.arange(len(c), 0, -1.0)
            x = w @ m.pure_states[c] / w.sum()
            pinv = _counting(monkeypatch, np.linalg, "pinv")
            first = diagonalize(StateVec(x, m))
            assert len(pinv) <= 1  # none when an earlier model had this id
            pinv.clear()
            second = diagonalize(StateVec(x, m))
            assert pinv == []
            assert second.eigenvalues.tobytes() == first.eigenvalues.tobytes()
            assert all(a.coords.tobytes() == b.coords.tobytes() for a, b
                       in zip(first.eigenstates, second.eigenstates))


def _full_lexsort(values, rows):
    first = [-round(v, 12) for v in values.tolist()]
    return np.lexsort(np.vstack([np.round(rows, 10).T[::-1], first]))


def _planted_tie_state(model, r):
    """A state whose blocks share one spectrum with repeated values (and
    zeros), each block in a Haar-random basis."""
    st_ = model.structure
    n = st_.dims[0]
    p = r.choice([0.0, 1.0, 2.0], size=n)
    p[0] = 1.0
    blocks = []
    for m in st_.dims:
        U = zoo._haar_unitary(r, m, st_.field)
        blocks.append((U * p[:m]) @ U.conj().T)
    x = blocks_to_vec(blocks, st_)
    return StateVec(x / float(model.unit_effect @ x), model)


class TestDescendingOrder:
    @pytest.mark.parametrize("model", [q3, cl4, dq2, ec22,
                                       zoo.build_model("quantum", n=4)],
                             ids=lambda m: m.model_id)
    def test_matches_full_lexsort_on_states(self, model):
        r = np.random.default_rng(81)
        states = [rand_state(model, r) for _ in range(10)]
        states += [_planted_tie_state(model, r) for _ in range(10)]
        states += [model.invariant_state,
                   StateVec(model.pure_sampler(model, r), model)]
        ties = 0
        for s in states:
            raw, rows, _ = spectral._block_spectrum(s.coords, model.structure)
            values = np.where(raw < 0.0, 0.0, raw)
            want = _full_lexsort(values, rows)
            got = spectral._descending_order(values, rows)
            assert got.tolist() == want.tolist()
            ties += len(set(np.round(values, 12).tolist())) < len(values)
        assert ties >= 10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_lexsort_on_planted_ties(self, seed):
        # few distinct values and coordinates, so ties run several keys deep
        # and whole rows repeat
        r = np.random.default_rng(seed)
        k = int(r.integers(1, 9))
        values = r.choice([0.0, 0.25, 0.5 + 1e-14], size=k)
        rows = r.choice([-1.0, 0.0, 1.0 + 1e-12], size=(k, 5))
        got = spectral._descending_order(values, rows)
        assert got.tolist() == _full_lexsort(values, rows).tolist()


def _shear(w, V):
    V[:, 1] += 1e-3 * V[:, 0]
    return w, V


def _shift(w, V):
    w[0] += 1e-6
    return w, V


class TestCertificate:
    """The matrix route checks its whole decomposition once: a wrong basis or
    a wrong spectrum from the eigensolver is refused, not returned."""

    @pytest.mark.parametrize("corrupt", [_shear, _shift],
                             ids=["shear", "shift"])
    @pytest.mark.parametrize("model", [q3, dq2], ids=lambda m: m.model_id)
    def test_corrupted_eigensolve_refused(self, monkeypatch, model, corrupt):
        # built under the corrupted eigensolver: the state's cone check is
        # its one eigensolve, and the matrix route certifies what it kept
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda B: corrupt(*map(np.copy, eigh(B))))
        s = rand_state(model, np.random.default_rng(71))
        with pytest.raises(DiagonalizationError) as exc:
            diagonalize(s)
        assert exc.value.residue > core.DEFAULT_TOL
        assert s._derived == {}
        monkeypatch.undo()
        assert diagonalize(s).residual <= core.DEFAULT_TOL

    def test_duplicated_null_vector_refused(self, monkeypatch):
        """A pure state rebuilt exactly from a basis whose two zero-weight
        eigenstates coincide: only the Gram matrix sees the defect."""
        eigh = np.linalg.eigh

        def duplicated(B):
            w, V = map(np.copy, eigh(B))
            V[:, 0] = V[:, 1]
            return w, V

        monkeypatch.setattr(np.linalg, "eigh", duplicated)
        s = StateVec(q3.pure_sampler(q3, np.random.default_rng(74)), q3)
        with pytest.raises(DiagonalizationError, match="Gram") as exc:
            diagonalize(s)
        assert exc.value.residue > 0.5
        assert s._derived == {}
        monkeypatch.undo()
        assert diagonalize(s).residual <= core.DEFAULT_TOL

    @pytest.mark.parametrize("check, E, raw, x", [
        ("Gram", [[1, 0], [1, 0]], [1, 0], [1, 0]),
        ("pairing", [[0.6, 0.8], [0.8, -0.6]], [0.5, 0.5], [0.7, 0.1]),
        ("reconstruction", [[1, 0], [0, 1]], [0.5, 0.5], [0.6, 0.4]),
        ("eigenvalue", [[1, 0], [0, 1]], [1 + 1e-6, -1e-6], [1 + 1e-6, -1e-6]),
    ])
    def test_each_check_refuses_alone(self, check, E, raw, x):
        """Each of the four figures refuses a decomposition that the other
        three accept."""
        cl2 = zoo.build_model("classical", d=2)
        with pytest.raises(DiagonalizationError, match=check) as exc:
            core._certified_eigenstates(cl2, np.array(x, float),
                                        np.array(raw, float),
                                        np.array(E, float))
        assert exc.value.residue > core.DEFAULT_TOL

    def test_negative_eigenvalue_refused(self, monkeypatch):
        """An eigenvalue below the cone tolerance the state was accepted
        under is refused, even when the pieces rebuild the state."""
        s = rand_state(q3, np.random.default_rng(72))
        eigh = np.linalg.eigh
        w0, V0 = eigh(vec_to_blocks(s.coords, q3.structure)[0])
        w0[0] = -1e-6
        x = blocks_to_vec([(V0 * w0) @ V0.conj().T], q3.structure)
        # the constructor accepts it at a looser tolerance and keeps the
        # pairs of its own eigensolve, which the matrix route then refuses
        check = core.cone_membership
        monkeypatch.setattr(core, "cone_membership",
                            lambda m, x, which, tol=core.DEFAULT_TOL, eig=None:
                            check(m, x, which, 1e-5, eig))
        bad = StateVec(x / float(q3.unit_effect @ x), q3)
        w = bad._derived["block_eigh"][0][0]
        assert -1.1e-6 < w[0] < -0.9e-6
        with pytest.raises(DiagonalizationError) as exc:
            diagonalize(bad)
        assert exc.value.residue > 1e-7
        assert bad._derived == {}

    def test_polytope_records_its_residual(self):
        s = StateVec(np.array([0.0, 0.0, 1.0]), sq)
        d = diagonalize(s)
        assert d.residual == float(np.abs(d.reconstruct() - s.coords).max())
        assert d.residual < 1e-8


_CERTIFIED_MODELS = [zoo.parse_model_string(t) for t in (
    "classical:3", "quantum:2", "quantum:3", "rebit", "real_quantum:3",
    "doubled_quantum:2", "extended_classical:2x2", "extended_classical:3x1")]
_CERTIFIED_MODELS += [zoo.compose_systems(q2, q2), zoo.compose_systems(dq2, dq2)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_CERTIFIED_MODELS), st.integers(0, 2**32 - 1),
       st.sampled_from(["mixed", "pure", "toward_chi"]), st.floats(0.0, 1.0))
def test_fast_route_certificate(model, seed, kind, t):
    """On every matrix family and two composites: one block eigensolve per
    fresh state and no per-eigenstate check, yet every eigenstate passes a
    full rebuild, the residual is within its bound and the order is the
    documented one (eigenvalues descending at 12 digits, then coordinates
    at 10 digits)."""
    r = np.random.default_rng(seed)
    x = (model.pure_sampler(model, r) if kind == "pure"
         else model.state_sampler(model, r))
    if kind == "toward_chi":
        x = t * x + (1 - t) * model.chi
    with pytest.MonkeyPatch.context() as mp:
        solves = _counting(mp, np.linalg, "eigh")
        checks = _counting(mp, np.linalg, "eigvalsh")
        s = StateVec(x, model)
        d = diagonalize(s)
    # construction and diagonalization together: one eigensolve per block
    assert len(solves) == model.structure.block_count and checks == []
    assert s._derived.keys() == {"diagonalization"}
    assert d.residual <= core.DEFAULT_TOL
    assert len(d.eigenstates) == model.capacity
    for e in d.eigenstates:
        StateVec(e.coords, model)
    assert np.abs(d.reconstruct() - s.coords).max() <= 1e-8
    keys = [(-round(v, 12), tuple(np.round(e.coords, 10)))
            for v, e in zip(d.eigenvalues.tolist(), d.eigenstates)]
    assert keys == sorted(keys)


class TestFunctionalCalculus:
    def test_exponential_of_energy(self):
        h = np.zeros(q2.vector_dim)
        h[1] = 1.0
        x = functional_calculus(q2, h, lambda e: math.exp(-math.log(3) * e))
        w = np.sort(np.linalg.eigvalsh(vec_to_blocks(x, q2.structure)[0]))
        assert np.abs(w - [1 / 3, 1.0]).max() < 1e-12

    def test_log_of_zero_refuses(self):
        h = np.zeros(q2.vector_dim)
        h[1] = 1.0
        with pytest.raises(GPTError):
            functional_calculus(q2, h, math.log)


class TestTransition:
    def test_mutually_flat_bases(self):
        r = np.random.default_rng(20)
        plus = blocks_to_vec([np.array([[0.5, 0.5], [0.5, 0.5]])], q2.structure)
        minus = blocks_to_vec([np.array([[0.5, -0.5], [-0.5, 0.5]])], q2.structure)
        mix = StateVec(0.6 * plus + 0.4 * minus, q2)
        comp = diagonalize(q2.invariant_state)
        had = diagonalize(mix)
        T = transition_matrix(had, comp)
        assert np.abs(T - 0.5).max() < 1e-9

    def test_doubly_stochastic(self):
        r = np.random.default_rng(21)
        for _ in range(10):
            a = diagonalize(rand_state(q3, r))
            b = diagonalize(rand_state(q3, r))
            T = transition_matrix(a, b)
            assert np.abs(T.sum(axis=0) - 1).max() < 1e-8
            assert np.abs(T.sum(axis=1) - 1).max() < 1e-8


class TestPurification:
    @pytest.mark.parametrize("model", [q2, q3, dq2, ec22],
                             ids=lambda m: m.model_id)
    def test_round_trip(self, model):
        r = np.random.default_rng(31)
        from gptt.core import marginal
        s = rand_state(model, r)
        comp, psi = purify(s)
        assert np.abs(marginal(psi, 0).coords - s.coords).max() < 1e-8
        d = diagonalize(psi)
        assert d.eigenvalues[0] > 1 - 1e-9

    def test_schmidt_matches_spectrum(self):
        r = np.random.default_rng(32)
        s = rand_state(q3, r)
        comp, psi = purify(s)
        sc = np.sort(schmidt_coefficients(psi))[::-1]
        vals = np.sort(np.asarray(diagonalize(s).eigenvalues))[::-1]
        assert np.abs(sc - vals).max() < 1e-8

    def test_classical_refuses(self):
        with pytest.raises(GPTError):
            purify(rand_state(cl4))

    def test_polytope_refuses(self):
        with pytest.raises(GPTError):
            purify(StateVec(np.array([0.0, 0.0, 1.0]), sq))


class TestDagger:
    def test_dagger_certain_on_its_state(self):
        r = np.random.default_rng(33)
        for m in (q2, q3, dq2):
            s = StateVec(m.pure_sampler(m, r), m)
            e = dagger(s)
            assert abs(float(e.coords @ s.coords) - 1) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_classical_spectrum_is_sorted_input(ws):
    p = np.asarray(ws) / np.sum(ws)
    s = StateVec(p, cl4)
    vals = np.asarray(diagonalize(s).eigenvalues)
    assert np.abs(vals - np.sort(p)[::-1]).max() < 1e-10
