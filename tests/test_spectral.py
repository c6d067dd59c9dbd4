import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptt import core, embedding, resource, spectral, thermo, zoo
from gptt.core import (
    ConeSpec,
    DiagonalizationError,
    GPTError,
    StateVec,
    apply_channel,
)
from gptt.embedding import (block_eigh, blocks_to_vec, pure_block_vec,
                            vec_to_blocks)
from gptt.spectral import (
    dagger,
    diagonalize,
    functional_calculus,
    purify,
    schmidt_coefficients,
    transition_matrix,
)
import oracles
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
        eigh = _counting(monkeypatch, embedding, "_eigh_lo")
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
        eigh = _counting(monkeypatch, embedding, "_eigh_lo")
        eigvalsh = _counting(monkeypatch, embedding, "_eigvalsh_lo")
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
        # one eigensolve of each state's block stack, in its cone check: the
        # matrix route takes the kept (w, V), and the witnesses read every
        # eigenstate's support from the matrix route
        blocks = [vec_to_blocks(rho.coords, model.structure),
                  vec_to_blocks(sigma.coords, model.structure)]
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
        eigh = _counting(monkeypatch, embedding, "_eigh_lo")
        d = diagonalize(s)
        assert eigh == [] and s._derived.keys() == {"diagonalization"}
        raw = block_eigh(s.coords, model.structure)[0]
        assert np.array_equal(kept[0], raw)
        # eigenstates are built without a kept (w, V): one solve of the stack
        e = d.eigenstates[0]
        assert e._derived.keys() == {"pure_support"}
        eigh.clear()
        diagonalize(e)
        stack = vec_to_blocks(e.coords, model.structure)
        assert len(eigh) == 1 and np.array_equal(eigh[0][0], stack)
        # refused: the (w, V) is gone too, and the retry solves afresh
        u = rand_state(model, r)
        V = u._derived["block_eigh"][1][0]
        V[:, 1] += 1e-3 * V[:, 0]
        with pytest.raises(DiagonalizationError, match="Gram"):
            diagonalize(u)
        assert u._derived == {}
        eigh.clear()
        assert diagonalize(u).residual <= core.DEFAULT_TOL
        stack = vec_to_blocks(u.coords, model.structure)
        assert len(eigh) == 1 and np.array_equal(eigh[0][0], stack)

    @pytest.mark.parametrize("beta", [0.7, -0.7, math.inf, -math.inf])
    @pytest.mark.parametrize("model", [q3, dq2], ids=lambda m: m.model_id)
    def test_gibbs_state_solves_h_once(self, monkeypatch, model, beta):
        st_ = model.structure
        h = 3.0 * rand_state(model, np.random.default_rng(66)).coords
        eigh = _counting(monkeypatch, embedding, "_eigh_lo")
        eigvalsh = _counting(monkeypatch, embedding, "_eigvalsh_lo")
        g = thermo.gibbs_state(model, h, beta)
        # one eigh of the block stack of h, then the equilibrium state's
        # cone check
        blocks = [vec_to_blocks(h, st_), vec_to_blocks(g.coords, st_)]
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
        eigh = _counting(monkeypatch, embedding, "_eigh_lo")
        eigvalsh = _counting(monkeypatch, embedding, "_eigvalsh_lo")
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


def _position_order(values):
    """The matrix models' order: eigenvalues descending at 12 digits, then
    position."""
    v = values.tolist()
    return sorted(range(len(v)), key=lambda i: (-round(v[i], 12), i))


def _full_lexsort(values, rows):
    """The polytopes' order: eigenvalues descending at 12 digits, then the
    eigenstates' coordinates at 10 digits, lexicographically, then
    position."""
    first = [-round(v, 12) for v in values.tolist()]
    return np.lexsort(np.vstack([np.round(rows, 10).T[::-1], first]))


def _planted_tie_state(model, r):
    """A state whose blocks share one spectrum with repeated values (and
    zeros), each block in a Haar-random basis."""
    st_ = model.structure
    p = r.choice([0.0, 1.0, 2.0], size=st_.n)
    p[0] = 1.0
    blocks = []
    for _ in range(st_.block_count):
        U = zoo._haar_unitary(r, st_.n, st_.field)
        blocks.append((U * p) @ U.conj().T)
    x = blocks_to_vec(blocks, st_)
    return StateVec(x / float(model.unit_effect @ x), model)


_TRIANGLE = zoo.model_from_json({
    "kind": "polytope", "vector_dim": 3, "unit_effect": [1, 1, 1],
    "state_vertices": np.eye(3).tolist(),
    "effect_generators": np.eye(3).tolist(),
    "group_generators": [np.roll(np.eye(3), 1, axis=0).tolist()]})


class TestDescendingOrder:
    """A matrix model keeps tied eigenvalues in position order, which
    reads no eigenstate; a polytope breaks ties by vertex coordinates."""

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
            raw = block_eigh(s.coords, model.structure)[0].reshape(-1)
            values = np.where(raw < 0.0, 0.0, raw)
            got = spectral._descending_order(values)
            assert got.dtype == np.intp
            assert got.tolist() == _position_order(values)
            d = diagonalize(StateVec(s.coords, model))
            assert d._eigensystem[1].tobytes() == got.tobytes()
            assert d.eigenvalues.tobytes() == values[got].tobytes()
            keys = np.round(values, 12).tolist()
            ties += len(set(keys)) < len(values)
        assert ties >= 10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_lexsort_on_planted_ties(self, seed):
        # few distinct values, so ties run several deep, some between
        # values apart by less than 12 digits
        r = np.random.default_rng(seed)
        k = int(r.integers(1, 9))
        values = r.choice([0.0, 0.25, 0.5, 0.5 + 1e-14], size=k)
        got = spectral._descending_order(values)
        assert got.tolist() == _position_order(values)

    @given(st.integers(1, 64), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_unrounded_sort_matches_the_rounded_rule(self, k, seed):
        """Values from gaps that are exact ties, gaps drawn around the 2e-12
        threshold and the 12-digit step, and wide gaps, from 0 (with signed
        zeros) or from a random start, in random positions: the order is
        the rounded rule's, whichever sort gave it."""
        r = np.random.default_rng(seed)
        # per example: the share of ties and of near gaps, and whether near
        # gaps may fall below the threshold
        p = [(0.0, 0.0), (0.0, 0.5), (0.3, 0.0), (0.2, 0.3)][r.integers(4)]
        kind = r.choice(3, size=k, p=[*p, 1.0 - sum(p)])
        near = r.uniform(r.choice([0.0, 2e-12]), 4e-12, k)
        gaps = np.where(kind == 0, 0.0, np.where(
            kind == 1, near, r.uniform(1e-6, 0.2, k)))
        values = r.choice([0.0, r.random()]) + np.cumsum(gaps)
        values[values == 0.0] *= r.choice([1.0, -1.0], size=k)[values == 0.0]
        values = r.permutation(values)
        got = spectral._descending_order(values)
        assert got.dtype == np.intp
        assert got.tolist() == _position_order(values)

    def test_distinct_spectra_round_nothing(self, monkeypatch):
        """A state whose eigenvalues are more than 2e-12 apart is ordered
        without one `round` call; a tie (the zeros of a pure state) falls
        back to the rounded keys."""
        calls = []
        monkeypatch.setattr(spectral, "round", lambda v, d: calls.append(v)
                            or round(v, d), raising=False)
        r = np.random.default_rng(84)
        for model in (q3, dq2, zoo.compose_systems(q2, q2)):
            diagonalize(rand_state(model, r))
            assert calls == []
            diagonalize(StateVec(model.pure_sampler(model, r), model))
            assert len(calls) == model.capacity
            calls.clear()

    @pytest.mark.parametrize("name", ["doubled_quantum:3",
                                      "extended_classical:3x2", "quantum:3"])
    def test_order_reads_no_eigenstate_row(self, monkeypatch, name):
        """chi (all tied) and a pure state (all but one tied at 0) are
        diagonalized without one eigenstate row; the frame makes them all,
        once, when first read."""
        model = zoo.parse_model_string(name)
        calls = _counting(monkeypatch, spectral, "_eigenstate_rows")
        r = np.random.default_rng(83)
        for x in (model.chi, model.pure_sampler(model, r)):
            d = diagonalize(StateVec(x, model))
            assert calls == [] and "frame" not in d.__dict__
            assert d.frame is d.frame and len(calls) == 1
            calls.clear()

    @pytest.mark.parametrize("model", [sq, zoo.build_model("diamond_bit"),
                                       _TRIANGLE],
                             ids=["square_bit", "diamond_bit", "triangle"])
    def test_polytope_keeps_coordinate_order(self, model):
        """On weights with planted ties over every stored set, the reported
        vertices are in the full lexsort's order, and are exactly the
        set's vertices in that order whenever that set is the one
        reported."""
        moved = 0
        for c in model._stored_sets[0]:
            for w in itertools.product([0.0, 1.0, 2.0], repeat=len(c)):
                if not any(w):
                    continue
                w = np.array(w) / sum(w)
                values, rows = spectral._stored_set_decomposition(model, w @ c)
                assert (_full_lexsort(values, rows).tolist()
                        == list(range(len(c))))
                if sorted(map(tuple, rows)) == sorted(map(tuple, c)):
                    want = _full_lexsort(w, c)
                    assert rows.tobytes() == c[want].tobytes()
                    assert np.abs(values - w[want]).max() <= 1e-12
                    moved += want.tolist() != _position_order(w)
        assert moved > 0


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
        eigh = embedding._eigh_lo
        monkeypatch.setattr(embedding, "_eigh_lo",
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
        eigh = embedding._eigh_lo

        def duplicated(B):
            w, V = map(np.copy, eigh(B))
            V[:, 0] = V[:, 1]
            return w, V

        monkeypatch.setattr(embedding, "_eigh_lo", duplicated)
        s = StateVec(q3.pure_sampler(q3, np.random.default_rng(74)), q3)
        with pytest.raises(DiagonalizationError, match="Gram") as exc:
            diagonalize(s)
        assert exc.value.residue > 0.5
        assert s._derived == {}
        monkeypatch.undo()
        assert diagonalize(s).residual <= core.DEFAULT_TOL

    # E: the eigenvectors, as columns; raw: their eigenvalues; x: the
    # coordinates of a rebit state, whose one block is [[x0, x2/sqrt2],
    # [x2/sqrt2, x1]]
    @pytest.mark.parametrize("check, E, raw, x", [
        ("Gram", [[1, 1], [0, 0]], [1, 0], [1, 0, 0]),
        ("pairing", [[1, 0], [0, 2]], [1, 0], [1, 0, 0]),
        ("reconstruction", [[1, 0], [0, 1]], [0.5, 0.5], [0.6, 0.4, 0]),
        ("eigenvalue", [[1, 0], [0, 1]], [1 + 1e-6, -1e-6],
         [1 + 1e-6, -1e-6, 0]),
    ])
    def test_each_check_refuses_alone(self, check, E, raw, x):
        """Each of the four figures of the block-form check refuses a
        decomposition that the other three accept."""
        rebit = zoo.build_model("rebit")
        raw = np.array(raw, float)
        figures = core._block_figures(np.array(x, float), raw,
                                      (raw[None], np.array(E, float)[None]),
                                      rebit.structure)
        with pytest.raises(DiagonalizationError, match=check) as exc:
            core._certify(rebit, figures, raw, core.BLOCK_TOL)
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
        w, _ = bad._derived["block_eigh"]
        assert -1.1e-6 < w[0, 0] < -0.9e-6
        with pytest.raises(DiagonalizationError) as exc:
            diagonalize(bad)
        assert exc.value.residue > 1e-7
        assert bad._derived == {}

    def test_coordinate_check_runs_when_eigenstates_are_built(self,
                                                              monkeypatch):
        """The block check passed, the eigenstates' coordinates are checked
        again when first read; a failure there raises and caches nothing."""
        d = diagonalize(rand_state(q3, np.random.default_rng(75)))
        figures = core._coordinate_figures
        monkeypatch.setattr(core, "_coordinate_figures", lambda *a: (
            ("Gram matrix", 1.0),) + figures(*a)[1:])
        with pytest.raises(DiagonalizationError, match="Gram"):
            d.eigenstates
        assert "eigenstates" not in d.__dict__ and "frame" not in d.__dict__
        monkeypatch.undo()
        assert len(d.eigenstates) == 3

    @pytest.mark.parametrize("model", [q3, dq2], ids=lambda m: m.model_id)
    def test_coordinate_check_runs_when_a_witness_reads_the_frame(
            self, monkeypatch, model):
        """The unital and rare witnesses read both frames, so a failed
        coordinate check there raises out of `convertible` and leaves no
        frame and no eigenstates on either diagonalization; once the check
        passes, the witness has the bits of one built on fresh copies of
        the states."""
        r = np.random.default_rng(76)
        rho = rand_state(model, r)
        sigma = StateVec(0.5 * rho.coords + 0.5 * model.chi, model)
        figures = core._coordinate_figures
        monkeypatch.setattr(core, "_coordinate_figures", lambda *a: (
            ("Gram matrix", 1.0),) + figures(*a)[1:])
        # the rare witness onto chi reads both frames on every family
        for target, regime in ((sigma, "unital"),
                               (model.invariant_state, "rare")):
            with pytest.raises(DiagonalizationError, match="Gram"):
                resource.convertible(rho, target, regime)
            for s in (rho, target):
                assert "frame" not in diagonalize(s).__dict__
                assert "eigenstates" not in diagonalize(s).__dict__
        monkeypatch.undo()
        got = resource.convertible(rho, sigma, "unital").channel
        want = resource.convertible(StateVec(rho.coords, model),
                                    StateVec(sigma.coords, model),
                                    "unital").channel
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(got.kraus, want.kraus))

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
    """On every matrix family and two composites: one eigensolve of the
    block stack per fresh state and no per-eigenstate check, yet every
    eigenstate passes a full rebuild, the residual is within its bound and
    the order is the documented one (eigenvalues descending at 12 digits,
    then position)."""
    r = np.random.default_rng(seed)
    x = (model.pure_sampler(model, r) if kind == "pure"
         else model.state_sampler(model, r))
    if kind == "toward_chi":
        x = t * x + (1 - t) * model.chi
    with pytest.MonkeyPatch.context() as mp:
        solves = _counting(mp, embedding, "_eigh_lo")
        checks = _counting(mp, embedding, "_eigvalsh_lo")
        s = StateVec(x, model)
        d = diagonalize(s)
    # construction and diagonalization together: one eigensolve of the stack
    assert len(solves) == 1 and checks == []
    assert np.array_equal(solves[0][0], vec_to_blocks(x, model.structure))
    assert s._derived.keys() == {"diagonalization"}
    assert d.residual <= core.DEFAULT_TOL
    assert len(d.eigenstates) == model.capacity
    for e in d.eigenstates:
        StateVec(e.coords, model)
    assert np.abs(d.reconstruct() - s.coords).max() <= 1e-8
    keys = [(-round(v, 12), i) for v, i
            in zip(d.eigenvalues.tolist(), d._eigensystem[1].tolist())]
    assert keys == sorted(keys)


def _matrix_input(model, r, kind, t):
    """Coordinates of a mixed or pure state, a pure state moved a fraction
    1 - t toward chi, whose lower eigenvalues tie, or chi itself."""
    if kind == "chi":
        return model.chi
    if kind == "mixed":
        return model.state_sampler(model, r)
    x = model.pure_sampler(model, r)
    return x if kind == "pure" else t * x + (1 - t) * model.chi


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_CERTIFIED_MODELS), st.integers(0, 2**32 - 1),
       st.sampled_from(["mixed", "pure", "toward_chi", "chi"]),
       st.floats(0.0, 1.0))
def test_lazy_eigenstates_match_eager(model, seed, kind, t):
    """The eigenstates built on first read, their order, their supports and
    the eigenvalues reported before them are bit for bit those of the
    construction that built every eigenstate up front."""
    s = StateVec(_matrix_input(model, np.random.default_rng(seed), kind, t),
                 model)
    d = diagonalize(s)
    assert "eigenstates" not in d.__dict__
    values, E, supports = oracles.eager_diagonalization(
        s.coords, model.structure.dims, model.structure.field)
    assert d.eigenvalues.tobytes() == values.tobytes()
    assert np.array([e.coords for e in d.eigenstates]).tobytes() == E.tobytes()
    assert d.eigenstates is d.eigenstates
    for e, (b, u) in zip(d.eigenstates, supports):
        eb, eu = zoo.pure_support(e)
        assert eb == b and eu.tobytes() == u.tobytes()


_TRANSITION_MODELS = [zoo.parse_model_string(t) for t in (
    "classical:3", "rebit", "quantum:3", "real_quantum:3", "doubled_quantum:2",
    "extended_classical:3x2")] + [zoo.compose_systems(q2, q2)]
_KINDS = st.sampled_from(["mixed", "pure", "toward_chi", "chi"])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_TRANSITION_MODELS), st.integers(0, 2**32 - 1),
       _KINDS, _KINDS, st.floats(0.0, 0.9), st.floats(0.0, 0.9))
def test_block_transition_matrix_matches_eigenstate_pairings(
        model, seed, kind_r, kind_s, t_r, t_s):
    """The transition matrix from the kept block eigensystems is the
    pairing of the certified eigenstates' coordinates within 1e-14 and
    doubly stochastic within 1e-12; the relative entropy built on it
    matches the density-matrix formula within 1e-7 and has the same bits
    whether or not the eigenstates were read first.  States are random,
    pure, pure moved toward chi (lower eigenvalues tie, and stay at least
    0.1 / d, away from the rank drop where the formula is ill-conditioned
    for any eigensolver) or chi (all tie)."""
    r = np.random.default_rng(seed)
    x_r = _matrix_input(model, r, kind_r, t_r)
    x_s = _matrix_input(model, r, kind_s, t_s)
    dr, ds = diagonalize(StateVec(x_r, model)), diagonalize(StateVec(x_s, model))
    T = transition_matrix(dr, ds)
    relent = thermo._relative_entropy(dr, ds)
    assert "eigenstates" not in dr.__dict__ and "eigenstates" not in ds.__dict__

    ref = oracles.transition_pairings([e.coords for e in ds.eigenstates],
                                      [e.coords for e in dr.eigenstates])
    assert np.abs(T - ref).max() <= 1e-14
    assert np.abs(T.sum(axis=0) - 1).max() <= 1e-12
    assert np.abs(T.sum(axis=1) - 1).max() <= 1e-12
    assert transition_matrix(dr, ds).tobytes() == T.tobytes()

    read = [diagonalize(StateVec(x, model)) for x in (x_r, x_s)]
    for d in read:
        d.eigenstates
    assert (np.float64(thermo._relative_entropy(*read)).tobytes()
            == np.float64(relent).tobytes())

    dims, field = model.structure.dims, model.structure.field
    want = oracles.quantum_relative_entropy(
        oracles.density_matrix(x_r, dims, field),
        oracles.density_matrix(x_s, dims, field))
    if math.isinf(want):
        assert math.isinf(relent)
    else:
        assert abs(relent - want) < 1e-7


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_CERTIFIED_MODELS), st.integers(0, 2**32 - 1),
       st.sampled_from(["mixed", "pure", "toward_chi"]),
       st.floats(1e-12, 1e-6))
def test_block_figures_bound_coordinate_figures(model, seed, kind, eps):
    """On a decomposition with eigenvalues and eigenvectors perturbed by
    about eps, the figures the eigenstates' coordinates would be checked
    on are bounded by the block figures as `core._block_figures` states:
    Gram by (g / (1 - p))^2, unit pairing by rounding, reconstruction by the
    block reconstruction; so all of them pass DEFAULT_TOL when the block
    figures pass BLOCK_TOL."""
    r = np.random.default_rng(seed)
    st_ = model.structure
    x = _matrix_input(model, r, kind, 0.5)
    w, V = block_eigh(x, st_)
    eig = (w + eps * r.normal(size=w.shape), V + eps * r.normal(size=V.shape))
    raw = eig[0].reshape(-1)
    block = dict(core._block_figures(x, raw, eig, st_))
    E, _ = spectral._eigenstate_rows(st_, eig)
    coord = dict(core._coordinate_figures(model, x, raw, E))
    g, p = block["Gram matrix"], block["unit pairing"]
    assert block["reconstruction"] > 0 and p > 0   # g is 0 on 1 x 1 blocks
    rounding = 1e-14
    assert coord["Gram matrix"] <= (g / (1 - p)) ** 2 + rounding
    assert coord["unit pairing"] <= rounding
    assert coord["reconstruction"] <= block["reconstruction"] + rounding
    if max(block.values()) <= core.BLOCK_TOL:
        assert max(coord.values()) <= core.DEFAULT_TOL


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_refused(self, bad):
        h = np.zeros(q2.vector_dim)
        h[2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            functional_calculus(q2, h, abs)


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
