import itertools

import numpy as np
import pytest

from gptt import zoo
from gptt.core import (
    ChannelMap,
    ConeError,
    ConeSpec,
    EffectVec,
    GPTError,
    NormalizationError,
    StateVec,
    apply_channel,
    compose,
    cone_membership,
    effect_norm,
    lift_channel,
    marginal,
    pairing,
    state_norm,
    tensor_channels,
    tensor_states,
)
from gptt.embedding import blocks_to_vec, vec_to_blocks

rng = np.random.default_rng(42)

q2 = zoo.build_model("quantum", n=2)
q3 = zoo.build_model("quantum", n=3)
cl3 = zoo.build_model("classical", d=3)
sq = zoo.build_model("square_bit")
dq2 = zoo.build_model("doubled_quantum", n=2)


def rand_state(m, r=rng):
    return StateVec(m.state_sampler(m, r), m)


class TestCones:
    def test_psd_margin_positive_inside(self):
        ok, margin = cone_membership(q2, q2.chi, "state")
        assert ok and margin > 0.4

    def test_psd_margin_negative_outside(self):
        bad = blocks_to_vec([np.diag([1.2, -0.2])], q2.structure)
        ok, margin = cone_membership(q2, bad, "state")
        assert not ok and margin < 0

    def test_ray_margin(self):
        ok, _ = cone_membership(sq, np.array([0.0, 0.0, 1.0]), "state")
        assert ok
        ok, _ = cone_membership(sq, np.array([2.0, 0.0, 1.0]), "state")
        assert not ok

    def test_vertex_is_boundary(self):
        ok, margin = cone_membership(sq, np.array([1.0, 1.0, 1.0]), "state")
        assert ok and abs(margin) < 1e-9


class TestStateValidation:
    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            StateVec(np.zeros(5), q2)

    def test_not_normalized(self):
        with pytest.raises(NormalizationError):
            StateVec(2 * q2.chi, q2)

    def test_outside_cone(self):
        bad = blocks_to_vec([np.diag([1.5, -0.5])], q2.structure)
        with pytest.raises(ConeError):
            StateVec(bad, q2)

    def test_normalized_constructor(self):
        s = StateVec.normalized(q2, 7 * q2.chi)
        assert np.abs(s.coords - q2.chi).max() < 1e-12
        with pytest.raises(NormalizationError):
            StateVec.normalized(q2, np.zeros(q2.vector_dim))

    def test_effect_must_sit_below_unit(self):
        EffectVec(q2.unit_effect, q2)
        EffectVec(np.zeros(q2.vector_dim), q2)
        with pytest.raises(ConeError):
            EffectVec(2 * q2.unit_effect, q2)


def _planted_state(model, low, r):
    """Coordinates whose first block has the smallest eigenvalue `low` and
    whose spectrum sums to 1, in random eigenbases."""
    st_ = model.structure
    weights = r.dirichlet(np.ones(st_.hilbert_dim - 1)) * (1 - low)
    spectra = np.split(np.concatenate([[low], weights]),
                       np.cumsum(st_.dims)[:-1])
    blocks = []
    for n, w in zip(st_.dims, spectra):
        G = r.normal(size=(n, n))
        if st_.field == "C":
            G = G + 1j * r.normal(size=(n, n))
        V = np.linalg.qr(G)[0]
        blocks.append((V * w) @ V.conj().T)
    return blocks_to_vec(blocks, st_)


_KEPT_MODELS = [q2, q3, dq2, zoo.parse_model_string("rebit"),
                zoo.parse_model_string("extended_classical:2x2")]


class TestKeptEigenpairs:
    """A matrix-model state's cone check is its block eigendecomposition;
    the constructor keeps the pairs and accepts what ConeSpec.margin
    accepts."""

    @pytest.mark.parametrize("model", _KEPT_MODELS, ids=lambda m: m.model_id)
    def test_planted_eigenvalue_at_the_tolerance(self, model):
        r = np.random.default_rng(8)
        for _ in range(5):
            with pytest.raises(ConeError):
                StateVec(_planted_state(model, -2e-9, r), model)
            s = StateVec(_planted_state(model, -5e-10, r), model)
            w = s._derived["block_eigh"][0][0]
            assert abs(w[0] + 5e-10) <= 1e-14

    def test_kept_margin_equals_cone_margin(self):
        r = np.random.default_rng(9)
        for model in _KEPT_MODELS:
            for i in range(40):
                sampler = model.pure_sampler if i % 2 else model.state_sampler
                s = StateVec(sampler(model, r), model)
                pairs = s._derived["block_eigh"]
                blocks = vec_to_blocks(s.coords, model.structure)
                assert len(pairs) == len(blocks)
                for (w, V), B in zip(pairs, blocks):
                    assert np.abs((V * w) @ V.conj().T - B).max() <= 1e-12
                kept = min(float(w[0]) for w, _ in pairs)
                assert abs(kept - model.state_cone.margin(s.coords)) <= 1e-12

    def test_polytope_state_keeps_nothing(self):
        assert StateVec(np.array([0.0, 0.0, 1.0]), sq)._derived == {}


class TestNonFinite:
    """NaN and infinities are refused where states, effects and channels
    are built, even where LAPACK returns finite eigenvalues for them."""

    @pytest.mark.parametrize("x", [
        [np.nan, 0.5, 0.0, 0.0],
        [0.5, 0.5, np.nan, 0.0],
        [0.5, 0.5, np.inf, 0.0],
        [np.inf, -np.inf, 0.0, 0.0],
    ])
    @pytest.mark.filterwarnings("error")
    def test_state(self, x):
        with pytest.raises(ConeError,
                           match="state has a NaN or infinite coordinate"):
            StateVec(np.array(x), q2)

    def test_state_three_level_block(self):
        x = q3.chi.copy()
        x[3] = np.nan  # off-diagonal: eigvalsh fails to converge on it
        with pytest.raises(GPTError):
            StateVec(x, q3)

    @pytest.mark.parametrize("f", [
        [np.nan, 0.0, 0.0, 0.0],
        [0.5, 0.5, np.nan, 0.0],
    ])
    def test_effect(self, f):
        with pytest.raises(GPTError):
            EffectVec(np.array(f), q2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("model", [q2, sq], ids=["quantum:2", "square_bit"])
    def test_cone_check(self, model, bad):
        # on quantum:2, eigvalsh gives [0, -0] for the block [[nan, 0],
        # [0, 0.5]], so [nan, 0.5, 0, 0] would pass as a member
        x = model.chi.copy()
        x[0] = bad
        for which, cone in (("state", model.state_cone),
                            ("effect", model.effect_cone)):
            with pytest.raises(ValueError, match="NaN or infinite"):
                cone_membership(model, x, which)
            with pytest.raises(ValueError, match="NaN or infinite"):
                cone.contains(x)

    @pytest.mark.parametrize("tags", [frozenset(), frozenset({"unital"})])
    def test_channel(self, tags):
        M = np.eye(cl3.vector_dim)
        M[1, 2] = np.nan
        with pytest.raises(GPTError):
            ChannelMap(matrix=M, model_in=cl3, model_out=cl3, tags=tags)


class TestPairingAndNorms:
    def test_pairing_is_probability(self):
        for _ in range(30):
            s = rand_state(q3)
            e = EffectVec(zoo.pure_maximal_set(q3)[0].coords, q3)
            p = pairing(e, s)
            assert -1e-12 <= p <= 1 + 1e-12

    def test_state_norm_one_on_states(self):
        for m in (q2, q3, cl3, dq2, sq):
            s = rand_state(m)
            assert abs(state_norm(m, s.coords) - 1) < 1e-7

    def test_state_norm_traceish(self):
        x = blocks_to_vec([np.diag([0.5, -0.25])], q2.structure)
        assert abs(state_norm(q2, x) - 0.75) < 1e-12

    def test_square_base_norm(self):
        # the square bit's ball conv(Omega u -Omega) is the cube [-1, 1]^3,
        # so the norm is the largest absolute coordinate
        assert abs(state_norm(sq, [2.0, 0.0, 1.0]) - 2.0) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_base_norm_refuses_non_finite(self, bad):
        for model, norm in itertools.product((sq, q2),
                                             (state_norm, effect_norm)):
            x = np.zeros(model.vector_dim)
            x[0] = bad
            with pytest.raises(ValueError, match="NaN or infinite"):
                norm(model, x)

    def test_effect_norm(self):
        assert abs(effect_norm(q2, q2.unit_effect) - 1) < 1e-12
        f = blocks_to_vec([np.diag([0.25, -0.5])], q2.structure)
        assert abs(effect_norm(q2, f) - 0.5) < 1e-12


class TestChannels:
    def test_unit_preservation_enforced(self):
        M = np.eye(cl3.vector_dim)
        M[0, 0] = 0.5  # leaks probability
        with pytest.raises(GPTError):
            ChannelMap(matrix=M, model_in=cl3, model_out=cl3)

    def test_unital_tag_checked(self):
        # stochastic but not doubly stochastic: refuses the unital tag
        T = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.5]])
        ChannelMap(matrix=T, model_in=cl3, model_out=cl3)
        with pytest.raises(GPTError):
            ChannelMap(matrix=T, model_in=cl3, model_out=cl3,
                       tags=frozenset({"unital"}))

    def test_apply_checks_output(self):
        s = rand_state(cl3)
        flip = np.roll(np.eye(3), 1, axis=0)
        ch = ChannelMap(matrix=flip, model_in=cl3, model_out=cl3)
        out = apply_channel(ch, s)
        assert np.abs(out.coords - flip @ s.coords).max() < 1e-14

    def test_apply_checks_output_once(self, monkeypatch):
        psi = StateVec(q2.pure_sampler(q2, np.random.default_rng(3)), q2)
        margin = ConeSpec.margin
        calls = []
        monkeypatch.setattr(ConeSpec, "margin",
                            lambda cone, x, *eig: calls.append(1)
                            or margin(cone, x, *eig))
        ident = ChannelMap(matrix=np.eye(q2.vector_dim), model_in=q2,
                           model_out=q2)
        apply_channel(ident, psi)
        assert len(calls) == 1
        # unit-preserving but not positive: x -> 2x - chi
        M = 2 * np.eye(q2.vector_dim) - np.outer(q2.chi, q2.unit_effect)
        stretch = ChannelMap(matrix=M, model_in=q2, model_out=q2)
        with pytest.raises(ConeError):
            apply_channel(stretch, psi)

    def test_compose_tags(self):
        u1 = cl3.make_reversible(np.roll(np.eye(3), 1, axis=0))
        u2 = cl3.make_reversible(np.roll(np.eye(3), 2, axis=0))
        both = compose(u1, u2)
        assert "reversible" in both.tags
        assert np.abs(both.matrix - np.eye(3)).max() < 1e-12


class TestComposites:
    def test_tensor_then_marginal_classical(self):
        comp = zoo.compose_systems(cl3, cl3)
        a, b = rand_state(cl3), rand_state(cl3)
        ab = tensor_states(comp, a, b)
        assert np.abs(marginal(ab, 0).coords - a.coords).max() < 1e-12
        assert np.abs(marginal(ab, 1).coords - b.coords).max() < 1e-12

    def test_tensor_then_marginal_quantum(self):
        comp = zoo.compose_systems(q2, q3)
        a, b = rand_state(q2), rand_state(q3)
        ab = tensor_states(comp, a, b)
        assert np.abs(marginal(ab, 0).coords - a.coords).max() < 1e-10
        assert np.abs(marginal(ab, 1).coords - b.coords).max() < 1e-10

    def test_tensor_then_marginal_doubled(self):
        comp = zoo.compose_systems(dq2, dq2)
        a, b = rand_state(dq2), rand_state(dq2)
        ab = tensor_states(comp, a, b)
        assert np.abs(marginal(ab, 0).coords - a.coords).max() < 1e-10
        assert np.abs(marginal(ab, 1).coords - b.coords).max() < 1e-10

    def test_lift_matches_tensor_of_channels(self):
        comp = zoo.compose_systems(q2, q2)
        r = np.random.default_rng(5)
        U = q2.group.sampler(q2, r)
        lifted = lift_channel(comp, U, 0)
        idm = q2.make_reversible(np.eye(q2.vector_dim), kraus=[np.eye(2)])
        tensored = tensor_channels(comp, comp, U, idm)
        assert np.abs(lifted.matrix - tensored.matrix).max() < 1e-10

    def test_lift_acts_on_one_side(self):
        comp = zoo.compose_systems(q2, q2)
        r = np.random.default_rng(6)
        U = q2.group.sampler(q2, r)
        a, b = rand_state(q2, r), rand_state(q2, r)
        ab = tensor_states(comp, a, b)
        out = apply_channel(lift_channel(comp, U, 1), ab)
        assert np.abs(marginal(out, 0).coords - a.coords).max() < 1e-9
        want = apply_channel(U, b)
        assert np.abs(marginal(out, 1).coords - want.coords).max() < 1e-9

    def test_swap_involution(self):
        comp = zoo.compose_systems(q2, q2)
        swp = zoo.swap_channel(comp)
        assert np.abs(swp.matrix @ swp.matrix - np.eye(comp.vector_dim)).max() < 1e-12

    def test_swap_exchanges_marginals(self):
        comp = zoo.compose_systems(dq2, dq2)
        swp = zoo.swap_channel(comp)
        a, b = rand_state(dq2), rand_state(dq2)
        ab = tensor_states(comp, a, b)
        out = apply_channel(swp, ab)
        assert np.abs(marginal(out, 0).coords - b.coords).max() < 1e-9
        assert np.abs(marginal(out, 1).coords - a.coords).max() < 1e-9

    def test_incompatible_kinds_refuse(self):
        with pytest.raises(GPTError):
            zoo.compose_systems(q2, sq)
