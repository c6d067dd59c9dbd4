import itertools
import re

import numpy as np
import pytest

from gptt import core, embedding, resource, spectral, symmetry, thermo, zoo
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
from test_facets import kgon_json

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


_TABLE_MODELS = [sq, zoo.build_model("restricted_trit"), q2, dq2]


def _pure(model):
    if model.pure_states is not None:
        return model.pure_states[0]
    return model.pure_sampler(model, np.random.default_rng(5))


def _refusals(model):
    """(kind, coordinates, exception, message pattern) rows: each refusal
    of the two constructors, with the message as it is written."""
    D, u, chi = model.vector_dim, model.unit_effect, model.chi
    out = 3 * _pure(model) - 2 * chi        # unit pairing, beyond a pure state
    rows = [("state", np.zeros(D + 1), ValueError, "state has wrong dimension"),
            ("state", np.zeros((D, 1)), ValueError, "state has wrong dimension"),
            ("effect", np.zeros(D - 1), ValueError, "effect has wrong dimension"),
            ("state", 2 * chi, NormalizationError,
             re.escape("state has unit pairing 2.0, expected 1")),
            ("state", out, ConeError, re.escape(
                f"state outside cone (margin "
                f"{model.state_cone.margin(out):.3e})")),
            ("effect", -0.25 * u, ConeError, re.escape(
                f"effect outside cone (margin "
                f"{model.effect_cone.margin(-0.25 * u):.3e})")),
            ("effect", 1.5 * u, ConeError, re.escape(
                f"effect exceeds the unit (margin "
                f"{model.effect_cone.margin(u - 1.5 * u):.3e})"))]
    for i in range(D):
        for bad in (np.nan, np.inf, -np.inf):
            x, f = chi.copy(), 0.5 * u
            x[i] = f[i] = bad
            rows += [("state", x, ConeError,
                      "state has a NaN or infinite coordinate"),
                     ("effect", f, ConeError,
                      "effect has a NaN or infinite coordinate")]
    return rows


class TestConstructorRefusals:
    """Every refusal of `StateVec` and `EffectVec`, on both cone kinds,
    with its exception type and message, and the cone checks each makes."""

    @pytest.mark.parametrize("model", _TABLE_MODELS, ids=lambda m: m.model_id)
    @pytest.mark.filterwarnings("error")
    def test_refusal_table(self, model):
        for kind, x, exc, pattern in _refusals(model):
            cls = StateVec if kind == "state" else EffectVec
            with pytest.raises(exc, match=f"^{pattern}$"):
                cls(x, model)

    @pytest.mark.parametrize("model", _TABLE_MODELS, ids=lambda m: m.model_id)
    @pytest.mark.filterwarnings("error")
    def test_complex_coordinates_refused(self, model):
        """A complex input is refused before it is cast, even with a zero
        imaginary part; its real part alone is a valid object."""
        u, chi = model.unit_effect, model.chi
        for cls, x, name in ((StateVec, chi, "state"),
                             (EffectVec, 0.5 * u, "effect")):
            cls(x, model)
            tilted = x.astype(complex)
            tilted[0] += 1j
            for bad in (tilted, x.astype(complex), tilted.tolist()):
                with pytest.raises(ValueError,
                                   match=f"^{name} has complex coordinates$"):
                    cls(bad, model)

    @pytest.mark.parametrize("model", _TABLE_MODELS, ids=lambda m: m.model_id)
    def test_one_margin_per_state_two_per_effect(self, model, monkeypatch):
        margin = ConeSpec.margin
        calls = []
        monkeypatch.setattr(ConeSpec, "margin",
                            lambda cone, x, *eig: calls.append(cone)
                            or margin(cone, x, *eig))
        x = list(model.chi)
        s = StateVec(x, model)
        assert calls == [model.state_cone]
        assert s.coords.flags.writeable is False
        assert s.coords.tolist() == x
        calls.clear()
        f = 0.5 * model.unit_effect
        e = EffectVec(f, model)
        assert calls == [model.effect_cone] * 2
        assert e.coords is not f and not np.shares_memory(e.coords, f)
        calls.clear()
        with pytest.raises(ConeError, match="effect outside cone"):
            EffectVec(-f, model)
        assert len(calls) == 1

    @pytest.mark.parametrize("model", _TABLE_MODELS, ids=lambda m: m.model_id)
    def test_margin_reads_arrays_and_lists_alike(self, model):
        """`ConeSpec.margin` gives the same bits on a float array, a list
        and an integer array; a ray cone's is min (F / F.e) x, the product
        of x with the rows F_i / F_i.e of its kept matrix."""
        r = np.random.default_rng(6)
        cone = model.state_cone
        for _ in range(20):
            x = model.state_sampler(model, r)
            m = cone.margin(x)
            assert cone.margin(list(x)) == m
            assert cone.margin(StateVec(x, model)) == m
            if cone.kind == "rays":
                F = cone.facets
                assert m == float(np.min(
                    (F / (F @ cone.interior_direction)[:, None]) @ x))
                assert not cone.facet_scale.flags.writeable
                assert not cone.checks.flags.writeable
        ints = np.round(3 * model.unit_effect).astype(int)
        assert cone.margin(ints) == cone.margin(ints.astype(float))


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
    the constructor keeps its stacked (w, V) and accepts what
    ConeSpec.margin accepts."""

    @pytest.mark.parametrize("model", _KEPT_MODELS, ids=lambda m: m.model_id)
    def test_planted_eigenvalue_at_the_tolerance(self, model):
        r = np.random.default_rng(8)
        for _ in range(5):
            with pytest.raises(ConeError):
                StateVec(_planted_state(model, -2e-9, r), model)
            s = StateVec(_planted_state(model, -5e-10, r), model)
            w, _ = s._derived["block_eigh"]
            assert abs(w[0, 0] + 5e-10) <= 1e-14

    def test_kept_margin_equals_cone_margin(self):
        r = np.random.default_rng(9)
        for model in _KEPT_MODELS:
            for i in range(40):
                sampler = model.pure_sampler if i % 2 else model.state_sampler
                s = StateVec(sampler(model, r), model)
                w, V = s._derived["block_eigh"]
                blocks = vec_to_blocks(s.coords, model.structure)
                assert w.shape == blocks.shape[:2] and V.shape == blocks.shape
                for wb, Vb, B in zip(w, V, blocks):
                    assert np.abs((Vb * wb) @ Vb.conj().T - B).max() <= 1e-12
                kept = float(w[:, 0].min())
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

    @pytest.mark.parametrize("name", ["square_bit", "diamond_bit",
                                      "restricted_trit", "7-gon"])
    def test_polytope_effect_norm(self, name):
        """On a polytope the observable norm is the largest |f.v| over the
        vertices at unit pairing, and no point of their hull exceeds it."""
        m = (zoo.model_from_json(kgon_json(7)) if name == "7-gon"
             else zoo.build_model(name))
        V = m.state_cone.generators
        V = V / (V @ m.unit_effect)[:, None]
        r = np.random.default_rng(613)
        for f in r.normal(size=(20, m.vector_dim)):
            norm = effect_norm(m, f)
            assert abs(norm - np.abs(V @ f).max()) <= 1e-12
            hull = r.dirichlet(np.ones(len(V)), size=50) @ V
            assert np.abs(hull @ f).max() <= norm + 1e-12


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


# Fixed tolerances, probe counts, caps and overrides are constants of their
# functions, not parameters: passing one is refused like any unknown keyword.
_FIXED_SETTINGS = [
    (resource.majorizes, "tol"), (resource._majorization_certificate, "tol"),
    (resource.birkhoff_decompose, "tol"),
    (resource._matching_sector_perm, "tol"),
    (thermo.relative_entropy, "tol"), (thermo._relative_entropy, "tol"),
    (thermo.beta_from_energy, "tol"), (thermo.erasure_demo, "env_model"),
    (thermo.erasure_demo, "env_hamiltonian"),
    (spectral.schmidt_coefficients, "tol"),
    (symmetry.twirl, "n_probes"), (symmetry.invariant_state, "n_probes"),
    (symmetry._group_probe_matrices, "n_probes"),
    (symmetry._group_probe_matrices, "seed"),
    (symmetry.informational_equilibrium_check, "tol"),
    (zoo.close_group, "cap"), (zoo.close_group, "tol"),
    (zoo.distinguishing_effects, "tol"), (zoo._support_projector, "tol"),
    (core._kron_to_coords, "tol"), (sq.state_cone.contains, "tol"),
    (embedding.total_to_vec, "check_tol"),
]


@pytest.mark.parametrize("fn, name", _FIXED_SETTINGS,
                         ids=[f"{fn.__qualname__}-{name}"
                              for fn, name in _FIXED_SETTINGS])
def test_fixed_setting_refused(fn, name):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        fn(**{name: None})


def test_interior_direction_is_derived():
    """A ray cone's interior direction is the normalized sum of its unit
    generators and cannot be passed in; a psd cone has none."""
    G = sq.state_cone.generators
    with pytest.raises(TypeError, match="interior_direction"):
        ConeSpec("rays", 3, generators=G, interior_direction=np.ones(3))
    e = (G / np.linalg.norm(G, axis=1)[:, None]).sum(axis=0)
    assert np.array_equal(ConeSpec("rays", 3, generators=G).interior_direction,
                          e / np.linalg.norm(e))
    assert q2.state_cone.interior_direction is None
