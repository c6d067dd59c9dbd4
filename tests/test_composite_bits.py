"""Composite operations through the kept gather indices and broadcast
products give the bits of their np.kron / np.ix_ forms (`tests/oracles.py`):
product states, the kron-order matrix and its way back, marginals, lifted
Kraus stacks in both positions and the factor swap, on squared composites
of five models (two of them with a perm that is not the identity) and on
the erasure's triple composite.  The ledger, the bipartite entropies and the
erasure give the same bits with the old forms patched into the package."""

from contextlib import ExitStack
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gptt import core, spectral, thermo, zoo
from gptt.core import ConeError, StateVec, lift_channel, marginal

SQUARED = ("quantum:2", "rebit", "classical:3", "doubled_quantum:2",
           "extended_classical:2x2")
TRIPLES = ("quantum:2", "doubled_quantum:2")


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _result_bits(obj):
    """Every number of a result, down through dicts and dataclasses, as
    bytes; -0.0 and NaN count."""
    if isinstance(obj, dict):
        return {k: _result_bits(v) for k, v in obj.items()}
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _result_bits(getattr(obj, k))
                for k in obj.__dataclass_fields__}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    return _bits(np.float64(obj))


@lru_cache(maxsize=None)
def _composite(name):
    """("x", model) is model squared; ("triple", model) is the erasure's
    system-memory composite from `purify`, composed with the memory."""
    kind, model_id = name
    m = zoo.parse_model_string(model_id)
    if kind == "x":
        return zoo.compose_systems(m, m)
    comp_SM, _ = spectral.purify(StateVec(m.chi, m))
    return zoo.compose_systems(comp_SM, m)


def _state(model, rng, pure):
    sampler = model.pure_sampler if pure else model.state_sampler
    return StateVec(sampler(model, rng), model)


def _patched():
    """The package with the oracle copies of its composite operations, each
    behind a spy: (context manager, spies)."""
    spies = {name: mock.Mock(wraps=f) for name, f in (
        ("_block_to_kron", oracles.block_to_kron_ix),
        ("_kron_to_coords", oracles.kron_to_coords_ix),
        ("_lifted_kraus", oracles.lifted_kraus_kron),
        ("tensor_states", oracles.tensor_states_kron))}
    stack = ExitStack()
    stack.enter_context(mock.patch.multiple(core, **spies))
    stack.enter_context(mock.patch.multiple(
        spectral, _block_to_kron=spies["_block_to_kron"],
        _kron_to_coords=spies["_kron_to_coords"]))
    stack.enter_context(mock.patch.object(thermo, "tensor_states",
                                          spies["tensor_states"]))
    return stack, spies


NAMES = [("x", m) for m in SQUARED] + [("triple", m) for m in TRIPLES]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(NAMES), st.integers(0, 2**32 - 1), st.booleans())
def test_composite_operations_keep_their_bits(name, seed, pure):
    comp = _composite(name)
    mA, mB = comp.composite.factors
    rng = np.random.default_rng(seed)
    a, b = _state(mA, rng, pure), _state(mB, rng, pure)
    prod = core.tensor_states(comp, a, b)
    assert _bits(prod.coords) == _bits(
        oracles.tensor_states_kron(comp, a, b).coords)

    joint = _state(comp, rng, pure)
    for s in (prod, joint):
        M = core._block_to_kron(comp, s.coords)
        assert _bits(M) == _bits(oracles.block_to_kron_ix(comp, s.coords))
        assert _bits(core._kron_to_coords(comp, M)) == _bits(
            oracles.kron_to_coords_ix(comp, M))
        got = [marginal(s, which).coords for which in (0, 1)]
        with mock.patch.object(core, "_block_to_kron",
                               oracles.block_to_kron_ix):
            want = [marginal(s, which).coords for which in (0, 1)]
        assert [_bits(x) for x in got] == [_bits(x) for x in want]

    for which, factor in enumerate((mA, mB)):
        R = factor.group.sampler(factor, rng)
        eye = [np.eye(comp.composite.factors[1 - which].structure.hilbert_dim)]
        pair = (R.kraus, eye) if which == 0 else (eye, R.kraus)
        lifted = lift_channel(comp, R, which)
        assert _bits(lifted._stack) == _bits(
            np.array(oracles.lifted_kraus_kron(comp, *pair)))
        assert _bits(np.array(core._lifted_kraus(comp, *pair))) == _bits(
            np.array(oracles.lifted_kraus_kron(comp, *pair)))

    if mA.model_id == mB.model_id:
        assert _bits(zoo.swap_channel(comp).kraus[0]) == _bits(
            oracles.swap_kraus_loop(comp))


@pytest.mark.parametrize("name", NAMES, ids=lambda n: f"{n[0]}-{n[1]}")
def test_gather_indices_are_kept_and_read_only(name):
    info = _composite(name).composite
    H = len(info.perm)
    assert info.to_block is info.to_block and info.to_kron is info.to_kron
    for idx in (info.to_block, info.to_kron):
        assert idx.shape == (H * H,) and not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 0
    assert (info.to_block[info.to_kron] == np.arange(H * H)).all()
    assert "to_block" not in info.__dataclass_fields__


@pytest.mark.parametrize("model_id", ["doubled_quantum:2",
                                      "extended_classical:2x2"])
def test_off_block_matrix_refused_with_the_same_message(model_id):
    """A kron-order matrix with entries between the composite's sectors is
    refused as before, with the same residual in the message."""
    comp = _composite(("x", model_id))
    assert (comp.composite.perm != np.arange(len(comp.composite.perm))).any()
    H = len(comp.composite.perm)
    G = np.random.default_rng(3).normal(size=(H, H))
    with pytest.raises(ConeError) as want:
        oracles.kron_to_coords_ix(comp, G + G.T)
    with pytest.raises(ConeError) as got:
        core._kron_to_coords(comp, G + G.T)
    assert str(got.value) == str(want.value)
    assert "off-block residual" in str(got.value)


@pytest.mark.parametrize("model_id", TRIPLES)
def test_thermo_flows_keep_their_bits(model_id):
    """landauer_ledger, bipartite_entropies and erasure_demo give the same
    bits with the np.kron / np.ix_ forms patched in."""
    m = zoo.parse_model_string(model_id)
    comp = _composite(("x", model_id))

    def run():
        rng = np.random.default_rng(7)
        rho = _state(m, rng, False)
        U = comp.group.sampler(comp, rng)
        h = rng.normal(size=m.vector_dim)
        lifted = lift_channel(comp, m.group.sampler(m, rng), 1)
        joint = _state(comp, rng, False)
        return (thermo.landauer_ledger(U, rho, h, 0.8, comp),
                thermo.landauer_ledger(lifted, rho, h, 1.5, comp),
                thermo.bipartite_entropies(joint),
                thermo.erasure_demo(rho, 1.3))

    got = run()
    patch, spies = _patched()
    with patch:
        want = run()
    assert all(spy.called for spy in spies.values())
    assert [_result_bits(g) for g in got] == [_result_bits(w) for w in want]
