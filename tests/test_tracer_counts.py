"""The benchmark's per-layer counts of states and cone checks.

`perfbench/tracer.py` counts a state where `StateVec.__post_init__` runs and
a cone check where `ConeSpec.margin` runs.  Here it is loaded from its file,
unchanged, and installed around one `polytope_lp`-style and one
`convert_small`-style request, each after one untraced warm-up request:
every state the requests build is counted once as a state and once as a
cone check of its model's kind, and no other cone check runs.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gptt import core, resource, spectral, symmetry, thermo, zoo

spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
bench_tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_tracer)


def _polytope_request(m, x, pair, triple):
    """A non-audit `polytope_lp` request: a state, its diagonalization and
    twirl, a base norm and two distinguishability searches on vertices."""
    s = core.StateVec(x, m)
    try:
        spectral.diagonalize(s)
    except core.DiagonalizationError:
        pass
    tw = symmetry.twirl(s)
    core.state_norm(m, s.coords - tw.coords)
    pts = m.pure_states
    for idx in (pair, triple):
        symmetry.perfectly_distinguishable_search(
            m, [core.StateVec(pts[i], m) for i in idx])


def _convert_request(m, src, tgt):
    """A `convert_small` request: two states, their diagonalizations,
    entropies, relative entropy and the two conversion verdicts."""
    rho, sigma = core.StateVec(src, m), core.StateVec(tgt, m)
    spectral.diagonalize(rho)
    spectral.diagonalize(sigma)
    for a in (0, 1, 2, np.inf):
        thermo.entropy(rho, a)
    thermo.relative_entropy(rho, sigma)
    resource.convertible(rho, sigma, "unital")
    resource.convertible(rho, sigma, "rare")


def _traced(request, *args):
    """The tracer's counts over one request, and the number of StateVec
    constructor calls in it, counted on its hand-written __init__."""
    built = []
    init = core.StateVec.__init__

    def counting(self, coords, model):
        built.append(model)
        init(self, coords, model)

    request(*args)      # warm-up: per-model caches are filled untraced
    tr = bench_tracer.Tracer()
    tr.install()
    try:
        core.StateVec.__init__ = counting
        span = tr.begin_request(0)
        request(*args)
        tr.end_request(span)
    finally:
        core.StateVec.__init__ = init
        tr.uninstall()
    return tr.metrics(1), len(built)


def _mixture(m, r):
    return r.dirichlet(np.ones(len(m.pure_states))) @ m.pure_states


@pytest.mark.parametrize("name", ["square_bit", "diamond_bit",
                                  "restricted_trit"])
def test_polytope_request_counts_one_ray_check_per_state(name):
    m = zoo.build_model(name)
    r = np.random.default_rng(3)
    n = len(m.pure_states)
    metrics, built = _traced(_polytope_request, m, _mixture(m, r),
                             r.choice(n, 2, replace=False),
                             r.choice(n, 3, replace=False))
    assert built == 7       # the state, its twirl and five vertex states
    assert metrics["core.states_built"] == built
    assert metrics["core.cone_checks.rays"] == built
    assert metrics["core.cone_checks.psd"] == 0
    assert metrics["core.effects_built"] == 0


@pytest.mark.parametrize("text", ["rebit", "quantum:3",
                                  "extended_classical:2x2"])
def test_convert_request_counts_one_psd_check_per_state(text):
    m = zoo.parse_model_string(text)
    r = np.random.default_rng(4)
    metrics, built = _traced(_convert_request, m,
                             m.state_sampler(m, r), m.state_sampler(m, r))
    assert built >= 2
    assert metrics["core.states_built"] == built
    assert metrics["core.cone_checks.psd"] == built
    assert metrics["core.cone_checks.rays"] == 0
