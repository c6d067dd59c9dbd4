"""Reference answers computed on raw density matrices and vertex lists.

Nothing here imports gptt; these are the independent checks every timed
answer is verified against.  The density-matrix references come from the
repository's test references, `tests/oracles.py`; this module adds the ones
the benchmark needs beyond them.

Importing this module loads scipy.optimize (both files solve LPs with
`linprog`).  The benchmark therefore imports it only after set-up, so that
set-up time holds gptt's own imports and nothing of the benchmark's.
"""

from __future__ import annotations

import importlib.util
import itertools
import os

import numpy as np
from scipy.optimize import linprog


def _load_test_references():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("gptt_test_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_ref = _load_test_references()
spectrum = _ref.spectrum
partial_trace = _ref.partial_trace
renyi = _ref.renyi
vn_entropy = _ref.vn_entropy
relative_entropy = _ref.quantum_relative_entropy
majorizes = _ref.majorizes


def ledger(rho_S, K_kron, energies, beta):
    """Landauer ledger terms from density matrices in the kron basis."""
    dS, dE = rho_S.shape[0], len(energies)
    gamma = np.diag(_ref.gibbs_weights(energies, beta))
    out = K_kron @ np.kron(rho_S, gamma) @ K_kron.conj().T
    out_S = partial_trace(out, dS, dE, 0)
    out_E = partial_trace(out, dS, dE, 1)
    H = np.diag(energies)
    s_in, s_out = vn_entropy(rho_S), vn_entropy(out_S)
    return {
        "delta_E_env": float(np.trace(H @ (out_E - gamma)).real),
        "entropy_drop_system": s_in - s_out,
        "mutual_term": s_out + vn_entropy(out_E) - vn_entropy(out),
        "relent_term": relative_entropy(out_E, gamma),
    }


def bipartite(rho_AB, dA, dB):
    sAB = vn_entropy(rho_AB)
    sA = vn_entropy(partial_trace(rho_AB, dA, dB, 0))
    sB = vn_entropy(partial_trace(rho_AB, dA, dB, 1))
    return {"joint": sAB, "marginal_0": sA, "marginal_1": sB,
            "mutual": sA + sB - sAB, "conditional_0_given_1": sAB - sB,
            "conditional_1_given_0": sAB - sA}


# ---------------------------------------------------------------------------
# polytope models: vertex lists, effect generators, group generators


def distinguishing_exists(effect_gens, unit, states):
    """LP feasibility: effects e_i = G^T w_i, w_i >= 0, sum e_i = u and
    e_i . x_j = delta_ij."""
    G = np.asarray(effect_gens, float)
    k, D = G.shape
    m = len(states)
    rows, rhs = [], []
    for i in range(m):
        for j, x in enumerate(states):
            row = np.zeros(m * k)
            row[i * k:(i + 1) * k] = G @ x
            rows.append(row)
            rhs.append(float(i == j))
    for c in range(D):
        rows.append(np.tile(G[:, c], m))
        rhs.append(unit[c])
    res = linprog(np.zeros(m * k), A_eq=np.asarray(rows), b_eq=rhs,
                  bounds=[(0, None)] * (m * k), method="highs")
    return bool(res.success)


def base_norm(vertices, unit, x):
    """Dual form: max y.x subject to |y.v| <= u.v on every vertex v."""
    V = np.asarray(vertices, float)
    uv = V @ unit
    res = linprog(-np.asarray(x, float), A_ub=np.vstack([V, -V]),
                  b_ub=np.concatenate([uv, uv]), bounds=[(None, None)] * V.shape[1],
                  method="highs")
    if not res.success:
        raise RuntimeError("base-norm oracle LP failed")
    return float(-res.fun)


def group_closure(generators, cap=1000):
    D = generators[0].shape[0]
    seen = {np.round(np.eye(D), 9).tobytes(): np.eye(D)}
    frontier = [np.eye(D)]
    while frontier:
        nxt = []
        for M in frontier:
            for G in generators:
                N = G @ M
                key = np.round(N, 9).tobytes()
                if key not in seen:
                    seen[key] = N
                    nxt.append(N)
        if len(seen) > cap:
            raise RuntimeError("group closure too large")
        frontier = nxt
    return list(seen.values())


def reversibility_axioms(points, group, capacity, effect_gens, unit):
    """(permutability, strong symmetry) by exhaustive search."""
    def maps(src, dst):
        return any(all(np.abs(M @ a - b).max() <= 1e-8 for a, b in zip(src, dst))
                   for M in group)

    sets = [c for c in itertools.combinations(range(len(points)), capacity)
            if distinguishing_exists(effect_gens, unit, [points[i] for i in c])]
    perm_ok = all(maps([points[i] for i in c], [points[i] for i in p])
                  for c in sets for p in itertools.permutations(c))
    ordered = [list(p) for c in sets for p in itertools.permutations(c)]
    strong_ok = all(maps([points[i] for i in a], [points[i] for i in b])
                    for a in ordered for b in ordered)
    return perm_ok, strong_ok
