"""Independent reference implementations used to check the package.

Everything here works on raw density matrices / probability vectors with
numpy and scipy only, sharing no code with the package under test.
"""

import math
from itertools import combinations

import numpy as np
from scipy.optimize import linprog


def random_density(rng, n, field="C"):
    G = rng.normal(size=(n, n))
    if field == "C":
        G = G + 1j * rng.normal(size=(n, n))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_pure(rng, n, field="C"):
    v = rng.normal(size=n)
    if field == "C":
        v = v + 1j * rng.normal(size=n)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def spectrum(rho):
    """Eigenvalues, descending."""
    return np.sort(np.linalg.eigvalsh(rho))[::-1]


def partial_trace(rho, dA, dB, keep):
    R = np.asarray(rho).reshape(dA, dB, dA, dB)
    if keep == 0:
        return np.einsum("ijkj->ik", R)
    return np.einsum("ijil->jl", R)


def schmidt_coefficients(psi, dA, dB):
    """Squared singular values of the coefficient matrix, descending."""
    M = np.asarray(psi).reshape(dA, dB)
    s = np.linalg.svd(M, compute_uv=False)
    return np.sort(s * s)[::-1]


def shannon(p):
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-15]
    return float(-(p * np.log(p)).sum())


def renyi(p, alpha):
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-15]
    if alpha == 1:
        return shannon(p)
    if alpha == 0:
        return float(np.log(len(p)))
    if alpha == math.inf:
        return float(-np.log(p.max()))
    return float(np.log((p ** alpha).sum()) / (1 - alpha))


def vn_entropy(rho):
    return shannon(spectrum(rho))


def quantum_relative_entropy(rho, sigma, tol=1e-12):
    """tr rho (log rho - log sigma); inf outside the support."""
    wr, Vr = np.linalg.eigh(rho)
    ws, Vs = np.linalg.eigh(sigma)
    term1 = float(sum(w * math.log(w) for w in wr if w > tol))
    total = term1
    for i, wi in enumerate(wr):
        if wi <= tol:
            continue
        v = Vr[:, i]
        for j, sj in enumerate(ws):
            ov = abs(np.vdot(Vs[:, j], v)) ** 2
            if ov < tol:
                continue
            if sj <= tol:
                return math.inf
            total -= wi * ov * math.log(sj)
    return total


def majorizes(p, q, tol=1e-10):
    """p majorizes q (same total)."""
    p = np.sort(np.asarray(p, dtype=float))[::-1]
    q = np.sort(np.asarray(q, dtype=float))[::-1]
    n = max(len(p), len(q))
    p = np.pad(p, (0, n - len(p)))
    q = np.pad(q, (0, n - len(q)))
    if abs(p.sum() - q.sum()) > 1e-8:
        return False
    return bool(np.all(np.cumsum(p) >= np.cumsum(q) - tol))


def doubly_stochastic_exists(p, q, tol=1e-9):
    """LP feasibility of q = D p with D doubly stochastic."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = len(p)
    assert len(q) == n
    nv = n * n
    A, b = [], []
    for i in range(n):  # rows sum to 1
        row = np.zeros(nv)
        row[i * n: (i + 1) * n] = 1.0
        A.append(row)
        b.append(1.0)
    for j in range(n):  # columns sum to 1
        row = np.zeros(nv)
        row[j::n] = 1.0
        A.append(row)
        b.append(1.0)
    for i in range(n):  # q_i = sum_j D_ij p_j
        row = np.zeros(nv)
        row[i * n: (i + 1) * n] = p
        A.append(row)
        b.append(q[i])
    res = linprog(c=np.zeros(nv), A_eq=np.asarray(A), b_eq=np.asarray(b),
                  bounds=[(0.0, 1.0)] * nv, method="highs")
    return bool(res.success)


def gibbs_weights(energies, beta):
    E = np.asarray(energies, dtype=float)
    w = np.exp(-beta * (E - E.min()))
    return w / w.sum()


def mean_energy(energies, beta):
    w = gibbs_weights(energies, beta)
    return float(w @ np.asarray(energies, dtype=float))


# HiGHS's default feasibility tolerance (1e-7) lets a point 1e-7 outside a
# cone count as inside; the cone references below tighten it.
_TIGHT = {"primal_feasibility_tolerance": 1e-10,
          "dual_feasibility_tolerance": 1e-10}


def cone_margin_lp(G, e, x):
    """Largest m with x - m e in the cone spanned by the rows of G."""
    G = np.asarray(G, dtype=float)
    k = G.shape[0]
    # variables: ray weights c >= 0 and the free margin m; G^T c + m e = x
    res = linprog(c=np.concatenate([np.zeros(k), [-1.0]]),
                  A_eq=np.hstack([G.T, np.asarray(e, dtype=float)[:, None]]),
                  b_eq=np.asarray(x, dtype=float),
                  bounds=[(0.0, None)] * k + [(None, None)], method="highs",
                  options=_TIGHT)
    assert res.success, res.message
    return float(res.x[-1])


def base_norm_lp(V, u, x):
    """Base norm of x over the state cone spanned by the rows of V: the
    least (u|p) + (u|m) over x = p - m with p, m in the cone."""
    V = np.asarray(V, dtype=float)
    k = V.shape[0]
    # variables: cone weights a, b >= 0 with p = V^T a and m = V^T b
    w = V @ np.asarray(u, dtype=float)
    res = linprog(c=np.concatenate([w, w]), A_eq=np.hstack([V.T, -V.T]),
                  b_eq=np.asarray(x, dtype=float),
                  bounds=[(0.0, None)] * (2 * k), method="highs",
                  options=_TIGHT)
    assert res.success, res.message
    return float(res.fun)


def best_guess_lp(E, u, xs):
    """Largest total success sum_j e_j.x_j of a measurement guessing which
    of the states xs was prepared.

    The effects e_j lie in the cone spanned by the rows of E and sum to u;
    the states are perfectly distinguishable iff the optimum is len(xs).
    """
    E = np.asarray(E, dtype=float)
    xs = np.asarray(xs, dtype=float)
    m, k = len(xs), E.shape[0]
    # variables: cone weights w_j >= 0 of each effect e_j = E^T w_j
    c = -np.concatenate([E @ x for x in xs])
    A_eq = np.hstack([E.T] * m)
    res = linprog(c=c, A_eq=A_eq, b_eq=np.asarray(u, dtype=float),
                  bounds=[(0.0, None)] * (m * k), method="highs",
                  options=_TIGHT)
    assert res.success, res.message
    return float(-res.fun)


def in_hull_lp(V, x, tol):
    """Whether some nonnegative weights w on the rows of V rebuild x within
    tol in every coordinate: a feasibility LP with no objective.  When the
    rows of V and x are states, such weights sum to one up to that
    tolerance, so x lies in the hull of the rows."""
    V = np.asarray(V, dtype=float)
    x = np.asarray(x, dtype=float)
    # |V^T w - x| <= tol, one row per sign
    res = linprog(c=np.zeros(len(V)), A_ub=np.vstack([V.T, -V.T]),
                  b_ub=np.concatenate([x + tol, tol - x]),
                  bounds=[(0.0, None)] * len(V), method="highs",
                  options=_TIGHT)
    assert res.status in (0, 2), res.message
    return res.status == 0


def is_pointed_lp(G):
    """Whether the cone spanned by the rows of G is pointed: no nonnegative
    combination of them with weights summing to 1 vanishes."""
    G = np.asarray(G, dtype=float)
    k = len(G)
    res = linprog(c=np.zeros(k), A_eq=np.vstack([G.T, np.ones((1, k))]),
                  b_eq=np.concatenate([np.zeros(G.shape[1]), [1.0]]),
                  bounds=[(0.0, None)] * k, method="highs", options=_TIGHT)
    assert res.status in (0, 2), res.message
    return res.status == 2


def distinguishable_lp(E, u, xs):
    """Whether one measurement tells the states xs apart: a feasibility LP
    for effects e_i = E^T w_i with w_i >= 0, sum_i e_i = u and
    e_i.x_j = delta_ij."""
    E = np.asarray(E, dtype=float)
    xs = np.asarray(xs, dtype=float)
    m, k = len(xs), E.shape[0]
    rows = [np.kron(np.eye(m)[j], E @ x) for j in range(m) for x in xs]
    A_eq = np.vstack(rows + [np.hstack([E.T] * m)])
    b_eq = np.concatenate([np.eye(m).ravel(), np.asarray(u, dtype=float)])
    res = linprog(c=np.zeros(m * k), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0.0, None)] * (m * k), method="highs",
                  options=_TIGHT)
    assert res.status in (0, 2), res.message
    return res.status == 0


# a generator lies on a facet when their product at unit length is at most
# this in absolute value
FACET_TOL = 1e-10


def facets_by_subsets(U, e):
    """Unit inward facet normals of the pointed, full-dimensional cone
    spanned by the unit rows of U, e a unit interior direction, found by
    trying every (D - 1)-subset of the generators.

    A subset of independent generators spans a hyperplane; it bounds a
    facet when every generator lies on one side.  Subsets on one facet are
    merged by the generators the facet holds (sorted by `np.unique`), and
    the normal is refit by SVD to all of them and oriented to be positive
    on e.  Raises ValueError when the facet normals sum to a vector at most
    FACET_TOL on some generator (not pointed), or when there are fewer than
    D facets or one of them is negative on a generator, zero on fewer than
    D - 1 independent ones or not positive on e (numerically ambiguous).
    """
    U = np.asarray(U, dtype=float)
    k, D = U.shape
    subsets = np.array(list(combinations(range(k), D - 1)),
                       dtype=int).reshape(-1, D - 1)
    _, s, Vt = np.linalg.svd(U[subsets])
    normals = Vt[(s > FACET_TOL).all(axis=1), -1]
    side = normals @ U.T
    bounding = ((side >= -FACET_TOL).all(axis=1)
                | (side <= FACET_TOL).all(axis=1))
    facets = []
    for on in np.unique(np.abs(side[bounding]) <= FACET_TOL, axis=0):
        f = np.linalg.svd(U[on])[2][-1]
        facets.append(f if f @ e > 0 else -f)
    F = np.array(facets).reshape(-1, D)
    if (U @ F.sum(axis=0)).min() <= FACET_TOL:
        raise ValueError("cone contains a line (not pointed)")
    bad = len(F) < D
    for f, row in zip(F, F @ U.T):
        on = np.abs(row) <= FACET_TOL
        bad |= (row.min() < -FACET_TOL or f @ e <= FACET_TOL
                or np.linalg.matrix_rank(U[on], tol=FACET_TOL) != D - 1)
    if bad:
        raise ValueError("cone facets are numerically ambiguous")
    return F
