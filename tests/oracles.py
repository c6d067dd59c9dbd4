"""Independent reference implementations used to check the package.

Everything here works on raw density matrices / probability vectors with
numpy and scipy only, sharing no code with the package under test, except
the copies of the package's eigenstate-reading witness builders, of its
polytope request path, of its dense invariant-state solve, of its
composite operations and of its state check at the end.
"""

import math
from itertools import combinations, permutations

import numpy as np
from scipy.linalg import block_diag
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


def group_closure_rounded(generators, cap=10_000, tol=1e-9):
    """Every product of the matrices `generators`, breadth first from the
    identity, each element multiplied on the left by every generator in
    turn; two products are one element when their entries, rounded to
    multiples of tol, agree."""
    def key(M):
        return np.round(M / tol).astype(np.int64).tobytes()

    gens = [np.asarray(G, dtype=float) for G in generators]
    eye = np.eye(gens[0].shape[0])
    elements = {key(eye): eye}
    frontier = [eye]
    while frontier:
        nxt = []
        for M in frontier:
            for G in gens:
                M2 = G @ M
                if key(M2) not in elements:
                    elements[key(M2)] = M2
                    nxt.append(M2)
                    if len(elements) > cap:
                        raise RuntimeError("group closure too large")
        frontier = nxt
    return list(elements.values())


def _maps(matrices, src, dst, tol):
    return any(all(np.abs(M @ a - b).max() <= tol for a, b in zip(src, dst))
               for M in matrices)


def reversibility_axioms_search(points, sets, matrices, tol=1e-8):
    """Permutability and strong symmetry of the index sets `sets` of the
    vertices `points`, with the first counterexample of each, by trying
    every matrix of the group on every pair of ordered sets."""
    sets = [[points[i] for i in c] for c in sets]
    out = {"permutability": True, "strong_symmetry": True}
    for pts in sets:
        p = next((p for p in permutations(range(len(pts)))
                  if not _maps(matrices, pts, [pts[i] for i in p], tol)), None)
        if p is not None:
            out["permutability"] = False
            out["permutability_counterexample"] = {
                "set": [x.tolist() for x in pts], "relabeling": list(p)}
            break
    tuples = [list(p) for pts in sets for p in permutations(pts)]
    for src in tuples:
        dst = next((d for d in tuples if not _maps(matrices, src, d, tol)), None)
        if dst is not None:
            out["strong_symmetry"] = False
            out["strong_symmetry_counterexample"] = {
                "source": [x.tolist() for x in src],
                "target": [x.tolist() for x in dst]}
            break
    return out


def transitive_search(points, matrices, tol=1e-8):
    """Whether some matrix of the group carries the first vertex onto each
    other one."""
    return all(_maps(matrices, [points[0]], [p], tol) for p in points[1:])


_SQRT2 = np.sqrt(2.0)


def _hermitian_blocks(x, dims, field):
    """The blocks of block coordinates x: in each, the diagonal, then every
    upper pair (i, j), i < j, in row-major order as sqrt(2) Re and, on
    complex blocks, sqrt(2) Im."""
    blocks, pos = [], 0
    for n in dims:
        H = np.zeros((n, n), dtype=complex if field == "C" else float)
        for i in range(n):
            H[i, i] = x[pos]
            pos += 1
        for i in range(n):
            for j in range(i + 1, n):
                re = x[pos] / _SQRT2
                pos += 1
                if field == "C":
                    im = x[pos] / _SQRT2
                    pos += 1
                    H[i, j], H[j, i] = complex(re, im), complex(re, -im)
                else:
                    H[i, j] = H[j, i] = re
        blocks.append(H)
    return blocks


def density_matrix(x, dims, field):
    """The full Hilbert-space matrix of block coordinates x: its blocks on
    the diagonal, zeros across blocks."""
    return block_diag(*_hermitian_blocks(x, dims, field))


def transition_pairings(E_to, E_from):
    """The transition matrix as it was read off eigenstates: T[i, j] the
    dot product of target eigenstate coordinates E_to[i] with source
    eigenstate coordinates E_from[j], one Python float each, clipped at
    0."""
    T = np.array([[float(t @ s) for s in E_from] for t in E_to])
    return np.clip(T, 0.0, None)


def _rank_one_coords(u, field):
    """Block coordinates of |u><u|, in the order of `_hermitian_blocks`."""
    P = u[:, None] * u[None, :].conj()
    n = len(u)
    out = [P[i, i].real for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out.append(P[i, j].real * _SQRT2)
            if field == "C":
                out.append(P[i, j].imag * _SQRT2)
    return out


def canonical_rows_loop(V):
    """The columns of V as rows, each with its first entry above 1e-10 in
    absolute value made real and positive, then scaled to unit length by
    the square root of one dot product per row (of the real and imaginary
    parts on complex rows): the loop the package ran before it batched
    the row norms, kept to check the batched form bit for bit."""
    cols = np.arange(V.shape[1])
    big = np.abs(V) > 1e-10
    first = big.argmax(axis=0)
    lead = V[first, cols]
    lead[~big[first, cols]] = 1
    U = (V * (np.abs(lead) / lead)).T.copy()
    if np.iscomplexobj(U):
        nrm = [math.sqrt(u.real.dot(u.real) + u.imag.dot(u.imag)) for u in U]
    else:
        nrm = [math.sqrt(u.dot(u)) for u in U]
    return U / np.array(nrm)[:, None]


def eager_diagonalization(x, dims, field, tol=1e-9):
    """The block diagonalization of a matrix-model state as it was made
    with every eigenstate built up front, kept to check a lazy construction
    bit for bit.

    One np.linalg.eigh per block; each eigenvector in canonical phase and
    unit length, embedded as the coordinates of its rank-one projector.
    Eigenvalues (negative ones read as 0) descend at 12 digits; a tie is
    broken by position, block by block and within a block in `eigh`'s
    order.  The eigenstates' Gram matrix, unit pairings and reconstruction
    of x with the raw eigenvalues must be exact within tol.  Returns
    (eigenvalues, eigenstate coordinates, one row each, supports as
    (block, unit vector)), all in that order.
    """
    rows, raw, supports = [], [], []
    width = [n * n if field == "C" else n * (n + 1) // 2 for n in dims]
    for b, H in enumerate(_hermitian_blocks(x, dims, field)):
        w, V = np.linalg.eigh(H)
        raw.extend(w.tolist())
        for u in canonical_rows_loop(V):
            row = np.zeros(sum(width))
            row[sum(width[:b]): sum(width[:b + 1])] = _rank_one_coords(u, field)
            rows.append(row)
            supports.append((b, u))
    rows, raw = np.array(rows), np.array(raw)
    values = np.where(raw < 0.0, 0.0, raw)
    key = [-round(v, 12) for v in values.tolist()]
    order = sorted(range(len(key)), key=lambda i: (key[i], i))
    # the unit effect, the trace: 1 on every diagonal coordinate
    unit = np.concatenate([[1.0] * n + [0.0] * (k - n)
                           for n, k in zip(dims, width)])
    E = rows[order]
    G = E @ E.T - np.eye(len(E))
    if not max(np.abs(G).max(), np.abs(E @ unit - 1.0).max(),
               np.abs(raw[order] @ E - x).max()) <= tol:
        raise ValueError("eigendecomposition fails its certificate")
    if not raw.min() >= -tol:
        raise ValueError("eigenvalue below the cone tolerance")
    return values[order], E, [supports[i] for i in order]


def _total_vector(support, dims, field):
    """A (block, unit vector) support zero-padded to the total space."""
    b, v = support
    t = np.zeros(sum(dims), dtype=complex if field == "C" else float)
    off = sum(dims[:b])
    t[off: off + len(v)] = v
    return t


def aligning_kraus_loop(sup_a, sup_b, dims, field):
    """Kraus operator of the reversible sending the pure state with support
    sup_a[i] onto the one with support sup_b[i], for every i, supports
    given as (block, unit vector): built term by term, one block at a time,
    as the package built each Birkhoff term before it stacked them, and
    kept to check the stacked construction bit for bit.

    The sector transport must be consistent and a permutation, and each
    block sum_i |vb_i><va_i| unitary within 1e-8; else ValueError with the
    message the package raises.
    """
    sector_map = {}
    for (ja, _), (jb, _) in zip(sup_a, sup_b):
        if sector_map.setdefault(ja, jb) != jb:
            raise ValueError("no reversible aligns these bases: "
                             "inconsistent sector transport")
    if len(set(sector_map.values())) != len(sector_map):
        raise ValueError("no reversible aligns these bases: "
                         "sector transport is not a permutation")
    dtype = complex if field == "C" else float
    blocks = [np.zeros((n, n), dtype=dtype) for n in dims]
    for (ja, va), (jb, vb) in zip(sup_a, sup_b):
        blocks[ja] += np.outer(vb, va.conj())
    if len(sector_map) < len(dims) or any(
            np.abs(B @ B.conj().T - np.eye(len(B))).max() > 1e-8
            for B in blocks):
        raise ValueError("basis alignment produced a non-reversible map")
    offs = [sum(dims[:j]) for j in range(len(dims))]
    K = np.zeros((sum(dims), sum(dims)), dtype=np.result_type(*blocks))
    for j, (B, n) in enumerate(zip(blocks, dims)):
        t = sector_map[j]
        if dims[t] != n:
            raise ValueError("sector permutation must preserve dimensions")
        K[offs[t]: offs[t] + n, offs[j]: offs[j] + n] = B
    return K


def measure_and_prepare_loop(F, E, D, sup_a, sup_b, dims, field, kraus_cap):
    """Matrix and Kraus operators of the measure-and-prepare channel that
    measures in the basis with coordinate rows F and supports sup_a and
    prepares the columns of the doubly stochastic D over the basis with
    rows E and supports sup_b, with the per-entry loops the package used
    before it stacked them: preparation j is sum_i D[i, j] E[i], the matrix
    sum_j prep_j F[j]^T, both Python sums, and the Kraus operators
    sqrt(D[i, j]) |tb_i><ta_j| for D[i, j] > 1e-14 in row-major order,
    None when d^2 exceeds kraus_cap."""
    d = len(F)
    prep = [sum(D[i, j] * E[i] for i in range(d)) for j in range(d)]
    M = sum(np.outer(prep[j], F[j]) for j in range(d))
    if d * d > kraus_cap:
        return M, None
    ta = [_total_vector(s, dims, field) for s in sup_a]
    tb = [_total_vector(s, dims, field) for s in sup_b]
    return M, [math.sqrt(D[i, j]) * np.outer(tb[i], ta[j].conj())
               for i in range(d) for j in range(d) if D[i, j] > 1e-14]


# ---------------------------------------------------------------------------
# conversion witnesses and purification read off eigenstates
#
# Copies of the package's builders as they were before they read a
# diagonalization's frame: every basis comes from
# `Diagonalization.eigenstates` and each eigenstate's `pure_support`.  They
# call the package for everything else, so they pin the frame route bit for
# bit against the eigenstate route, not the arithmetic (the loops above do
# that).


def total_supports(model, states):
    """The `pure_support` of each pure state, as an integer array of sectors
    and the unit vectors zero-padded to the total Hilbert space, one row
    per state."""
    from gptt import zoo

    st = model.structure
    sups = [zoo.pure_support(s) for s in states]
    k = len(sups)
    b = np.array([b for b, _ in sups], dtype=int)
    T = np.zeros((k, st.block_count, st.n),
                 dtype=complex if st.field == "C" else float)
    T[np.arange(k), b] = np.reshape([v for _, v in sups], (k, st.n))
    return b, T.reshape(k, st.hilbert_dim)


def measure_and_prepare_eigenstates(diag_from, diag_to, D):
    """Matrix and Kraus operators (None past KRAUS_CAP) of the unital
    witness, read off the two diagonalizations' eigenstates."""
    from gptt import core, resource

    model = diag_from.model
    F = np.array([s.coords for s in diag_from.eigenstates])
    E = np.array([s.coords for s in diag_to.eigenstates])
    d, dim = F.shape
    prep = np.add.reduce(D[:, :, None] * E[:, None, :], axis=0, initial=0.0)
    M = np.empty((dim, dim))
    step = max(1, resource._MP_ELEMENTS // (d * dim))
    for r0 in range(0, dim, step):
        rows = slice(r0, r0 + step)
        np.add.reduce(prep[:, rows, None] * F[:, None, :], axis=0,
                      initial=0.0, out=M[rows])
    kraus = None
    if d * d <= core.KRAUS_CAP:
        _, ta = total_supports(model, diag_from.eigenstates)
        _, tb = total_supports(model, diag_to.eigenstates)
        i, j = np.nonzero(D > 1e-14)
        kraus = tuple(np.sqrt(D[i, j])[:, None, None]
                      * (tb[i][:, :, None] * ta[j].conj()[:, None, :]))
    return M, kraus


def _eigenstates_by_sector(d):
    from gptt import zoo

    sectors = [zoo.pure_support(s)[0] for s in d.eigenstates]
    order = np.argsort(sectors, kind="stable")
    st = d.model.structure
    return (d.eigenvalues[order].reshape(st.block_count, st.n),
            [d.eigenstates[i] for i in order.tolist()])


def rare_verdict_eigenstates(rho, sigma, dr, ds):
    """The package's mixture-of-reversibles verdict on a pair whose spectra
    majorise, its witness aligning the eigenstates themselves."""
    from gptt import resource, zoo
    from gptt.resource import ConversionOutcome

    model = rho.model
    if model.flags.unrestricted_reversibility:
        terms = resource.birkhoff_decompose(
            resource.t_transform_chain(dr.eigenvalues, ds.eigenvalues))
        weights, perms = [w for w, _ in terms], [p for _, p in terms]
        src, tgt = dr.eigenstates, ds.eigenstates
        what, cert = "synthesized mixture", {"weights": np.asarray(weights)}
    else:
        pure = dr.eigenvalues[0] >= 1.0 - 1e-10
        to_chi = np.abs(sigma.coords - model.chi).max() <= 1e-10
        equal_spectra = (
            model.flags.sectorized
            and len(dr.eigenvalues) == len(ds.eigenvalues)
            and np.abs(dr.eigenvalues - ds.eigenvalues).max() <= 1e-9)
        if not (pure or to_chi or equal_spectra):
            return ConversionOutcome("unknown", None, {
                "reason": "majorisation holds but no mixture witness is "
                          "known for this model family"})
        N, n = model.structure.block_count, model.structure.n
        sr, src = _eigenstates_by_sector(dr)
        ss, tgt = _eigenstates_by_sector(ds)
        sectors = np.arange(N)
        cert = {}
        if pure:
            j0 = zoo.pure_support(dr.eigenstates[0])[0]
            j, r = np.nonzero(ss > 1e-14)
            weights = ss[j, r].tolist()
            images = (sectors + (j - j0)[:, None]) % N
            what, shifts = "pure-source mixture", r
        elif to_chi:
            k, shifts = np.divmod(np.arange(N * n), n)
            weights = [1.0 / (N * n)] * (N * n)
            images = (sectors + k[:, None]) % N
            what = "invariant-target mixture"
        else:
            sector_perm = resource._matching_sector_perm(sr, ss)
            if sector_perm is None:
                return ConversionOutcome("no", None, {
                    "reason": "equal spectra but mismatched sector "
                              "invariants",
                    "source_sectors": sr.tolist(),
                    "target_sectors": ss.tolist(),
                })
            weights, images, shifts = [1.0], [sector_perm], [0]
            what, cert = None, {"sector_perm": sector_perm}
        perms = resource._move_perms(images, shifts, n)

    chan = resource._rare_mixture_channel(
        model, weights, zoo.basis_aligning_reversibles(model, src, tgt, perms))
    resid = resource._target_residual(chan, rho, sigma, what)
    if what is not None:
        return ConversionOutcome("yes", chan, {**cert, "residual": resid})
    if resid > 1e-8:
        return ConversionOutcome("unknown", None, {
            "reason": "sector-matched reversible drifted",
            "residual": resid})
    return ConversionOutcome("yes", chan, cert)


def purify_eigenstates(state):
    """The coordinates of the package's purification of a state, its
    partner vectors read off the eigenstates."""
    from gptt import core, spectral, zoo

    model = state.model
    comp = zoo.compose_systems(model, model)
    st = model.structure
    N, n = st.block_count, st.n
    diag = spectral.diagonalize(state)
    keep = diag.eigenvalues > 1e-14
    b, T = total_supports(model, [s for s, k in zip(diag.eigenstates, keep)
                                  if k])
    r = (np.cumsum(b[:, None] == np.arange(N), axis=0) - 1)[np.arange(len(b)), b]
    Psi = np.zeros((N * n, N * n), dtype=T.dtype)
    Psi[:, ((-b) % N) * n + r] += (np.sqrt(diag.eigenvalues[keep])[:, None] * T).T
    psi = Psi.reshape(-1)
    return core._kron_to_coords(comp, np.outer(psi, psi.conj()))


# ---------------------------------------------------------------------------
# the polytope request path and the invariant state, as first written
#
# Copies of the package's twirl, stored-set lookup and vertex route of
# `distinguishing_effects` as they were written with Python loops and scans,
# and of `invariant_state` on a matrix model as one dense SVD of its three
# D x D probe matrices.  They call the package for everything else, so they
# pin the array forms bit for bit (the invariant state within 1e-12).


def twirl_sum(state):
    """The group average of a polytope state, summed one element at a
    time."""
    from gptt import core

    _, mats = state.model.group.table
    return core.StateVec(sum(M @ state.coords for M in mats) / len(mats),
                         state.model)


def stored_set_decomposition_scan(model, x):
    """The package's stored-set decomposition, sorted with Python keys:
    each held set's vertices by (eigenvalue descending at 12 digits,
    coordinates at 10 digits, position), and the held sets' decompositions
    compared by their (eigenvalue, coordinates) rows.  The spectrum check
    runs on every held set, one included."""
    from gptt import core

    V, pinv, vertex_weights = model._stored_sets
    w = vertex_weights.get((x + 0.0).tobytes())
    if w is None:
        w = pinv @ x
    p = np.clip(w, 0.0, None)
    fit = np.abs(np.einsum("sc,scd->sd", p, V) - x).max(axis=1)
    miss = np.maximum(fit, -w.min(axis=1))
    held = np.flatnonzero(miss <= core.DEFAULT_TOL)
    if not held.size:
        raise core.DiagonalizationError(
            f"state of {model.model_id} lies in the hull of no perfectly "
            f"distinguishable set of {model.capacity} pure states",
            residue=float(miss.min()))
    decompositions = []
    for i in held:
        v = p[i].tolist()
        coords = [tuple(np.round(r, 10).tolist()) for r in V[i]]
        order = sorted(range(len(v)),
                       key=lambda j: (-round(v[j], 12), coords[j], j))
        decompositions.append((p[i][order], V[i][order]))
    values, rows = min(decompositions, key=lambda d: [
        (-round(v, 12), tuple(np.round(r, 10).tolist()))
        for v, r in zip(d[0].tolist(), d[1])])
    spectra = -np.sort(-p[held], axis=1)
    gaps = np.abs(spectra - values).max(axis=1)
    if gaps.max() > core.DEFAULT_TOL:
        other = spectra[gaps.argmax()]
        raise core.DiagonalizationError(
            f"state of {model.model_id} has two spectra over perfectly "
            f"distinguishable sets: {np.round(values, 12).tolist()} and "
            f"{np.round(other, 12).tolist()}", residue=float(gaps.max()))
    return values, rows


def distinguishing_effects_scan(model, states):
    """The package's `distinguishing_effects` on a polytope, its vertices
    looked up by scanning `maximal_sets` with `set.issubset`."""
    from gptt import core, zoo

    states = list(states)
    for s in states:
        if isinstance(s, core.StateVec):
            core._same_model(model, s.model)
    xs = [np.asarray(s.coords if isinstance(s, core.StateVec) else s,
                     dtype=float) for s in states]
    m = len(xs)
    miss = np.abs(np.asarray(xs)[:, None, :] - model.pure_states).max(axis=2)
    idx = miss.argmin(axis=1).tolist()
    vertex = miss[np.arange(m), idx] <= 1e-9
    for x, v, s in zip(xs, vertex, states):
        if not (v or isinstance(s, core.StateVec)):
            core.StateVec(x, model)
    if m > model.capacity:
        return None
    if vertex.all():
        if len(set(idx)) < m:
            return None
        for c, E in model.maximal_sets:
            if set(idx).issubset(c):
                pos = [c.index(i) for i in idx]
                F = E[pos]
                F[0] += E[[p for p in range(len(c)) if p not in pos]].sum(axis=0)
                return [core.EffectVec(f, model) for f in F]
        return None
    raw, _ = zoo._ray_distinguishability(model.effect_cone.generators,
                                         model.unit_effect, xs)
    if raw is None:
        return None
    return [core.EffectVec(f, model) for f in raw]


def invariant_state_dense(model):
    """(dimension, fixed rows) of a matrix model's group, from one SVD of
    its three probes' D x D matrices stacked."""
    from gptt import zoo

    st = model.structure
    N, n = st.block_count, st.n
    flip, cycle, eye = (np.broadcast_to(B, (N, n, n)) for B in (
        np.diag([-1.0] + [1.0] * (n - 1)), np.roll(np.eye(n), 1, axis=0),
        np.eye(n)))
    mats = [zoo.block_reversible(model, flip).matrix,
            zoo.block_reversible(model, cycle).matrix,
            zoo.block_reversible(model, eye, (np.arange(N) + 1) % N).matrix]
    D = model.vector_dim
    _, s, Vt = np.linalg.svd(np.vstack([M - np.eye(D) for M in mats]),
                             full_matrices=False)
    basis = Vt[s <= 1e-9]
    return len(basis), basis, mats


# ---------------------------------------------------------------------------
# composite operations, as first written
#
# Copies of the package's composite operations as they were written with
# np.kron products and np.ix_ gathers on the composite's perm.  They call
# the package for everything else, so they pin the kept gather indices and
# the broadcast products bit for bit.


def block_to_kron_ix(model, x):
    """A composite's coordinates as its total matrix in kron order,
    scattered through np.ix_ into a zeroed matrix."""
    from gptt.embedding import vec_to_total

    perm = model.composite.perm
    M_block = vec_to_total(x, model.structure)
    M_kron = np.zeros_like(M_block)
    M_kron[np.ix_(perm, perm)] = M_block
    return M_kron


def kron_to_coords_ix(model, M_kron):
    """A kron-order total matrix as a composite's coordinates, gathered
    through np.ix_, refused past an off-block residual of 1e-8."""
    from gptt.core import ConeError
    from gptt.embedding import total_to_vec

    perm = model.composite.perm
    x, resid = total_to_vec(M_kron[np.ix_(perm, perm)], model.structure)
    if resid > 1e-8:
        raise ConeError(f"matrix violates the composite sector structure "
                        f"(off-block residual {resid:.3e})")
    return x


def tensor_states_kron(comp, a, b):
    """The product state of two factor states, formed with np.kron."""
    from gptt.core import StateVec, _same_model
    from gptt.embedding import vec_to_total

    mA, mB = comp.composite.factors
    _same_model(mA, a.model)
    _same_model(mB, b.model)
    MA = vec_to_total(a.coords, mA.structure)
    MB = vec_to_total(b.coords, mB.structure)
    return StateVec(kron_to_coords_ix(comp, np.kron(MA, MB)), comp)


def lifted_kraus_kron(comp, kraus_A, kraus_B):
    """KA ⊗ KB for every pair, formed with np.kron and gathered through
    np.ix_."""
    perm = comp.composite.perm
    return [np.kron(KA, KB)[np.ix_(perm, perm)]
            for KA in kraus_A for KB in kraus_B]


def swap_kraus_loop(comp):
    """The factor swap's Kraus operator, the kron-order swap written entry
    by entry and gathered through np.ix_."""
    perm = comp.composite.perm
    dH = comp.composite.factors[0].structure.hilbert_dim
    W = np.zeros((dH * dH, dH * dH))
    for a in range(dH):
        for b in range(dH):
            W[b * dH + a, a * dH + b] = 1.0
    return W[np.ix_(perm, perm)]


# ---------------------------------------------------------------------------
# conjugation matrices and relative entropy, as first written
#
# Copies of `embedding.conjugation_matrices` as one full-space pass of 32
# columns at a time, and of `thermo._relative_entropy`'s loop over numpy
# scalars.  They call the package for the closed form's terms and the
# transition matrix, so they pin the block-pair layout and the list loop
# bit for bit.


def conjugation_matrices_full(ops, structure, out=None):
    """Every operator's coordinate matrix over the full space, 32 columns
    at a time, added into `out` when given."""
    from gptt.embedding import _conjugation_terms

    p, q, r, s, t, c = _conjugation_terms(structure)
    D = structure.coord_dim
    ops = np.asarray(ops)
    rows = len(ops) * D
    if out is None:
        out = np.zeros((len(ops), D, D))
    Kp = (r[:, None] * ops[:, p]).reshape(rows, -1)
    Kq = ops[:, q].conj().reshape(rows, -1)
    flat = out.reshape(rows, D)
    for j0 in range(0, D, 32):
        js = slice(j0, j0 + 32)
        acc = Kp[:, s[0, js]] * c[0, js] * Kq[:, t[0, js]]
        acc += Kp[:, s[1, js]] * c[1, js] * Kq[:, t[1, js]]
        flat[:, js] += acc.real
    return out


def relative_entropy_scalars(dr, ds):
    """Relative entropy from two diagonalizations, the transition matrix
    and the clipped spectra read as numpy scalars in the double loop."""
    from gptt.spectral import transition_matrix

    T = transition_matrix(dr, ds)
    p = np.maximum(dr.eigenvalues, 0.0)
    q = np.maximum(ds.eigenvalues, 0.0)
    total = 0.0
    for j, pj in enumerate(p):
        if pj <= 1e-12:
            continue
        total += pj * math.log(pj)
        for i, qi in enumerate(q):
            w = T[i, j]
            if w <= 1e-10:
                continue
            if qi <= 1e-12:
                return math.inf
            total -= pj * w * math.log(qi)
    return max(total, 0.0)


# ---------------------------------------------------------------------------
# the state check, as a sequence of separate steps
#
# A copy of the state constructor's checks as they ran before the unit
# pairing and the margin of a polytope state came from one product: each
# check on its own, the pairing as its own product, then the package's
# `cone_membership`.


def state_check_sequence(model, coords):
    """The float copy of `coords` as a state of `model`, or the first
    refusal raised: complex input and a wrong shape (ValueError), a NaN or
    infinite coordinate (ConeError), a unit pairing off by more than 1e-7
    (NormalizationError), then a margin below the cone tolerance
    (ConeError)."""
    from gptt import core

    if np.iscomplexobj(coords):
        raise ValueError("state has complex coordinates")
    x = np.array(coords, dtype=float)
    if x.shape != (model.vector_dim,):
        raise ValueError("state has wrong dimension")
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise core.ConeError("state has a NaN or infinite coordinate")
    p = float(model.unit_effect @ x)
    if not abs(p - 1.0) <= 1e-7:
        raise core.NormalizationError(f"state has unit pairing {p!r}, expected 1")
    ok, margin = core.cone_membership(model, x, "state")
    if not ok:
        raise core.ConeError(f"state outside cone (margin {margin:.3e})")
    return x
