"""Convertibility of states under mixtures of reversibles and unital maps.

The exact unital criterion is spectrum majorisation; the constructive side
synthesizes an explicit channel.  For models where every two eigenbases are
reversibly connected, the same data yields a mixture of reversibles; for
the sectorized families that fails in general, and the verdict logic falls
back on sector invariants, special-case witnesses, or an honest "unknown".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    KRAUS_CAP,
    ChannelMap,
    GPTError,
    ModelSpec,
    StateVec,
    UnsupportedModelError,
    _same_model,
    per_model_id,
)
from . import zoo
from .spectral import Diagonalization, diagonalize
from .zoo import (basis_aligning_reversible, block_reversible, pure_support,
                  reversible_sending)


def majorizes(p, q, tol: float = 1e-10) -> bool:
    """Whether p majorizes q.  Vectors are sorted and zero-padded; totals
    must agree."""
    tp, tq = float(np.sum(p)), float(np.sum(q))
    if abs(tp - tq) > 1e-8:
        raise ValueError("majorisation needs equal totals "
                         f"({tp:.6f} vs {tq:.6f})")
    return _majorization_certificate(p, q, tol) is None


def _majorization_certificate(p, q, tol: float = 1e-10):
    """The first prefix sum at which p falls below q, or None if p
    majorizes q."""
    p = np.sort(np.asarray(p, dtype=float))[::-1]
    q = np.sort(np.asarray(q, dtype=float))[::-1]
    if len(p) != len(q):
        n = max(len(p), len(q))
        p = np.pad(p, (0, n - len(p)))
        q = np.pad(q, (0, n - len(q)))
    cp, cq = np.cumsum(p), np.cumsum(q)
    bad = np.where(cp < cq - tol)[0]
    if len(bad) == 0:
        return None
    k = int(bad[0])
    return {"prefix_index": k, "source_prefix": float(cp[k]),
            "target_prefix": float(cq[k])}


# ---------------------------------------------------------------------------
# doubly stochastic matrices


def t_transform_chain(p, q) -> np.ndarray:
    """Doubly stochastic D with q = D p, as a product of two-index mixes.

    Requires p majorizes q, both sorted descending.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = len(p)
    D = np.eye(d)
    x = p.copy()
    for _ in range(d * d):
        diff = x - q
        if np.abs(diff).max() <= 1e-12:
            break
        j = int(np.argmax(diff > 1e-13))
        if diff[j] <= 1e-13:
            raise GPTError("mixing chain lost majorisation")
        ks = np.where(diff[j + 1:] < -1e-13)[0]
        if len(ks) == 0:
            raise GPTError("mixing chain lost majorisation")
        k = j + 1 + int(ks[0])
        t = min(x[j] - q[j], q[k] - x[k])
        lam = t / (x[j] - x[k])
        lam = min(max(lam, 0.0), 1.0)
        T = np.eye(d)
        T[j, j] = T[k, k] = 1.0 - lam
        T[j, k] = T[k, j] = lam
        x = T @ x
        D = T @ D
    else:
        raise GPTError("mixing chain did not converge")
    return D


def _perfect_matching(support: np.ndarray) -> Optional[np.ndarray]:
    """The column matched to each row of a square boolean support, or None
    when the support admits no perfect matching.

    Hopcroft-Karp, taking its steps in the order of scipy.sparse.csgraph's
    maximum_bipartite_matching, so both return the same matching.  A greedy
    pass gives each row in turn its lowest free column.  Then, while rows
    are free, each phase layers the rows by a breadth-first search from the
    free rows that expands no row once a layer has reached a free column,
    and searches depth first from each free row in ascending order: it pops
    the row pushed last, which leaves the layering, and either takes that
    row's lowest free column, when it sits just below the layer of free
    columns, or pushes the rows matched to its columns in the next layer,
    in ascending column order.  A phase that reaches no free column leaves
    the matching maximum but imperfect.
    """
    adj = [[c for c, on in enumerate(row) if on] for row in support.tolist()]
    d = len(adj)
    col_of, row_of = [-1] * d, [-1] * d
    for r, cols in enumerate(adj):
        c = next((c for c in cols if row_of[c] < 0), -1)
        if c >= 0:
            col_of[r], row_of[c] = c, r
    while -1 in col_of:
        free = [r for r in range(d) if col_of[r] < 0]
        layer = [math.inf] * d
        for r in free:
            layer[r] = 0
        top = math.inf  # the layer of the first free column reached
        for r in (queue := list(free)):
            if layer[r] < top:
                for c in adj[r]:
                    if row_of[c] < 0:
                        top = min(top, layer[r] + 1)
                    elif layer[row_of[c]] == math.inf:
                        layer[row_of[c]] = layer[r] + 1
                        queue.append(row_of[c])
        if top == math.inf:
            return None
        for root in free:
            stack, parent = [root], {}
            while stack:
                r = stack.pop()
                depth, layer[r] = layer[r] + 1, math.inf
                if depth == math.inf:
                    continue
                c = next((c for c in adj[r] if row_of[c] < 0), -1)
                if depth == top and c >= 0:
                    while r != root:  # flip the path back to the root
                        c, col_of[r] = col_of[r], c
                        row_of[col_of[r]] = r
                        r = parent[r]
                    col_of[r], row_of[c] = c, r
                    break
                for c in adj[r]:
                    if row_of[c] >= 0 and layer[row_of[c]] == depth:
                        parent[row_of[c]] = r
                        stack.append(row_of[c])
    return np.array(col_of)


def birkhoff_decompose(D: np.ndarray, tol: float = 1e-9):
    """Write a doubly stochastic matrix as a convex sum of permutations.

    Returns [(weight, perm)] with perm[i] the column matched to row i;
    the term count never exceeds (d-1)^2 + 1.  Each term matches rows to
    columns over the entries of the remainder above a threshold
    (`_perfect_matching`, the matching scipy's maximum_bipartite_matching
    returns) and takes the smallest matched entry as its weight.  The
    weights must sum to 1 within 1e-8, else GPTError.
    """
    D = np.asarray(D, dtype=float)
    d = D.shape[0]
    if D.shape != (d, d):
        raise ValueError("square matrix required")
    if (np.abs(D.sum(axis=0) - 1).max() > 1e-8
            or np.abs(D.sum(axis=1) - 1).max() > 1e-8
            or D.min() < -tol):
        raise ValueError("matrix is not doubly stochastic")
    R = np.clip(D, 0.0, None)
    terms = []
    mass = 1.0
    for _ in range((d - 1) ** 2 + 1):
        if mass <= 1e-11:
            break
        thresh = max(1e-12, 1e-12 * mass)
        match = _perfect_matching(R > thresh)
        if match is None:
            raise GPTError("support of the remainder admits no matching; "
                           "input was not doubly stochastic enough")
        w = float(R[np.arange(d), match].min())
        if w <= 1e-13:
            raise GPTError("decomposition stalled")
        terms.append((w, match))
        R[np.arange(d), match] -= w
        mass -= w
    total = sum(w for w, _ in terms)
    if abs(total - 1.0) > 1e-8:
        raise GPTError(f"decomposition mass {total} != 1")
    return terms


def permutations_to_matrix(terms, d: int) -> np.ndarray:
    out = np.zeros((d, d))
    for w, perm in terms:
        out[np.arange(d), perm] += w
    return out


# ---------------------------------------------------------------------------
# channel synthesis


@dataclass(frozen=True, eq=False)
class ConversionOutcome:
    answer: str  # 'yes', 'no', 'unknown'
    channel: Optional[ChannelMap] = None
    certificate: Optional[dict] = None

    def __repr__(self):
        return f"ConversionOutcome({self.answer})"


def _target_residual(chan: ChannelMap, rho: StateVec, sigma: StateVec,
                     what: Optional[str] = None) -> float:
    """Max-abs distance of the channel's image of rho from sigma.  Given the
    name of the channel, a distance above 1e-8 raises instead."""
    resid = float(np.abs(chan.matrix @ rho.coords - sigma.coords).max())
    if what is not None and resid > 1e-8:
        raise GPTError(f"{what} misses the target ({resid:.3e})")
    return resid


def measure_and_prepare_channel(diag_from: Diagonalization,
                                diag_to: Diagonalization,
                                D: np.ndarray) -> ChannelMap:
    """Measure in the source eigenbasis, prepare column-mixtures of the
    target eigenbasis.  Doubly stochastic D keeps the channel unital.

    The measurement effects are the source eigenstates' own coordinates
    (`dagger`); ChannelMap's unit-preservation check confirms they sum to
    the unit."""
    model = diag_from.model
    if model.structure is None:
        raise UnsupportedModelError(
            f"{model.model_id} has no identifying effects")
    d = len(diag_from.eigenstates)
    prep = [sum(D[i, j] * diag_to.eigenstates[i].coords for i in range(d))
            for j in range(d)]
    M = sum(np.outer(prep[j], diag_from.eigenstates[j].coords)
            for j in range(d))
    kraus = None
    if d * d <= KRAUS_CAP:
        st = model.structure
        offs = st.hilbert_offsets()
        dH = st.hilbert_dim
        dtype = complex if st.field == "C" else float

        def total_vec(state):
            b, v = pure_support(state)
            t = np.zeros(dH, dtype=dtype)
            t[offs[b]: offs[b] + len(v)] = v
            return t

        ta = [total_vec(s) for s in diag_from.eigenstates]
        tb = [total_vec(s) for s in diag_to.eigenstates]
        kraus = tuple(
            math.sqrt(D[i, j]) * np.outer(tb[i], ta[j].conj())
            for i in range(d) for j in range(d) if D[i, j] > 1e-14)
    return ChannelMap(
        matrix=M, model_in=model, model_out=model,
        tags=frozenset({"unital", "measure_and_prepare"}),
        kraus=kraus,
        witness={"stochastic_matrix": D},
    )


def build_unital_channel(rho: StateVec, sigma: StateVec) -> ConversionOutcome:
    """Unital channel mapping rho to sigma, or the refusing certificate."""
    return convertible(rho, sigma, "unital")


def build_rare_channel(rho: StateVec, sigma: StateVec) -> ConversionOutcome:
    """Mixture of reversibles mapping rho to sigma.

    Only models with unrestricted reversibility support the generic
    construction; elsewhere majorisation does not decide convertibility
    and this builder refuses.
    """
    model = rho.model
    if not model.flags.unrestricted_reversibility:
        raise UnsupportedModelError(
            f"majorisation is not sufficient here: {model.model_id} lacks "
            f"unrestricted reversibility")
    return convertible(rho, sigma, "rare")


# ---------------------------------------------------------------------------
# sector invariants for the sectorized families


def _eigenstates_by_sector(state: StateVec) -> list:
    """(eigenvalues, eigenstates) of each sector, in block order: the
    state's cached diagonalization grouped by each eigenstate's
    `pure_support` sector, descending within a sector."""
    d = diagonalize(state)
    sectors = np.array([pure_support(s)[0] for s in d.eigenstates])
    return [(d.eigenvalues[idx], [d.eigenstates[i] for i in idx.tolist()])
            for idx in (np.flatnonzero(sectors == b)
                        for b in range(state.model.structure.block_count))]


def _matching_sector_perm(sr: list, ss: list, tol: float = 1e-8):
    """A sector relabeling carrying the spectra `sr` onto `ss`, or None."""
    for perm in itertools.permutations(range(len(sr))):
        if all(np.abs(sr[j] - ss[perm[j]]).max() <= tol
               for j in range(len(sr))):
            return perm
    return None


@per_model_id
def _uniformizing_mixture(model: ModelSpec) -> Optional[tuple]:
    """Reversibles whose uniform mixture sends every state to the invariant
    state; None when the required mixture would be too large.  Built once
    per model id and kept for the life of the process."""
    st = model.structure
    if st is None:
        return None
    N = st.block_count
    n = st.dims[0]
    if any(m != n for m in st.dims):
        return None
    if (n * n) ** N * max(N, 1) > 512:
        return None
    if st.field == "C":
        omega = np.exp(2j * np.pi / n)
        X = np.roll(np.eye(n), 1, axis=0)
        Z = np.diag(omega ** np.arange(n))
        sector_ops = [np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b)
                      for a in range(n) for b in range(n)]
    else:
        if n != 1:
            return None
        sector_ops = [np.eye(1)]
    shifts = [[(j + k) % N for j in range(N)] for k in range(N)]
    return tuple(block_reversible(model, [sector_ops[c] for c in combo], sh)
                 for combo in itertools.product(range(len(sector_ops)),
                                                repeat=N)
                 for sh in shifts)


def _rare_mixture_channel(model: ModelSpec, weights,
                          reversibles) -> ChannelMap:
    M = sum(w * ch.matrix for w, ch in zip(weights, reversibles))
    kraus = None
    if (all(ch.kraus is not None for ch in reversibles)
            and len(reversibles) <= KRAUS_CAP):
        kraus = tuple(math.sqrt(w) * ch.kraus[0]
                      for w, ch in zip(weights, reversibles) if w > 1e-15)
    return ChannelMap(matrix=M, model_in=model, model_out=model,
                      tags=frozenset({"rare", "unital"}), kraus=kraus,
                      witness={"weights": np.asarray(list(weights)),
                               "reversibles": tuple(reversibles)})


def _rare_verdict(rho: StateVec, sigma: StateVec, dr: Diagonalization,
                  ds: Diagonalization) -> ConversionOutcome:
    """Mixture-of-reversibles verdict for a pair whose spectra majorise.

    With unrestricted reversibility: the mixing matrix D (eigenvalues of
    sigma = D times those of rho) is split into Birkhoff terms, and term
    (w, perm) contributes weight w of the one reversible that sends source
    eigenstate perm[i] onto target eigenstate i, for every i
    (`basis_aligning_reversible`, built from the eigenstates' cached
    supports).  Elsewhere: a pure source mixes reversibles onto each target
    eigenstate, the invariant target averages a uniformizing family, and
    sectorized models compare sector spectra, aligning each sector's
    eigenstates with those of its matched sector.  Every witness channel
    must reach sigma within 1e-8.
    """
    model = rho.model
    if model.structure is None:
        return ConversionOutcome("unknown", None, {
            "reason": "no decision procedure for this model family"})

    # every ordered eigenbasis is reversibly connected: mix the permutations
    # of a Birkhoff decomposition of the mixing matrix
    if model.flags.unrestricted_reversibility:
        D = t_transform_chain(dr.eigenvalues, ds.eigenvalues)
        weights, reversibles = [], []
        for w, perm in birkhoff_decompose(D):
            # source member perm[i] goes straight onto target member i
            src = [dr.eigenstates[j] for j in perm.tolist()]
            reversibles.append(
                basis_aligning_reversible(model, src, ds.eigenstates))
            weights.append(w)
        chan = _rare_mixture_channel(model, weights, reversibles)
        resid = _target_residual(chan, rho, sigma, "synthesized mixture")
        return ConversionOutcome("yes", chan, {"weights": np.asarray(weights),
                                               "residual": resid})

    # pure input: mix the reversibles carrying it onto each target eigenstate
    if dr.eigenvalues[0] >= 1.0 - 1e-10:
        weights, reversibles = [], []
        for w, target in zip(ds.eigenvalues, ds.eigenstates):
            if w <= 1e-14:
                continue
            weights.append(float(w))
            reversibles.append(reversible_sending(model, rho, target))
        chan = _rare_mixture_channel(model, weights, reversibles)
        resid = _target_residual(chan, rho, sigma, "pure-source mixture")
        return ConversionOutcome("yes", chan, {"residual": resid})

    # target is the invariant state: average over a uniformizing family
    if np.abs(sigma.coords - model.chi).max() <= 1e-10:
        fam = _uniformizing_mixture(model)
        if fam is not None:
            weights = [1.0 / len(fam)] * len(fam)
            chan = _rare_mixture_channel(model, weights, fam)
            resid = _target_residual(chan, rho, sigma, "uniformizing mixture")
            return ConversionOutcome("yes", chan, {"residual": resid})

    if model.flags.sectorized:
        equal_spectra = (
            len(dr.eigenvalues) == len(ds.eigenvalues)
            and np.abs(dr.eigenvalues - ds.eigenvalues).max() <= 1e-9)
        if equal_spectra:
            by_r = _eigenstates_by_sector(rho)
            by_s = _eigenstates_by_sector(sigma)
            sr, ss = [w for w, _ in by_r], [w for w, _ in by_s]
            perm = _matching_sector_perm(sr, ss)
            if perm is not None:
                # sector j's eigenstates go, in order, onto sector perm[j]'s
                chan = basis_aligning_reversible(
                    model, [e for _, es in by_r for e in es],
                    [e for t in perm for e in by_s[t][1]])
                resid = _target_residual(chan, rho, sigma)
                if resid > 1e-8:
                    return ConversionOutcome("unknown", None, {
                        "reason": "sector-matched reversible drifted",
                        "residual": resid})
                return ConversionOutcome("yes", chan, {"sector_perm": perm})
            # equal spectra force any entropy-preserving mixture to collapse
            # to a single reversible, which cannot move sector invariants
            return ConversionOutcome("no", None, {
                "reason": "equal spectra but mismatched sector invariants",
                "source_sectors": [s.tolist() for s in sr],
                "target_sectors": [s.tolist() for s in ss],
            })
    return ConversionOutcome("unknown", None, {
        "reason": "majorisation holds but no mixture witness is known "
                  "for this model family"})


def convertible(rho: StateVec, sigma: StateVec, regime: str = "unital",
                ) -> ConversionOutcome:
    """Decide convertibility under a chosen class of channels.

    Both states must belong to one model (else `ModelCompatibilityError`).
    On the matrix families majorisation of the spectra is necessary in
    every regime, so a failed majorisation is a "no" in each of them, with
    the prefix sum as certificate.  Polytope models lack the structure that
    argument needs (a mixture of reversibles can reach a state the spectra
    forbid), so there a failed majorisation answers "unknown".  Where
    majorisation holds: 'unital' answers "yes" with a measure-and-prepare
    channel (exact); 'rare' is exact on models with unrestricted
    reversibility, and on sectorized models uses sector invariants and
    explicit witnesses where available, "unknown" otherwise; 'noisy' lies
    between the two, so it answers "yes" with the rare witness when there
    is one and "unknown" otherwise.
    """
    if regime not in ("unital", "rare", "noisy"):
        raise ValueError(f"unknown regime {regime!r}")
    _same_model(rho.model, sigma.model)
    if regime == "rare" and rho.model.structure is None:
        return ConversionOutcome("unknown", None, {
            "reason": "no decision procedure for this model family"})

    dr = diagonalize(rho)
    ds = diagonalize(sigma)
    cert = _majorization_certificate(dr.eigenvalues, ds.eigenvalues)
    if cert is not None:
        if rho.model.structure is None:
            return ConversionOutcome("unknown", None, {
                "reason": "majorisation decides convertibility only on the "
                          "matrix families"})
        return ConversionOutcome("no", None, cert)
    if regime == "unital":
        D = t_transform_chain(dr.eigenvalues, ds.eigenvalues)
        chan = measure_and_prepare_channel(dr, ds, D)
        resid = _target_residual(chan, rho, sigma, "synthesized channel")
        return ConversionOutcome("yes", chan, {"stochastic_matrix": D,
                                               "residual": resid})
    lower = _rare_verdict(rho, sigma, dr, ds)
    if regime == "rare" or lower.answer == "yes":
        return lower
    return ConversionOutcome("unknown", None, {
        "reason": "between the mixture-of-reversibles and unital regimes"})


# ---------------------------------------------------------------------------
# reversibility axioms


def _group_maps_tuple(elements, src, dst, tol=1e-8) -> bool:
    for M, _ in elements:
        if all(np.abs(M @ a - b).max() <= tol for a, b in zip(src, dst)):
            return True
    return False


def check_unrestricted_reversibility(model: ModelSpec) -> dict:
    """Evaluate the two reversibility axioms on a model.

    Permutability: every relabeling of every maximal distinguishable set of
    pure states is implemented by some reversible.  Strong symmetry: every
    ordered maximal set maps reversibly onto every other.  Finite models
    are checked exhaustively; matrix families analytically, with explicit
    counterexamples where an axiom fails.
    """
    st = model.structure
    if st is not None and not model.flags.sectorized:
        return {"permutability": True, "strong_symmetry": True,
                "note": "every ordered eigenbasis is reversibly connected "
                        "to every other"}
    if st is not None and (st.block_count == 1 or st.dims[0] == 1):
        return {"permutability": True, "strong_symmetry": True,
                "note": "one sector, or sectors of dimension one, allow every "
                        "relabeling in isolation; the model flag stays false "
                        "because composites reintroduce the obstruction"}
    if st is not None:
        basis = zoo.pure_maximal_set(model)
        swapped = list(basis)
        n = st.dims[0]
        swapped[0], swapped[n] = swapped[n], swapped[0]
        try:
            zoo.basis_aligning_reversible(model, basis, swapped)
            obstructed = False
        except GPTError:
            obstructed = True
        return {
            "permutability": False,
            "strong_symmetry": False,
            "note": "transposing two basis states across sectors while "
                    "fixing a third is incompatible with sector transport",
            "counterexample_verified": obstructed,
        }
    # finite polytope families: exhaustive search
    elements = zoo._closure_cache(model)
    if model.capacity < 2:
        return {"permutability": True, "strong_symmetry": True,
                "note": "no nontrivial distinguishable sets exist"}
    sets = [[model.pure_states[i] for i in c]
            for c in model.distinguishable_sets]
    tuples = [list(p) for pts in sets for p in itertools.permutations(pts)]
    perm_ok = True
    perm_witness = None
    for pts in sets:
        for p in itertools.permutations(range(len(pts))):
            dst = [pts[i] for i in p]
            if not _group_maps_tuple(elements, pts, dst):
                perm_ok = False
                perm_witness = {"set": [x.tolist() for x in pts],
                                "relabeling": list(p)}
                break
        if not perm_ok:
            break
    strong_ok = True
    strong_witness = None
    for i, src in enumerate(tuples):
        for dst in tuples:
            if not _group_maps_tuple(elements, src, dst):
                strong_ok = False
                strong_witness = {"source": [x.tolist() for x in src],
                                  "target": [x.tolist() for x in dst]}
                break
        if not strong_ok:
            break
    out = {"permutability": perm_ok, "strong_symmetry": strong_ok}
    if perm_witness:
        out["permutability_counterexample"] = perm_witness
    if strong_witness:
        out["strong_symmetry_counterexample"] = strong_witness
    return out
