"""Convertibility of states under mixtures of reversibles and unital maps.

The exact unital criterion is spectrum majorisation; the constructive side
synthesizes an explicit channel.  Every mixture-of-reversibles witness is
weights over one stack of reversibles aligning the two eigenbases: the
Birkhoff terms where every two eigenbases are reversibly connected, sector
and position shifts on the sectorized families, where sector invariants
refuse and the verdict is otherwise an honest "unknown".
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
)
from . import zoo
from .spectral import Diagonalization, diagonalize


def majorizes(p, q) -> bool:
    """Whether p majorizes q, within 1e-10 on every prefix sum.  Vectors are
    sorted and zero-padded; totals must agree."""
    tp, tq = float(np.sum(p)), float(np.sum(q))
    if abs(tp - tq) > 1e-8:
        raise ValueError("majorisation needs equal totals "
                         f"({tp:.6f} vs {tq:.6f})")
    return _majorization_certificate(p, q) is None


def _majorization_certificate(p, q):
    """The first prefix sum at which p falls below q by more than 1e-10,
    or None if p majorizes q."""
    p = np.sort(np.asarray(p, dtype=float))[::-1]
    q = np.sort(np.asarray(q, dtype=float))[::-1]
    if len(p) != len(q):
        n = max(len(p), len(q))
        p = np.pad(p, (0, n - len(p)))
        q = np.pad(q, (0, n - len(q)))
    cp, cq = np.cumsum(p), np.cumsum(q)
    bad = np.where(cp < cq - 1e-10)[0]
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


def birkhoff_decompose(D: np.ndarray):
    """Write a doubly stochastic matrix as a convex sum of permutations.

    Returns [(weight, perm)] with perm[i] the column matched to row i;
    the term count never exceeds (d-1)^2 + 1.  Each term matches rows to
    columns over the entries of the remainder above a threshold
    (`_perfect_matching`, the matching scipy's maximum_bipartite_matching
    returns) and takes the smallest matched entry as its weight.  The
    weights must sum to 1 within 1e-8, else GPTError.  D must have row
    and column sums 1 within 1e-8 and no entry below -1e-9 (ValueError).
    """
    D = np.asarray(D, dtype=float)
    d = D.shape[0]
    if D.shape != (d, d):
        raise ValueError("square matrix required")
    if (np.abs(D.sum(axis=0) - 1).max() > 1e-8
            or np.abs(D.sum(axis=1) - 1).max() > 1e-8
            or D.min() < -1e-9):
        raise ValueError("matrix is not doubly stochastic")
    R = np.maximum(D, 0.0)
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


# rows of the measure-and-prepare matrix formed per pass; bounds the
# d x rows x D temporary of its sequential sum
_MP_ELEMENTS = 1 << 16


def measure_and_prepare_channel(diag_from: Diagonalization,
                                diag_to: Diagonalization,
                                D: np.ndarray) -> ChannelMap:
    """Measure in the source eigenbasis, prepare column-mixtures of the
    target eigenbasis.  Doubly stochastic D keeps the channel unital.

    Both eigenbases are read from the diagonalizations' frames
    (`spectral.Frame`), and no eigenstate is built.  The measurement
    effects are the source eigenstates' own coordinates (`dagger`);
    ChannelMap's unit-preservation check confirms they sum to the unit.
    Built from stacked arrays: preparation j is sum_i D[i, j] e_i over the
    target eigenstates, the matrix is sum_j prep_j f_j^T over the source
    eigenstates, both summed in index order from zero, and the Kraus
    operators sqrt(D[i, j]) |tb_i><ta_j| (for D[i, j] > 1e-14, in row-major
    order, when d^2 <= KRAUS_CAP) are one stack over the frames'
    total-space unit vectors.
    """
    model = diag_from.model
    if model.structure is None:
        raise UnsupportedModelError(
            f"{model.model_id} has no identifying effects")
    src, tgt = diag_from.frame, diag_to.frame
    F, E = src.rows, tgt.rows
    d, dim = F.shape
    prep = np.add.reduce(D[:, :, None] * E[:, None, :], axis=0, initial=0.0)
    M = np.empty((dim, dim))
    step = max(1, _MP_ELEMENTS // (d * dim))
    for r0 in range(0, dim, step):
        rows = slice(r0, r0 + step)
        np.add.reduce(prep[:, rows, None] * F[:, None, :], axis=0,
                      initial=0.0, out=M[rows])
    kraus = None
    if d * d <= KRAUS_CAP:
        ta, tb = src.vectors, tgt.vectors
        i, j = np.nonzero(D > 1e-14)
        kraus = tuple(np.sqrt(D[i, j])[:, None, None]
                      * (tb[i][:, :, None] * ta[j].conj()[:, None, :]))
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


def _by_sector(d: Diagonalization) -> tuple:
    """d's decomposition grouped by block, in block order and descending
    within a block: the eigenvalues, one row per block, then the blocks and
    total-space unit vectors of its frame in that order."""
    _, blocks, vectors = d.frame
    order = np.argsort(blocks, kind="stable")
    st = d.model.structure
    return (d.eigenvalues[order].reshape(st.block_count, st.n),
            blocks[order], vectors[order])


def _matching_sector_perm(sr, ss):
    """A sector relabeling perm carrying the spectra `sr` onto `ss`, sector
    j onto sector perm[j] within 1e-8 in every eigenvalue, or None: a
    perfect matching (`_perfect_matching`) of the pairs that agree.  Where
    several sectors agree within 1e-8, any of the valid relabelings may be
    the one returned."""
    match = _perfect_matching(np.abs(sr[:, None] - ss[None]).max(-1) <= 1e-8)
    return None if match is None else tuple(match.tolist())


def _move_perms(images, shifts, n: int) -> np.ndarray:
    """The `basis_aligning_reversibles` perm of each move (image, a) between
    sector-grouped bases of sectors of dimension n: source member (j, r)
    goes onto target member (image[j], (r + a) mod n)."""
    j, r = np.divmod(np.arange(np.shape(images)[1] * n), n)
    onto = (np.asarray(images)[:, j] * n
            + (r + np.asarray(shifts)[:, None]) % n)
    return np.argsort(onto, axis=1)


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

    Every witness is weights w_t over one `zoo._aligning_reversibles`
    stack, term t sending source eigenstate perm_t[i] onto target
    eigenstate i, both read from the diagonalizations' frames.  With
    unrestricted reversibility the terms are the Birkhoff terms of the
    mixing matrix D (eigenvalues of sigma = D times those of rho), the one
    `convertible` keeps for the pair.  On a sectorized model, N sectors of
    dimension n, both eigenbases are grouped by sector (the frames' block
    arrays) and a term is a move (image, a),
    sending (j, r) onto (image[j], (r + a) mod n): for a pure source at
    (j0, 0), the cyclic shift by j - j0 with a = r, weighted by the target
    eigenvalue at (j, r); for the invariant target, all N n cyclic and
    position shifts, weighted 1/(N n); for equal spectra, the move (pi, 0)
    of a sector relabeling pi matching the sector spectra, else "no".
    The witness must reach sigma within 1e-8: past it the constructive
    cases raise GPTError and the sector-matched one answers "unknown".
    """
    model = rho.model
    if model.structure is None:
        return ConversionOutcome("unknown", None, {
            "reason": "no decision procedure for this model family"})

    if model.flags.unrestricted_reversibility:
        # every ordered eigenbasis is reversibly connected: mix the
        # permutations of a Birkhoff decomposition of the mixing matrix
        terms = birkhoff_decompose(_majorization(dr, ds, mixing=True)[1])
        weights, perms = [w for w, _ in terms], [p for _, p in terms]
        src, tgt = dr.frame[1:], ds.frame[1:]
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
        sr, *src = _by_sector(dr)
        ss, *tgt = _by_sector(ds)
        sectors = np.arange(N)
        cert = {}
        if pure:
            # carry the source eigenstate (j0, 0) onto each target eigenstate
            j0 = int(dr.frame.blocks[0])
            j, r = np.nonzero(ss > 1e-14)
            weights = ss[j, r].tolist()
            images = (sectors + (j - j0)[:, None]) % N
            what, shifts = "pure-source mixture", r
        elif to_chi:
            # average over every cyclic sector shift and position shift
            k, shifts = np.divmod(np.arange(N * n), n)
            weights = [1.0 / (N * n)] * (N * n)
            images = (sectors + k[:, None]) % N
            what = "invariant-target mixture"
        else:
            sector_perm = _matching_sector_perm(sr, ss)
            if sector_perm is None:
                # equal spectra force any entropy-preserving mixture to
                # collapse to a single reversible, which cannot move sector
                # invariants
                return ConversionOutcome("no", None, {
                    "reason": "equal spectra but mismatched sector "
                              "invariants",
                    "source_sectors": sr.tolist(),
                    "target_sectors": ss.tolist(),
                })
            # sector j's eigenstates go, in order, onto sector perm[j]'s
            weights, images, shifts = [1.0], [sector_perm], [0]
            what, cert = None, {"sector_perm": sector_perm}
        perms = _move_perms(images, shifts, n)

    chan = _rare_mixture_channel(model, weights, zoo._aligning_reversibles(
        model, *src, *tgt, perms))
    resid = _target_residual(chan, rho, sigma, what)
    if what is not None:
        return ConversionOutcome("yes", chan, {**cert, "residual": resid})
    if resid > 1e-8:
        return ConversionOutcome("unknown", None, {
            "reason": "sector-matched reversible drifted",
            "residual": resid})
    return ConversionOutcome("yes", chan, cert)


def _majorization(dr: Diagonalization, ds: Diagonalization,
                  mixing: bool) -> tuple:
    """The pair's `_majorization_certificate` (None when the spectrum of dr
    majorises that of ds) and, if asked for and it is None, the read-only
    mixing matrix D = `t_transform_chain` of the two spectra (else None).
    Each is computed once per pair: dr keeps one entry, holding the ds it
    was made for by strong reference and matched by identity, so the
    unital and rare verdicts on one pair share it."""
    kept = dr.__dict__.get("_majorization")
    if kept is None or kept[0] is not ds:
        kept = [ds, _majorization_certificate(dr.eigenvalues, ds.eigenvalues),
                None]
        dr.__dict__["_majorization"] = kept
    if mixing and kept[1] is None and kept[2] is None:
        D = t_transform_chain(dr.eigenvalues, ds.eigenvalues)
        D.setflags(write=False)
        kept[2] = D
    return kept[1], kept[2]


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
    reversibility, and on sectorized models answers "yes" from a pure
    source, onto the invariant state and between sector-matched equal
    spectra, "no" between equal spectra on mismatched sectors and "unknown"
    otherwise (`_rare_verdict`); 'noisy' lies
    between the two, so it answers "yes" with the rare witness when there
    is one and "unknown" otherwise.  The prefix check and the mixing chain
    run once per pair of diagonalizations (`_majorization`), and the
    witnesses read their frames, so no eigenstate is built.
    """
    if regime not in ("unital", "rare", "noisy"):
        raise ValueError(f"unknown regime {regime!r}")
    _same_model(rho.model, sigma.model)
    if regime == "rare" and rho.model.structure is None:
        return ConversionOutcome("unknown", None, {
            "reason": "no decision procedure for this model family"})

    dr = diagonalize(rho)
    ds = diagonalize(sigma)
    cert, D = _majorization(dr, ds, mixing=regime == "unital")
    if cert is not None:
        if rho.model.structure is None:
            return ConversionOutcome("unknown", None, {
                "reason": "majorisation decides convertibility only on the "
                          "matrix families"})
        return ConversionOutcome("no", None, dict(cert))
    if regime == "unital":
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


def check_unrestricted_reversibility(model: ModelSpec) -> dict:
    """Evaluate the two reversibility axioms on a model.

    Permutability: every relabeling of every maximal distinguishable set of
    pure states is implemented by some reversible.  Strong symmetry: every
    ordered maximal set maps reversibly onto every other.  Matrix families
    are decided analytically, with explicit counterexamples where an axiom
    fails.  Polytopes are decided exactly on the permutations of
    `model.group.table`: a relabeling must be some element's action on the
    set, and every ordered set must lie in the orbit of the first, whose
    first miss is the counterexample.  The verdict is relative to the
    model's declared group.
    """
    st = model.structure
    if st is not None and not model.flags.sectorized:
        return {"permutability": True, "strong_symmetry": True,
                "note": "every ordered eigenbasis is reversibly connected "
                        "to every other"}
    if st is not None and (st.block_count == 1 or st.n == 1):
        return {"permutability": True, "strong_symmetry": True,
                "note": "one sector, or sectors of dimension one, allow every "
                        "relabeling in isolation; the model flag stays false "
                        "because composites reintroduce the obstruction"}
    if st is not None:
        basis = zoo.pure_maximal_set(model)
        swapped = list(basis)
        n = st.n
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
    # finite polytope families: every relabeling against the group table
    if model.capacity < 2:
        return {"permutability": True, "strong_symmetry": True,
                "note": "no nontrivial distinguishable sets exist"}
    perms, _ = model.group.table
    pts = model.pure_states
    out = {"permutability": True, "strong_symmetry": True}
    for c in model.distinguishable_sets:
        images = set(map(tuple, perms[:, c].tolist()))
        p = next((p for p in itertools.permutations(range(len(c)))
                  if tuple(c[i] for i in p) not in images), None)
        if p is not None:
            out["permutability"] = False
            out["permutability_counterexample"] = {
                "set": pts[list(c)].tolist(), "relabeling": list(p)}
            break
    # reachability is an orbit relation, so every ordered set must lie in
    # the orbit of the first
    tuples = [t for c in model.distinguishable_sets
              for t in itertools.permutations(c)]
    orbit = set(map(tuple, perms[:, tuples[0]].tolist()))
    miss = next((t for t in tuples if t not in orbit), None)
    if miss is not None:
        out["strong_symmetry"] = False
        out["strong_symmetry_counterexample"] = {
            "source": pts[list(tuples[0])].tolist(),
            "target": pts[list(miss)].tolist()}
    return out
