"""The three workloads: what a request does and how its answer is checked.

Each workload builds its gptt models once, then serves requests whose inputs
come from seeded numpy (`embed`).  Request i of a run draws its inputs from
`default_rng([seed, 0, i])`, so a seed fixes every input and no input
repeats within a run.  `verify` compares an answer with the density-matrix
and LP references in `oracles`; it returns None when the answer is right and
a reason otherwise.  An expected refusal (a peel `DiagonalizationError` on a
state with no decomposition, `unknown` where gptt has no decision procedure)
is a right answer.  `oracles` loads scipy.optimize, so only the verification
code, which runs after set-up, imports it.

gptt functions are always reached through their module (`thermo.entropy`,
not a name imported once), so the tracing shim sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import embed

ALPHAS = (0, 1, 2, math.inf)


@dataclass
class Request:
    kind: str
    index: int
    data: dict = field(default_factory=dict)


def _close(a, b, tol):
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float)) <= tol))


def _same_float(a, b, tol):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


class Workload:
    """Request schedule shared by all workloads.

    `fixed` kinds run once, first, in every timed batch; `cycle` kinds then
    repeat in order for as long as the run measures.  Warm-up serves one
    request of each kind in `warm_kinds`.
    """

    name = ""
    fixed: tuple = ()
    cycle: tuple = ()

    def __init__(self, gptt, seed: int):
        self.g = gptt
        self.seed = seed

    @property
    def warm_kinds(self):
        return list(dict.fromkeys(self.cycle))

    def kind_at(self, i: int) -> str:
        if i < len(self.fixed):
            return self.fixed[i]
        return self.cycle[(i - len(self.fixed)) % len(self.cycle)]

    def request(self, i: int, kind: str | None = None, warm: bool = False) -> Request:
        kind = kind or self.kind_at(i)
        rng = np.random.default_rng([self.seed, int(warm), i])
        return Request(kind, i, self.make(kind, rng))

    def build_models(self):
        raise NotImplementedError

    def make_inputs(self):
        """Inputs every request shares; per-request inputs come from `make`."""

    def make(self, kind, rng) -> dict:
        raise NotImplementedError

    def run(self, req: Request):
        raise NotImplementedError

    def verify(self, req: Request, ans) -> str | None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# convert_small


CONVERT_MODELS = {
    # model string: (block dims, field, sectorized)
    "classical:4": ((1, 1, 1, 1), "R", False),
    "rebit": ((2,), "R", False),
    "quantum:3": ((3,), "C", False),
    "quantum:4": ((4,), "C", False),
    "doubled_quantum:2": ((2, 2), "C", True),
    "extended_classical:2x2": ((2, 2), "C", True),
}
CONVERT_CASES = ("pure_src", "invariant", "random", "toward_chi", "equal_spectra")


class ConvertSmall(Workload):
    """A request: one conversion query on one small system."""

    name = "convert_small"
    cycle = tuple(f"{m}/{c}" for c in CONVERT_CASES for m in CONVERT_MODELS)

    def build_models(self):
        zoo = self.g.zoo
        self.models = {}
        for text, (dims, fld, _) in CONVERT_MODELS.items():
            m = zoo.parse_model_string(text)
            if m.structure.dims != dims or m.structure.field != fld:
                raise RuntimeError(f"{text}: block structure differs from the "
                                   f"benchmark's copy")
            self.models[text] = m

    def make(self, kind, rng):
        model, case = kind.split("/")
        dims, fld, sectorized = CONVERT_MODELS[model]
        d = sum(dims)
        chi = embed.to_vec([np.eye(n) / d for n in dims], fld)
        if case == "pure_src":
            src = embed.to_vec(embed.pure_blocks(rng, dims, fld), fld)
            tgt = embed.to_vec(embed.random_blocks(rng, dims, fld), fld)
        elif case == "invariant":
            src = embed.to_vec(embed.random_blocks(rng, dims, fld), fld)
            tgt = chi
        elif case == "random":
            src = embed.to_vec(embed.random_blocks(rng, dims, fld), fld)
            tgt = embed.to_vec(embed.random_blocks(rng, dims, fld), fld)
        elif case == "toward_chi":
            src = embed.to_vec(embed.random_blocks(rng, dims, fld), fld)
            t = rng.uniform(0.2, 0.8)
            tgt = (1 - t) * src + t * chi
        else:  # equal spectra; on two-sector models, moved between sectors
            p = np.sort(rng.dirichlet(np.ones(d)))[::-1]
            if sectorized:
                src_spec = [p[[0, 1]], p[[2, 3]]]
                tgt_spec = ([p[[2, 3]], p[[0, 1]]] if rng.integers(2)
                            else [p[[0, 2]], p[[1, 3]]])
            elif len(dims) == 1:
                src_spec, tgt_spec = [p], [rng.permutation(p)]
            else:
                src_spec = [[v] for v in rng.permutation(p)]
                tgt_spec = [[v] for v in rng.permutation(p)]
            src = embed.to_vec(embed.spectrum_blocks(rng, dims, fld, src_spec), fld)
            tgt = embed.to_vec(embed.spectrum_blocks(rng, dims, fld, tgt_spec), fld)
        return {"model": model, "src": src, "tgt": tgt}

    def run(self, req):
        g = self.g
        m = self.models[req.data["model"]]
        rho = g.core.StateVec(req.data["src"], m)
        sigma = g.core.StateVec(req.data["tgt"], m)
        return {
            "diag_src": g.spectral.diagonalize(rho),
            "diag_tgt": g.spectral.diagonalize(sigma),
            "renyi": [g.thermo.entropy(rho, a) for a in ALPHAS],
            "relent": g.thermo.relative_entropy(rho, sigma),
            "unital": g.resource.convertible(rho, sigma, "unital"),
            "rare": g.resource.convertible(rho, sigma, "rare"),
        }

    def verify(self, req, ans):
        import oracles

        model = req.data["model"]
        dims, fld, sectorized = CONVERT_MODELS[model]
        src, tgt = req.data["src"], req.data["tgt"]
        R, S = embed.to_total(src, dims, fld), embed.to_total(tgt, dims, fld)
        ps, pt = oracles.spectrum(R), oracles.spectrum(S)
        for key, x, p in (("diag_src", src, ps), ("diag_tgt", tgt, pt)):
            why = _check_diagonalization(ans[key], x, p)
            if why:
                return f"{key}: {why}"
        support = np.where(ps > 1e-12, ps, 0.0)  # gptt's support cutoff
        for a, got in zip(ALPHAS, ans["renyi"]):
            if not _same_float(got, oracles.renyi(support, a), 1e-8):
                return f"renyi {a}: {got}"
        if not _same_float(ans["relent"], oracles.relative_entropy(R, S), 1e-7):
            return f"relative entropy {ans['relent']}"
        unit = embed.to_vec([np.eye(n) for n in dims], fld)
        chi = unit / sum(dims)
        major = oracles.majorizes(ps, pt)
        why = _check_outcome(ans["unital"], "yes" if major else "no", src, tgt,
                             ps, pt, unit, chi, dims, fld)
        if why:
            return f"unital: {why}"
        if not sectorized:
            expect = "yes" if major else "no"
        elif not major:
            expect = "no"
        elif ps[0] >= 1 - 1e-10 or _close(tgt, chi, 1e-10):
            expect = "yes"
        elif _close(ps, pt, 1e-9):
            sr = [oracles.spectrum(B) for B in embed.to_blocks(src, dims, fld)]
            st = [oracles.spectrum(B) for B in embed.to_blocks(tgt, dims, fld)]
            match = any(all(_close(sr[j], st[perm[j]], 1e-8) for j in range(2))
                        for perm in ((0, 1), (1, 0)))
            expect = "yes" if match else "no"
        else:
            expect = "unknown"
        why = _check_outcome(ans["rare"], expect, src, tgt, ps, pt, unit, chi,
                             dims, fld)
        return f"rare: {why}" if why else None


def _check_diagonalization(diag, x, spectrum):
    vals = np.asarray(diag.eigenvalues)
    if not _close(vals, spectrum[:len(vals)], 1e-8) or len(vals) != len(spectrum):
        return "eigenvalues differ from the reference spectrum"
    E = np.asarray([s.coords for s in diag.eigenstates])
    if not _close(E @ E.T, np.eye(len(E)), 1e-8):
        return "eigenstates are not orthonormal pure states"
    if not _close(vals @ E, x, 1e-8):
        return "eigen-decomposition does not reconstruct the state"
    return None


def _check_outcome(out, expect, src, tgt, ps, pt, unit, chi, dims, fld):
    import oracles

    if out.answer != expect:
        return f"verdict {out.answer}, expected {expect}"
    if expect == "unknown":
        return None
    if expect == "no":
        cert = out.certificate or {}
        if "prefix_index" in cert:
            k = cert["prefix_index"]
            cp = np.cumsum(np.sort(ps)[::-1])
            cq = np.cumsum(np.sort(pt)[::-1])
            if not (cp[k] < cq[k] - 1e-10 and abs(cert["source_prefix"] - cp[k]) <= 1e-9):
                return "prefix certificate does not hold"
            return None
        if "source_sectors" in cert:
            got = cert["source_sectors"] + cert["target_sectors"]
            ref = [np.clip(oracles.spectrum(B), 0, None) for x in (src, tgt)
                   for B in embed.to_blocks(x, dims, fld)]
            if all(_close(r, g, 1e-8) for r, g in zip(ref, got)):
                return None
            return "sector certificate differs from the reference spectra"
        return "refusal without a certificate"
    M = out.channel.matrix
    if not _close(M @ src, tgt, 1e-8):
        return "channel misses the target by more than 1e-8"
    if not _close(M.T @ unit, unit, 1e-9):
        return "channel does not preserve the unit effect"
    if not _close(M @ chi, chi, 1e-8):
        return "channel moves the invariant state"
    cert = out.certificate or {}
    if "stochastic_matrix" in cert:
        D = np.asarray(cert["stochastic_matrix"])
        if (not _close(D.sum(0), 1, 1e-9) or not _close(D.sum(1), 1, 1e-9)
                or D.min() < -1e-12):
            return "stochastic matrix is not doubly stochastic"
        if not _close(D @ np.sort(ps)[::-1], np.sort(pt)[::-1], 1e-8):
            return "stochastic matrix does not map the spectra"
    wit = out.channel.witness or {}
    if "reversibles" in wit:
        w = np.asarray(wit["weights"])
        mix = sum(wi * r.matrix for wi, r in zip(w, wit["reversibles"]))
        if w.min() < 0 or abs(w.sum() - 1) > 1e-9 or not _close(mix, M, 1e-9):
            return "mixture of reversibles does not give the channel"
        mats = [r.matrix for r in wit["reversibles"]]
    elif "reversible" in out.channel.tags:
        mats = [M]
    else:
        mats = []
    for Q in mats:
        if not _close(Q @ Q.T, np.eye(len(Q)), 1e-8):
            return "a reversible is not orthogonal"
    if out.channel.kraus is not None:
        X = embed.to_total(src, dims, fld)
        Y = sum(K @ X @ K.conj().T for K in out.channel.kraus)
        if not _close(np.abs(Y - embed.to_total(tgt, dims, fld)), 0, 1e-8):
            return "Kraus form does not reach the target"
    return None


# ---------------------------------------------------------------------------
# composite_thermo


ERASE_DIMS = {"erase_q2": (2,), "erase_q3": (3,), "erase_dq2": (2, 2)}


class CompositeThermo(Workload):
    """A request: one bipartite thermodynamics task."""

    name = "composite_thermo"
    fixed = ("erase_dq2", "erase_q3")
    # 40 requests.  The 28 qubit ledgers hold p50.  The 8 doubled ledgers,
    # the slowest kind in the cycle, are the top fifth, so p90 sits near
    # their own median.  With 3 doubled entropies, 27.5% of requests are on
    # doubled composites.
    cycle = tuple("ledger_dq2" if k % 5 == 2 else
                  {5: "entropy_dq2", 18: "entropy_dq2", 31: "entropy_dq2",
                   24: "erase_q2"}.get(k, "ledger_q2")
                  for k in range(40))

    def build_models(self):
        zoo = self.g.zoo
        self.q2 = zoo.build_model("quantum", n=2)
        self.q3 = zoo.build_model("quantum", n=3)
        self.dq2 = zoo.build_model("doubled_quantum", n=2)
        self.comp_q = zoo.compose_systems(self.q2, self.q2)
        self.comp_d = zoo.compose_systems(self.dq2, self.dq2)
        if (self.comp_d.structure.dims != (8, 8)
                or not np.array_equal(self.comp_d.composite.perm,
                                      embed.residue_perm(2, 2))):
            raise RuntimeError("doubled composite ordering differs from the "
                               "benchmark's copy")

    def make(self, kind, rng):
        beta = rng.uniform(0.5, 2.0)
        if kind == "ledger_q2":
            E = np.array([0.0, rng.uniform(0.5, 2.0)])
            return {"rho": embed.to_vec([embed.ginibre_density(rng, 2)], "C"),
                    "K": embed.haar_unitary(rng, 4), "E": E, "beta": beta,
                    "h": embed.to_vec([np.diag(E)], "C")}
        if kind == "ledger_dq2":
            E = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.0, 3))])
            K = embed.block_diag([embed.haar_unitary(rng, 8),
                                  embed.haar_unitary(rng, 8)])
            if rng.integers(2):
                K = np.roll(np.eye(16), 8, axis=0) @ K
            return {"rho": embed.to_vec(embed.random_blocks(rng, (2, 2), "C"), "C"),
                    "K": K, "E": E, "beta": beta,
                    "h": embed.to_vec([np.diag(E[:2]), np.diag(E[2:])], "C")}
        if kind == "entropy_dq2":
            return {"rho": embed.to_vec(embed.random_blocks(rng, (8, 8), "C"), "C")}
        return {"rho": embed.to_vec(embed.random_blocks(rng, ERASE_DIMS[kind], "C"), "C"),
                "beta": beta}

    def run(self, req):
        g, d = self.g, req.data
        if req.kind.startswith("ledger"):
            m, comp = ((self.q2, self.comp_q) if req.kind == "ledger_q2"
                       else (self.dq2, self.comp_d))
            rho = g.core.StateVec(d["rho"], m)
            joint = comp.make_reversible(
                g.embedding.conjugation_matrix([d["K"]], comp.structure),
                kraus=[d["K"]])
            return g.thermo.landauer_ledger(joint, rho, d["h"], d["beta"], comp)
        if req.kind == "entropy_dq2":
            return g.thermo.bipartite_entropies(g.core.StateVec(d["rho"], self.comp_d))
        m = {"erase_q2": self.q2, "erase_q3": self.q3, "erase_dq2": self.dq2}[req.kind]
        return g.thermo.erasure_demo(g.core.StateVec(d["rho"], m), d["beta"])

    def verify(self, req, ans):
        import oracles

        d = req.data
        if req.kind.startswith("ledger"):
            if req.kind == "ledger_q2":
                dims, K_kron = (2,), d["K"]
            else:
                dims, perm = (2, 2), embed.residue_perm(2, 2)
                K_kron = np.zeros_like(d["K"])
                K_kron[np.ix_(perm, perm)] = d["K"]
            ref = oracles.ledger(embed.to_total(d["rho"], dims, "C"), K_kron,
                                 d["E"], d["beta"])
            for key, val in ref.items():
                if not _same_float(getattr(ans, key), val, 1e-8):
                    return f"{key} {getattr(ans, key)} vs reference {val}"
            if not ans.equality_residual <= 1e-7:
                return f"ledger identity residual {ans.equality_residual}"
            if not ans.bound_satisfied or ans.second_law_residual < -1e-9:
                return "ledger violates the cost bound or the second law"
            return None
        if req.kind == "entropy_dq2":
            perm = embed.residue_perm(2, 2)
            rho = np.zeros((16, 16), complex)
            rho[np.ix_(perm, perm)] = embed.to_total(d["rho"], (8, 8), "C")
            ref = oracles.bipartite(rho, 4, 4)
            for key, val in ref.items():
                if not _same_float(ans[key], val, 1e-8):
                    return f"{key} {ans[key]} vs reference {val}"
            return None
        s = oracles.vn_entropy(embed.to_total(d["rho"], ERASE_DIMS[req.kind], "C"))
        if abs(ans["delta_E_env"]) > 1e-10:
            return f"erasure moved energy {ans['delta_E_env']}"
        if abs(ans["system_entropy_before"] - s) > 1e-9:
            return "entropy before erasure differs from the reference"
        if ans["system_entropy_after"] > 1e-8:
            return "system not left pure"
        if abs(ans["conditional_before"] + s) > 1e-8:
            return "conditional entropy before erasure is not -S"
        if not (ans["memory_not_degraded"] and ans["bound_satisfied"]):
            return "memory degraded or assisted bound violated"
        if not ans["ledger"].equality_residual <= 1e-7:
            return "erasure ledger does not close"
        return None


# ---------------------------------------------------------------------------
# polytope_lp


POLYTOPES = {
    # vertices, effect generators, unit effect, group generators
    "square_bit": (
        [[1, 1, 1], [1, -1, 1], [-1, 1, 1], [-1, -1, 1]],
        [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]],
        [0, 0, 1],
        [[[0, -1, 0], [1, 0, 0], [0, 0, 1]], np.diag([1.0, -1.0, 1.0])]),
    "diamond_bit": (
        [[1, 0, 1], [-1, 0, 1], [0, 0.5, 1], [0, -0.5, 1]],
        [[1, 2, 1], [1, -2, 1], [-1, 2, 1], [-1, -2, 1]],
        [0, 0, 1],
        [np.diag([-1.0, 1.0, 1.0]), np.diag([1.0, -1.0, 1.0])]),
    "restricted_trit": (
        np.eye(3),
        [[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]],
        [1, 1, 1],
        [np.eye(3)[[1, 0, 2]], np.eye(3)[[2, 0, 1]]]),
}
# Pairs of pure states (by vertex) that a measurement tells apart with
# certainty.  Set-up draws states from them; `PolytopeData.facts` checks
# them against the reference LP at the first verification.
DISTINGUISHABLE_PAIRS = {
    "square_bit": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    "diamond_bit": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    "restricted_trit": [],
}


class PolytopeData:
    """The benchmark's copy of a polytope model, plus reference facts."""

    def __init__(self, name):
        V, G, u, gens = POLYTOPES[name]
        self.V = np.asarray(V, float)
        self.G = np.asarray(G, float)
        self.u = np.asarray(u, float)
        self.gens = [np.asarray(M, float) for M in gens]
        self.points = self.V / (self.V @ self.u)[:, None]
        self.pairs = DISTINGUISHABLE_PAIRS[name]
        self._facts = None

    def facts(self):
        """Reference answers for verification, computed on first use."""
        import oracles

        if self._facts is None:
            pairs = [(a, b) for a in range(len(self.points))
                     for b in range(a + 1, len(self.points))
                     if oracles.distinguishing_exists(
                         self.G, self.u, [self.points[a], self.points[b]])]
            if pairs != self.pairs:
                raise RuntimeError(f"distinguishable pairs are {pairs}, "
                                   f"not {self.pairs}")
            group = oracles.group_closure(self.gens)
            D = len(self.u)
            _, s, Vt = np.linalg.svd(np.vstack([M - np.eye(D) for M in group]))
            fixed = Vt[s <= 1e-9]
            orbit = [M @ self.points[0] for M in group]
            capacity = 2 if self.pairs else 1
            self._facts = {
                "group": group,
                "unique": len(fixed) == 1,
                "invariant": fixed[0] / float(self.u @ fixed[0]) if len(fixed) == 1 else None,
                "transitive": all(any(_close(o, p, 1e-8) for o in orbit)
                                  for p in self.points),
                "axioms": oracles.reversibility_axioms(
                    list(self.points), group, capacity, self.G, self.u),
            }
        return self._facts

    def decomposable(self, x):
        """Whether x mixes a distinguishable pair (or, without any, is pure)."""
        for a, b in self.pairs or [(a, a) for a in range(len(self.points))]:
            pa, pb = self.points[a], self.points[b]
            t = np.clip(np.dot(x - pb, pa - pb) / max(np.dot(pa - pb, pa - pb), 1e-300), 0, 1)
            if np.abs(t * pa + (1 - t) * pb - x).max() <= 1e-7:
                return True
        return False


class PolytopeLP(Workload):
    """A request: one query on a polytope model; every cone check is an LP."""

    name = "polytope_lp"
    # Per model, states that decompose and states that do not, in equal
    # numbers, and one audit of the reversibility axioms.  Audits and the
    # restricted trit are fast; keeping them to 7 of 39 requests puts p50
    # well inside the square and diamond states, not at their lower edge.
    cycle = tuple(k for m, n in (("square_bit", 8), ("diamond_bit", 8),
                                 ("restricted_trit", 2))
                  for k in (f"{m}/pair", f"{m}/interior") * n + (f"{m}/audit",))

    def build_models(self):
        zoo = self.g.zoo
        self.models = {}
        for name, spec in POLYTOPES.items():
            m = zoo.build_model(name)
            if not (np.array_equal(m.state_cone.generators, np.asarray(spec[0], float))
                    and np.array_equal(m.effect_cone.generators, np.asarray(spec[1], float))):
                raise RuntimeError(f"{name}: polytope differs from the benchmark's copy")
            self.models[name] = m

    def make_inputs(self):
        self.data = {name: PolytopeData(name) for name in POLYTOPES}

    def make(self, kind, rng):
        model, what = kind.split("/")
        P = self.data[model]
        n = len(P.points)
        out = {"model": model, "pair_idx": rng.choice(n, 2, replace=False),
               "triple_idx": rng.choice(n, 3, replace=False)}
        if what == "pair":
            if P.pairs:
                a, b = P.pairs[rng.integers(len(P.pairs))]
                p = rng.uniform(0.55, 0.95)
                out["x"] = p * P.points[a] + (1 - p) * P.points[b]
                out["spectrum"] = [p, 1 - p]
            else:
                out["x"] = P.points[rng.integers(n)]
                out["spectrum"] = [1.0]
        elif what == "interior":
            out["x"] = rng.dirichlet(np.ones(n)) @ P.points
        return out

    def run(self, req):
        g, d = self.g, req.data
        m = self.models[d["model"]]
        if req.kind.endswith("/audit"):
            return {"axioms": g.resource.check_unrestricted_reversibility(m),
                    "invariant": g.symmetry.invariant_state(m),
                    "transitive": g.symmetry.is_transitive(m)}
        st = g.core.StateVec(d["x"], m)
        try:
            diag = g.spectral.diagonalize(st)
        except g.core.DiagonalizationError as exc:
            diag = exc
        tw = g.symmetry.twirl(st)
        pts = self.data[d["model"]].points
        return {
            "diag": diag,
            "twirl": tw,
            "norm": g.core.state_norm(m, st.coords - tw.coords),
            "pair": g.symmetry.perfectly_distinguishable_search(
                m, [g.core.StateVec(pts[i], m) for i in d["pair_idx"]]),
            "triple": g.symmetry.perfectly_distinguishable_search(
                m, [g.core.StateVec(pts[i], m) for i in d["triple_idx"]]),
        }

    def verify(self, req, ans):
        import oracles

        d = req.data
        P = self.data[d["model"]]
        f = P.facts()
        if req.kind.endswith("/audit"):
            ax = ans["axioms"]
            if (ax["permutability"], ax["strong_symmetry"]) != f["axioms"]:
                return f"axioms {ax} vs reference {f['axioms']}"
            inv = ans["invariant"]
            if inv["unique"] != f["unique"] or (
                    f["unique"] and not _close(inv["state"].coords, f["invariant"], 1e-9)):
                return "invariant state differs from the reference"
            if ans["transitive"] != f["transitive"]:
                return "transitivity differs from the reference"
            return None
        x = d["x"]
        diag = ans["diag"]
        if P.decomposable(x):
            if isinstance(diag, Exception):
                return f"decomposable state refused: {diag}"
            vals = np.asarray(diag.eigenvalues)
            if not _close(vals, sorted(d.get("spectrum", vals), reverse=True), 1e-8):
                return f"eigenvalues {vals} vs {d.get('spectrum')}"
            if not _close(diag.reconstruct(), x, 1e-8):
                return "eigen-decomposition does not reconstruct the state"
        elif not (isinstance(diag, Exception) and diag.residue is not None
                  and diag.residue > 1e-9):
            return "state without a decomposition was not refused with a residue"
        group = f["group"]
        if not _close(ans["twirl"].coords, sum(M @ x for M in group) / len(group), 1e-9):
            return "twirl differs from the group average"
        ref = oracles.base_norm(P.V, P.u, x - ans["twirl"].coords)
        if abs(ans["norm"] - ref) > 1e-7:
            return f"base norm {ans['norm']} vs reference {ref}"
        for key in ("pair", "triple"):
            pts = [P.points[i] for i in d[f"{key}_idx"]]
            found = oracles.distinguishing_exists(P.G, P.u, pts)
            rep = ans[key]
            if rep["found"] != found:
                return f"{key} search found={rep['found']}, reference {found}"
            if found:
                E = np.asarray([e.coords for e in rep["effects"]])
                if (not _close(E.sum(0), P.u, 1e-8)
                        or not _close(E @ np.asarray(pts).T, np.eye(len(pts)), 1e-8)):
                    return f"{key} effects do not distinguish the states"
        return None


WORKLOADS = {w.name: w for w in (ConvertSmall, CompositeThermo, PolytopeLP)}
