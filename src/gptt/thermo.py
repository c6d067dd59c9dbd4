"""Entropies, equilibrium states, and energy bookkeeping for erasure.

All entropies use natural logarithms and Boltzmann's constant is 1, so
kT = 1/beta, infinite at beta = 0.  Everything here routes through the
diagonalization machinery, which keeps the formulas meaningful beyond
quantum models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    GPTError,
    ModelSpec,
    StateVec,
    UnsupportedModelError,
    _finite_coords,
    apply_channel,
    as_coords,
    lift_channel,
    marginal,
    tensor_states,
)
from .embedding import block_eigh, block_eigvalsh
from .spectral import (
    Diagonalization,
    _calculus_on_eig,
    dagger,
    diagonalize,
    purify,
    transition_matrix,
)
from . import zoo


# ---------------------------------------------------------------------------
# entropies


def _entropy_of_distribution(p: np.ndarray, alpha: float) -> float:
    p = np.maximum(np.asarray(p, dtype=float), 0.0)
    total = p.sum()
    if total <= 0:
        raise ValueError("empty distribution")
    p = p / total
    support = p[p > 1e-12]
    if alpha < 0:
        raise ValueError("order must be nonnegative")
    if alpha == 0:
        return math.log(len(support))
    if alpha == 1:
        return float(-(support * np.log(support)).sum())
    if math.isinf(alpha):
        return float(-math.log(support.max()))
    return float(math.log((support ** alpha).sum()) / (1.0 - alpha))


def entropy(state: StateVec, alpha: float = 1.0) -> float:
    """Entropy of the spectrum; alpha picks the Renyi order (1 = Shannon)."""
    return _entropy_of_distribution(diagonalize(state).eigenvalues, alpha)


def relative_entropy(rho: StateVec, sigma: StateVec) -> float:
    """Divergence of rho from sigma via the cross-basis overlap matrix.

    Infinite when rho assigns weight outside sigma's support: overlap above
    1e-10 with an eigenstate of sigma of eigenvalue at most 1e-12.
    """
    return _relative_entropy(diagonalize(rho), diagonalize(sigma))


def _relative_entropy(dr: Diagonalization, ds: Diagonalization) -> float:
    # T[i, j] = weight of rho-eigenstate j on sigma-eigenstate i
    # read as Python floats: the loop's IEEE results, without numpy scalars
    T = transition_matrix(dr, ds).tolist()
    p = np.maximum(dr.eigenvalues, 0.0).tolist()
    q = np.maximum(ds.eigenvalues, 0.0).tolist()
    total = 0.0
    for j, pj in enumerate(p):
        if pj <= 1e-12:
            continue
        total += pj * math.log(pj)
        for i, qi in enumerate(q):
            w = T[i][j]
            if w <= 1e-10:
                continue
            if qi <= 1e-12:
                return math.inf
            total -= pj * w * math.log(qi)
    return max(total, 0.0)


def bipartite_entropies(comp_state: StateVec) -> dict:
    """Joint, marginal, mutual, and conditional entropies of a composite."""
    sA = entropy(marginal(comp_state, 0))
    sB = entropy(marginal(comp_state, 1))
    sAB = entropy(comp_state)
    return {
        "joint": sAB,
        "marginal_0": sA,
        "marginal_1": sB,
        "mutual": sA + sB - sAB,
        "conditional_0_given_1": sAB - sB,
        "conditional_1_given_0": sAB - sA,
    }


# ---------------------------------------------------------------------------
# measurement monotones


def measurement_distribution(state: StateVec, effects) -> np.ndarray:
    coords = [as_coords(e) for e in effects]
    if np.abs(sum(coords) - state.model.unit_effect).max() > 1e-8:
        raise GPTError("effects do not sum to the unit")
    p = np.array([float(c @ state.coords) for c in coords])
    return np.maximum(p, 0.0)


def _merge_proportional(effects, probs):
    """Sum the probabilities of effects that are scalar multiples of each
    other: they are the same outcome read off more than once."""
    coords = [as_coords(e) for e in effects]
    groups: list = []
    out: list = []
    for c, p in zip(coords, probs):
        norm = np.abs(c).max()
        placed = False
        for gi, rep in enumerate(groups):
            scale = norm / np.abs(rep).max()
            if scale > 0 and np.abs(c - scale * rep).max() <= 1e-10 * max(1, norm):
                out[gi] += p
                placed = True
                break
        if not placed:
            groups.append(c)
            out.append(p)
    return np.asarray(out)


def monotone_audit(state: StateVec, f: Callable[[np.ndarray], float],
                   n_random: int = 20, rng=None) -> dict:
    """Check that the eigenbasis measurement minimizes a Schur-concave
    statistic over complete fine-grained measurements.

    Random competing measurements are dagger bases of reversibly rotated
    maximal sets; proportional effects are merged before evaluating f.
    """
    model = state.model
    rng = np.random.default_rng(0) if rng is None else rng
    diag = diagonalize(state)
    p_spec = np.maximum(diag.eigenvalues, 0.0)
    base_val = f(p_spec)
    competitors = []
    canonical = zoo.pure_maximal_set(model)
    for _ in range(n_random):
        U = model.group.sampler(model, rng)
        basis = [apply_channel(U, s) for s in canonical]
        effs = [dagger(s) for s in basis]
        probs = measurement_distribution(state, effs)
        competitors.append(_merge_proportional(effs, probs))
    vals = [f(c) for c in competitors]
    violations = [v for v in vals if v < base_val - 1e-8]
    return {
        "spectral_value": base_val,
        "measured_values": vals,
        "minimum": min(vals + [base_val]),
        "spectral_attains_minimum": len(violations) == 0,
        "violations": violations,
    }


def shannon(p) -> float:
    return _entropy_of_distribution(p, 1.0)


# ---------------------------------------------------------------------------
# equilibrium states


def basis_hamiltonian(basis, levels) -> np.ndarray:
    """Coordinates of the energy observable that gives energy levels[k] to
    the pure state basis[k]: the sum of levels[k] * dagger(basis[k])."""
    h = np.zeros(basis[0].model.vector_dim)
    for E, s in zip(levels, basis):
        h += float(E) * dagger(s).coords
    return h


def gibbs_state(model: ModelSpec, hamiltonian, beta: float) -> StateVec:
    """Equilibrium state exp(-beta H)/Z in the energy eigenbasis.

    H is solved once (`block_eigh`); its levels and weights share the
    one (w, V).  The weights are stabilized against overflow: energies are
    measured from the reference level, so no exponent is positive.  beta
    of +-inf selects the uniform mixture on the extremal energy eigenspace.
    A NaN or infinite coordinate of H raises ValueError.
    """
    st = _structure(model)
    eig = block_eigh(_finite_coords(hamiltonian), st)
    levels = eig[0].reshape(-1)
    if math.isinf(beta):
        target = levels.min() if beta > 0 else levels.max()
        x = _calculus_on_eig(
            eig, lambda e: 1.0 if abs(e - target) <= 1e-12 else 0.0, st)
    else:
        e0 = _reference_level(levels, beta)
        x = _calculus_on_eig(
            eig, lambda e: math.exp(-beta * float(e - e0)), st)
    return StateVec(x / float(model.unit_effect @ x), model)


def _structure(model: ModelSpec):
    if model.structure is None:
        raise UnsupportedModelError(
            "equilibrium construction needs an eigenbasis calculus")
    return model.structure


def _spectrum_of_levels(model: ModelSpec, hamiltonian) -> np.ndarray:
    """The energy levels of a Hamiltonian; a NaN or infinite coordinate
    raises ValueError."""
    h = _finite_coords(hamiltonian)
    return block_eigvalsh(h, _structure(model)).reshape(-1)


def mean_energy(state: StateVec, hamiltonian) -> float:
    h = as_coords(hamiltonian)
    return float(h @ state.coords)


def _reference_level(levels: np.ndarray, beta: float) -> float:
    """The level that makes every exponent -beta (e - e0) nonpositive: the
    lowest for beta >= 0, the highest for beta < 0."""
    return float(levels.min() if beta >= 0 else levels.max())


def _shifted_log_partition(levels: np.ndarray, beta: float):
    """(e0, log Z + beta e0) for the reference level e0; the second term
    stays finite where log Z itself overflows.

    The log-sum-exp of the exponents x = -beta (e - e0) is formed as
    scipy.special.logsumexp forms it for real input, so it has the same
    bits: with t the top exponent, m the number of exponents equal to t and
    s the sum of exp(x - t) over the others, it is log1p(s / m) + log m + t.
    s sums over all positions, the top ones as exp(-inf), since summing the
    others alone can round differently.  At beta = +-inf the reference
    level's exponent is NaN, and so is the result.
    """
    e0 = _reference_level(levels, beta)
    with np.errstate(over="ignore"):  # an exponent of -inf weighs 0
        x = -beta * (levels - e0)
    # a NaN top exponent leaves m = 0
    with np.errstate(invalid="ignore", divide="ignore"):
        top = x.max()
        at_top = x == top
        m = at_top.sum()
        s = np.exp(np.where(at_top, -np.inf, x) - top).sum()
        return e0, float(np.log1p(s if s == 0 else s / m) + np.log(m) + top)


def log_partition(model: ModelSpec, hamiltonian, beta: float) -> float:
    """log Z, from the reference level e0 as -beta e0 + (log Z + beta e0).

    At beta = +-inf it is the limit log m - beta e0, m the number of levels
    within 1e-12 of e0: the eigenspace `gibbs_state` selects there.  The
    term -beta e0 is added only when e0 != 0, so no limit forms inf * 0."""
    levels = _spectrum_of_levels(model, hamiltonian)
    if math.isinf(beta):
        e0 = _reference_level(levels, beta)
        shifted = math.log(np.count_nonzero(np.abs(levels - e0) <= 1e-12))
    else:
        e0, shifted = _shifted_log_partition(levels, beta)
    return shifted if e0 == 0 else -beta * e0 + shifted


def entropy_identity_residual(model: ModelSpec, hamiltonian, beta: float,
                              entropy: float, energy: float) -> float:
    """|S - (beta E + log Z)| for an equilibrium state of entropy S and mean
    energy E at finite beta.  E and log Z are both taken from the reference
    level, so the check stays finite where beta E and log Z overflow."""
    levels = _spectrum_of_levels(model, hamiltonian)
    e0, shifted = _shifted_log_partition(levels, beta)
    return abs(entropy - (beta * (energy - e0) + shifted))


def _brentq(f: Callable[[float], float], xa: float, xb: float,
            xtol: float, rtol: float, maxiter: int) -> float:
    """A root of f between xa and xb, where f changes sign, by Brent's
    method: a port of scipy.optimize.brentq that takes the same steps in
    the same float arithmetic, so it returns the same root to the bit.
    Opposite signs are required of f(xa) and f(xb) (ValueError), and a root
    within maxiter steps (GPTError)."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise GPTError(f"root search did not converge in {maxiter} steps")


def beta_from_energy(model: ModelSpec, hamiltonian, energy: float) -> float:
    """Inverse temperature whose equilibrium state has the given mean
    energy; +-inf at the spectrum edges.

    Inside the band the root of the energy gap is found by `_brentq`,
    which returns what scipy.optimize.brentq returns with the same
    tolerances (xtol 1e-14, rtol 8.9e-16, 200 steps), and must leave a gap
    of at most 1e-10."""
    levels = _spectrum_of_levels(model, hamiltonian)
    lo, hi = float(levels.min()), float(levels.max())
    if energy < lo - 1e-9 or energy > hi + 1e-9:
        raise ValueError(f"energy {energy} outside the reachable band "
                         f"[{lo}, {hi}]")
    if abs(hi - lo) <= 1e-12:
        return 0.0
    if energy <= lo + 1e-12:
        return math.inf
    if energy >= hi - 1e-12:
        return -math.inf

    def gap(beta):
        w = np.exp(-beta * (levels - _reference_level(levels, beta)))
        w /= w.sum()
        return float(w @ levels) - energy

    b = 1.0
    while gap(-b) * gap(b) > 0:
        b *= 2.0
        if b > 1e300:
            raise GPTError("no bracketing inverse temperature found")
    beta = _brentq(gap, -b, b, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    if abs(gap(beta)) > 1e-10:
        raise GPTError(f"energy residual {gap(beta):.2e} above tolerance")
    return float(beta)


def max_entropy_audit(model: ModelSpec, hamiltonian, energy: float,
                      n_samples: int = 0, rng=None) -> dict:
    """Verify the equilibrium state maximizes entropy on its energy shell.

    Checks the identity S = beta*E + log Z, and optionally compares against
    sampled states brought onto the shell by a closed-form two-point mixture.
    """
    beta = beta_from_energy(model, hamiltonian, energy)
    gamma = gibbs_state(model, hamiltonian, beta)
    s_gamma = entropy(gamma)
    if math.isinf(beta):
        identity_residual = math.nan
    else:
        identity_residual = entropy_identity_residual(
            model, hamiltonian, beta, s_gamma, energy)
    report = {
        "beta": beta,
        "gibbs": gamma,
        "entropy": s_gamma,
        "identity_residual": identity_residual,
        "shell_samples": 0,
        "max_shell_entropy": -math.inf,
        "all_below": True,
    }
    if n_samples:
        rng = np.random.default_rng(0) if rng is None else rng
        h = as_coords(hamiltonian)
        lows, highs = [], []
        tries = 0
        while (len(lows) < n_samples or len(highs) < n_samples) and tries < 50 * n_samples:
            tries += 1
            s = StateVec(model.state_sampler(model, rng), model)
            (lows if mean_energy(s, h) <= energy else highs).append(s)
        best = -math.inf
        count = 0
        for a, b_ in zip(lows[:n_samples], highs[:n_samples]):
            ea, eb = mean_energy(a, h), mean_energy(b_, h)
            if abs(eb - ea) <= 1e-14:
                continue
            w = (eb - energy) / (eb - ea)
            mix = StateVec(w * a.coords + (1 - w) * b_.coords, model)
            count += 1
            s_mix = entropy(mix)
            best = max(best, s_mix)
            if s_mix > s_gamma + 1e-8:
                report["all_below"] = False
        report["shell_samples"] = count
        report["max_shell_entropy"] = best
    return report


# ---------------------------------------------------------------------------
# erasure bookkeeping


@dataclass(frozen=True)
class ThermoLedger:
    delta_E_env: float
    entropy_drop_system: float
    mutual_term: float
    relent_term: float
    kT: float
    equality_residual: float
    bound_satisfied: bool
    second_law_residual: float
    details: dict = field(default_factory=dict)


def _kt_bound_holds(beta: float, kT: float, energy: float, entropy: float,
                    tol: float) -> bool:
    """The bound beta * energy >= entropy, which reads energy >= kT * entropy
    at beta > 0 and reverses at beta < 0 (beta kT = 1).  It is tested
    divided by |beta|, so tol is in energy units and infinite beta stays
    finite; at beta = 0 it holds trivially."""
    if math.isinf(kT):
        return True
    return bool(math.copysign(1.0, beta) * (energy - kT * entropy) >= -tol)


def landauer_ledger(joint_channel, rho_S: StateVec, env_hamiltonian,
                    beta: float, comp: ModelSpec) -> ThermoLedger:
    """Account for the energy pushed into a thermal environment.

    The environment starts in equilibrium at the given inverse temperature;
    the joint channel acts on system x environment.  For reversible joint
    dynamics the dumped energy splits exactly into the system's entropy
    drop, the forged correlations, and the environment's displacement from
    equilibrium, each weighted by kT.  The latter two are nonnegative, so
    beta * dE >= drop: the Landauer bound dE >= kT * drop at positive
    temperature, reversed at negative temperature.
    """
    if comp.composite is None or len(comp.composite.factors) != 2:
        raise GPTError("a two-part composite is required")
    model_E = comp.composite.factors[1]
    h = as_coords(env_hamiltonian)
    gamma = gibbs_state(model_E, h, beta)
    joint_in = tensor_states(comp, rho_S, gamma)
    joint_out = apply_channel(joint_channel, joint_in)
    out_S = marginal(joint_out, 0)
    out_E = marginal(joint_out, 1)

    dE_env = mean_energy(out_E, h) - mean_energy(gamma, h)
    # each of the six states is diagonalized once
    d_E, d_gamma = diagonalize(out_E), diagonalize(gamma)
    s_in, s_out, s_E, s_gamma, s_joint_out, s_joint_in = (
        shannon(d.eigenvalues) for d in (
            diagonalize(rho_S), diagonalize(out_S), d_E, d_gamma,
            diagonalize(joint_out), diagonalize(joint_in)))
    drop = s_in - s_out
    mutual = s_out + s_E - s_joint_out
    relent = _relative_entropy(d_E, d_gamma)
    kT = math.inf if beta == 0 else 1.0 / beta

    if math.isinf(relent) or math.isinf(kT):
        residual = math.nan
    else:
        residual = abs(dE_env - kT * (drop + mutual + relent))
    bound_ok = _kt_bound_holds(beta, kT, dE_env, drop, 1e-7)
    second_law = (s_out - s_in) + (s_E - s_gamma)
    return ThermoLedger(
        delta_E_env=dE_env,
        entropy_drop_system=drop,
        mutual_term=mutual,
        relent_term=relent,
        kT=kT,
        equality_residual=residual,
        bound_satisfied=bound_ok,
        second_law_residual=second_law,
        details={
            "S_system_in": s_in, "S_system_out": s_out,
            "S_env_out": s_E, "S_env_in": s_gamma,
            "joint_entropy_out": s_joint_out,
            "joint_entropy_in": s_joint_in,
        },
    )


def erasure_demo(rho_S: StateVec, beta: float) -> dict:
    """Erase a mixed state at zero energy cost using a memory that holds
    its purification.

    A reversible acting on system+memory alone sends the purifying state
    to a fixed pure product; the environment is a spectator, so no energy
    moves while the system's entropy falls to zero.  The memory pays: the
    conditional entropy of the system given the memory starts negative at
    minus the system entropy, and that credit funds the erasure.  The
    assisted bound is beta * dE >= -S: dE >= -kT S (`assisted_bound_rhs`)
    at positive temperature, dE <= -kT S at negative temperature.  The
    environment is a copy of the memory's model with levels 0, 1, 2, ... on
    its pure maximal set.

    A model without purification is refused first, whatever the state
    (`UnsupportedModelError`), then a pure input (GPTError).
    """
    model_S = rho_S.model
    comp_SM, psi = purify(rho_S)
    s_rho = entropy(rho_S)
    if s_rho <= 1e-10:
        raise GPTError("input is already pure; nothing to erase")
    model_M = comp_SM.composite.factors[1]

    # fixed pure product target inside the same composite sector
    basis_S = zoo.pure_maximal_set(model_S)
    basis_M = zoo.pure_maximal_set(model_M)
    target = tensor_states(comp_SM, basis_S[0], basis_M[0])
    U_SM = zoo.reversible_sending(comp_SM, psi, target)

    env_hamiltonian = basis_hamiltonian(
        basis_M, np.arange(model_M.capacity, dtype=float))
    triple = zoo.compose_systems(comp_SM, model_M)
    lifted = lift_channel(triple, U_SM, 0)
    ledger = landauer_ledger(lifted, psi, env_hamiltonian, beta, triple)

    before = bipartite_entropies(psi)
    out_SM = apply_channel(U_SM, psi)
    after = bipartite_entropies(out_SM)
    kT = ledger.kT
    return {
        "ledger": ledger,
        "delta_E_env": ledger.delta_E_env,
        "system_entropy_before": s_rho,
        "system_entropy_after": after["marginal_0"],
        "conditional_before": before["conditional_0_given_1"],
        "conditional_after": after["conditional_0_given_1"],
        "memory_entropy_before": before["marginal_1"],
        "memory_entropy_after": after["marginal_1"],
        "memory_not_degraded": after["marginal_1"] <= before["marginal_1"] + 1e-9,
        "assisted_bound_rhs": (-kT * s_rho) if not math.isinf(kT) else -math.inf,
        "bound_satisfied": _kt_bound_holds(beta, kT, ledger.delta_E_env,
                                           -s_rho, 1e-9),
    }
