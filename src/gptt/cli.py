"""Command-line interface.

Every command emits either a human-readable table or, with --json, a
deterministic report object: floats are rounded to 12 significant digits
and keys sorted, so identical inputs and seeds give identical bytes.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import __version__, resource, symmetry, thermo, zoo
from .core import DiagonalizationError, GPTError, StateVec, UnsupportedModelError
from .spectral import diagonalize

EXIT_DIAG_FAILURE = 3
EXIT_UNKNOWN = 4


def _round(x):
    if isinstance(x, dict):
        return {k: _round(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_round(v) for v in x.tolist()]
    if isinstance(x, (np.floating, float)):
        x = float(x)
        if math.isinf(x) or math.isnan(x):
            return str(x)
        return float(f"{x:.12g}")
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    return x


def _emit(report: dict, as_json: bool):
    report = dict(report)
    report["tool_version"] = __version__
    if as_json:
        click.echo(json.dumps(_round(report), sort_keys=True))
        return
    width = max((len(k) for k in report), default=8)
    for key in sorted(report):
        val = report[key]
        if key == "checks":
            continue
        if isinstance(val, (dict, list, np.ndarray)):
            val = json.dumps(_round(val), sort_keys=True)
        click.echo(f"{key.ljust(width)}  {val}")
    for chk in report.get("checks", ()):
        mark = "pass" if chk["pass"] else "FAIL"
        resid = chk.get("residual")
        extra = "" if resid is None else f"  residual={_round(resid)}"
        click.echo(f"{('check: ' + chk['name']).ljust(width)}  {mark}{extra}")


def _get_model(text: str):
    if text.endswith(".json"):
        try:
            return zoo.load_model(text)
        except (OSError, KeyError, TypeError, ValueError, GPTError) as exc:
            raise click.UsageError(f"cannot load model {text!r}: {exc}")
    try:
        return zoo.parse_model_string(text)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _get_state(model, text: str, rng) -> StateVec:
    text = text.strip()
    if text == "chi":
        return model.invariant_state
    if text == "random":
        return StateVec(model.state_sampler(model, rng), model)
    if text.startswith("pure:"):
        try:
            basis = zoo.pure_maximal_set(model)
            idx = int(text.split(":", 1)[1])
        except (ValueError, GPTError) as exc:
            raise click.UsageError(f"cannot use {text!r}: {exc}")
        if not 0 <= idx < len(basis):
            raise click.UsageError(f"pure:K needs 0 <= K < {len(basis)} "
                                   f"on {model.model_id}")
        return basis[idx]
    if text == "center-offset":
        # an off-centre point of a three-coordinate model, e.g. the square bit
        text = "[0.3, 0.1, 1.0]"
    if text.startswith("["):
        try:
            return StateVec(np.asarray(json.loads(text), dtype=float), model)
        except (ValueError, TypeError, GPTError) as exc:
            raise click.UsageError(f"not a valid state of "
                                   f"{model.model_id}: {exc}")
    raise click.UsageError(f"cannot parse state {text!r}; use chi, random, "
                           f"center-offset, pure:K, or a JSON vector")


class _Command(click.Command):
    """Reports a model family's refusal of a command as a usage error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except UnsupportedModelError as exc:
            raise click.UsageError(str(exc), ctx)


class _Commands(click.Group):
    command_class = _Command


@click.group(cls=_Commands)
@click.version_option(__version__)
def main():
    """Numerical toolkit for spectra, convertibility, and erasure costs in
    finite-dimensional probabilistic models."""


_model_arg = click.argument("model")
_json_flag = click.option("--json", "as_json", is_flag=True,
                          help="machine-readable output")
_seed_opt = click.option("--seed", type=int, default=0, envvar="GPTT_SEED",
                         show_default=True)


def _not_nan(ctx, param, value):
    if value is not None and math.isnan(value):
        raise click.BadParameter("must be a number, not nan")
    return value


def _nonnegative(ctx, param, value):
    if value is not None and not value >= 0:  # refuses nan too
        raise click.BadParameter("must be a nonnegative number or inf")
    return value


_beta_opt = click.option("--beta", type=float, default=1.0, show_default=True,
                         callback=_not_nan)


@main.command()
@_model_arg
@click.option("--state", default="chi", show_default=True)
@_seed_opt
@_json_flag
def diag(model, state, seed, as_json):
    """Diagonalize a state into distinguishable pure pieces."""
    m = _get_model(model)
    rng = np.random.default_rng(seed)
    rho = _get_state(m, state, rng)
    try:
        d = diagonalize(rho)
    except DiagonalizationError as exc:
        _emit({
            "command": "diag", "model": m.model_id, "seed": seed,
            "error": str(exc),
            "results": {"residue": exc.residue},
        }, as_json)
        sys.exit(EXIT_DIAG_FAILURE)
    recon = d.reconstruct()
    resid = float(np.abs(recon - rho.coords).max())
    _emit({
        "command": "diag", "model": m.model_id, "seed": seed,
        "results": {
            "eigenvalues": list(d.eigenvalues),
            "eigenstates": [list(s.coords) for s in d.eigenstates],
        },
        "checks": [{"name": "reconstruction", "pass": resid <= 1e-9,
                    "residual": resid}],
    }, as_json)


@main.command()
@_model_arg
@click.option("--source", "--from", "source", required=True)
@click.option("--target", "--to", "target", required=True)
@click.option("--regime", type=click.Choice(["unital", "rare", "noisy"]),
              default="unital", show_default=True)
@_seed_opt
@_json_flag
def convert(model, source, target, regime, seed, as_json):
    """Decide whether one state reaches another; exit 0 yes, 1 no, 4 unknown."""
    m = _get_model(model)
    rng = np.random.default_rng(seed)
    rho = _get_state(m, source, rng)
    sig = _get_state(m, target, rng)
    try:
        out = resource.convertible(rho, sig, regime)
    except DiagonalizationError as exc:
        _emit({"command": "convert", "model": m.model_id, "seed": seed,
               "error": str(exc)}, as_json)
        sys.exit(EXIT_DIAG_FAILURE)
    checks = []
    if out.channel is not None:
        moved = out.channel.matrix @ rho.coords
        resid = float(np.abs(moved - sig.coords).max())
        checks.append({"name": "channel_hits_target",
                       "pass": resid <= 1e-8, "residual": resid})
    _emit({
        "command": "convert", "model": m.model_id, "seed": seed,
        "results": {"answer": out.answer, "regime": regime,
                    "certificate": _round(out.certificate or {})},
        "checks": checks,
    }, as_json)
    sys.exit({"yes": 0, "no": 1, "unknown": EXIT_UNKNOWN}[out.answer])


@main.command()
@_model_arg
@click.option("--state", default="chi", show_default=True)
@click.option("--alpha", type=float, default=None, callback=_nonnegative,
              help="Renyi order; omit for a standard panel")
@_seed_opt
@_json_flag
def entropy(model, state, alpha, seed, as_json):
    """Spectral entropies of a state."""
    m = _get_model(model)
    rng = np.random.default_rng(seed)
    rho = _get_state(m, state, rng)
    try:
        if alpha is None:
            panel = {"alpha_0": thermo.entropy(rho, 0),
                     "alpha_1": thermo.entropy(rho, 1),
                     "alpha_2": thermo.entropy(rho, 2),
                     "alpha_inf": thermo.entropy(rho, math.inf)}
        else:
            panel = {f"alpha_{alpha:g}": thermo.entropy(rho, alpha)}
    except DiagonalizationError as exc:
        _emit({"command": "entropy", "model": m.model_id, "seed": seed,
               "error": str(exc)}, as_json)
        sys.exit(EXIT_DIAG_FAILURE)
    _emit({"command": "entropy", "model": m.model_id, "seed": seed,
           "results": panel}, as_json)


@main.command()
@_model_arg
@click.option("--hamiltonian", "--H", "ham", required=True,
              help="JSON list of basis energies or a full coordinate vector")
@click.option("--beta", type=float, default=None, callback=_not_nan)
@click.option("--energy", "--E", "energy", type=float, default=None,
              callback=_not_nan)
@_json_flag
def gibbs(model, ham, beta, energy, as_json):
    """Equilibrium state for an energy observable at fixed beta or energy."""
    m = _get_model(model)
    h = _hamiltonian_coords(m, _get_levels(ham))
    if (beta is None) == (energy is None):
        raise click.UsageError("give exactly one of --beta / --energy")
    if beta is None:
        try:
            beta = thermo.beta_from_energy(m, h, energy)
        except ValueError as exc:
            raise click.UsageError(str(exc))
    g = thermo.gibbs_state(m, h, beta)
    d = diagonalize(g)
    E = thermo.mean_energy(g, h)
    S = thermo.entropy(g)
    checks = []
    if not math.isinf(beta):
        resid = thermo.entropy_identity_residual(m, h, beta, S, E)
        checks.append({"name": "entropy_identity", "pass": resid <= 1e-9,
                       "residual": resid})
    _emit({
        "command": "gibbs", "model": m.model_id,
        "results": {"beta": beta, "mean_energy": E, "entropy": S,
                    "weights": sorted((float(x) for x in d.eigenvalues),
                                      reverse=True)},
        "checks": checks,
    }, as_json)


def _get_levels(text: str) -> np.ndarray:
    try:
        levels = np.asarray(json.loads(text), dtype=float)
    except (ValueError, TypeError) as exc:
        raise click.UsageError(f"--H needs a JSON list of numbers: {exc}")
    if levels.ndim != 1:
        raise click.UsageError("--H needs a flat JSON list of numbers")
    if not np.isfinite(levels).all():
        raise click.UsageError("--H entries must be finite")
    return levels


def _hamiltonian_coords(model, levels: np.ndarray) -> np.ndarray:
    if len(levels) == model.vector_dim and model.capacity != model.vector_dim:
        return levels
    basis = zoo.pure_maximal_set(model)
    if len(levels) != len(basis):
        if len(levels) == model.vector_dim:
            return levels
        raise click.UsageError(
            f"need {len(basis)} basis energies or a full "
            f"{model.vector_dim}-coordinate vector")
    return thermo.basis_hamiltonian(basis, levels)


@main.command()
@_model_arg
@click.option("--state", default="random", show_default=True)
@_beta_opt
@click.option("--hamiltonian", "--H", "ham", default=None,
              help="JSON energies for the environment; default is a ladder")
@_seed_opt
@_json_flag
def landauer(model, state, beta, ham, seed, as_json):
    """Energy ledger for a random joint reversible against a thermal bath."""
    m = _get_model(model)
    rng = np.random.default_rng(seed)
    rho = _get_state(m, state, rng)
    comp = zoo.compose_systems(m, m)
    levels = (np.arange(m.capacity, dtype=float) if ham is None
              else _get_levels(ham))
    h = _hamiltonian_coords(m, levels)
    joint = comp.group.sampler(comp, rng)
    led = thermo.landauer_ledger(joint, rho, h, beta, comp)
    eq_ok = (math.isnan(led.equality_residual)
             or led.equality_residual <= 1e-7)
    _emit({
        "command": "landauer", "model": m.model_id, "seed": seed,
        "results": {
            "delta_E_env": led.delta_E_env,
            "entropy_drop_system": led.entropy_drop_system,
            "mutual_term": led.mutual_term,
            "relent_term": led.relent_term,
            "kT": led.kT,
        },
        "checks": [
            {"name": "ledger_identity", "pass": eq_ok,
             "residual": None if math.isnan(led.equality_residual)
             else led.equality_residual},
            {"name": "cost_bound", "pass": led.bound_satisfied,
             "residual": None},
            {"name": "second_law", "pass": led.second_law_residual >= -1e-9,
             "residual": led.second_law_residual},
        ],
    }, as_json)


@main.command()
@_model_arg
@click.option("--state", default="chi", show_default=True)
@_beta_opt
@_seed_opt
@_json_flag
def erase(model, state, beta, seed, as_json):
    """Erase a mixed state at zero energy cost against its purifier."""
    m = _get_model(model)
    rng = np.random.default_rng(seed)
    rho = _get_state(m, state, rng)
    try:
        demo = thermo.erasure_demo(rho, beta)
    except DiagonalizationError as exc:
        _emit({"command": "erase", "model": m.model_id, "seed": seed,
               "error": str(exc)}, as_json)
        sys.exit(EXIT_DIAG_FAILURE)
    except UnsupportedModelError:
        raise                   # _Command reports it, as for landauer
    except GPTError as exc:     # such as a pure input
        raise click.UsageError(str(exc))
    _emit({
        "command": "erase", "model": m.model_id, "seed": seed,
        "results": {
            "delta_E_env": demo["delta_E_env"],
            "system_entropy_before": demo["system_entropy_before"],
            "system_entropy_after": demo["system_entropy_after"],
            "conditional_before": demo["conditional_before"],
            "assisted_bound_rhs": demo["assisted_bound_rhs"],
        },
        "checks": [
            {"name": "no_energy_moved", "pass": abs(demo["delta_E_env"]) <= 1e-10,
             "residual": abs(demo["delta_E_env"])},
            {"name": "system_left_pure",
             "pass": demo["system_entropy_after"] <= 1e-8,
             "residual": demo["system_entropy_after"]},
            {"name": "memory_not_degraded", "pass": demo["memory_not_degraded"],
             "residual": None},
            {"name": "assisted_bound", "pass": demo["bound_satisfied"],
             "residual": None},
        ],
    }, as_json)


@main.command()
@_model_arg
@_seed_opt
@_json_flag
def verify(model, seed, as_json):
    """Self-checks of a model: axioms, invariant state, equilibrium."""
    m = _get_model(model)
    checks = []
    axioms = resource.check_unrestricted_reversibility(m)
    flag = m.flags.unrestricted_reversibility
    consistent = (not flag) or (axioms["permutability"]
                                and axioms["strong_symmetry"])
    checks.append({"name": "axioms_consistent_with_flag",
                   "pass": consistent, "residual": None})
    inv = symmetry.invariant_state(m)
    checks.append({"name": "invariant_state_unique",
                   "pass": bool(inv["unique"]), "residual": None})
    if inv["unique"]:
        checks.append({"name": "invariant_matches_reference",
                       "pass": inv["matches_reference"], "residual": None})
    chi = m.invariant_state
    try:
        d = diagonalize(chi)
        vals = np.asarray(d.eigenvalues)
        resid = float(np.abs(vals - 1.0 / m.capacity).max())
        checks.append({"name": "reference_state_is_flat",
                       "pass": resid <= 1e-9, "residual": resid})
    except DiagonalizationError:
        # expected on models without a distinguishable pair; a refusal is
        # only a defect where diagonalizability is promised
        checks.append({"name": "reference_state_not_diagonalizable",
                       "pass": not m.flags.is_sharp_with_purification,
                       "residual": None})
    equil = None
    if m.structure is not None:
        rep = symmetry.informational_equilibrium_check(m, m)
        equil = rep["residual"]
        checks.append({"name": "informational_equilibrium",
                       "pass": rep["holds"], "residual": rep["residual"]})
    _emit({
        "command": "verify", "model": m.model_id, "seed": seed,
        "results": {
            "capacity": m.capacity,
            "vector_dim": m.vector_dim,
            "permutability": axioms["permutability"],
            "strong_symmetry": axioms["strong_symmetry"],
            "transitive": symmetry.is_transitive(m),
            "sharp_with_purification": m.flags.is_sharp_with_purification,
            "unrestricted_reversibility": flag,
        },
        "checks": checks,
    }, as_json)
    sys.exit(0 if all(c["pass"] for c in checks) else 1)


if __name__ == "__main__":
    main()
