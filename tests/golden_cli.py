"""Golden set of `gptt --json` CLI calls, one hashed line per call.

Runs a fixed list of calls in-process through click's CliRunner and prints,
for each, its exit code, the sha256 of its stdout and its argv:

    0 3f5a...c2 diag quantum:3 --state random --seed 1 --json

Two checkouts print the same lines exactly when every call exits the same
way and writes the same bytes, so comparing them is one `diff`:

    PYTHONPATH=src python tests/golden_cli.py > before.txt
    (change the code)
    PYTHONPATH=src python tests/golden_cli.py > after.txt
    diff before.txt after.txt

The calls cover `diag`, `entropy`, `convert` in the unital, rare and noisy
regimes, `landauer`, `gibbs`, `erase` and `verify` on the matrix models and
the builtin polytopes.  Fixed vectors on the two sectorized models reach
the sector-matched rare witness and its "no" certificate, larger ones the
pure-source and invariant-target witnesses, and `gibbs` runs
at beta = +-inf and at fixed mean energies (one near the band's edge) on
Hamiltonians off the diagonal.
"""

from __future__ import annotations

import hashlib
import itertools

from click.testing import CliRunner

from gptt import zoo
from gptt.cli import main

# extended_classical:3x2 is the one stack of more than two blocks of size
# above 1
MATRIX_MODELS = ("classical:3", "quantum:2", "quantum:3", "rebit",
                 "real_quantum:3", "doubled_quantum:2",
                 "extended_classical:2x2", "extended_classical:3x2")
POLYTOPES = ("square_bit", "diamond_bit", "restricted_trit")
STATES = ("chi", "pure:0", "random")
SEEDS = ("0", "1")

# (source, target) vectors on the sectorized models, blocks (2, 2): a
# sector-swapped pair (answer "yes" with a sector_perm) and a pair with
# equal spectra on mismatched sectors (answer "no" with source_sectors)
SECTOR_PAIRS = {
    "doubled_quantum:2": (
        ("[0.35,0.25,0.1,0.05,0.3,0.1,0.05,-0.05]",
         "[0.1,0.3,0.05,0.05,0.25,0.35,0.1,-0.05]"),
        ("[0.3,0.3,0.2,0.2,0.2,0.2,0.1,0.1]",
         "[0.4,0.4,0.1,-0.1,0.1,0.1,0,0]")),
    "extended_classical:2x2": (
        ("[0.2,0.2,0.1,0.1,0.3,0.3,0.2,0.2]",
         "[0.3,0.3,-0.2,0.2,0.2,0.2,0.1,-0.1]"),
        ("[0.4,0.4,0.1,0.1,0.1,0.1,0,0]",
         "[0.2,0.2,-0.1,0.1,0.3,0.3,0.2,-0.2]")),
}

# full coordinate vectors of Hamiltonians with off-diagonal entries
OFF_DIAGONAL_H = {
    "quantum:3": "[0.2,0.5,1,0.3,-0.1,0,0.2,0.1,0]",
    "doubled_quantum:2": "[0,1,0.3,0.2,0.5,0.5,0.1,0]",
}

# mean energies for `gibbs --E` on OFF_DIAGONAL_H: two inside the band and
# one within 1e-3 of its edge (quantum:3 spans [0.05998, 1.03398],
# doubled_quantum:2 spans [-0.06125, 1.06125])
OFF_DIAGONAL_E = {
    "quantum:3": ("0.3", "0.8", "1.0335"),
    "doubled_quantum:2": ("-0.0605", "0", "0.5"),
}

# models and seeds of the extra random-to-random rare and noisy conversions,
# whose Birkhoff matchings meet 3x3 supports
RANDOM_PAIR_MODELS = ("quantum:3", "real_quantum:3")
RANDOM_PAIR_SEEDS = ("2", "3")

# a larger sectorized model for the rare and noisy conversions from a pure
# source and onto the invariant state (MATRIX_MODELS runs them on
# extended_classical:3x2), and the invariant target on a model of many
# sectors
SECTOR_MODELS = ("doubled_quantum:3",)
SECTOR_STATE_PAIRS = (("pure:0", "random"), ("random", "chi"))


def calls():
    """The golden argv lists, in a fixed order."""
    models = MATRIX_MODELS + POLYTOPES
    out = []
    for model, seed in itertools.product(models, SEEDS):
        tail = ("--seed", seed, "--json")
        for state in STATES:
            out.append(("diag", model, "--state", state) + tail)
            out.append(("entropy", model, "--state", state) + tail)
            out.append(("entropy", model, "--state", state,
                        "--alpha", "0.5") + tail)
            out.append(("landauer", model, "--state", state) + tail)
            out.append(("erase", model, "--state", state) + tail)
        for src, dst in itertools.product(STATES, STATES):
            for regime in ("unital", "rare", "noisy"):
                out.append(("convert", model, "--from", src, "--to", dst,
                            "--regime", regime) + tail)
        out.append(("verify", model) + tail)
    for model in models:
        levels = str(list(range(zoo.parse_model_string(model).capacity)))
        out.append(("gibbs", model, "--H", levels, "--beta", "0.7", "--json"))
        out.append(("gibbs", model, "--H", levels, "--E", "0.3", "--json"))
    for model, pairs in SECTOR_PAIRS.items():
        for (src, dst), regime in itertools.product(pairs, ("rare", "noisy")):
            out.append(("convert", model, "--from", src, "--to", dst,
                        "--regime", regime, "--json"))
    for model, h in OFF_DIAGONAL_H.items():
        levels = str(list(range(zoo.parse_model_string(model).capacity)))
        for ham, beta in itertools.product((levels, h), ("inf", "-inf")):
            out.append(("gibbs", model, "--H", ham, "--beta", beta, "--json"))
        for energy in OFF_DIAGONAL_E[model]:
            out.append(("gibbs", model, "--H", h, "--E", energy, "--json"))
    for model, seed, regime in itertools.product(
            RANDOM_PAIR_MODELS, RANDOM_PAIR_SEEDS, ("rare", "noisy")):
        out.append(("convert", model, "--from", "random", "--to", "random",
                    "--regime", regime, "--seed", seed, "--json"))
    for model, seed, (src, dst), regime in itertools.product(
            SECTOR_MODELS, SEEDS, SECTOR_STATE_PAIRS, ("rare", "noisy")):
        out.append(("convert", model, "--from", src, "--to", dst,
                    "--regime", regime, "--seed", seed, "--json"))
    out.append(("convert", "doubled_quantum:5", "--from", "random", "--to",
                "chi", "--regime", "rare", "--seed", "0", "--json"))
    return [list(argv) for argv in out]


def golden_lines(argvs):
    """One line "exit sha256 argv" per call, each run in-process."""
    runner = CliRunner()
    lines = []
    for argv in argvs:
        res = runner.invoke(main, argv)
        digest = hashlib.sha256(res.stdout_bytes).hexdigest()
        lines.append(f"{res.exit_code} {digest} {' '.join(argv)}")
    return lines


if __name__ == "__main__":
    for line in golden_lines(calls()):
        print(line, flush=True)
