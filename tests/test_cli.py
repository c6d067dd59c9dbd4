import json
import os
import subprocess
import sys
from functools import lru_cache

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import gptt
from gptt import zoo
from gptt.cli import _get_state, main
from gptt.core import StateVec
from test_facets import kgon_json

runner = CliRunner()


def invoke(*args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


class TestDiag:
    def test_flat_qutrit(self):
        res = invoke("diag", "quantum:3", "--state", "chi", "--json")
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["command"] == "diag"
        vals = rep["results"]["eigenvalues"]
        assert np.abs(np.asarray(vals) - 1 / 3).max() < 1e-9
        assert rep["checks"][0]["pass"]

    def test_failure_exits_three(self):
        res = invoke("diag", "square_bit", "--state", "center-offset",
                     "--json")
        assert res.exit_code == 3
        rep = json.loads(res.output)
        assert abs(rep["results"]["residue"] - 0.1) < 1e-9

    def test_near_pure_state_exits_zero(self):
        res = invoke("diag", "quantum:2", "--state",
                     "[0.000728696125513, 0.999271303874487, "
                     "-0.012686814818987, -0.035712395392741]", "--json")
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert np.abs(np.asarray(rep["results"]["eigenvalues"])
                      - [0.99999, 1e-5]).max() < 1e-9
        assert rep["checks"][0]["pass"]

    def test_bad_model_exits_two(self):
        res = invoke("diag", "nonsense:9")
        assert res.exit_code == 2


class TestConvert:
    def test_yes_exit_zero(self):
        res = invoke("convert", "classical:3",
                     "--from", "[0.6,0.2,0.2]", "--to", "[0.5,0.3,0.2]",
                     "--json")
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["results"]["answer"] == "yes"
        assert rep["checks"][0]["pass"]

    def test_no_exit_one(self):
        res = invoke("convert", "classical:3",
                     "--from", "[0.5,0.5,0]", "--to", "[0.6,0.2,0.2]",
                     "--json")
        assert res.exit_code == 1
        rep = json.loads(res.output)
        assert rep["results"]["answer"] == "no"
        assert "prefix_index" in rep["results"]["certificate"]

    def test_unknown_exit_four(self):
        res = invoke("convert", "doubled_quantum:2",
                     "--from", "[0.6,0.1,0,0, 0.2,0.1,0,0]",
                     "--to", "[0.4,0.2,0,0, 0.25,0.15,0,0]",
                     "--regime", "rare", "--json")
        assert res.exit_code == 4
        rep = json.loads(res.output)
        assert rep["results"]["answer"] == "unknown"

    def test_rare_counterexample_no(self):
        res = invoke("convert", "doubled_quantum:2",
                     "--from", "[0.5,0.5,0,0, 0,0,0,0]",
                     "--to", "[0.5,0,0,0, 0.5,0,0,0]",
                     "--regime", "rare", "--json")
        assert res.exit_code == 1

    def test_noisy_on_polytope_is_unknown(self):
        # majorisation holds and no mixture witness is known: unknown, not
        # the unital regime's refusal of a model without identifying effects
        res = invoke("convert", "square_bit", "--from", "pure:0", "--to",
                     "chi", "--regime", "noisy", "--json")
        assert res.exit_code == 4
        assert json.loads(res.output)["results"]["answer"] == "unknown"

    def test_polytope_majorisation_failure_is_unknown(self):
        # a mixture of reversibles reaches the target, so "no" would be wrong
        res = invoke("convert", "square_bit", "--from", "[1,0,1]", "--to",
                     "[0.5,0.5,1]", "--regime", "noisy", "--json")
        assert res.exit_code == 4
        out = json.loads(res.output)["results"]
        assert out["answer"] == "unknown"
        assert "matrix families" in out["certificate"]["reason"]

    def test_diagonalization_failure_exits_three(self):
        """A state that no stored set of the polytope holds is reported,
        with the refusal as the report's error, and exits 3."""
        res = invoke("convert", "square_bit", "--from", "chi", "--to",
                     "random", "--regime", "unital", "--seed", "0", "--json")
        assert res.exit_code == 3
        rep = json.loads(res.output)
        assert {k: rep[k] for k in ("command", "model", "seed")} == {
            "command": "convert", "model": "square_bit", "seed": 0}
        assert "results" not in rep and "checks" not in rep
        assert rep["error"].startswith("state of square_bit lies in the hull "
                                       "of no perfectly distinguishable set")

    def test_bad_state_exit_two(self):
        res = invoke("convert", "classical:3", "--from", "[1,1]",
                     "--to", "chi")
        assert res.exit_code == 2


class TestGibbs:
    def test_energy_pinned_example(self):
        res = invoke("gibbs", "quantum:2", "--H", "[0,1]", "--E", "0.25",
                     "--json")
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert abs(rep["results"]["beta"] - np.log(3)) < 1e-9
        assert np.abs(np.asarray(rep["results"]["weights"])
                      - [0.75, 0.25]).max() < 1e-9
        assert rep["checks"][0]["pass"]

    def test_beta_direct(self):
        res = invoke("gibbs", "classical:3", "--H", "[0,1,2]", "--beta",
                     "0.5", "--json")
        assert res.exit_code == 0

    @pytest.mark.parametrize("args", [
        ("gibbs", "quantum:3", "--H", "[0,1,1]", "--beta", "-800"),
        ("gibbs", "quantum:2", "--H", "[0,1]", "--beta", "-1e308"),
        ("landauer", "quantum:2", "--beta", "-1e308"),
        ("erase", "quantum:2", "--beta", "-1e308"),
    ], ids=lambda a: " ".join(a))
    def test_large_negative_beta(self, args):
        res = invoke(*args, "--json")
        assert res.exit_code == 0
        checks = {c["name"]: c for c in json.loads(res.output)["checks"]}
        identity = checks.get("entropy_identity", checks.get(
            "ledger_identity", checks.get("no_energy_moved")))
        assert identity["pass"]

    @pytest.mark.parametrize("model", ["square_bit", "diamond_bit",
                                       "restricted_trit"])
    def test_energy_on_polytope_exits_two(self, model):
        res = invoke("gibbs", model, "--H", "[0,1,3]", "--E", "1", "--json")
        assert res.exit_code == 2
        assert "eigenbasis calculus" in res.output

    def test_requires_exactly_one_of_beta_energy(self):
        res = invoke("gibbs", "quantum:2", "--H", "[0,1]")
        assert res.exit_code == 2
        res = invoke("gibbs", "quantum:2", "--H", "[0,1]", "--beta", "1",
                     "--E", "0.5")
        assert res.exit_code == 2


class TestLandauerErase:
    def test_landauer_checks_pass(self):
        res = invoke("landauer", "quantum:2", "--state", "random",
                     "--beta", "2.0", "--seed", "7", "--json")
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert all(c["pass"] for c in rep["checks"])

    def test_erase_flat_state(self):
        res = invoke("erase", "quantum:2", "--state", "chi", "--beta", "1.0",
                     "--json")
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert all(c["pass"] for c in rep["checks"])
        assert abs(rep["results"]["assisted_bound_rhs"]
                   + np.log(2)) < 1e-9

    @pytest.mark.parametrize("command", ["landauer", "erase"])
    def test_infinite_beta_is_valid(self, command):
        assert invoke(command, "quantum:2", "--beta", "inf").exit_code == 0

    @pytest.mark.parametrize("beta", ["-2", "-0.5"])
    @pytest.mark.parametrize("model", ["quantum:2", "quantum:3",
                                       "doubled_quantum:2"])
    @pytest.mark.parametrize("command, check", [("landauer", "cost_bound"),
                                                ("erase", "assisted_bound")])
    def test_negative_beta_bounds_pass(self, command, check, model, beta):
        res = invoke(command, model, "--beta", beta, "--json")
        assert res.exit_code == 0
        checks = {c["name"]: c["pass"] for c in json.loads(res.output)["checks"]}
        assert checks[check] and all(checks.values())

    def test_erase_pure_exits_two(self):
        res = invoke("erase", "quantum:2", "--state", "pure:0", "--json")
        assert res.exit_code == 2
        assert "input is already pure; nothing to erase" in res.output

    @pytest.mark.parametrize("model", ["square_bit", "classical:3",
                                       "restricted_trit"])
    def test_erase_without_purification_exits_two(self, model):
        # refused on the model, before any state is diagonalized
        for state in ("chi", "random"):
            res = invoke("erase", model, "--state", state, "--json")
            assert res.exit_code == 2
            assert f"{model} does not admit purification" in res.output


# model: permutability, strong symmetry, transitivity,
#        (sharp with purification, unrestricted reversibility, sectorized)
MODEL_FACTS = {
    "classical:3": (True, True, True, (False, True, False)),
    "quantum:3": (True, True, True, (True, True, False)),
    "rebit": (True, True, True, (True, True, False)),
    "real_quantum:3": (True, True, True, (True, True, False)),
    "doubled_quantum:2": (False, False, True, (True, False, True)),
    "extended_classical:2x2": (False, False, True, (True, False, True)),
    "extended_classical:3x1": (True, True, True, (True, False, True)),
    "extended_classical:1x2": (True, True, True, (True, False, True)),
    "square_bit": (True, False, True, (False, False, False)),
    "restricted_trit": (True, True, True, (False, False, False)),
    "diamond_bit": (False, False, False, (False, False, False)),
}


class TestVerify:
    @pytest.mark.parametrize("model,perm,strong", [
        (m, facts[0], facts[1]) for m, facts in MODEL_FACTS.items()])
    def test_axioms_in_report(self, model, perm, strong):
        res = invoke("verify", model, "--json")
        assert res.exit_code == 0
        rep = json.loads(res.output)["results"]
        transitive, flags = MODEL_FACTS[model][2:]
        assert rep["permutability"] == perm
        assert rep["strong_symmetry"] == strong
        assert rep["transitive"] == transitive
        assert (rep["sharp_with_purification"],
                rep["unrestricted_reversibility"],
                zoo.parse_model_string(model).flags.sectorized) == flags
        assert all(c["pass"] for c in json.loads(res.output)["checks"])

    @pytest.mark.parametrize("args", [
        ("verify", "classical:8"),    # 8! permutations: no finite closure
        ("landauer", "classical:3"),  # the composite's group has 9! elements
    ], ids=" ".join)
    def test_large_permutation_groups(self, args):
        res = invoke(*args, "--json")
        assert res.exit_code == 0
        assert all(c["pass"] for c in json.loads(res.output)["checks"])


@pytest.mark.parametrize("args", [
    ("diag", "quantum:"),
    ("diag", "extended_classical:2"),
    ("diag", "rebit:3"),
    ("diag", "square_bit:4"),
    ("gibbs", "quantum:2", "--H", "[0,1", "--beta", "1"),
    ("landauer", "quantum:2", "--H", "[0,1"),
    ("diag", "quantum:2", "--state", "pure:9"),
    ("diag", "quantum:2", "--state", "center-offset"),
    ("landauer", "square_bit"),          # polytope models have no composite
    ("gibbs", "restricted_trit", "--H", "[0]", "--beta", "1"),
    ("gibbs", "square_bit", "--H", "[0,1]", "--beta", "1"),
    ("convert", "square_bit", "--from", "pure:0", "--to", "chi"),
    ("gibbs", "quantum:2", "--H", "[0,1]", "--E", "5"),  # outside the band
    # non-finite input
    ("diag", "quantum:2", "--state", "[NaN,0.5,0,0]"),
    ("diag", "quantum:2", "--state", "[0.5,0.5,Infinity,0]"),
    ("entropy", "quantum:2", "--state", "[NaN,0.5,0,0]"),
    ("convert", "quantum:2", "--from", "[NaN,0.5,0,0]", "--to", "chi"),
    ("gibbs", "quantum:2", "--H", "[NaN,1]", "--beta", "1"),
    ("gibbs", "quantum:2", "--H", "[0,Infinity]", "--beta", "1"),
    ("gibbs", "quantum:2", "--H", "[0,1]", "--beta", "nan"),
    ("gibbs", "quantum:2", "--H", "[0,1]", "--E", "nan"),
    ("landauer", "quantum:2", "--beta", "nan"),
    ("landauer", "quantum:2", "--H", "[0,NaN]"),
    ("erase", "quantum:2", "--beta", "nan"),
    ("entropy", "quantum:2", "--alpha", "-1"),
    ("entropy", "quantum:2", "--alpha", "nan"),
], ids=" ".join)
def test_malformed_input_exits_two(args):
    assert invoke(*args).exit_code == 2


# Parameters stay at most 4: a model's coordinates grow with the square of
# its block size.
_small_int = st.integers(-2, 4).map(str)
_no_digits = st.text(st.characters(blacklist_categories=("Nd",)), max_size=3)
_model_text = st.builds(
    lambda kind, sep, tokens, joiner: kind + sep + joiner.join(tokens),
    st.sampled_from(sorted(zoo.FAMILIES) + ["", "qubit", "Quantum"]),
    st.sampled_from(["", ":", "::"]),
    st.lists(st.one_of(_small_int, _no_digits), max_size=3),
    st.sampled_from(["x", ",", "xx", " "]),
)


@lru_cache(maxsize=None)
def _parse(text):
    return zoo.parse_model_string(text)


@settings(max_examples=80, deadline=None)
@given(_model_text)
def test_parse_model_string_fuzz(text):
    try:
        model = _parse(text)
    except ValueError:
        return
    assert model.capacity >= 1


_state_text = st.one_of(
    st.sampled_from(["chi", " random ", "center-offset", "pure:", "[]",
                     "[NaN, 0, 1]", "[1e400, 0, 0]", '{"a": 1}', "[[1], 2]"]),
    _small_int.map("pure:{}".format),
    st.lists(st.floats(-1, 2), max_size=5).map(json.dumps),
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1,
             max_size=9).map(json.dumps),
    st.text(max_size=6),
)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["classical:1", "classical:3", "quantum:2", "rebit",
                        "real_quantum:1", "doubled_quantum:2",
                        "extended_classical:2x1", "square_bit",
                        "diamond_bit", "restricted_trit"]),
       _state_text)
def test_get_state_fuzz(model_text, text):
    model = _parse(model_text)
    try:
        state = _get_state(model, text, np.random.default_rng(0))
    except (ValueError, click.UsageError):
        return
    assert isinstance(state, StateVec) and state.model is model


class TestDeterminism:
    def test_byte_stable_with_seed(self):
        a = invoke("landauer", "quantum:2", "--state", "random",
                   "--beta", "1.0", "--seed", "9", "--json").output
        b = invoke("landauer", "quantum:2", "--state", "random",
                   "--beta", "1.0", "--seed", "9", "--json").output
        assert a == b

    def test_env_seed_override(self):
        flag = invoke("landauer", "quantum:2", "--state", "random",
                      "--beta", "1.0", "--seed", "9", "--json").output
        env = invoke("landauer", "quantum:2", "--state", "random",
                     "--beta", "1.0", "--json",
                     env={"GPTT_SEED": "9"}).output
        assert flag == env

    def test_seeds_differ(self):
        a = invoke("entropy", "quantum:3", "--state", "random",
                   "--seed", "1", "--json").output
        b = invoke("entropy", "quantum:3", "--state", "random",
                   "--seed", "2", "--json").output
        assert a != b


def _fresh_python(*args, check=True):
    """Run the interpreter on args in a fresh process that imports this
    gptt, capturing its output as text."""
    src = os.path.dirname(os.path.dirname(gptt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], check=check,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def _scipy_modules_after(code):
    """The scipy modules loaded once `code` has run in a fresh interpreter."""
    code += ("\nimport sys\n"
             "print([m for m in sys.modules if m.startswith('scipy')])")
    return _fresh_python("-c", code).stdout.strip().splitlines()[-1]


def test_non_finite_state_refused_without_warning():
    """An infinite coordinate is refused by name before the unit pairing,
    so stderr holds the usage error alone and no numpy warning."""
    out = _fresh_python("-m", "gptt.cli", "diag", "quantum:2", "--state",
                        "[0.5,0.5,Infinity,0]", "--json", check=False)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.endswith("Error: not a valid state of quantum:2: "
                               "state has a NaN or infinite coordinate\n")
    assert "Warning" not in out.stderr


def test_import_loads_no_scipy():
    """scipy loads on first use only, never when the CLI is imported."""
    assert _scipy_modules_after("import gptt.cli") == "[]"


# each command's arguments after the model; LEVELS stands for one energy
# per perfectly distinguishable state.  The rare conversion from a pure
# state to a random one splits a nontrivial Birkhoff matrix on quantum:3.
NO_SCIPY_COMMANDS = {
    **{command: ("--state", "random", "--seed", "3")
       for command in ("diag", "entropy", "landauer", "erase")},
    "verify": (),
    **{f"convert_{regime}": ("--from", "pure:0", "--to", "random",
                             "--regime", regime, "--seed", "3")
       for regime in ("unital", "rare", "noisy")},
    "gibbs_beta": ("--H", "LEVELS", "--beta", "0.7"),
    "gibbs_E": ("--H", "LEVELS", "--E", "0.3"),
}


def _command_argvs(command, models):
    argvs = []
    for model in models:
        levels = str(list(range(zoo.load_model(model).capacity
                                if model.endswith(".json") else
                                zoo.parse_model_string(model).capacity)))
        argvs.append([command.split("_")[0], model]
                     + [levels if a == "LEVELS" else a
                        for a in NO_SCIPY_COMMANDS[command]]
                     + ["--json"])
    return argvs


@pytest.mark.parametrize("command", sorted(NO_SCIPY_COMMANDS))
def test_matrix_model_command_loads_no_scipy(command):
    """A matrix-model command loads no scipy module."""
    argvs = _command_argvs(command, ("quantum:3", "doubled_quantum:2"))
    code = ("from click.testing import CliRunner\n"
            "from gptt.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    res = CliRunner().invoke(main, argv)\n"
            "    assert res.exit_code == 0, (argv, res.output)\n")
    assert _scipy_modules_after(code) == "[]"


def test_polytope_base_norm_loads_no_scipy(tmp_path):
    """The base norm on a 26-gon model file, whose ball has more facet
    candidates than a subset enumeration could try, loads no scipy
    module: its facets come from the double description."""
    path = tmp_path / "26-gon.json"
    path.write_text(json.dumps(kgon_json(26)))
    code = ("from gptt import core, zoo\n"
            f"m = zoo.load_model({str(path)!r})\n"
            "x = m.pure_states[0] - m.pure_states[13]\n"
            "assert abs(core.state_norm(m, x) - 2.0) <= 1e-9\n")
    assert _scipy_modules_after(code) == "[]"


@pytest.mark.parametrize("command", sorted(NO_SCIPY_COMMANDS))
def test_polytope_command_loads_no_scipy(command, tmp_path):
    """A command on a builtin polytope or a k-gon model file builds the
    model, answers or refuses without a traceback, and loads no scipy
    module: a polytope build solves no LP."""
    path = tmp_path / "heptagon.json"
    path.write_text(json.dumps(kgon_json(7)))
    argvs = _command_argvs(command, ("square_bit", "diamond_bit",
                                     "restricted_trit", str(path)))
    code = ("from click.testing import CliRunner\n"
            "from gptt.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    res = CliRunner().invoke(main, argv)\n"
            "    assert isinstance(res.exception, (SystemExit, type(None))),"
            " (argv, res.output)\n")
    assert _scipy_modules_after(code) == "[]"
