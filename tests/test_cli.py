import json

import numpy as np
import pytest
from click.testing import CliRunner

from gptt import zoo
from gptt.cli import main

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

    def test_erase_pure_exits_three(self):
        res = invoke("erase", "quantum:2", "--state", "pure:0", "--json")
        assert res.exit_code == 3


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
], ids=" ".join)
def test_malformed_input_exits_two(args):
    assert invoke(*args).exit_code == 2


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
