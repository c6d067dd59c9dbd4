"""The summary arithmetic of `tools/bench_pairs.py` on canned pair lists:
medians, inclusive quartiles, better-pair counts in each metric's
direction, failed requests and correctness, the claim line and the
alternating order, the fresh exports both sides run in, and the check of
a --claim before any run."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"req_per_s": "higher", "req_ms_p50": "lower"}


def _runs(workload, parent, change, failed=(), wrong=()):
    """Runs of seeds 1, 2, ...: parent[i] and change[i] are the
    (req_per_s, req_ms_p50) of seed i + 1."""
    out = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, (rate, p50) in (("parent", p), ("change", c)):
            out.append({"workload": workload, "seed": i + 1, "side": side,
                        "correct": (side, i + 1) not in wrong,
                        "failed": int((side, i + 1) in failed),
                        "metrics": {"req_per_s": rate, "req_ms_p50": p50}})
    return out


def test_summary_of_three_pairs():
    runs = _runs("w", parent=[(100, 1.0), (110, 2.0), (120, 3.0)],
                 change=[(130, 0.5), (105, 2.0), (125, 3.5)],
                 failed={("parent", 2)}, wrong={("change", 3)})
    s = bench_pairs.summarize(runs, BETTER)["w"]
    assert s["req_per_s"] == {
        "parent_median": 110, "parent_quartiles": [105.0, 115.0],
        "change_median": 125, "change_quartiles": [115.0, 127.5],
        "change_better_pairs": 2, "pairs": 3}
    # lower is better; a tie is not better
    assert s["req_ms_p50"] == {
        "parent_median": 2.0, "parent_quartiles": [1.5, 2.5],
        "change_median": 2.0, "change_quartiles": [1.25, 2.75],
        "change_better_pairs": 1, "pairs": 3}
    assert s["failed"] == [1, 0] and s["correct"] is False
    assert "not met: 2 of 3 pairs better" in bench_pairs.claim(
        {"w": s}, "w", "req_per_s")


def test_rounding_unpaired_runs_and_workloads():
    runs = (_runs("a", [(1 / 3, 1.0)] * 4, [(2 / 3, 1.0)] * 4)
            + _runs("b", [(1.0, 1.0)] * 2, [(1.0, 1.0)] * 2))
    runs.append({**runs[0], "seed": 9})    # a parent run with no change run
    s = bench_pairs.summarize(runs, BETTER)
    assert list(s) == ["a", "b"]
    assert s["a"]["req_per_s"]["parent_median"] == 0.3333
    assert s["a"]["req_per_s"]["change_quartiles"] == [0.6667, 0.6667]
    assert s["a"]["req_per_s"]["pairs"] == 4
    assert s["b"]["req_per_s"]["change_better_pairs"] == 0
    assert s["a"]["correct"] is True and s["a"]["failed"] == [0, 0]


def test_claim_needs_nine_of_ten_and_a_median_beyond_the_quartile():
    parent = [(100 + i, 1.0) for i in range(10)]
    s = bench_pairs.summarize(
        _runs("w", parent, [(112 + i, 1.0) for i in range(10)]), BETTER)
    assert bench_pairs.claim(s, "w", "req_per_s") == (
        "met: 10 of 10 pairs better, median 104.5 -> 116.5 (+11.5%), "
        "parent quartiles 102.25-106.75")
    # better in every pair, but the median is inside the parent's spread
    s = bench_pairs.summarize(
        _runs("w", parent, [(101 + i, 1.0) for i in range(10)]), BETTER)
    assert bench_pairs.claim(s, "w", "req_per_s").startswith("not met: 10 of 10")
    # lower is better: a fall of the median below the lower quartile
    s = bench_pairs.summarize(
        _runs("w", [(1.0, 2.0 + i / 10) for i in range(10)],
              [(1.0, 1.0 + i / 10) for i in range(10)]), BETTER)
    assert bench_pairs.claim(s, "w", "req_ms_p50").startswith("met: 10 of 10")


def test_parent_runs_first_on_odd_seeds():
    assert bench_pairs.order(33211) == ("parent", "change")
    assert bench_pairs.order(33212) == ("change", "parent")


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=cwd, check=True, capture_output=True)


def test_both_sides_run_in_fresh_exports_without_bytecode(
        tmp_path, monkeypatch):
    """On a scratch repository whose working tree holds an uncommitted
    edit, a `__pycache__` under src/ and an untracked file: the parent runs
    in a `git archive` of the commit and the change in a copy of the
    tracked files as they are on disk, the edit included.  Neither export
    is the working tree or holds a `__pycache__` under src/, both are gone
    afterwards, PYTHONPYCACHEPREFIX is unset (installed packages read their
    own bytecode) and PYTHONDONTWRITEBYTECODE is set."""
    root = Path(__file__).resolve().parents[1]
    repo = tmp_path / "repo"
    (repo / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text((root / "BENCHMARK.json").read_text())
    (repo / "src" / "pkg" / "mod.py").write_text("VALUE = 'committed'\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "BENCHMARK.json", "src/pkg/mod.py")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "src" / "pkg" / "mod.py").write_text("VALUE = 'edited'\n")
    (repo / "src" / "pkg" / "__pycache__" / "mod.cpython.pyc").write_bytes(b"")
    (repo / "untracked.txt").write_text("")
    real_run, seen = subprocess.run, []

    def fake_run(cmd, cwd, env=None, capture_output=False, text=False,
                 check=False):
        if cmd[0] == "git":
            return real_run(cmd, cwd=cwd, capture_output=capture_output,
                            text=text, check=check)
        caches = [d for d, _, _ in os.walk(Path(cwd, "src"))
                  if Path(d).name == "__pycache__"]
        seen.append((cwd, Path(cwd, "src", "pkg", "mod.py").read_text(),
                     caches, sorted(os.listdir(cwd)),
                     env.get("PYTHONPYCACHEPREFIX"),
                     env["PYTHONDONTWRITEBYTECODE"]))
        metrics = {m: {"value": 1.0} for m in bench_pairs.end_to_end(cwd)}
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                           "metrics": metrics})
        return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n",
                                           stderr="")

    monkeypatch.chdir(repo)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    bench_pairs.main(["--parent", "HEAD", "--workload", "w", "--pairs", "2",
                      "--seconds", "1", "--out", str(tmp_path / "out.json")])
    assert len(seen) == 4
    # seed 1 runs the parent first, seed 2 the change
    old, new = "VALUE = 'committed'\n", "VALUE = 'edited'\n"
    assert [value for _, value, *_ in seen] == [old, new, new, old]
    dirs = {cwd for cwd, *_ in seen}
    assert len(dirs) == 2 and str(repo) not in dirs
    for cwd, _, caches, listed, prefix, flag in seen:
        assert caches == [] and prefix is None and flag == "1"
        assert listed == ["BENCHMARK.json", "src"]
        assert not os.path.exists(cwd)


@pytest.mark.parametrize("text", [
    "polytope_lp",                 # no colon
    "polytope_lp:req_per_sec",     # not a metric of BENCHMARK.json
    "convert_small:req_per_s",     # not among --workload
    "polytope_lp:req_per_s:x",     # two colons
    ":req_per_s",
])
def test_malformed_claim_exits_two_before_any_run(text, tmp_path, monkeypatch,
                                                  capsys):
    """A claim is checked before anything is exported or run: a malformed
    one exits 2 with a usage message after zero runs and writes nothing."""
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda *a: calls.append(a) or {})
    monkeypatch.setattr(bench_pairs, "export",
                        lambda *a: calls.append(a) or "0" * 40)
    monkeypatch.setattr(bench_pairs, "export_worktree",
                        lambda *a: calls.append(a))
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--workload", "polytope_lp",
                          "--pairs", "2", "--claim", text, "--out", str(out)])
    assert exc.value.code == 2
    assert calls == [] and not out.exists()
    assert f"--claim {text}: WORKLOAD:METRIC needs" in capsys.readouterr().err


def test_claim_line_names_the_claimed_workload(tmp_path, monkeypatch):
    """With two workloads, the claim line is the claimed one's, not the
    last one run."""
    r = {"correct": True, "attempted": 1, "failed": 0,
         "metrics": {m: {"value": 1.0} for m in bench_pairs.end_to_end(
             Path(__file__).resolve().parents[1])}}
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: r)
    monkeypatch.setattr(bench_pairs, "export", lambda *a: "0" * 40)
    monkeypatch.setattr(bench_pairs, "export_worktree", lambda *a: None)
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    out = tmp_path / "out.json"
    bench_pairs.main(["--parent", "HEAD", "--workload", "polytope_lp",
                      "--workload", "convert_small", "--pairs", "2",
                      "--claim", "polytope_lp:req_per_s", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["claim"]["workload"] == "polytope_lp"
    assert doc["claim"]["metric"] == "req_per_s"
    assert doc["claim"]["result"].startswith("not met: 0 of 2 pairs better")
