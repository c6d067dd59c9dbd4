"""The summary arithmetic of `tools/bench_pairs.py` on canned pair lists:
medians, inclusive quartiles, better-pair counts in each metric's
direction, failed requests and correctness, the claim line and the
alternating order, and the fresh bytecode prefix of every run."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

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


def test_both_sides_run_with_a_fresh_empty_bytecode_prefix(
        tmp_path, monkeypatch):
    """Every run, parent and change alike, gets its own empty directory as
    PYTHONPYCACHEPREFIX, so no side reads bytecode that a test run left in
    its tree; PYTHONDONTWRITEBYTECODE stays set."""
    root = Path(__file__).resolve().parents[1]
    seen = []

    def fake_run(cmd, cwd, env, capture_output, text):
        prefix = env["PYTHONPYCACHEPREFIX"]
        seen.append((cwd, prefix, os.listdir(prefix),
                     env["PYTHONDONTWRITEBYTECODE"]))
        Path(prefix, "left.pyc").write_bytes(b"")
        metrics = {m: {"value": 1.0} for m in bench_pairs.end_to_end(root)}
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                           "metrics": metrics})
        return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n",
                                           stderr="")

    monkeypatch.chdir(root)
    monkeypatch.setattr(bench_pairs, "export", lambda root, rev, dest: "sha")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    bench_pairs.main(["--parent", "HEAD", "--workload", "w", "--pairs", "2",
                      "--seconds", "1", "--out", str(tmp_path / "out.json")])
    assert len(seen) == 4
    assert {cwd == str(root) for cwd, *_ in seen} == {True, False}
    assert len({prefix for _, prefix, _, _ in seen}) == 4
    assert all(listed == [] and flag == "1" for _, _, listed, flag in seen)
    assert not any(os.path.exists(prefix) for _, prefix, _, _ in seen)
