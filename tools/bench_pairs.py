#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent commit and the working tree.

    python3 tools/bench_pairs.py --parent HEAD --workload composite_thermo \
        --pairs 10 --seconds 20 --seed 34211 --out BENCH_tag.json

Run from the root of a checkout.  The parent commit is exported with
`git archive` into a temporary directory; the change side is the working
tree.  Pair i runs `perfbench/run.py --workload W --seed S --seconds T
--trace 0` once on each side with seed S = --seed + i, the parent first on
odd seeds and the change first on even ones, so a drift in host speed
falls on both sides alike.  A second workload starts its seeds 100 higher,
a third 200, and so on.  Every run gets a fresh, empty temporary
directory as PYTHONPYCACHEPREFIX, with PYTHONDONTWRITEBYTECODE=1, so that
no side reads bytecode left by an earlier run or a test run (a
`__pycache__` in the working tree) and none is written: each run compiles
what it imports, the standard library and numpy included, and its
`setup_s` counts that on both sides alike.

The output holds the `pairs`, `summary` and `runs` sections of the repo's
BENCH layout, and a `claim` line for --claim WORKLOAD:METRIC.  For every
workload and end-to-end metric of BENCHMARK.json the summary gives the
median and the quartiles (inclusive method) of each side, rounded to four
places, and the number of pairs in which the change is better, in the
metric's own direction; then the failed requests of each side, summed,
and whether every answer was correct.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile


def end_to_end(root: str) -> dict:
    """{metric: 'higher' or 'lower'} from the checkout's BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}


def export(root: str, rev: str, dest: str) -> str:
    """Extract `rev` into dest with git archive; returns its full sha."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=root, check=True,
                         capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=root,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest)
    return sha


def run_once(cwd: str, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run, with no bytecode read or
    written: its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory() as pycache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPYCACHEPREFIX=pycache)
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                              text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {cwd} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def order(seed: int) -> tuple:
    return ("parent", "change") if seed % 2 else ("change", "parent")


def _stats(values: list) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (round(statistics.median(values), 4),
            [round(q1, 4), round(q3, 4)])


def summarize(runs: list, better: dict) -> dict:
    """The summary section of a list of runs, each {"workload", "seed",
    "side", "correct", "failed", "metrics"}; `better` maps each metric to
    'higher' or 'lower'.  A pair is the two sides' runs of one seed."""
    out = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        side = {s: {r["seed"]: r for r in runs
                    if r["workload"] == w and r["side"] == s}
                for s in ("parent", "change")}
        seeds = sorted(side["parent"].keys() & side["change"].keys())
        summary = {}
        for metric, direction in better.items():
            p = [side["parent"][s]["metrics"][metric] for s in seeds]
            c = [side["change"][s]["metrics"][metric] for s in seeds]
            sign = 1 if direction == "higher" else -1
            p_med, p_q = _stats(p)
            c_med, c_q = _stats(c)
            summary[metric] = {
                "parent_median": p_med, "parent_quartiles": p_q,
                "change_median": c_med, "change_quartiles": c_q,
                "change_better_pairs": sum(sign * (b - a) > 0
                                           for a, b in zip(p, c)),
                "pairs": len(seeds)}
        summary["failed"] = [sum(side[s][k]["failed"] for k in seeds)
                             for s in ("parent", "change")]
        summary["correct"] = all(side[s][k]["correct"] for s in side
                                 for k in seeds)
        out[w] = summary
    return out


def claim(summary: dict, workload: str, metric: str) -> str:
    """'met' when the change is better in at least nine of ten pairs and
    its median lies beyond the parent's quartile on the better side."""
    s = summary[workload][metric]
    p, c, (q1, q3) = s["parent_median"], s["change_median"], s["parent_quartiles"]
    beyond = c > q3 if c >= p else c < q1
    met = 10 * s["change_better_pairs"] >= 9 * s["pairs"] and beyond
    return (f"{'met' if met else 'not met'}: {s['change_better_pairs']} of "
            f"{s['pairs']} pairs better, median {p} -> {c} "
            f"({100 * (c - p) / p:+.1f}%), parent quartiles {q1}-{q3}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--claim", help="WORKLOAD:METRIC")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("quartiles need at least two pairs")
    root = os.getcwd()
    better = end_to_end(root)
    runs, seeds = [], {}
    with tempfile.TemporaryDirectory() as parent_dir:
        sha = export(root, args.parent, parent_dir)
        dirs = {"parent": parent_dir, "change": root}
        for k, w in enumerate(args.workload):
            first = args.seed + 100 * k
            seeds[w] = f"{first}-{first + args.pairs - 1}"
            for seed in range(first, first + args.pairs):
                for s in order(seed):
                    r = run_once(dirs[s], w, seed, args.seconds)
                    runs.append({"workload": w, "seed": seed, "side": s,
                                 "correct": r["correct"],
                                 "attempted": r["attempted"],
                                 "failed": r["failed"],
                                 "metrics": {m: r["metrics"][m]["value"]
                                             for m in better}})
                    print(w, seed, s, json.dumps(runs[-1]["metrics"]),
                          file=sys.stderr, flush=True)
    summary = summarize(runs, better)
    doc = {"parent": sha,
           "pairs": {"command": "python3 perfbench/run.py --workload W "
                                f"--seed S --seconds {args.seconds:g} "
                                "--trace 0",
                     "order": "the 'parent' side first on odd seeds, the "
                              "'change' side first on even seeds",
                     "seeds": seeds},
           "summary": summary,
           "runs": runs}
    if args.claim:
        w, metric = args.claim.split(":")
        doc = {"claim": {"workload": w, "metric": metric,
                         "result": claim(summary, w, metric)}, **doc}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
