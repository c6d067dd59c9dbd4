#!/usr/bin/env python3
"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
- run.py emits exactly the metrics BENCHMARK.json lists, traced and
  untraced, on every workload, in a short run (--seconds 1), and reports
  every answer correct;
- the traced counts repeat exactly in a second traced run of the same seed;
- a deliberately corrupted answer, and a request that raises, are counted
  as failed.

The composite_thermo runs each include the one large erasure, so the whole
self-test takes a few minutes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupt(workload, ans):
    """A copy of the answer with one number moved well past its tolerance."""
    if workload == "convert_small":
        return dict(ans, renyi=[v + 1e-3 for v in ans["renyi"]])
    if workload == "composite_thermo":
        return dataclasses.replace(ans, delta_E_env=ans.delta_E_env + 1e-6)
    return dict(ans, norm=ans["norm"] + 1e-3)


def check_failures_counted(workload):
    wl, _ = run.setup(workload, seed=3)
    req = wl.request(len(wl.fixed))
    ans, _ = run.serve(wl, req)
    assert run.check(wl, req, ans) is None, f"{workload}: clean answer failed"
    assert run.check(wl, req, corrupt(workload, ans)), \
        f"{workload}: corrupted answer was not counted as failed"
    broken = dataclasses.replace(req, data={})
    raised, _ = run.serve(wl, broken)
    assert run.check(wl, broken, raised), \
        f"{workload}: a request that raised was not counted as failed"


def main():
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    from tracer import EXACT_COUNTS, PER_LAYER

    assert names[1] == [n for n, _, _ in PER_LAYER], "per_layer list drifted"
    assert names[0] == [n for n, _ in run.END_TO_END], "end_to_end list drifted"
    for w in spec["workloads"]:
        workload = w["name"]
        check_failures_counted(workload)
        for trace in (0, 1):
            out = bench(workload, trace)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert list(out["metrics"]) == names[trace], \
                f"{workload} trace {trace}: metrics differ from BENCHMARK.json"
            assert out["correct"] and out["failed"] == 0, \
                f"{workload} trace {trace}: {out['failed']} failed"
            if trace:
                again = bench(workload, 1)
                diff = [n for n in EXACT_COUNTS
                        if out["metrics"][n]["value"] != again["metrics"][n]["value"]]
                assert not diff, f"{workload}: counts differ between runs: {diff}"
        print(f"ok {workload}", flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
