#!/usr/bin/env python3
"""gptt benchmark: seeded workloads, verified answers, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload convert_small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; gptt is imported from its `src/`.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones, measured with tracing off; with `--trace 1` they are the
per-layer ones from a traced pass over a fixed, seed-determined request list
(see tracer.py).  Lines before it give every metric with its unit, the
failure share and the environment.  Spans of a traced run are written to
`.bench_out/` under the checkout.

Set-up time is the median over several fresh interpreters, each importing
gptt, building the workload's models, generating its inputs and serving one
warm-up request per request kind.  The benchmark's own modules are imported
outside the set-up timer, and the references in oracles.py (which load
scipy.optimize) only after set-up.  Every answer is checked against those
references right after its request, outside the timed region.

Request times are reported at a reference host speed.  On a shared host the
same code runs up to twice as fast in one stretch of seconds as in another,
in CPU time as much as in wall time.  So a fixed reference kernel that does
not touch gptt (`reference_kernel`) is timed between requests, and each
request's time is scaled by REF_KERNEL_MS over the kernel time measured
around it.  The raw request times are printed too.  Set-up time is not
scaled: it is mostly imports, which the kernel does not track.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# One BLAS thread, set before numpy loads.  The reference kernel runs on one
# core; a request whose BLAS calls also need a second, shared core slows
# with load on that core, which the kernel does not see.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

SETUP_SAMPLES = 5        # fresh interpreters behind setup_s
REF_KERNEL_MS = 0.75     # reference_kernel's time at the reference speed
MIN_REQUESTS = 100       # so that at least ten lie beyond p90
# Traced pass: cycles of the request schedule per second of --seconds.
TRACE_CYCLES_PER_S = {"convert_small": 0.25, "composite_thermo": 0.1,
                      "polytope_lp": 0.1}

END_TO_END = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("req_ms_p50", "ms"),
    ("req_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    """The benchmark cannot run here (for instance, gptt is missing)."""


def import_gptt():
    sys.path.insert(0, SRC)
    try:
        import gptt
    except ImportError as exc:
        raise BenchError(f"cannot import gptt from {SRC}: {exc}") from exc
    if not os.path.abspath(gptt.__file__).startswith(SRC + os.sep):
        raise BenchError(f"gptt was imported from {gptt.__file__}, not {SRC}")
    return gptt


# ---------------------------------------------------------------------------
# host speed


_KERNEL = None


def reference_kernel():
    """Fixed work that does not touch gptt: small eigensolves and a Kronecker
    product with a matrix-vector product on it, the numpy work gptt's
    requests are made of.  Of the kernels tried, this pair tracked the host's
    speed most closely on all three workloads."""
    import numpy as np

    global _KERNEL
    if _KERNEL is None:
        k = np.arange(8.0)
        _KERNEL = (np.add.outer(k[:6], k[:6]) % 5,
                   np.cos(np.add.outer(k, 2 * k)) + 1j * np.sin(np.outer(k, k)))
    A, C = _KERNEL
    s = 0.0
    for i in range(20):
        w, v = np.linalg.eigh(A + i)
        s += float(v[0] @ w)
    for i in range(5):
        K = np.kron(C, C.conj())
        s += float(np.abs(K @ K[:, i]).sum())
    return s


def kernel_ms(reps: int = 1) -> float:
    """Median time of `reps` runs of the reference kernel, in ms."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        reference_kernel()
        times.append(1e3 * (perf_counter() - t0))
    return statistics.median(times)


def setup(workload: str, seed: int):
    """Import, build, generate, warm up; returns the workload and phase ms."""
    t0 = perf_counter()
    gptt = import_gptt()
    import_ms = 1e3 * (perf_counter() - t0)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS  # the benchmark's own code: not timed

    wl = WORKLOADS[workload](gptt, seed)
    t1 = perf_counter()
    wl.build_models()
    t2 = perf_counter()
    wl.make_inputs()
    warm = [wl.request(k, kind, warm=True) for k, kind in enumerate(wl.warm_kinds)]
    t3 = perf_counter()
    for req in warm:
        wl.run(req)
    t4 = perf_counter()
    phases = {"setup.import_ms": import_ms, "setup.models_ms": 1e3 * (t2 - t1),
              "setup.inputs_ms": 1e3 * (t3 - t2), "setup.warmup_ms": 1e3 * (t4 - t3)}
    return wl, phases


def probe_setup(workload: str, seed: int) -> dict:
    """Phase times of set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe", "--workload",
         workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# serving requests


def serve(wl, req, tracer=None):
    """Run one request; returns (answer or exception, seconds)."""
    if tracer is not None:
        span = tracer.begin_request(req.index)
    t0 = perf_counter()
    try:
        ans = wl.run(req)
    except Exception as exc:  # counted as a failed request
        ans = exc
        ans.bench_traceback = traceback.format_exc(limit=4)
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.end_request(span)
    return ans, dt


def check(wl, req, ans):
    """None when the answer is right, else why the request failed."""
    if isinstance(ans, Exception) and hasattr(ans, "bench_traceback"):
        return ans.bench_traceback
    try:
        return wl.verify(req, ans)
    except Exception:
        return "verification raised:\n" + traceback.format_exc(limit=4)


def digest(obj, h=None):
    """Bytes-exact fingerprint of an answer, to compare traced and untraced."""
    import numpy as np

    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for k in sorted(obj, key=str):
            h.update(str(k).encode())
            digest(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            digest(v, h)
    elif isinstance(obj, Exception):
        h.update(type(obj).__name__.encode())
        digest(getattr(obj, "residue", None), h)
    elif hasattr(obj, "__dataclass_fields__"):
        for k in obj.__dataclass_fields__:
            if k not in ("model", "model_in", "model_out"):
                digest(getattr(obj, k), h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


def timed_batch(wl, seconds: float):
    """Fixed requests, then the cycle for `seconds` of wall time.

    The reference kernel is timed before the first request and right after
    every request; request i is scaled by REF_KERNEL_MS over the median of
    the two kernel times before it and the two after it.  Each answer is checked
    right after its request, outside the timed region, and then dropped, so
    neither memory nor garbage collection grows with the number of requests
    served.  Returns raw latencies, their speed factors and the failures.
    """
    gc.collect()
    lat, kern, failures = [], [kernel_ms(5)], []
    i = 0
    while i < len(wl.fixed):
        i = _timed_request(wl, i, lat, kern, failures)
    end = perf_counter() + seconds
    while perf_counter() < end or i - len(wl.fixed) < MIN_REQUESTS:
        i = _timed_request(wl, i, lat, kern, failures)
    factors = [REF_KERNEL_MS / statistics.median(kern[max(0, i - 1):i + 3])
               for i in range(len(lat))]
    return lat, factors, failures


def _timed_request(wl, i, lat, kern, failures):
    req = wl.request(i)
    ans, dt = serve(wl, req)
    kern.append(kernel_ms())
    lat.append(dt)
    why = check(wl, req, ans)
    if why:
        failures.append((req, why))
    return i + 1


def traced_pass(wl, seconds: float):
    """Fixed requests plus whole cycles, traced.

    Each cycle request is also served untraced, with the tracer uninstalled,
    right before or after its traced run (alternating), for the tracing
    overhead and to check that tracing leaves every answer bit-identical.
    Returns the request count, the per-layer metrics and the failures.
    """
    from tracer import Tracer

    cycles = max(1, math.ceil(seconds * TRACE_CYCLES_PER_S[wl.name]),
                 math.ceil((MIN_REQUESTS - len(wl.fixed)) / len(wl.cycle)))
    n = len(wl.fixed) + cycles * len(wl.cycle)
    tracer = Tracer()

    def serve_traced(req):
        tracer.install()
        try:
            return serve(wl, req, tracer)
        finally:
            tracer.uninstall()

    gc.collect()
    failures = []
    t_traced = t_plain = 0.0
    for i in range(n):
        req = wl.request(i)
        if i < len(wl.fixed):
            ans = serve_traced(req)[0]
            why = check(wl, req, ans)
        else:
            if i % 2 == 0:
                ans, dt_t = serve_traced(req)
                plain, dt_p = serve(wl, req)
            else:
                plain, dt_p = serve(wl, req)
                ans, dt_t = serve_traced(req)
            t_traced += dt_t
            t_plain += dt_p
            why = check(wl, req, ans)
            if not why and digest(ans) != digest(plain):
                why = "traced and untraced answers differ"
        if why:
            failures.append((req, why))
    metrics = tracer.metrics(n)
    metrics["trace.overhead_frac"] = t_traced / t_plain - 1.0
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{wl.seed}.npz"))
    return n, metrics, failures


def latency_metrics(lat) -> dict:
    """Throughput and latency percentiles of request times in seconds."""
    ms = sorted(1e3 * t for t in lat)
    return {"req_per_s": len(lat) / sum(lat),
            "req_ms_p50": statistics.median(ms),
            "req_ms_p90": statistics.quantiles(ms, n=10)[8]}


# ---------------------------------------------------------------------------
# environment


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": commit(),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or the limit set here."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return f"limit {THREADS}"


def commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["convert_small", "composite_thermo", "polytope_lp"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # Set-up probes before and after the run, so that set-up time is sampled
    # over the whole run rather than one stretch of the host's speed.
    before = SETUP_SAMPLES // 2
    try:
        if args.probe:
            print(json.dumps(setup(args.workload, args.seed)[1]))
            return 0
        samples = [probe_setup(args.workload, args.seed) for _ in range(before)]
        wl, phases = setup(args.workload, args.seed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    samples.append(phases)

    if args.trace:
        attempted, metrics, failures = traced_pass(wl, args.seconds)
        from tracer import PER_LAYER

        units = {n: u for n, u, _ in PER_LAYER}
    else:
        lat, factors, failures = timed_batch(wl, args.seconds)
        attempted = len(lat)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Latency metrics are over the cycle; the fixed requests are one-off
        # tasks whose time is printed on its own line.
        n_fixed = len(wl.fixed)
        scaled = [t * f for t, f in zip(lat, factors)]
        metrics = dict(latency_metrics(scaled[n_fixed:]), peak_rss_mb=rss_mb)
        raw = latency_metrics(lat[n_fixed:])
        units = dict(END_TO_END)

    samples += [probe_setup(args.workload, args.seed)
                for _ in range(SETUP_SAMPLES - 1 - before)]
    setup_s = statistics.median(sum(s.values()) for s in samples) / 1e3
    if args.trace:
        metrics.update({k: statistics.median(s[k] for s in samples) for k in phases})
    else:
        metrics["setup_s"] = setup_s

    failed = len(failures)
    for req, why in failures[:5]:
        print(f"FAILED request {req.index} ({req.kind}): {why}")
    for name, unit in units.items():
        print(f"{name:52s} {metrics[name]:14.6g} {unit}")
    if not args.trace:
        print("  raw, at the host's speed: " + ", ".join(
            f"{n} {v:.6g}" for n, v in raw.items()))
        for req, t, f in zip(map(wl.request, range(n_fixed)), lat, factors):
            print(f"  fixed request {req.kind}: {t:.6g} s raw, {t * f:.6g} s scaled")
    print(f"{'fail_frac':52s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} requests)")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]}
                    for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
