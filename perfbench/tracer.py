"""Tracing shim: spans and counters around gptt's layers, from outside gptt.

Every public function defined in a gptt module is wrapped, and the wrapper
is rebound under every name that any loaded gptt module holds for that
function, so `from .embedding import conjugation_matrix` in core, zoo and
resource is traced as well as the definition itself.  `linprog` is wrapped
where gptt modules bound it, `numpy.linalg.eigh`/`eigvalsh` on numpy, and
`ConeSpec.margin` plus the `StateVec`, `EffectVec` and `ChannelMap`
`__post_init__` on their classes.

A span records its name, start, end, parent and request; spans are kept in
flat arrays while the run lasts.  Wrappers record nothing unless the tracer
is active, which the benchmark switches on only around timed requests.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

GPTT_MODULES = ("embedding", "core", "spectral", "resource", "zoo", "thermo",
                "symmetry")

# Per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("setup.import_ms", "ms", "lower"),
    ("setup.models_ms", "ms", "lower"),
    ("setup.inputs_ms", "ms", "lower"),
    ("setup.warmup_ms", "ms", "lower"),
    ("embedding.self_ms", "ms", "lower"),
    *[(f"embedding.{f}.{m}", u, "lower")
      for f in ("conjugation_matrix", "vec_to_blocks", "blocks_to_vec",
                "vec_to_total", "total_to_vec")
      for m, u in (("calls", "count"), ("busy_ms", "ms"))],
    ("core.self_ms", "ms", "lower"),
    ("core.cone_checks.psd", "count", "lower"),
    ("core.cone_checks.rays", "count", "lower"),
    ("core.margin.busy_ms", "ms", "lower"),
    ("core.states_built", "count", "lower"),
    ("core.effects_built", "count", "lower"),
    ("core.channels_built", "count", "lower"),
    ("core.cone_checks_per_request", "ratio", "lower"),
    *[(f"core.{f}.busy_ms", "ms", "lower")
      for f in ("tensor_states", "marginal", "tensor_channels",
                "apply_channel", "state_norm")],
    ("linalg.eigensolves", "count", "lower"),
    ("linalg.busy_ms", "ms", "lower"),
    ("linalg.eigensolves_per_diagonalize", "ratio", "lower"),
    ("lp.solves", "count", "lower"),
    ("lp.busy_ms", "ms", "lower"),
    ("lp.not_success", "count", "lower"),
    ("lp.solves_per_request", "ratio", "lower"),
    ("spectral.self_ms", "ms", "lower"),
    ("spectral.diagonalize.calls", "count", "lower"),
    ("spectral.diagonalize.busy_ms", "ms", "lower"),
    ("spectral.diagonalize.fast", "count", "higher"),
    ("spectral.diagonalize.peel", "count", "lower"),
    ("spectral.diagonalize.refused", "count", "lower"),
    ("spectral.purify.busy_ms", "ms", "lower"),
    ("spectral.transition_matrix.busy_ms", "ms", "lower"),
    ("resource.self_ms", "ms", "lower"),
    *[(f"resource.{f}.busy_ms", "ms", "lower")
      for f in ("convertible", "build_unital_channel", "build_rare_channel",
                "check_unrestricted_reversibility")],
    ("resource.verdict.yes", "count", "higher"),
    ("resource.verdict.no", "count", "lower"),
    ("resource.verdict.unknown", "count", "lower"),
    ("resource.birkhoff_terms", "count", "lower"),
    ("zoo.self_ms", "ms", "lower"),
    *[(f"zoo.{f}.busy_ms", "ms", "lower")
      for f in ("build_model", "compose_systems", "reversible_sending",
                "basis_aligning_reversible", "distinguishing_effects",
                "close_group")],
    ("thermo.self_ms", "ms", "lower"),
    ("thermo.entropy.calls", "count", "lower"),
    ("thermo.entropy.busy_ms", "ms", "lower"),
    *[(f"thermo.{f}.busy_ms", "ms", "lower")
      for f in ("relative_entropy", "landauer_ledger", "bipartite_entropies",
                "erasure_demo")],
    ("symmetry.self_ms", "ms", "lower"),
    *[(f"symmetry.{f}.busy_ms", "ms", "lower")
      for f in ("twirl", "invariant_state", "is_transitive",
                "perfectly_distinguishable_search")],
    ("trace.overhead_frac", "ratio", "lower"),
]

# Counts that must repeat exactly for a given seed.
EXACT_COUNTS = [n for n, u, _ in PER_LAYER if u == "count"]


class Tracer:
    def __init__(self):
        self.active = False
        self.request = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.req = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.req.append(self.request)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_request(self, index: int) -> int:
        """Switch recording on and open the request's root span."""
        self.request = index
        self.active = True
        return self.open(self._id("bench.request"))

    def end_request(self, span: int):
        self.close(span)
        self.active = False

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = tr.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tr.close(idx)
                if hook is not None:
                    hook(tr, args, kwargs, None, exc)
                raise
            tr.close(idx)
            if hook is not None:
                hook(tr, args, kwargs, out, None)
            return out

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        core = importlib.import_module("gptt.core")
        from gptt.core import DiagonalizationError

        def diag_hook(tr, args, kwargs, out, exc):
            method = kwargs.get("method", args[1] if len(args) > 1 else "auto")
            if method == "auto":
                method = "fast" if args[0].model.structure is not None else "peel"
            tr.counts[f"spectral.diagonalize.{method}"] += 1
            if isinstance(exc, DiagonalizationError):
                tr.counts["spectral.diagonalize.refused"] += 1

        def verdict_hook(tr, args, kwargs, out, exc):
            if out is not None:
                tr.counts[f"resource.verdict.{out.answer}"] += 1

        def birkhoff_hook(tr, args, kwargs, out, exc):
            if out is not None:
                tr.counts["resource.birkhoff_terms"] += len(out)

        def lp_hook(tr, args, kwargs, out, exc):
            if out is None or not out.success:
                tr.counts["lp.not_success"] += 1

        def margin_hook(tr, args, kwargs, out, exc):
            tr.counts[f"core.cone_checks.{args[0].kind}"] += 1

        hooks = {"spectral.diagonalize": diag_hook,
                 "resource.convertible": verdict_hook,
                 "resource.birkhoff_decompose": birkhoff_hook}
        wrappers = {}
        for short in GPTT_MODULES:
            mod = importlib.import_module(f"gptt.{short}")
            for fname, obj in vars(mod).items():
                if (fname.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{fname}"
                wrappers[id(obj)] = (obj, self.wrap(name, obj, hooks.get(name)))
        lp = core.linprog
        wrappers[id(lp)] = (lp, self.wrap("lp", lp, lp_hook))
        for modname, mod in list(sys.modules.items()):
            if modname != "gptt" and not modname.startswith("gptt."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])
        for cls in (core.StateVec, core.EffectVec, core.ChannelMap):
            self._patch(cls, "__post_init__",
                        self.wrap(f"core.{cls.__name__}.__post_init__",
                                  cls.__post_init__))
        self._patch(core.ConeSpec, "margin",
                    self.wrap("core.margin", core.ConeSpec.margin, margin_hook))
        for fname in ("eigh", "eigvalsh"):
            self._patch(np.linalg, fname,
                        self.wrap(f"linalg.{fname}", getattr(np.linalg, fname)))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results ---------------------------------------------------------

    def arrays(self):
        return (np.asarray(self.name, dtype=np.int64),
                np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.req, dtype=np.int64),
                np.asarray(self.start), np.asarray(self.end))

    def save(self, path):
        name, parent, req, start, end = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name=name,
                            parent=parent, request=req, start=start, end=end)

    def metrics(self, requests: int) -> dict:
        """Per-layer metrics (all of PER_LAYER but setup.* and trace.*).

        Names map onto spans: `<layer>.self_ms` is the layer's self time,
        `<span>.busy_ms` and `<span>.calls` the summed duration and number of
        the spans called `<span>`.  Counts kept by the hooks carry their
        metric's name; the rest are derived below.
        """
        name, parent, _, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        span_layer = np.asarray([n.split(".", 1)[0] for n in self.names] + [""])[name]

        def spans(n):
            return name == self._ids.get(n, -1)

        def calls(*ns):
            return sum(int(spans(n).sum()) for n in ns)

        def busy_ms(*ns):
            return 1e3 * sum(float(dur[spans(n)].sum()) for n in ns)

        eig = ("linalg.eigh", "linalg.eigvalsh")
        derived = {
            "core.states_built": calls("core.StateVec.__post_init__"),
            "core.effects_built": calls("core.EffectVec.__post_init__"),
            "core.channels_built": calls("core.ChannelMap.__post_init__"),
            "core.cone_checks_per_request": calls("core.margin") / requests,
            "linalg.eigensolves": calls(*eig),
            "linalg.busy_ms": busy_ms(*eig),
            "linalg.eigensolves_per_diagonalize": (
                self._eigensolves_in_diagonalize(name, parent)
                / max(calls("spectral.diagonalize"), 1)),
            "lp.solves": calls("lp"),
            "lp.solves_per_request": calls("lp") / requests,
        }
        out = {}
        for metric, _, _ in PER_LAYER:
            head, _, tail = metric.rpartition(".")
            if metric.startswith(("setup.", "trace.")):
                continue
            if metric in derived:
                out[metric] = derived[metric]
            elif tail == "self_ms":
                out[metric] = 1e3 * float(self_t[span_layer == head].sum())
            elif tail == "busy_ms":
                out[metric] = busy_ms(head)
            elif tail == "calls":
                out[metric] = calls(head)
            else:
                out[metric] = self.counts[metric]
        return out

    def _eigensolves_in_diagonalize(self, name, parent) -> int:
        diag = self._ids.get("spectral.diagonalize")
        eig = {self._ids.get("linalg.eigh"), self._ids.get("linalg.eigvalsh")}
        if diag is None:
            return 0
        inside = [False] * len(name)
        count = 0
        names, parents = name.tolist(), parent.tolist()
        for i, (n, p) in enumerate(zip(names, parents)):
            if p >= 0:
                inside[i] = inside[p] or names[p] == diag
            if inside[i] and n in eig:
                count += 1
        return count
