"""Spans and counters around the package's public entry points.

The tracer is installed from outside the package: it replaces each entry
point named in ``TARGETS`` at every place a module of ``lpmln`` binds it
(``from .grounder import ground`` binds ``ground`` in several modules), and
the two ``StableModelEnumerator`` methods on the class itself.  An entry
point that no longer exists is reported as unmeasured, never an error.

A span is ``[op, layer, name, start, end, parent]``; spans stay in memory
until the run ends.  A layer's self time is its spans' time minus the time
covered by their direct children.  Nothing in the package queues or waits,
so no layer reports a wait time.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import statistics
import sys
from time import perf_counter

LAYERS = ("parser", "frontends", "grounder", "engine", "inference",
          "asp_backend", "mln_backend", "cli")
ENGINE_INIT = "StableModelEnumerator.__init__"
ENGINE_ENUM = "StableModelEnumerator.models_bits"


def _rules(result):
    return len(result.rules)


# (layer, module, entry point, counter name, value read from the result)
TARGETS = (
    ("parser", "parser", "parse_program", "parser.rules", _rules),
    ("parser", "parser", "parse_evidence", "parser.rules", _rules),
    ("frontends", "frontends", "parse_bayes_net", None, None),
    ("frontends", "frontends", "bayes_to_lpmln", None, None),
    ("grounder", "grounder", "ground", "grounder.ground_rules", _rules),
    ("engine", "engine", ENGINE_INIT, None, None),
    ("engine", "engine", ENGINE_ENUM, None, None),
    ("inference", "inference", "distribution", "inference.models_weighed",
     lambda d: len(d.entries)),
    ("inference", "inference", "map_estimate", None, None),
    ("inference", "inference", "marginal", None, None),
    ("inference", "inference", "conditional", None, None),
    ("asp_backend", "asp_backend", "phi_extend", "asp_backend.phi_extend_calls",
     lambda _: 1),
    ("asp_backend", "asp_backend", "translate_penalty", "asp_backend.translated_rules",
     _rules),
    ("asp_backend", "asp_backend", "translate_reward", "asp_backend.translated_rules",
     _rules),
    ("asp_backend", "asp_backend", "wc_penalty", "asp_backend.wc_penalty_calls",
     lambda _: 1),
    ("asp_backend", "asp_backend", "optimal_models", None, None),
    ("asp_backend", "asp_backend", "emit_asp_text", None, None),
    ("mln_backend", "mln_backend", "is_tight", None, None),
    ("mln_backend", "mln_backend", "complete", "mln_backend.formulas",
     lambda m: len(m.formulas)),
    ("mln_backend", "mln_backend", "tseytin", None, None),
    ("mln_backend", "mln_backend", "emit_mln_text", None, None),
    ("cli", "cli", "run", None, None),
)

COUNTERS = ("parser.rules", "grounder.calls", "grounder.ground_rules",
            "engine.enumerators", "engine.free_atoms", "engine.candidates",
            "engine.models", "inference.models_weighed",
            "asp_backend.phi_extend_calls", "asp_backend.wc_penalty_calls",
            "asp_backend.translated_rules", "mln_backend.formulas")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self.op_counts: list = []  # per op: counter name -> total
        self.missing: dict = {}    # layer -> entry points not found
        self.bindings: list = []   # (owner, attribute, original, wrapper)
        self.broken: set = set()   # counters whose value could not be read

    # -- installation

    def install(self) -> None:
        """Find every binding site; ``enable`` then swaps the wrappers in."""
        import lpmln
        for info in pkgutil.iter_modules(lpmln.__path__):
            importlib.import_module(f"lpmln.{info.name}")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "lpmln" or name.startswith("lpmln.")]
        for layer, module, entry, counter, read in TARGETS:
            mod = sys.modules.get(f"lpmln.{module}")
            if "." in entry:
                cls_name, meth = entry.split(".")
                cls = getattr(mod, cls_name, None)
                fn = vars(cls).get(meth) if isinstance(cls, type) else None
                if fn is None:
                    self.missing.setdefault(layer, []).append(entry)
                    continue
                self.bindings.append((cls, meth, fn, self._wrap_engine(entry, fn)))
                continue
            fn = getattr(mod, entry, None)
            if not callable(fn):
                self.missing.setdefault(layer, []).append(entry)
                continue
            wrapped = self._wrap(layer, entry, fn, counter, read)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self.bindings.append((m, attr, fn, wrapped))

    def enable(self, on: bool) -> None:
        """Bind the wrappers (on) or the original entry points (off)."""
        for owner, attr, original, wrapped in self.bindings:
            setattr(owner, attr, wrapped if on else original)

    def unmeasured(self) -> list:
        """Layers none of whose entry points exist."""
        total = {}
        for layer, *_ in TARGETS:
            total[layer] = total.get(layer, 0) + 1
        return sorted(l for l, names in self.missing.items() if len(names) == total[l])

    # -- spans

    def _open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.op, layer, name, perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][4] = perf_counter()

    def _add(self, counter: str, value) -> None:
        counts = self.op_counts[self.op]
        counts[counter] = counts.get(counter, 0) + value

    def _read(self, counter: str, read, obj):
        try:
            self._add(counter, read(obj))
        except (AttributeError, TypeError):
            self.broken.add(counter)

    def _wrap(self, layer, name, fn, counter, read):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "ground":
                tracer._add("grounder.calls", 1)
            if counter:
                tracer._read(counter, read, result)
            return result
        return traced

    def _wrap_engine(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(enum, *args, **kwargs):
            idx = tracer._open("engine", name)
            try:
                result = fn(enum, *args, **kwargs)
            finally:
                tracer._close(idx)
            if name == ENGINE_INIT:
                tracer._add("engine.enumerators", 1)
                tracer._read("engine.free_atoms", lambda e: len(e.free_positions), enum)
                tracer._read("engine.candidates", lambda e: 2 ** len(e.free_positions), enum)
            else:
                tracer._read("engine.models", len, result)
            return result
        return traced

    # -- ops

    def begin_op(self) -> int:
        self.op += 1
        self.op_counts.append({})
        return self._open("op", "op")

    def end_op(self, idx: int) -> None:
        self._close(idx)

    # -- summary

    def summary(self, round_len: int) -> dict:
        """Per-layer metrics.  Times are medians over the ops that enter a
        layer; counts are medians over the first round's ops that record the
        count (so they repeat exactly for one seed); shares are over all
        traced ops."""
        n_ops = self.op + 1
        child = [0.0] * len(self.spans)
        for op, layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms = [dict() for _ in range(n_ops)]
        op_ms = [0.0] * n_ops
        for k, (op, layer, name, start, end, parent) in enumerate(self.spans):
            dur = (end - start) * 1e3
            if layer == "op":
                op_ms[op] += dur
                continue
            own = dur - child[k] * 1e3
            per = self_ms[op]
            per[layer] = per.get(layer, 0.0) + own
            if name in (ENGINE_INIT, ENGINE_ENUM):
                key = "engine.setup_ms" if name == ENGINE_INIT else "engine.enumerate_ms"
                per[key] = per.get(key, 0.0) + dur

        metrics: dict = {}
        total_op = sum(op_ms) or 1.0
        covered = 0.0
        for layer in LAYERS:
            entered = [s[layer] for s in self_ms if layer in s]
            metrics[f"{layer}.self_ms"] = _median(entered)
            share = sum(entered) / total_op
            metrics[f"{layer}.share"] = share
            covered += share
        for key in ("engine.setup_ms", "engine.enumerate_ms"):
            metrics[key] = _median([s[key] for s in self_ms if key in s])

        first = range(min(round_len, n_ops))
        for counter in COUNTERS:
            metrics[counter] = _median([self.op_counts[i][counter] for i in first
                                        if self.op_counts[i].get(counter)])
        metrics["engine.accept_ratio"] = _median([
            self.op_counts[i].get("engine.models", 0) / self.op_counts[i]["engine.candidates"]
            for i in first if self.op_counts[i].get("engine.candidates")])
        mismatches = sum(1 for i in range(round_len, n_ops)
                         if self.op_counts[i] != self.op_counts[i % round_len])
        metrics["trace.coverage"] = covered
        metrics["trace.count_mismatches"] = mismatches
        metrics["trace.unmeasured_layers"] = len(self.unmeasured())
        return {"metrics": metrics, "op_ms": op_ms,
                "missing": self.missing, "broken_counters": sorted(self.broken),
                "unmeasured": self.unmeasured()}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0
