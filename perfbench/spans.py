"""Spans around the calls into blockmol's public functions.

A ``Tracer`` replaces every reference to each wrapped function: the defining
module's attribute, each ``from .x import name`` copy held by another blockmol
module, and, for methods, the attribute on the class.  Each call records one
span (name, start, end, parent span, command-run id) into flat in-memory
arrays; ``save`` writes them out once the traced round has ended, and
``layer_metrics`` folds them into calls, inclusive time and self time per
function.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array

import numpy as np

# Public functions timed per module (the layers).  "Class.method" entries are
# wrapped on their class.
TRACED = {
    "cli": ("main",),
    "chem": ("tokenize", "parse_validate", "try_parse", "descriptors",
             "fingerprint", "tanimoto"),
    "fragment": ("pad_and_partition", "reassemble"),
    "curate": ("curate_stream", "classify"),
    "diffusion": ("train", "loss_gradient", "draw_noise", "predict",
                  "nucleus_truncate", "save_checkpoint", "load_checkpoint"),
    "decode": ("Decoder.generate", "Decoder.decode_block", "Decoder.records",
               "gcd_select", "key_uniform", "first_hitting_step", "write_jsonl"),
    "oracle": ("SurrogateOracle.score_mol",),
    "metrics": ("standard_metrics", "hit_metrics", "diversity_score", "circles"),
    "search": ("run_search", "TreeSearch.select", "TreeSearch.expand",
               "TreeSearch.simulate", "backpropagate"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
# Spans are recorded only inside a command run, so the benchmark's own checks,
# which call the same functions between commands, leave no spans.
ROOT_SPAN = SPAN_NAMES.index("cli.main")

# Derived per-layer metrics: name -> (unit, better).
DERIVED = {
    "diffusion.predict.rows_per_call": ("rows/call", "higher"),
    "diffusion.predict.rows_per_call.base": ("calls", "higher"),
    "decode.valid_ratio": ("ratio", "higher"),
    "decode.valid_ratio.base": ("molecules", "higher"),
    "decode.budget_aborts": ("count", "lower"),
    "search.novel_ratio": ("ratio", "higher"),
    "search.novel_ratio.base": ("calls", "higher"),
    "search.gate_pass_ratio": ("ratio", "higher"),
    "search.gate_pass_ratio.base": ("rollouts", "higher"),
    "search.tree_nodes": ("count", "higher"),
    "search.max_depth": ("blocks", "higher"),
    "trace.untraced_s": ("s", "lower"),
    "trace.traced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.span_cost_us": ("us", "lower"),
    "trace.overhead_est_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def per_layer_spec() -> list[dict]:
    """Every per-layer metric in the order the traced run reports them."""
    spec = []
    for name in SPAN_NAMES:
        spec.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{name}.busy_s", "unit": "s", "better": "lower"})
        spec.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in DERIVED.items():
        spec.append({"name": name, "unit": unit, "better": better})
    return spec


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores every reference."""

    def __init__(self):
        self.names = array("H")
        self.parents = array("i")
        self.runs = array("I")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._run = 0
        self._patched: list[tuple[object, str, object]] = []
        # Counters read at the layer boundaries for the derived ratios.
        self.predict_rows = 0
        self.decoded: list[str] = []
        self.budget_aborts = 0
        self.expand_misses = 0
        self.rollouts_scored = 0
        self.rollouts_passed = 0
        self.outcomes: list = []

    # -- installation

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "blockmol" or name.startswith("blockmol.")]
        observers = self._observers()
        for name_id, name in enumerate(SPAN_NAMES):
            mod_name, _, attr = name.partition(".")
            module = importlib.import_module(f"blockmol.{mod_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self._wrap(original, name_id, observers.get(name)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name_id, observers.get(name))
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)

    def _patch(self, owner, key: str, value):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording

    def _wrap(self, fn, name_id: int, observe):
        """Span-recording stand-in for ``fn``; ``observe(args, result, exc)``
        reads the call for the derived ratios."""
        stack, clock = self._stack, time.perf_counter
        names, parents, runs = self.names, self.parents, self.runs
        starts, ends = self.starts, self.ends

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                if name_id != ROOT_SPAN:
                    return fn(*args, **kwargs)
                self._run += 1
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            runs.append(self._run)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observe:
                    observe(args, None, exc)
                raise
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()
            if observe:
                observe(args, result, None)
            return result

        return traced

    def _observers(self) -> dict:
        from blockmol.decode import BudgetExhausted
        from blockmol.search import NoNovelCandidate

        def predict(args, result, exc):
            if exc is None:
                windows = args[1]
                self.predict_rows += windows.shape[0] if windows.ndim == 2 else 1

        def records(args, result, exc):
            if exc is None:
                self.decoded.extend(rec.smiles for rec in result)

        def decode_block(args, result, exc):
            if isinstance(exc, BudgetExhausted):
                self.budget_aborts += 1

        def expand(args, result, exc):
            if isinstance(exc, NoNovelCandidate):
                self.expand_misses += 1

        def simulate(args, result, exc):
            if exc is None:
                penalty = args[0].cfg.gate.r_pen
                scored = [r for r in result[1] if math.isfinite(r.ds)]
                self.rollouts_scored += len(scored)
                self.rollouts_passed += sum(r.reward != penalty for r in scored)

        def run_search(args, result, exc):
            if exc is None:
                self.outcomes.append(result)

        return {
            "diffusion.predict": predict,
            "decode.Decoder.records": records,
            "decode.Decoder.decode_block": decode_block,
            "search.TreeSearch.expand": expand,
            "search.TreeSearch.simulate": simulate,
            "search.run_search": run_search,
        }

    # -- results

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.names, dtype=np.uint16),
            "parent": np.frombuffer(self.parents, dtype=np.int32),
            "run": np.frombuffer(self.runs, dtype=np.uint32),
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
        }

    def save(self, path):
        np.savez(path, names=np.array(SPAN_NAMES), **self.arrays())

    def layer_metrics(self, is_valid) -> dict:
        """Per-function calls/busy/self plus the derived ratios with their bases.

        ``is_valid`` maps a decoded SMILES to True or False; it runs after the
        traced round, so parsing for the ratio is not part of any span.
        """
        a = self.arrays()
        n = len(SPAN_NAMES)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=dur.shape[0])
        calls = np.bincount(a["name"], minlength=n)
        busy = np.bincount(a["name"], weights=dur, minlength=n)
        own = np.bincount(a["name"], weights=dur - covered, minlength=n)
        out = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.busy_s"] = float(busy[i])
            out[f"{name}.self_s"] = float(own[i])

        predict_calls = out["diffusion.predict.calls"]
        out["diffusion.predict.rows_per_call"] = _ratio(self.predict_rows, predict_calls)
        out["diffusion.predict.rows_per_call.base"] = predict_calls
        verdict = {s: is_valid(s) for s in set(self.decoded)}
        out["decode.valid_ratio"] = _ratio(sum(verdict[s] for s in self.decoded),
                                           len(self.decoded))
        out["decode.valid_ratio.base"] = len(self.decoded)
        out["decode.budget_aborts"] = self.budget_aborts
        expands = out["search.TreeSearch.expand.calls"]
        out["search.novel_ratio"] = _ratio(expands - self.expand_misses, expands)
        out["search.novel_ratio.base"] = expands
        out["search.gate_pass_ratio"] = _ratio(self.rollouts_passed,
                                               self.rollouts_scored)
        out["search.gate_pass_ratio.base"] = self.rollouts_scored
        nodes = depth = 0
        for outcome in self.outcomes:
            pending = [outcome.root]
            while pending:
                node = pending.pop()
                nodes += 1
                depth = max(depth, node.depth)
                pending.extend(node.children)
        out["search.tree_nodes"] = nodes
        out["search.max_depth"] = depth
        out["trace.spans"] = int(dur.shape[0])
        return out


def span_cost() -> float:
    """Seconds one span adds to a call.

    A no-op is timed bare and behind a span-recording wrapper, each the best
    of five loops of 20,000 calls, so a slow stretch of the machine does not
    inflate it.
    """
    calls, repeats = 20_000, 5

    def noop():
        pass

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    wrapped = Tracer()._wrap(noop, ROOT_SPAN, None)
    return max(best(wrapped) - best(noop), 0.0) / calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
