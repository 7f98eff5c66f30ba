"""Span recording around padd's layer boundaries, installed from outside.

Nothing under `src/` knows about this module. `install` replaces the
public functions and expression-node methods of each layer with timing
wrappers, in every padd module namespace (and module-level dict, such as
the CLI's solver table) that holds them, and `restore` puts the original
objects back. A span is `[name, start, end, parent, op, work]`: `parent`
is the index of the enclosing span in the same list (-1 at the top),
`op` the benchmark operation that was running, and `work` a per-name
count (rows for `funcs.values`, subsets for `hardness.enum`, objective
evaluations for `gridopt.golden_max`, grid rows for `funcs.grid`).
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, OP, WORK = range(6)

# Layer metrics reported by the traced run, in BENCHMARK.json order.
LAYER_METRICS = (
    "raygeom.ray_payment_batch.calls",
    "raygeom.ray_payment_batch.rows",
    "raygeom.ray_payment_batch.self_s",
    "raygeom.ray_slope_sup.calls",
    "raygeom.ray_slope_sup.self_s",
    "raygeom.alpha_evals",
    "funcs.values.calls",
    "funcs.values.rows",
    "funcs.values.self_s",
    "funcs.value.calls",
    "funcs.value.self_s",
    "funcs.gradient.calls",
    "funcs.gradient.self_s",
    "gridopt.golden_max.calls",
    "gridopt.golden_max.evals",
    "gridopt.golden_max.self_s",
    "response.buyer_best_response.calls",
    "response.buyer_best_response.self_s",
    "response.seller_optimal_linear_price.calls",
    "response.seller_optimal_linear_price.self_s",
    "response.bbr_per_seller_call",
    "equilibrium.solve.calls",
    "equilibrium.solve.self_s",
    "equilibrium.solve.grid_rows",
    "equilibrium.verify_equilibrium.self_s",
    "concavepricing.equivalence_check.self_s",
    "concavepricing.best_concave_price.calls",
    "concavepricing.best_concave_price.self_s",
    "hardness.enum.calls",
    "hardness.enum.subsets",
    "hardness.enum.self_s",
    "hardness.derandomize.self_s",
    "hardness.expected_surplus.calls",
    "hardness.expected_surplus.self_s",
    "cli.main.calls",
    "cli.main.self_s",
)


def _rows(a) -> int:
    """Rows of an (n, d) batch; 1 for a single bundle."""
    return int(np.shape(a)[0]) if np.ndim(a) >= 2 else 1


def _rows_arg1(args, kwargs):
    return _rows(args[1])


def _subsets(args, kwargs):
    return 1 << args[0].node_count


# (module, attribute, span name, work counter taken from the arguments)
FUNCTION_TARGETS = (
    ("padd.gridopt", "golden_max", "gridopt.golden_max", None),
    ("padd.raygeom", "ray_payment_batch", "raygeom.ray_payment_batch", _rows_arg1),
    ("padd.raygeom", "ray_slope_sup", "raygeom.ray_slope_sup", None),
    ("padd.response", "buyer_best_response", "response.buyer_best_response", None),
    ("padd.response", "seller_optimal_linear_price", "response.seller_optimal_linear_price", None),
    ("padd.equilibrium", "solve_general", "equilibrium.solve", None),
    ("padd.equilibrium", "solve_convex", "equilibrium.solve", None),
    ("padd.equilibrium", "solve_concave", "equilibrium.solve", None),
    ("padd.equilibrium", "solve_auto", "equilibrium.solve", None),
    ("padd.equilibrium", "fixed_bundle_outcome", "equilibrium.solve", None),
    ("padd.equilibrium", "verify_equilibrium", "equilibrium.verify_equilibrium", None),
    ("padd.concavepricing", "equivalence_check", "concavepricing.equivalence_check", None),
    ("padd.concavepricing", "best_concave_price", "concavepricing.best_concave_price", None),
    ("padd.hardness", "brute_force_max", "hardness.enum", _subsets),
    ("padd.hardness", "mis_brute_force", "hardness.enum", _subsets),
    ("padd.hardness", "derandomize", "hardness.derandomize", None),
    ("padd.cli", "main", "cli.main", None),
)

# expression-node method -> span name; every FunctionExpr subclass in funcs
NODE_METHODS = {
    "value": "funcs.value",
    "values": "funcs.values",
    "gradient": "funcs.gradient",
    "gradient_batch": "funcs.gradient",
}


class Tracer:
    """Collects spans in memory; `op` names the operation now running."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn, work=None, count_evals: bool = False, work_from_result: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0]
            if work is not None:
                span[WORK] = work(args, kwargs)
            if count_evals:
                f = args[0]

                def counted(t):
                    span[WORK] += 1
                    return f(t)

                args = (counted,) + args[1:]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if work_from_result:
                span[WORK] = _rows(out)
            return out

        wrapper.__padd_bench_original__ = fn
        return wrapper


def _padd_modules():
    """padd and all of its submodules, imported."""
    padd = importlib.import_module("padd")
    for info in pkgutil.iter_modules(padd.__path__):
        importlib.import_module(f"padd.{info.name}")
    return [m for n, m in sorted(sys.modules.items()) if n == "padd" or n.startswith("padd.")]


def install(tracer: Tracer) -> list[tuple]:
    """Install the wrappers; returns the patch list `restore` undoes."""
    patches: list[tuple] = []
    modules = _padd_modules()
    funcs = sys.modules["padd.funcs"]
    hardness = sys.modules["padd.hardness"]

    def patch_class(cls, attr, wrapper):
        patches.append(("attr", cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    node_classes = [
        obj for obj in vars(funcs).values()
        if isinstance(obj, type) and issubclass(obj, funcs.FunctionExpr) and obj is not funcs.FunctionExpr
    ]
    for cls in node_classes:
        for attr, name in NODE_METHODS.items():
            if attr in cls.__dict__:
                work = _rows_arg1 if attr == "values" else None
                patch_class(cls, attr, tracer.wrap(name, cls.__dict__[attr], work=work))
    patch_class(funcs.BoxDomain, "grid", tracer.wrap("funcs.grid", funcs.BoxDomain.grid, work_from_result=True))
    rs = hardness.RoundingState
    patch_class(rs, "expected_surplus", tracer.wrap("hardness.expected_surplus", rs.expected_surplus))

    for modname, attr, name, work in FUNCTION_TARGETS:
        original = getattr(sys.modules[modname], attr)
        wrapper = tracer.wrap(name, original, work=work, count_evals=(attr == "golden_max"))
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    patches.append(("attr", mod, key, original))
                    setattr(mod, key, wrapper)
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is original:
                            patches.append(("item", val, dkey, original))
                            val[dkey] = wrapper
    return patches


def restore(patches: list[tuple]) -> None:
    """Undo `install`, last patch first."""
    for kind, holder, key, original in reversed(patches):
        if kind == "attr":
            setattr(holder, key, original)
        else:
            holder[key] = original


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Calls are sequential within one thread, so a span's children never
    overlap and their durations add up to the covered time.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [(s[END] - s[START]) - covered[i] for i, s in enumerate(spans)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Aggregate one pass's spans into the LAYER_METRICS values.

    `calls`, `rows`, `subsets` and `grid_rows` count only spans whose parent
    is not a span of the same name, so `Sum.values` calling its children's
    `values`, or `solve_auto` dispatching to `solve_convex`, is one call.
    `self_s` sums self time over every span of the name.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    self_s: dict[str, float] = {}
    alpha_evals = grid_rows = bbr_in_seller = 0
    for s, st in zip(spans, selfs):
        name = s[NAME]
        self_s[name] = self_s.get(name, 0.0) + st
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if parent != name:
            calls[name] = calls.get(name, 0) + 1
            work[name] = work.get(name, 0) + s[WORK]
        if name == "funcs.values" and parent is not None and parent.startswith("raygeom."):
            alpha_evals += s[WORK]
        if name == "funcs.grid" and parent == "equilibrium.solve":
            grid_rows += s[WORK]
        if name == "response.buyer_best_response" and parent == "response.seller_optimal_linear_price":
            bbr_in_seller += 1

    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        name, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(name, 0)
        elif field == "self_s":
            out[metric] = self_s.get(name, 0.0)
        elif field in ("rows", "subsets", "evals"):
            out[metric] = work.get(name, 0)
    out["raygeom.alpha_evals"] = alpha_evals
    out["equilibrium.solve.grid_rows"] = grid_rows
    sellers = calls.get("response.seller_optimal_linear_price", 0)
    out["response.bbr_per_seller_call"] = bbr_in_seller / sellers if sellers else 0.0
    return {m: out[m] for m in LAYER_METRICS}
