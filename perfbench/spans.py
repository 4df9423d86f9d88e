"""Span recorder that wraps the library's public functions from outside.

Each traced function is replaced, in every ``skewpencil`` module namespace
that binds it, by one wrapper that records a span: name, parent span,
operation id, start and end, plus sizes computed from its arguments or
result.  Spans stay in memory until :meth:`SpanRecorder.write`.

Self time of a span is its duration minus the intervals its child spans
cover; a child's interval includes the wrapper's own bookkeeping after the
call, so that bookkeeping is charged to neither the child nor the parent.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

PACKAGE = "skewpencil"


# -- sizes computed per call, from the bound arguments and the result ---------


def _tangent_map(a, out):
    n = a["pair"].n
    # n(n-1) x n^2 complex output plus the n^4 complex temporary
    return {"bytes_computed": 16 * (n * (n - 1) * n * n + n ** 4)}


def _verify_pairwise(a, out):
    blocks = a["structure"].blocks
    keys = [(a["backend"], a["lambda_tol"], (b,)) for b in blocks]
    keys += [(a["backend"], a["lambda_tol"], (blocks[i], blocks[j]))
             for i in range(len(blocks)) for j in range(i + 1, len(blocks))]
    return {"subproblems": len(keys), "keys": keys}


def _float_rank(a, out):
    return {"elems": int(a["M"].size)}


def _project_to_pattern(a, out):
    return {"tangent": a["tangent"]}


def _gaussian_columns_rank(a, out):
    cols = a["columns"]
    realified = any(im for col in cols for (_, im) in col.values())
    return {"nnz_in": sum(len(c) for c in cols), "realified": int(realified)}


def _sparse_int_rank(a, out):
    return {"rows_in": len(a["rows"])}


def _reduce_pair(a, out):
    return {"iterations": len(out.iterations), "converged": int(out.converged)}


def _correction_step(a, out):
    n = a["base"].n
    return {"lstsq_elems": (n * (n - 1) - a["pattern"].params) * n * n}


TRACED = {
    "core.make_structure_pair": None,
    "core.congruence": None,
    "pattern.assemble": None,
    "tangent.tangent_map": _tangent_map,
    "tangent.verify_direct_sum": None,
    "tangent.verify_pairwise": _verify_pairwise,
    "tangent.float_rank": _float_rank,
    "tangent.project_to_pattern": _project_to_pattern,
    "exact.pair_to_gaussian_ints": None,
    "exact.gaussian_columns_rank": _gaussian_columns_rank,
    "exact.sparse_int_rank": _sparse_int_rank,
    "reduction.reduce_pair": _reduce_pair,
    "reduction.correction_step": _correction_step,
    "reduction.schedule_for": None,
    "cli.main": None,
}

#: quantities reported per traced function, besides calls and self_s
QUANTITIES = {
    "tangent.tangent_map": ("bytes_computed",),
    "tangent.verify_pairwise": ("subproblems", "distinct_share"),
    "tangent.float_rank": ("elems",),
    "tangent.project_to_pattern": ("per_tangent",),
    "exact.gaussian_columns_rank": ("nnz_in", "realified_share"),
    "exact.sparse_int_rank": ("rows_in",),
    "reduction.reduce_pair": ("iterations", "converged_share"),
    "reduction.correction_step": ("lstsq_elems",),
}

UNITS = {"calls": "count", "self_s": "s", "bytes_computed": "B", "subproblems": "count",
         "distinct_share": "ratio", "elems": "count", "per_tangent": "ratio",
         "nnz_in": "count", "realified_share": "ratio", "rows_in": "count",
         "iterations": "count", "converged_share": "ratio", "lstsq_elems": "count"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for fn in TRACED:
        for q in ("calls", "self_s") + QUANTITIES.get(fn, ()):
            out.append((f"{fn}.{q}", UNITS[q]))
    return out


class SpanRecorder:
    """Records spans while :attr:`active`; wrappers pass straight through otherwise."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[list] = []  # [name, parent, op, t0, t1, t_done, sizes]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        modules = self._modules()
        for qual, measure in TRACED.items():
            mod_name, fn_name = qual.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(qual, original, measure)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, measure):
        signature = inspect.signature(fn)
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            span = [name, rec._stack[-1] if rec._stack else -1, rec.op, 0.0, 0.0, 0.0, None]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                rec._stack.pop()
                span[3], span[4], span[5] = t0, t1, t1
            if measure is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = measure(bound.arguments, out)
            span[5] = perf_counter()
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def summary(self, passes: int) -> dict[str, float]:
        """Per-pass per-layer metrics over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, parent, op, t0, t1, done, sizes in self.spans:
            if parent >= 0:
                child_time[parent] += done - t0
        agg: dict[str, dict] = {fn: {"calls": 0, "self_s": 0.0, "sizes": []} for fn in TRACED}
        for k, (name, parent, op, t0, t1, done, sizes) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            a["self_s"] += (t1 - t0) - child_time[k]
            if sizes is not None:
                a["sizes"].append(sizes)
        out: dict[str, float] = {}
        for fn, a in agg.items():
            out[f"{fn}.calls"] = a["calls"] / passes
            out[f"{fn}.self_s"] = a["self_s"] / passes
            for q in QUANTITIES.get(fn, ()):
                out[f"{fn}.{q}"] = _quantity(q, a["sizes"], passes)
        return out

    def write(self, path: str) -> None:
        """Dump every span; times are seconds from the first span's start."""
        origin = self.spans[0][3] if self.spans else 0.0
        rows = [[name, parent, op, t0 - origin, t1 - origin,
                 {k: v for k, v in (sizes or {}).items() if k not in ("keys", "tangent")}]
                for name, parent, op, t0, t1, _, sizes in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "op", "start_s", "end_s", "sizes"],
                       "spans": rows}, fh)


def _share(num: int, den: int) -> float:
    return num / den if den else 0.0


def _quantity(q: str, sizes: list[dict], passes: int) -> float:
    if q == "distinct_share":
        keys = [k for s in sizes for k in s["keys"]]
        return _share(len(set(keys)), len(keys))
    if q == "per_tangent":
        # consecutive projections against the same TangentMap object share it;
        # a call that builds its own (tangent=None) counts as a new one
        distinct, last = 0, None
        for s in sizes:
            t = s["tangent"]
            if t is None or t is not last:
                distinct += 1
            last = t
        return _share(len(sizes), distinct)
    if q == "realified_share":
        return _share(sum(s["realified"] for s in sizes), len(sizes))
    if q == "converged_share":
        return _share(sum(s["converged"] for s in sizes), len(sizes))
    return sum(s[q] for s in sizes) / passes
