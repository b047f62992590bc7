"""Spans around the calls into each klrcalc module, and the per-layer metrics.

`Tracer.install` replaces each traced public function at every module
binding the package calls it through (``tableaux.enumerate_svt``,
``lr.enumerate_svt`` and ``grothendieck.enumerate_svt`` are one
function), so the package's own calls between modules are seen.  The
package source is not touched.  A name that a later version of the
package no longer has is skipped, and its metrics read 0.

A span is a list ``[name, parent, start, end, active, child, items]``.
For a plain function ``active`` is end minus start.  A generator is
timed across every ``next()``, so ``active`` sums only the time spent
producing its items, ``child`` sums the time its callees were active,
and ``items`` counts what it yielded.  Self time is active minus child.
Two hot spots are counted without spans, because a span there would cost
more than the work: ``SetValuedFilling`` constructions and
``SkewShape.cells`` calls.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time

MODULES = ("cli", "lr", "grothendieck", "tableaux", "gtpatterns", "shapes",
           "verify", "jsonio")

# (module, function, is_generator)
TRACED = (
    ("cli", "main", False),
    ("lr", "coeff_buch", False),
    ("lr", "coeff_contra", False),
    ("lr", "coeff_oracle", False),
    ("lr", "gamma", False),
    ("lr", "gamma_inverse", False),
    ("lr", "buch_tableaux", True),
    ("lr", "contra_tableaux", True),
    ("grothendieck", "grothendieck_poly", False),
    ("grothendieck", "multiply", False),
    ("grothendieck", "expand_in_g_basis", False),
    ("tableaux", "enumerate_svt", True),
    ("tableaux", "is_lambda_dominant", False),
    ("gtpatterns", "enumerate_gt", True),
    ("gtpatterns", "marked_patterns", True),
    ("gtpatterns", "upsilon", False),
    ("gtpatterns", "omega", False),
    ("gtpatterns", "upsilon_inverse", False),
    ("gtpatterns", "omega_inverse", False),
    ("shapes", "partitions", True),
    ("shapes", "skew", False),
    ("shapes", "rotate", False),
    ("verify", "run_verify", False),
    ("verify", "check_rules", False),
    ("verify", "check_bijections", False),
    ("jsonio", "trace_obj", False),
)

# generators that call themselves through their own module binding; that
# binding stays unwrapped, so one call from outside is one span
RECURSIVE = {"shapes.partitions"}

NAME, PARENT, START, END, ACTIVE, CHILD, ITEMS = range(7)
OP = "op"
CALIBRATION = "calibration"  # the benchmark's own clock kernel, not a layer
_now = time.perf_counter


def _key_part(value):
    """An argument as a hashable key; a partition as its non-zero parts."""
    if value is None or isinstance(value, (int, str)):
        return value
    parts = tuple(int(x) for x in value)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


class Tracer:
    """Spans and counters of one traced session, kept in memory."""

    def __init__(self):
        self.spans = []
        self.current = None  # index of the innermost active span
        self.counts = {"tableaux.SetValuedFilling.constructed": 0,
                       "shapes.SkewShape.cells.calls": 0,
                       "tableaux.is_lambda_dominant.accepted": 0,
                       "grothendieck.multiply.terms_out": 0,
                       "grothendieck.expand_in_g_basis.peel_steps": 0,
                       "verify.failures": 0}
        self.g_keys = set()

    # --- spans ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name` and return its result."""
        spans = self.spans
        parent = self.current
        rec = [name, parent, 0.0, 0.0, 0.0, 0.0, 0]
        self.current = len(spans)
        spans.append(rec)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            self.current = parent
            rec[START], rec[END], rec[ACTIVE] = start, end, end - start
            if parent is not None:
                spans[parent][CHILD] += end - start

    def _drive(self, rec, idx, it):
        spans = self.spans
        try:
            while True:
                caller = self.current
                self.current = idx
                t0 = _now()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = _now() - t0
                    self.current = caller
                    rec[ACTIVE] += dt
                    if caller is not None:
                        spans[caller][CHILD] += dt
                rec[ITEMS] += 1
                yield item
        finally:
            rec[END] = _now()
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def _wrap(self, name, fn, generator, post):
        tracer = self
        if generator:
            def traced(*args, **kwargs):
                created = _now()  # the end, too, until the generator closes
                rec = [name, tracer.current, created, created, 0.0, 0.0, 0]
                idx = len(tracer.spans)
                tracer.spans.append(rec)
                return tracer._drive(rec, idx, iter(fn(*args, **kwargs)))
        else:
            def traced(*args, **kwargs):
                result = tracer.call(name, fn, *args, **kwargs)
                if post is not None:
                    post(args, kwargs, result)
                return result
        return traced

    # --- installation --------------------------------------------------

    def install(self, klr) -> None:
        """Wrap every traced function at each binding inside the package."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "klrcalc" or key.startswith("klrcalc."))]
        posts = {
            "grothendieck.grothendieck_poly": self._post_grothendieck_poly,
            "grothendieck.multiply": self._post_multiply,
            "grothendieck.expand_in_g_basis": self._post_expand,
            "tableaux.is_lambda_dominant": self._post_dominant,
            "verify.check_rules": self._post_check,
            "verify.check_bijections": self._post_check,
        }
        for mod_name, fn_name, generator in TRACED:
            home = getattr(klr, mod_name, None)
            fn = getattr(home, fn_name, None)
            if fn is None:
                continue
            name = f"{mod_name}.{fn_name}"
            if name == "grothendieck.grothendieck_poly":
                self._g_signature = inspect.signature(fn)
            wrapped = self._wrap(name, fn, generator, posts.get(name))
            for module in modules:
                if name in RECURSIVE and module is home:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapped)
        self._count_constructions(klr)

    def _count_constructions(self, klr) -> None:
        counts = self.counts
        filling = getattr(klr.tableaux, "SetValuedFilling", None)
        if filling is not None:
            original_new = filling.__dict__.get("__new__")

            def counted_new(cls, *args, **kwargs):
                counts["tableaux.SetValuedFilling.constructed"] += 1
                if original_new is None:
                    return object.__new__(cls)
                return original_new(cls, *args, **kwargs)
            filling.__new__ = staticmethod(counted_new)
        shape = getattr(klr.shapes, "SkewShape", None)
        if shape is not None:
            for cls in [shape] + shape.__subclasses__():
                cells = cls.__dict__.get("cells")
                if cells is None:
                    continue

                def counted_cells(self, _cells=cells):
                    counts["shapes.SkewShape.cells.calls"] += 1
                    return _cells(self)
                cls.cells = counted_cells

    def _post_grothendieck_poly(self, args, kwargs, result):
        bound = self._g_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        self.g_keys.add(tuple(_key_part(v) for v in bound.arguments.values()))

    def _post_multiply(self, args, kwargs, result):
        self.counts["grothendieck.multiply.terms_out"] += len(getattr(result, "terms", ()))

    def _post_expand(self, args, kwargs, result):
        self.counts["grothendieck.expand_in_g_basis.peel_steps"] += len(
            getattr(result, "coeffs", ()))

    def _post_dominant(self, args, kwargs, result):
        if result:
            self.counts["tableaux.is_lambda_dominant.accepted"] += 1

    def _post_check(self, args, kwargs, result):
        if result:
            self.counts["verify.failures"] += 1

    # --- metrics -------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far, as {name: value}."""
        spans = self.spans
        calls, items, self_s, total_s = {}, {}, {}, {}
        under = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        op_time = 0.0
        ops = 0
        instances = []
        for rec in spans:
            name = rec[NAME]
            own = rec[ACTIVE] - rec[CHILD]
            if name == OP:
                ops += 1
                op_time += rec[ACTIVE]
                continue
            if name == CALIBRATION:
                if rec[PARENT] is not None:  # inside an op: not the op's time
                    op_time -= rec[ACTIVE]
                continue
            calls[name] = calls.get(name, 0) + 1
            items[name] = items.get(name, 0) + rec[ITEMS]
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + rec[ACTIVE]
            module = name.split(".", 1)[0]
            module_self[module] = module_self.get(module, 0.0) + own
            if name in ("verify.check_rules", "verify.check_bijections"):
                instances.append(rec[ACTIVE])
            if name == "tableaux.enumerate_svt":
                parent = rec[PARENT]
                owner = "none" if parent is None else spans[parent][NAME].split(".", 1)[0]
                agg = under.setdefault(owner, [0, 0, 0.0])
                agg[0] += 1
                agg[1] += rec[ITEMS]
                agg[2] += own

        out = {}
        for mod_name, fn_name, generator in TRACED:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.calls"] = calls.get(name, 0)
            if generator:
                out[f"{name}.yielded"] = items.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["lr.coeff_oracle.total_s"] = total_s.get("lr.coeff_oracle", 0.0)
        for owner in ("grothendieck", "lr", "verify"):
            agg = under.get(owner, [0, 0, 0.0])
            out[f"tableaux.enumerate_svt.under_{owner}.calls"] = agg[0]
            out[f"tableaux.enumerate_svt.under_{owner}.yielded"] = agg[1]
            out[f"tableaux.enumerate_svt.under_{owner}.self_s"] = agg[2]
        out.update(self.counts)
        dominance = out["tableaux.is_lambda_dominant.calls"]
        out["tableaux.is_lambda_dominant.accept_ratio"] = (
            out["tableaux.is_lambda_dominant.accepted"] / dominance if dominance else 0.0)
        out["grothendieck.grothendieck_poly.distinct_keys"] = len(self.g_keys)
        if len(instances) >= 2:
            cuts = statistics.quantiles(instances, n=10)
            out["verify.instance_p50_ms"] = statistics.median(instances) * 1e3
            out["verify.instance_p90_ms"] = cuts[8] * 1e3
        else:
            out["verify.instance_p50_ms"] = out["verify.instance_p90_ms"] = 0.0
        for module in MODULES:
            out[f"module.{module}.self_s"] = module_self[module]
            out[f"module.{module}.share"] = module_self[module] / op_time if op_time else 0.0
        out["trace.ops"] = ops
        out["trace.ops_total_s"] = op_time
        return out

    def span_dump(self) -> dict:
        """Spans as JSON-able columns; times in seconds from the first span."""
        base = self.spans[0][START] if self.spans else 0.0
        return {"fields": ["name", "parent", "start", "end", "active", "self", "yielded"],
                "spans": [[rec[NAME], rec[PARENT], rec[START] - base, rec[END] - base,
                           rec[ACTIVE], rec[ACTIVE] - rec[CHILD], rec[ITEMS]]
                          for rec in self.spans]}
