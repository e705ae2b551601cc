"""Span and count wrappers installed on contactstat from outside the
package, for the benchmark's traced run.

Each wrapper replaces a name where the program looks it up: a function is
replaced in every contactstat module that binds it (so
`submanifold.jet_from_exprs` is wrapped as well as `jets.jet_from_exprs`),
and a method is replaced on its class.  Names the program no longer has are
skipped, so their metrics read 0.

Three kinds of wrapper:
  span     records (name, start, end, parent span, invocation) in memory
           and accumulates calls, inclusive time `.s` and self time
           `.self_s` (the span minus its timed children)
  leaf     accumulates calls and time only; used for the hot calls
           (scalar Expr.eval runs about a million times per round), which
           have no timed children
  counter  counts calls only
"""

import json
import sys
import time
from collections import defaultdict

# name the CLI looks a check up by -> check name in the report
CLI_CHECKS = {
    "check_statistical": "statistical",
    "check_almost_contact": "almost-contact",
    "check_contact_metric": "contact-metric",
    "check_sasakian": "sasakian",
    "check_sasakian_statistical": "sasakian-statistical",
    "check_gauss_weingarten": "gauss-weingarten",
    "check_structure_identities": "structure-identities",
    "check_transport_identities": "transport-identities",
    "check_contact_cr": "contact-cr",
    "check_integrability_D": "integrability-d",
    "check_integrability_Dperp": "integrability-dperp",
    "check_dual_shape_identities": "dual-shape-identities",
    "classify_geodesic": "geodesic-classifiers",
    "check_mixed_geodesic_consequences": "mixed-geodesic-consequences",
    "check_cr_product": "cr-product",
}

# every total the tracer reports, before normalisation per round
TOTALS = (
    "cli.main.calls", "cli.main.s", "cli.main.self_s",
    "specfile.load_spec.calls", "specfile.load_spec.s",
    "sampling.sample_box.s", "sampling.resampled",
    "exprlang.eval.calls", "exprlang.eval.s",
    "exprlang.eval_many.calls", "exprlang.eval_many.points",
    "exprlang.eval_many.s",
    "exprlang.diff.calls", "exprlang.substitute.calls",
    "geometry.gamma_at.calls", "geometry.gamma_at.points",
    "geometry.gamma_at.s", "geometry.inverse_at.calls",
    "jets.jet_from_exprs.calls", "jets.jet_from_exprs.s",
    "submanifold.context.calls", "submanifold.context.built",
    "submanifold.context.self_s",
    "crchecks.context.calls", "crchecks.context.built",
    "crchecks.context.self_s", "crchecks.classify_geodesic.calls",
    "report.tracker_add.calls", "report.tracker_add_batch.calls",
) + tuple(f"check.{c}.{k}" for c in CLI_CHECKS.values() for k in ("s", "self_s"))


def _batch_size(points):
    shape = getattr(points, "shape", None)
    if shape is None:
        return len(points)
    return 1 if len(shape) < 2 else shape[0]


def _contexts_built(args):
    return len(getattr(args[0], "_contexts", ()))


class Tracer:
    def __init__(self):
        self.stats = defaultdict(float)
        self.spans = []
        self.invocation = -1
        self._stack = []          # open spans: [child time, span index]
        self._active = defaultdict(int)

    # -- wrapper factories

    def span(self, name, fn, outer_only=False, points=None, built=None,
             after=None):
        """`outer_only` passes nested calls of the same name straight
        through, so recursion through the program's own closures is neither
        double-counted nor split into self time; `points` and `built` map
        the call's arguments to a batch size and a cache size."""
        stats, stack, spans, active = (self.stats, self._stack, self.spans,
                                       self._active)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if outer_only and active[name]:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            frame = [0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            active[name] += 1
            before = built(args) if built else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                stats[name + ".calls"] += 1
                stats[name + ".s"] += dur
                stats[name + ".self_s"] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                spans[frame[1]] = (name, t0, t1, parent, self.invocation)
            if points:
                stats[name + ".points"] += points(args[-1])
            if built:
                stats[name + ".built"] += built(args) - before
            if after:
                after(result)
            return result

        return wrapper

    def leaf(self, name, fn, points=None):
        stats, stack = self.stats, self._stack
        clock = time.perf_counter
        calls, secs, pts = name + ".calls", name + ".s", name + ".points"

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[calls] += 1
                stats[secs] += dt
                if stack:
                    stack[-1][0] += dt
                if points:
                    stats[pts] += points(args[-1])

        return wrapper

    def counter(self, name, fn):
        stats = self.stats
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            stats[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation

    def install(self):
        import contactstat.cli as cli
        from contactstat import (crchecks, exprlang, geometry, report,
                                 submanifold)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name.split(".")[0] == "contactstat"]

        def patch_function(module, attr, make):
            fn = getattr(module, attr, None)
            if fn is None:
                return
            wrapped = make(fn)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is fn]:
                    setattr(m, key, wrapped)

        def patch_method(cls, attr, make):
            fn = vars(cls).get(attr) if cls is not None else None
            if fn is not None:
                setattr(cls, attr, make(fn))

        def add_resampled(samples):
            self.stats["sampling.resampled"] += getattr(samples, "resampled", 0)

        patch_function(cli, "main", lambda f: self.span("cli.main", f))
        patch_function(cli, "load_spec",
                       lambda f: self.span("specfile.load_spec", f))
        patch_function(cli, "sample_box",
                       lambda f: self.span("sampling.sample_box", f,
                                           after=add_resampled))
        patch_function(submanifold, "jet_from_exprs",
                       lambda f: self.span("jets.jet_from_exprs", f))
        patch_function(crchecks, "classify_geodesic",
                       lambda f: self.counter("crchecks.classify_geodesic", f))
        # the CLI's own bindings of the checks get the per-check spans; the
        # classifier's re-run inside mixed-geodesic-consequences is counted
        # above but timed as part of that check
        for attr, check in CLI_CHECKS.items():
            fn = getattr(cli, attr, None)
            if fn is not None:
                setattr(cli, attr, self.span(f"check.{check}", fn))

        expr = getattr(exprlang, "Expr", None)
        patch_method(expr, "eval", lambda f: self.leaf("exprlang.eval", f))
        patch_method(expr, "eval_many",
                     lambda f: self.leaf("exprlang.eval_many", f,
                                         points=_batch_size))
        for cls in [expr] + (expr.__subclasses__() if expr else []):
            patch_method(cls, "diff",
                         lambda f: self.counter("exprlang.diff", f))
            patch_method(cls, "substitute",
                         lambda f: self.counter("exprlang.substitute", f))
        patch_method(getattr(geometry, "ConnField", None), "gamma_at",
                     lambda f: self.span("geometry.gamma_at", f,
                                         outer_only=True, points=_batch_size))
        patch_method(getattr(geometry, "MetricField", None), "inverse_at",
                     lambda f: self.counter("geometry.inverse_at", f))
        patch_method(getattr(submanifold, "MapGeometry", None), "context",
                     lambda f: self.span("submanifold.context", f,
                                         built=_contexts_built))
        patch_method(getattr(crchecks, "CRStructure", None), "context",
                     lambda f: self.span("crchecks.context", f,
                                         built=_contexts_built))
        tracker = getattr(report, "Tracker", None)
        patch_method(tracker, "add",
                     lambda f: self.counter("report.tracker_add", f))
        patch_method(tracker, "add_batch",
                     lambda f: self.counter("report.tracker_add_batch", f))

    # -- output

    def totals(self):
        return {name: self.stats.get(name, 0.0) for name in TOTALS}

    def write_spans(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "invocation"],
                       "spans": [s for s in self.spans if s is not None]}, f)
