"""Tracing of lyaprec from outside the package, for the benchmark.

Every public function of the traced lyaprec modules is replaced, in every
lyaprec module namespace that binds it, by a wrapper that records a span
(name, start, end, parent, operation id) and a few exact work counters.
Nothing in the package itself is edited: ``install`` swaps the bindings
and ``uninstall`` puts the originals back.

Self time of a span is its duration minus the durations of its direct
child spans. ``counts`` holds integers keyed by metric name; they depend
only on the inputs, so two traced runs of one op list must give identical
counts. ``seconds`` holds float time sums, keyed by span name plus
``.self_s``, or by a workload-level name plus ``.span_s``.
"""
from __future__ import annotations

import gzip
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("numerics", "variational", "meanfield", "phase", "simulate", "cli")


class Tracer:
    """Span recorder. Recording happens only while ``active`` is set, so
    input generation and correctness checks leave no spans behind."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans = []
        self.counts = Counter()
        self.seconds = defaultdict(float)
        self._local = threading.local()
        self._originals = []

    def reset(self):
        # cleared in place: the counting hooks hold references to these
        self.spans = []
        self.counts.clear()
        self.seconds.clear()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, before=None, after=None):
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        span_id = len(self.spans)
        self.spans.append(None)
        frame = [span_id, 0.0]
        stack.append(frame)
        state = before(args, kwargs) if before else None
        err = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            err = exc
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            self.seconds[name + ".self_s"] += dur - frame[1]
            err_name = None
            if err is not None:
                err_name = type(err).__name__
                # attribute a failure to the innermost span it escaped from
                if not getattr(err, "_bench_counted", False):
                    self.counts["%s.fail.%s" % (name.split(".")[0], err_name)] += 1
                    try:
                        err._bench_counted = True
                    except AttributeError:
                        pass
            self.spans[span_id] = (span_id, parent, self.op_id, name, t0, t1,
                                   err_name)
            self.counts[name + ".calls"] += 1
        if after:
            after(state, args, kwargs, result, t1 - t0)
        return result

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_s,end_s,error\n")
            for sid, parent, op, name, t0, t1, err in self.spans:
                fh.write("%d,%d,%d,%s,%.9f,%.9f,%s\n"
                         % (sid, parent, op, name, t0, t1, err or ""))

    # ---- installation -------------------------------------------------

    def install(self):
        """Wrap every public lyaprec function in every lyaprec namespace."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "lyaprec" or name.startswith("lyaprec.")}
        hooks = _hooks(self)
        for layer in LAYERS:
            mod = modules["lyaprec." + layer]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                name = "%s.%s" % (layer, attr)
                wrapper = _make_wrapper(self, name, fn, hooks.get(name))
                for target in modules.values():
                    for key, value in list(vars(target).items()):
                        if value is fn:
                            setattr(target, key, wrapper)
                            self._originals.append((target, key, fn))

    def uninstall(self):
        for target, key, fn in reversed(self._originals):
            setattr(target, key, fn)
        self._originals = []


def _make_wrapper(tracer, name, fn, hook):
    before, after, wrap_args = hook or (None, None, None)

    def wrapper(*args, **kwargs):
        if wrap_args is not None and tracer.active:
            args, kwargs = wrap_args(args, kwargs)
        return tracer.call(name, fn, args, kwargs, before, after)

    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _replace_first(args, kwargs, key, value):
    if args:
        return (value,) + tuple(args[1:]), kwargs
    kwargs = dict(kwargs)
    kwargs[key] = value
    return args, kwargs


def _hooks(tracer):
    """Per-function counters: (before, after, argument rewriter)."""
    counts = tracer.counts
    seconds = tracer.seconds

    def counting_integrand(args, kwargs):
        f = args[0] if args else kwargs["f"]

        def counted(x):
            counts["numerics.integrate_adaptive.evals"] += int(np.size(x))
            return f(x)

        return _replace_first(args, kwargs, "f", counted)

    def counting_root_function(args, kwargs):
        f = args[0] if args else kwargs["f"]

        def counted(x):
            if np.ndim(x):
                counts["numerics.find_all_roots.scan_points"] += int(np.size(x))
            else:
                counts["numerics.find_all_roots.refine_evals"] += 1
            return f(x)

        return _replace_first(args, kwargs, "f", counted)

    def count_points(key, arg_index, arg_name):
        def after(_state, args, kwargs, _result, _dur):
            x = args[arg_index] if len(args) > arg_index else kwargs[arg_name]
            counts[key] += int(np.size(x))
        return after

    def after_solve(_state, _args, _kwargs, result, _dur):
        counts["variational.solve_h1.branches"] += len(result.roots)

    def snapshot(_args, _kwargs):
        return dict(counts)

    def delta(before_counts, key):
        return counts.get(key, 0) - before_counts.get(key, 0)

    def after_trace(before_counts, args, kwargs, _result, dur):
        rhos = args[0] if args else kwargs["rho_values"]
        counts["phase.trace_phase_curve.trace_points"] += len(rhos)
        counts["phase.trace_point.solves"] += delta(
            before_counts, "variational.solve_h1.calls")
        counts["phase.trace_point.evals"] += delta(
            before_counts, "numerics.integrate_adaptive.evals")
        counts["phase.trace_point.scan_points"] += delta(
            before_counts, "variational.big_F_scan.points")
        seconds["phase.trace_point.span_s"] += dur

    def after_locate(before_counts, args, kwargs, _result, dur):
        model = "exact" if kwargs.get("beta_level", args[0] if args else None) \
            is None else "meanfield"
        counts["phase.locate_critical_point.%s.calls" % model] += 1
        counts["phase.locate_critical_point.%s.scan_points" % model] += (
            delta(before_counts, "variational.big_F_scan.points")
            + delta(before_counts, "meanfield.mf_beta_level.points"))
        seconds["phase.locate_critical_point.%s.span_s" % model] += dur

    def after_estimate(_state, args, kwargs, _result, dur):
        spec = args[0] if args else kwargs["spec"]
        threads = args[1] if len(args) > 1 else kwargs.get("threads", 1)
        kind = "mc" if spec.noise.kind == "none" else "mc_noisy"
        counts["simulate.%s.t%d.path_steps" % (kind, threads)] += spec.paths * spec.n
        seconds["simulate.%s.t%d.span_s" % (kind, threads)] += dur

    def after_exact(_state, args, kwargs, result, dur):
        counts["simulate.exact.configs"] += int(result.paths_used)
        seconds["simulate.exact.span_s"] += dur

    return {
        "numerics.integrate_adaptive": (None, None, counting_integrand),
        "numerics.find_all_roots": (None, None, counting_root_function),
        "variational.big_F_scan": (
            None, count_points("variational.big_F_scan.points", 0, "a_values"),
            None),
        "meanfield.mf_beta_level": (
            None, count_points("meanfield.mf_beta_level.points", 0, "a"), None),
        "variational.solve_h1": (None, after_solve, None),
        "phase.trace_phase_curve": (snapshot, after_trace, None),
        "phase.locate_critical_point": (snapshot, after_locate, None),
        "simulate.estimate_moment": (None, after_estimate, None),
        "simulate.exact_moment": (None, after_exact, None),
    }
