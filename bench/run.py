"""lyaprec benchmark: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. See
bench/README.md for every metric and what it should move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# pin native thread pools so only lyaprec's own simulate threads run in parallel
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SETUP_REPEATS = 3
TAIL_ABOVE = 10


def _fail(message):
    print("bench: " + message, file=sys.stderr)
    sys.exit(2)


def _import_lyaprec():
    if not (SRC / "lyaprec" / "__init__.py").is_file():
        _fail("no lyaprec sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import lyaprec

    if Path(lyaprec.__file__).resolve().parent != SRC / "lyaprec":
        _fail("imported lyaprec from %s, not from %s" % (lyaprec.__file__, SRC))
    return lyaprec


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup():
    """Median wall time of a fresh interpreter running ``import lyaprec``."""
    cmd = [sys.executable, "-c", "import lyaprec"]
    env = _child_env()
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i:  # the first spawn only warms the byte-code and file caches
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(lyaprec):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lyaprec": lyaprec.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": "1 client thread; simulate workload also runs "
                   "estimate_moment with threads=2",
        "blas_threads": int(BLAS_THREADS),
    }


_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


class Record:
    __slots__ = ("kind", "latency", "error", "miss", "wrong")

    def __init__(self, kind, latency, error):
        self.kind = kind
        self.latency = latency
        self.error = error
        self.miss = None
        self.wrong = False

    @property
    def failed(self):
        return self.error is not None or self.miss is not None

    def reason(self):
        """Failure text with its numbers masked, for grouping."""
        text = self.error if self.error is not None else "check: " + self.miss
        return _NUMBER.sub("#", text)[:72]


def run_pass(ops, stats, tracer=None, op_base=0):
    """Run each op timed, then check every op that returned."""
    from workloads import CheckMiss, WrongValue

    results, records = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_base + i
            tracer.active = True
        error = result = None
        t0 = time.perf_counter()
        try:
            result = op.fn()
            latency = time.perf_counter() - t0
        except Exception as exc:  # any raise is a failed operation
            latency = time.perf_counter() - t0
            # keep text only: a traceback would keep the failed call's arrays alive
            error = "%s: %s" % (type(exc).__name__, exc)
        if tracer is not None:
            tracer.active = False
        results.append(result)
        records.append(Record(op.kind, latency, error))
    for op, rec, result in zip(ops, records, results):
        if rec.error is not None:
            continue
        try:
            op.check(result, results, stats)
        except CheckMiss as miss:
            rec.miss = str(miss)
            rec.wrong = isinstance(miss, WrongValue)
        except Exception as exc:
            rec.miss = "check raised %s: %s" % (type(exc).__name__, exc)
    return records


def _print_metric(workload, name, value, unit, note=""):
    print("%-9s %-42s %14.6g %-14s %s" % (workload, name, value, unit, note))


def _failure_lines(records):
    reasons = Counter(r.reason() for r in records if r.failed)
    return ["  %5d x %s" % (n, why) for why, n in reasons.most_common()]


def _kind_lines(records):
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r.latency)
    return ["  %-34s %5d ops, median %10.3f ms, max %10.3f ms"
            % (kind, len(lat), 1e3 * statistics.median(lat), 1e3 * max(lat))
            for kind, lat in sorted(by_kind.items())]


def plain_run(args):
    import numpy as np

    from workloads import (REFERENCE_SECONDS, RUN_PASSES, WARMUP_PASSES,
                           Stats, pass_maker)

    setup_s = measure_setup()
    make_pass = pass_maker(args.workload, np.random.default_rng(args.seed),
                           OUT_DIR / "cli")
    # warm-up passes take the first inputs of the stream and are not reported
    warmup = WARMUP_PASSES[args.workload]
    for index in range(warmup):
        run_pass(make_pass(index), Stats())
    stats = Stats()
    passes = max(1, round(RUN_PASSES[args.workload] * args.seconds
                          / REFERENCE_SECONDS))
    by_pass = [run_pass(make_pass(index), stats)
               for index in range(warmup, warmup + passes)]
    records = [r for batch in by_pass for r in batch]
    measured = sum(r.latency for r in records)
    ok = sorted(r.latency for r in records if not r.failed)
    attempted = len(records)
    failed = attempted - len(ok)
    if not ok:
        _fail("no operation succeeded")
    # The median of each pass, averaged over the passes. Every pass has the
    # same mix, so each pass median estimates the same latency; averaged over
    # time, it follows the host's speed smoothly, where the median of the
    # whole run jumps between the host's fast and slow phases.
    pass_p50 = [statistics.median(lat) for lat in
                ([r.latency for r in batch if not r.failed] for batch in by_pass)
                if lat]
    run_p50 = statistics.median(ok)
    tail_index = max(len(ok) - 1 - TAIL_ABOVE, 0)
    tail_pct = 100.0 * (tail_index + 1) / len(ok)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ok) / measured, "1/s"),
        "op_p50_ms": (1e3 * statistics.fmean(pass_p50), "ms"),
        "success_frac": (len(ok) / attempted, "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    w = args.workload
    _print_metric(w, "setup_s", setup_s, "s",
                  "median of %d fresh 'import lyaprec'" % SETUP_REPEATS)
    _print_metric(w, "ops_per_s", *metrics["ops_per_s"],
                  "%d succeeded in %.3f s measured" % (len(ok), measured))
    _print_metric(w, "op_p50_ms", *metrics["op_p50_ms"],
                  "mean of %d pass medians; whole-run median %.4g ms"
                  % (len(pass_p50), 1e3 * run_p50))
    # printed, but not on the result line: see "End-to-end metrics" in README.md
    _print_metric(w, "op_tail_ms", 1e3 * ok[tail_index], "ms",
                  "p%.2f of %d ops, %d above" % (
                      tail_pct, len(ok), len(ok) - 1 - tail_index))
    _print_metric(w, "fail_frac", failed / attempted, "frac",
                  "%d of %d attempted" % (failed, attempted))
    _print_metric(w, "success_frac", *metrics["success_frac"])
    _print_metric(w, "peak_rss_mb", peak_rss_mb, "MB")
    for line in _kind_lines(records):
        print(line)
    for line in _failure_lines(records):
        print(line)
    extra = {"op_tail_ms": 1e3 * ok[tail_index], "tail_percentile": tail_pct,
             "tail_samples": len(ok),
             "fail_frac": failed / attempted, "passes": passes,
             "run_p50_ms": 1e3 * run_p50,
             "failures": dict(Counter(r.reason() for r in records if r.failed))}
    return records, metrics, extra


def traced_run(args):
    """Fixed op list: traced pass A, untraced pass U, traced pass B."""
    import numpy as np

    from spans import Tracer
    from workloads import TRACE_PASSES, Stats, pass_maker

    make_pass = pass_maker(args.workload, np.random.default_rng(args.seed),
                           OUT_DIR / "cli")
    passes = [make_pass(i) for i in range(TRACE_PASSES[args.workload])]
    tracer = Tracer()
    tracer.install()

    def traced():
        tracer.reset()
        stats = Stats()
        records, base = [], 0
        for ops in passes:
            records.extend(run_pass(ops, stats, tracer, base))
            base += len(ops)
        return records, stats, Counter(tracer.counts), dict(tracer.seconds)

    rec_a, stats, counts_a, seconds_a = traced()
    tracer.write_spans(OUT_DIR / ("%s-seed%d.spans.csv.gz"
                                  % (args.workload, args.seed)))
    tracer.uninstall()
    rec_u = []
    for ops in passes:
        rec_u.extend(run_pass(ops, Stats()))
    tracer.install()
    rec_b, _, counts_b, seconds_b = traced()
    tracer.uninstall()

    if counts_a != counts_b:
        diff = sorted(k for k in set(counts_a) | set(counts_b)
                      if counts_a[k] != counts_b[k])
        _fail("exact counters differ between two traced passes: %s" % diff[:8])

    wall = [sum(r.latency for r in recs) for recs in (rec_a, rec_u, rec_b)]
    seconds = {k: 0.5 * (seconds_a.get(k, 0.0) + seconds_b.get(k, 0.0))
               for k in set(seconds_a) | set(seconds_b)}
    metrics = layer_metrics(counts_a, seconds, stats)
    metrics["check.misses"] = (sum(r.miss is not None for r in rec_a), "count")
    metrics["trace.overhead_frac"] = (0.5 * (wall[0] + wall[2]) / wall[1] - 1.0,
                                      "frac")
    for name, (value, unit) in metrics.items():
        _print_metric(args.workload, name, value, unit)
    print("  traced wall %.3f s and %.3f s, untraced wall %.3f s, %d ops"
          % (wall[0], wall[2], wall[1], len(rec_a)))
    for line in _failure_lines(rec_a):
        print(line)
    extra = {"walls_s": wall, "exact_counters": dict(counts_a)}
    return rec_a, metrics, extra


FAIL_METRICS = (
    "numerics.fail.NumericsError",
    "variational.fail.ValueError",
    "meanfield.fail.DomainError",
)


def layer_metrics(counts, seconds, stats):
    """Per-layer metrics from one traced pass; 0 where a layer did no work."""
    from spans import LAYERS

    def per(num, den):
        return num / den if den else 0.0

    def count(key):
        return (counts.get(key, 0), "count")

    def self_s(name):
        return (seconds.get(name + ".self_s", 0.0), "s")

    def span_s(name):
        return seconds.get(name + ".span_s", 0.0)

    m = {}
    for key in ("numerics.integrate_adaptive.calls",
                "numerics.integrate_adaptive.evals"):
        m[key] = count(key)
    m["numerics.integrate_adaptive.self_s"] = self_s("numerics.integrate_adaptive")
    for key in ("numerics.find_all_roots.scan_points",
                "numerics.find_all_roots.refine_evals"):
        m[key] = count(key)
    m["numerics.find_all_roots.self_s"] = self_s("numerics.find_all_roots")
    m["numerics.polylog.calls"] = count("numerics.polylog.calls")
    for name in ("lyapunov", "solve_h1", "big_F", "big_F_scan", "lambda_of_h1"):
        key = "variational." + name
        work = ".points" if name == "big_F_scan" else ".calls"
        m[key + work] = count(key + work)
        m[key + ".self_s"] = self_s(key)
    m["variational.branches_per_solve"] = (per(
        counts.get("variational.solve_h1.branches", 0),
        counts.get("variational.solve_h1.calls", 0)), "branches/solve")
    m["variational.route_gap_max"] = (stats.route_gap_max, "1")
    m["meanfield.mf_lambda.calls"] = count("meanfield.mf_lambda.calls")
    m["meanfield.mf_lambda.self_s"] = self_s("meanfield.mf_lambda")

    points = counts.get("phase.trace_phase_curve.trace_points", 0)
    m["phase.trace_point.s"] = (per(span_s("phase.trace_point"), points), "s")
    for what in ("solves", "evals", "scan_points"):
        m["phase.trace_point." + what] = (
            per(counts.get("phase.trace_point." + what, 0), points), "count/point")
    located = counts.get("phase.locate_critical_point.exact.calls", 0)
    m["phase.locate_critical_point.s"] = (per(
        span_s("phase.locate_critical_point.exact"), located), "s")
    m["phase.locate_critical_point.scan_points"] = (per(
        counts.get("phase.locate_critical_point.exact.scan_points", 0), located),
        "count/call")
    m["phase.slope_dev_max"] = (stats.slope_dev_max, "1")

    def rate(work, span):
        return per(counts.get(work, 0), span_s(span))

    m["simulate.mc.path_steps_per_s"] = (
        rate("simulate.mc.t1.path_steps", "simulate.mc.t1"), "1/s")
    m["simulate.mc_noisy.path_steps_per_s"] = (
        rate("simulate.mc_noisy.t1.path_steps", "simulate.mc_noisy.t1"), "1/s")
    m["simulate.exact.configs_per_s"] = (
        rate("simulate.exact.configs", "simulate.exact"), "1/s")
    m["simulate.thread_speedup"] = (per(
        rate("simulate.mc.t2.path_steps", "simulate.mc.t2"),
        rate("simulate.mc.t1.path_steps", "simulate.mc.t1")), "x")

    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.output_bytes"] = (stats.output_bytes, "B")

    for key in FAIL_METRICS:
        m[key] = count(key)
    for layer in LAYERS:
        m[layer + ".fail.other"] = (sum(
            v for k, v in counts.items()
            if k.startswith(layer + ".fail.") and k not in FAIL_METRICS), "count")
    return m


def run_all(args):
    """Every workload in its own process, one after the other."""
    from workloads import WORKLOADS

    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            _fail("workload %s exited with %d" % (name, proc.returncode))
        summary[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": summary}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "phase", "simulate", "cli", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lyaprec = _import_lyaprec()
    sys.path.insert(0, str(BENCH_DIR))
    if args.workload == "all":
        run_all(args)
        return
    OUT_DIR.mkdir(exist_ok=True)
    env = environment(lyaprec)
    print("# lyaprec benchmark: workload=%s seed=%d seconds=%g trace=%d; "
          "closed loop, 1 client, 1 process"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# " + ", ".join("%s=%s" % kv for kv in env.items()))
    run = traced_run if args.trace else plain_run
    records, metrics, extra = run(args)
    # failed ops (raises, incomplete or statistical misses) are counted;
    # a wrong number from a deterministic check makes the run incorrect
    wrong = sum(r.wrong for r in records)
    if wrong:
        print("bench: %d operations returned wrong values" % wrong)
    result = {
        "correct": wrong == 0 and any(not r.failed for r in records),
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / ("%s-seed%d-trace%d.json"
                         % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "args": vars(args), "result": result,
                   "extra": extra}, fh, indent=1, default=str)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
