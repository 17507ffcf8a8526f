"""One benchmark run inside a fresh interpreter.

run.py starts this script with BLAS/OpenMP threads pinned to 1 and the
repository's ``src`` alone on PYTHONPATH.  It imports the library, builds
the workload's inputs and prints ``ready``; run.py times set-up up to that
line.  With --setup-only it stops there.  Otherwise it runs whole rounds
of the workload for about --seconds, each from cold ``lru_cache``s, checks
the outputs of the first round against the oracles and every later round
against the first, and prints one line ``RESULT <json>``.

With --trace 1 the rounds alternate between untraced and traced; the
traced ones give the per-layer metrics and the difference of the two
medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    import ehrenfestcat
    import ehrenfestcat.cli  # noqa: F401  (the figures workload drives the CLI)

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(ehrenfestcat.__file__).startswith(src):
        print(f"worker: imported ehrenfestcat from {ehrenfestcat.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    import workloads

    workdir = os.path.join(HERE, "out", "tmp", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, args.smoke, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = measure(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


# ----------------------------------------------------------------------


def _library_caches():
    from ehrenfestcat import cli, ehrenfest, mc, oujump, specfun, validate
    return [obj for mod in (specfun, ehrenfest, oujump, mc, cli, validate)
            for obj in vars(mod).values()
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")]


def _run_round(wl, caches, tracer):
    """Run every op once; returns (seconds, [(output, exception, seconds)])."""
    for cache in caches:
        cache.cache_clear()
    wl.before_round()
    outs = []
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            for op in wl.ops:
                t0 = time.perf_counter()
                try:
                    out = op.run() if tracer is None else tracer.call("op." + op.name, op.run)
                    exc = None
                except Exception as e:  # an op that raises is a failed op, not a dead run
                    out, exc = None, e
                outs.append((out, exc, time.perf_counter() - t0))
            elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return elapsed, outs


def _judge(op, value):
    """(what is wrong or None, whether it is the op's named fault)."""
    if isinstance(value, Exception):
        return f"raised {type(value).__name__}: {value}", isinstance(value, op.fault_raises)
    try:
        problem = op.check(value)
    except Exception as e:  # a check that cannot read the output fails the op
        return f"check raised {type(e).__name__}: {e}", False
    return problem, bool(problem) and op.fault_wrong


def measure(wl, args):
    import workloads

    tracer = None
    if args.trace:
        import trace_targets
        from tracer import Tracer
        tracer = Tracer()
        trace_targets.register(tracer)
    caches = _library_caches()
    kinds = (False, True) if args.trace else (False,)
    rounds = []          # (traced, seconds, op seconds)
    last = {}
    first_values = None
    first_digests = None
    mismatch = [0] * len(wl.ops)   # rounds in which an op's output differed from round 1
    per_round = []       # per traced round: values read from the library's caches
    begin = time.perf_counter()
    while True:
        traced = kinds[len(rounds) % len(kinds)]
        elapsed, outs = _run_round(wl, caches, tracer if traced else None)
        if traced:
            from ehrenfestcat import ehrenfest
            info = ehrenfest._outer_index_sum.cache_info()
            per_round.append({"outer_index_hits": info.hits, "outer_index_misses": info.misses})
        values = [(exc if exc is not None else wl.read(out)) for out, exc, _ in outs]
        digests = [workloads.digest(v) for v in values]
        if first_values is None:
            first_values, first_digests = values, digests
        else:
            for i, dg in enumerate(digests):
                mismatch[i] += dg != first_digests[i]
        rounds.append((traced, elapsed, [s for _, _, s in outs]))
        last[traced] = elapsed
        if len(last) < len(kinds):
            continue
        if args.smoke or time.perf_counter() - begin + last[kinds[len(rounds) % len(kinds)]] > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    failed_first = [False] * len(wl.ops)
    for i, op in enumerate(wl.ops):
        problem, known = _judge(op, first_values[i])
        if problem:
            failed_first[i] = True
            failures.append({"op": op.name, "detail": problem, "fault": op.fault if known else None})
    for i, n in enumerate(mismatch):
        if n:
            failures.append({"op": wl.ops[i].name, "fault": None,
                             "detail": f"output differs from the first round in {n} later round(s)"})
    n_rounds = len(rounds)
    failed = sum(failed_first) * n_rounds + sum(
        n for i, n in enumerate(mismatch) if not failed_first[i])
    correct = all(f["fault"] is not None for f in failures)

    untraced_s = [s for traced, s, _ in rounds if not traced]
    result = {
        "correct": correct,
        "attempted": len(wl.ops) * n_rounds,
        "failed": failed,
        "rounds": [{"traced": t, "seconds": s} for t, s, _ in rounds],
        "failures": failures,
        "faults_per_round": {f["fault"]: sum(1 for g in failures if g["fault"] == f["fault"])
                             for f in failures if f["fault"]},
        "notes": wl.notes,
        "peak_rss_mib": peak_rss_mib,
        "run_s": statistics.median(untraced_s),
    }
    if args.workload == "figures":
        result["csv_sha256"] = {op.name: dg for op, dg in zip(wl.ops, first_digests)}
    if tracer is not None:
        result["per_layer"] = trace_targets.metrics(wl, tracer, rounds, per_round)
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
            with open(args.trace_out, "w") as fh:
                json.dump(tracer.dump(), fh)
    return result


if __name__ == "__main__":
    sys.exit(main())
