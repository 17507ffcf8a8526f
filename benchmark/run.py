"""Benchmark entry point: one run of one workload.

    python3 benchmark/run.py --workload figures --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload diffusion --smoke

Each run starts fresh interpreters (``worker.py``) with BLAS/OpenMP
threads pinned to 1 and ``src`` first on PYTHONPATH.  Set-up (interpreter
start, ``import ehrenfestcat`` with numpy and scipy, input construction)
is timed in several set-up-only interpreters and in the measuring one;
``setup_s`` is the median.  The measuring interpreter runs whole rounds
of the workload for about --seconds and checks every output.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.  A
fuller record of the run (failures, round times, figure CSV hashes) is
written under --record-dir, which compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: set-up-only interpreters started before the measuring one
SETUP_SAMPLES = 4
#: every run ends within this many seconds (the caller allows 180)
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _start(args, extra, env):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RunError(f"worker did not finish set-up (exit {proc.returncode})")
    return proc, ready_s


def _finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    for line in reversed(out.splitlines()):
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise RunError("worker printed no result")


def run(args):
    deadline = time.perf_counter() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "ehrenfestcat", "__init__.py")):
        raise RunError(f"no library source under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise RunError(f"unknown workload {args.workload!r}")
    env = _env()
    setup = []
    for _ in range(0 if args.smoke else SETUP_SAMPLES):
        proc, ready_s = _start(args, ["--setup-only"], env)
        proc.communicate()
        if proc.returncode != 0:
            raise RunError(f"set-up-only worker exited with {proc.returncode}")
        setup.append(ready_s)
    trace_out = None
    if args.trace:
        trace_out = os.path.join(args.record_dir, "traces",
                                 f"{args.workload}-seed{args.seed}-{os.getpid()}.json")
    extra = ["--trace-out", trace_out] if trace_out else []
    proc, ready_s = _start(args, extra, env)
    setup.append(ready_s)
    result = _finish(proc, deadline)

    if args.trace:
        metrics = result["per_layer"]
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": result["run_s"], "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    have = [(name, m["unit"]) for name, m in metrics.items()]
    if sorted(have) != sorted(wanted):
        raise RunError(f"metrics {sorted(have)} do not match BENCHMARK.json {sorted(wanted)}")
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}

    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, smoke=args.smoke, setup_samples_s=setup,
                  metrics=metrics, trace_file=trace_out)
    record.pop("per_layer", None)
    os.makedirs(args.record_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    with open(os.path.join(args.record_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    return line


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one round at a small size, same checks; finishes in seconds")
    ap.add_argument("--record-dir", default=os.path.join(HERE, "out", "records"))
    args = ap.parse_args(argv)
    try:
        line = run(args)
    except RunError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
