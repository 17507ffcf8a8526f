"""Compare two sets of benchmark runs (or summarise one).

    python3 benchmark/compare.py DIR_A [DIR_B]

Each directory holds the run records that run.py writes with
--record-dir, for instance from

    for w in figures chain_large_n diffusion monte_carlo; do for s in $(seq 1 10); do
        python3 benchmark/run.py --workload $w --seed $s --seconds 20 --trace 0 --record-dir DIR
    done; done

Only untraced, full-size runs are compared, and they must all have run
for run_seconds of BENCHMARK.json.  For every workload and end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles and its spread
(quartile distance over the median); with two sets, also the share of
pairs (runs matched in seed order) that B wins, ties counting for
neither, and whether B's median is within the metric's bound of A's.  It
then compares the share of failed operations per workload and the
sha256 of every figure CSV.

Exit status 0 when every comparison holds (one set: every spread but
that of setup_s within its bound, one failure share per workload and one
hash per panel), 1 otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(directory, run_seconds):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0 and not rec.get("smoke"):
            if rec["seconds"] != run_seconds:
                raise ValueError(f"{path} ran for {rec['seconds']} s, not run_seconds = {run_seconds}")
            runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def compare(sets, spec):
    ok = True
    names = [os.path.basename(os.path.normpath(d)) for d in sets]
    runs = [load(d, spec["run_seconds"]) for d in sets]
    workloads = [w["name"] for w in spec["workloads"] if all(w["name"] in r for r in runs)]
    print("median [q1, q3]; spread = (q3 - q1) / median")
    for w in workloads:
        print(f"\n{w}: " + ", ".join(f"{n}: {len(r[w])} runs" for n, r in zip(names, runs)))
        for m in spec["end_to_end"]:
            vals = [[rec["metrics"][m["name"]]["value"] for rec in r[w]] for r in runs]
            qs = [quartiles(v) for v in vals]
            spreads = [(q[2] - q[0]) / q[1] for q in qs]
            cells = [f"{_fmt(q)} spread {s:.3f}" for q, s in zip(qs, spreads)]
            line = f"  {m['name']:<14} {m['unit']:<4} " + " | ".join(cells)
            if m["name"] != "setup_s" and any(s > m["bound"] for s in spreads):
                line += f"  spread over bound {m['bound']}"
                ok = ok and len(sets) == 2   # two sets: reported as unresolved below
            if len(sets) == 2:
                sign = 1.0 if m["better"] == "lower" else -1.0
                pairs = list(zip(*vals))
                wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
                worse = sign * (qs[1][1] - qs[0][1]) / qs[0][1]
                verdict = "within bound" if worse <= m["bound"] else "WORSE than bound"
                if spreads[0] > m["bound"] and m["name"] != "setup_s":
                    verdict += " (unresolved: A's spread is over the bound)"
                ok = ok and worse <= m["bound"]
                line += f"  B wins {wins}/{len(pairs)}, B vs A {worse:+.3%} worse, {verdict}"
            print(line)
        shares = [sorted({str(Fraction(rec["failed"], rec["attempted"])) for rec in r[w]}) for r in runs]
        same = all(len(s) == 1 for s in shares) and len({s[0] for s in shares}) == 1
        ok = ok and same
        print(f"  failed share: " + " | ".join(f"{n}: {', '.join(s)}" for n, s in zip(names, shares))
              + ("" if same else "  DIFFERS"))
        faults = [sorted({json.dumps(rec["faults_per_round"], sort_keys=True) for rec in r[w]}) for r in runs]
        for n, f in zip(names, faults):
            print(f"  faults per round ({n}): " + " / ".join(f))
        if w == "figures":
            hashes = {}
            for r in runs:
                for rec in r[w]:
                    for panel, h in rec["csv_sha256"].items():
                        hashes.setdefault(panel, set()).add(h)
            differ = sorted(p for p, hs in hashes.items() if len(hs) > 1)
            ok = ok and not differ
            print(f"  figure CSV sha256: {len(hashes)} panels, "
                  + (f"DIFFER in {', '.join(differ)}" if differ else "identical in every run"))
    return ok


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2 or argv[0].startswith("-"):
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        return 0 if compare(argv, spec) else 1
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
