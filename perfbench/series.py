#!/usr/bin/env python3
"""Sets of benchmark runs, their spread, and the comparison of two sets.

    python3 perfbench/series.py run LABEL [--seeds 1-10]
    python3 perfbench/series.py summary LABEL
    python3 perfbench/series.py compare BASE NEW

``run`` calls ``run.py --trace 0 --seconds <run_seconds>`` once per
workload of BENCHMARK.json and seed, and keeps each result under
``perfbench/results/LABEL/``. ``summary`` prints, per workload and
end-to-end metric, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json. ``compare`` prints both
sets' medians and quartiles and the ratio NEW / BASE. A metric reads
``unresolved`` if either set spreads wider than the metric's bound, else
``REGRESSION`` if it got worse by more than the bound, else ``ok``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(label: str) -> dict:
    """{workload: [result, ...]} for one set of runs."""
    sets = {}
    for path in sorted((RESULTS / label).glob("*/seed*.json")):
        sets.setdefault(path.parent.name, []).append(json.loads(path.read_text()))
    return sets


def quartiles(values: list):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(q: tuple) -> float:
    """(q3 - q1) / median of a quartiles() triple."""
    return (q[2] - q[0]) / q[1]


def cmd_run(args) -> int:
    for wl in [w["name"] for w in SPEC["workloads"]]:
        outdir = RESULTS / args.label / wl
        outdir.mkdir(parents=True, exist_ok=True)
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            result["wall_s"] = wall
            (outdir / f"seed{seed}.json").write_text(
                json.dumps(result, indent=1) + "\n")
            print(f"{wl} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
    return cmd_summary(args)


def cmd_summary(args) -> int:
    worst = 0.0
    for wl, runs in load(args.label).items():
        fails = sorted({r["failed"] / r["attempted"] for r in runs})
        walls = [r.get("wall_s", 0.0) for r in runs]
        print(f"{wl}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, failed shares {fails}, "
              f"run wall {min(walls):.1f}-{max(walls):.1f} s")
        for m in SPEC["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(vals) < 2:
                continue
            q = quartiles(vals)
            worst = max(worst, spread(q) / m["bound"])
            flag = "" if spread(q) < m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {m['name']:>12} median {q[1]:.6g} {m['unit']} "
                  f"[q1 {q[0]:.6g}, q3 {q[2]:.6g}] spread {spread(q):.4f} "
                  f"(bound {m['bound']}){flag}")
    print(f"largest spread / bound: {worst:.3f}")
    return 0


def cmd_compare(args) -> int:
    base, new = load(args.base), load(args.new)
    not_ok = 0
    for wl in [w["name"] for w in SPEC["workloads"]]:
        if wl not in base or wl not in new:
            continue
        print(f"{wl}: {len(base[wl])} base runs, {len(new[wl])} new runs")
        for m in SPEC["end_to_end"]:
            b = quartiles([r["metrics"][m["name"]]["value"] for r in base[wl]])
            n = quartiles([r["metrics"][m["name"]]["value"] for r in new[wl]])
            ratio = n[1] / b[1]
            worse = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
            verdict = ("unresolved" if max(spread(b), spread(n)) > m["bound"] else
                       "REGRESSION" if worse > m["bound"] else "ok")
            not_ok += verdict != "ok"
            print(f"  {m['name']:>12} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
                  f"new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}] {m['unit']}  "
                  f"new/base {ratio:.4f} ({m['better']} is better, "
                  f"bound {m['bound']}) {verdict}")
        shares = [sorted({r["failed"] / r["attempted"] for r in s[wl]})
                  for s in (base, new)]
        print(f"  failed share base {shares[0]} new {shares[1]}")
    return 1 if not_ok else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("label")
    r.add_argument("--seeds", default="1-10")
    s = sub.add_parser("summary")
    s.add_argument("label")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = p.parse_args(argv)
    return {"run": cmd_run, "summary": cmd_summary, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
