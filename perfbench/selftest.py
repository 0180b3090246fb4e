#!/usr/bin/env python3
"""Self-test of the benchmark: its checks catch corrupted output.

    python3 perfbench/selftest.py

1. Runs one full-size round of every workload and requires its checks to
   pass, then feeds each check deliberately corrupted copies of that output
   (a G off by 1%, a recovered sample moved by one lattice vector, ...) and
   requires a failure naming the fault.
2. Runs ``run.py --size smoke`` on every workload, plain and traced, and
   requires a correct result with no failed item and exactly the metric
   names of BENCHMARK.json.
3. Runs ``run.py`` in a directory holding only BENCHMARK.json and the
   benchmark, and requires a nonzero exit without a result.

Takes about a minute; exits 1 on the first problem.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run                              # sets the BLAS threads, then numpy loads

cli = run.import_program()
import numpy as np                      # noqa: E402
import workloads as W                   # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(fails: list, fragment: str, what: str) -> None:
    msgs = " | ".join(f.message for f in fails)
    if fragment not in msgs:
        sys.exit(f"selftest: {what}: expected a failure with {fragment!r}, got {msgs!r}")
    print(f"  rejects {what}")


def full_round(name: str, tmp: Path):
    wl = W.make(name)
    rd = run.run_round(cli, wl, run_seed=7, r=0, outdir=tmp / name)
    if rd.failures:
        sys.exit(f"selftest: {name} round failed: {rd.failures}")
    print(f"{name}: a full round passes its checks ({rd.seconds:.1f} s)")
    return wl, rd


def sweep_cases(wl, rows: list) -> None:
    def corrupt(pick, edit, fragment, what):
        bad = copy.deepcopy(rows)
        row = next(r for r in bad if pick(r))
        edit(row, bad)
        expect(W.check_sweep(bad, wl.cfg, wl.trials), fragment, what)

    corrupt(lambda r: r["level_kind"] == "clean",
            lambda r, _: r.update(rate="0.9000"), "noiseless", "a clean cell below rate 1")
    corrupt(lambda r: True, lambda r, _: r.update(error="ValueError: boom"),
            "error", "a cell error")
    corrupt(lambda r: True, lambda r, bad: bad.remove(r), "rows, expected",
            "a missing row")
    if wl.cfg.name == "additive":
        def swap(r, bad):
            sq = next(s for s in bad if s["of"] == r["of"] and s["level"] == r["level"]
                      and s["architecture"] == "square")
            r["mse"], sq["mse"] = sq["mse"], r["mse"]
        corrupt(lambda r: r["architecture"] == "e8" and r["level_kind"] == "snr"
                and r["mse"] and next(s for s in rows if s["of"] == r["of"]
                                      and s["level"] == r["level"])["mse"],
                swap, "not below square", "square and e8 MSE swapped")
    else:
        lam = wl.cfg.lam
        corrupt(lambda r: r["architecture"] == "e8+e8q" and r["level"] == "8" and r["mse"],
                lambda r, _: r.update(mse=f"{(2 * lam / 256) ** 2 / 12:.6e}"),
                "e8+e8q MSE", "the scalar-quantizer MSE in an e8+e8q cell")
        corrupt(lambda r: r["architecture"] == "sq+sqq" and r["level"] == "10" and r["mse"],
                lambda r, _: r.update(mse=f"{4 * float(r['mse']):.6e}"),
                "sq+sqq MSE", "a doubled quantizer step")

        def raise_mse(arch):
            def edit(_, bad):
                for r in bad:
                    if r["architecture"] == arch and r["level_kind"] == "bits" \
                            and float(r["level"]) >= 8 and r["mse"]:
                        r["mse"] = f"{1.1 * float(r['mse']):.6e}"
            return edit
        for arch in ("sq+sqq", "e8+sqq", "e8+e8q"):
            corrupt(lambda r: True, raise_mse(arch), f"{arch} MSE",
                    f"{arch} MSE 10% above the law at bits >= 8")


def table1_cases(wl, rows: list) -> None:
    def corrupt(name, key, factor, fragment, what):
        bad = copy.deepcopy(rows)
        row = next(r for r in bad if r["name"] == name)
        row[key] *= factor
        expect(W.check_table1(bad, wl.samples), fragment, what)

    corrupt("z", "G", 1.01, "G ", "a G off by 1% (z)")
    corrupt("e8", "G", 0.99, "G ", "a G off by 1% (e8)")
    corrupt("a2", "mse_ratio", 1.01, "mse_ratio", "an a2 mse_ratio off by 1%")
    corrupt("d4", "std_err", 100.0, "std_err", "an inflated std_err")
    corrupt("e8", "volume_ratio", 2.0, "volume_ratio", "a wrong volume ratio")


def demo_cases(wl, outdir: Path, stdout: str) -> None:
    demo = W.read_demo(outdir)

    def corrupt(edit, fragment, what, text=stdout):
        bad = copy.deepcopy(demo)
        edit(bad)
        expect(W.check_demo(bad, text, wl.n_samples), fragment, what)

    k = wl.n_samples // 2

    def shift_rec(geom, vec):
        def edit(d):
            d[geom][k, 5:7] += vec
        return edit

    corrupt(shift_rec("square", [2.0, 0.0]), "square recovered",
            "a square recovered sample moved by one lattice vector")
    corrupt(shift_rec("hexagon", [1.0, np.sqrt(3.0)]), "hexagon recovered",
            "a hexagon recovered sample moved by one lattice vector")

    def push_out(d):
        d["hexagon"][k, 3:5] = [1.01, 0.0]          # past the facet at 0 degrees
    corrupt(push_out, "hexagon folded sample outside", "a folded sample outside the hexagon")

    def off_lattice(d):
        d["square"][k, 3] *= 0.5
    corrupt(off_lattice, "not a lattice point", "a fold offset off the lattice")

    def power(d):
        d["summary"]["power_ratio"] = 0.9
    corrupt(power, "power_ratio", "a power ratio of 0.9",
            text=json.dumps({**demo["summary"], "power_ratio": 0.9}))
    corrupt(lambda d: None, "printed summary", "a printed summary that differs",
            text=stdout.replace("power_ratio", "power_rati0"))


def smoke_runs() -> None:
    names = {0: {m["name"] for m in SPEC["end_to_end"]},
             1: {m["name"] for m in SPEC["per_layer"]}}
    for wl in run.WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", wl,
                 "--seed", "3", "--seconds", "0", "--trace", str(trace),
                 "--size", "smoke"], capture_output=True, text=True, timeout=600)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode or not res["correct"] or res["failed"] \
                    or set(res["metrics"]) != names[trace]:
                sys.exit(f"selftest: smoke {wl} trace {trace}: {out.stderr}\n{res}")
            print(f"smoke {wl} trace {trace}: correct, {res['attempted']} items")


def bare_directory(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table1",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=180)
    if out.returncode == 0 or '"correct"' in out.stdout:
        sys.exit(f"selftest: bare directory run exited {out.returncode}: {out.stdout}")
    print(f"bare directory: exit {out.returncode}, no result")


def main() -> int:
    run.RESULTS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.RESULTS))
    try:
        for name in ("sweep-additive", "sweep-quantization"):
            wl, _ = full_round(name, tmp)
            sweep_cases(wl, W.parse_sweep_csv((tmp / name / "sweep.csv").read_text()))
        wl, _ = full_round("table1", tmp)
        table1_cases(wl, json.loads((tmp / "table1" / "table1.json").read_text()))
        wl, rd = full_round("demo2d", tmp)
        demo_cases(wl, tmp / "demo2d" / "seed0", rd.stdouts[0])
        smoke_runs()
        bare_directory(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
