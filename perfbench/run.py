#!/usr/bin/env python3
"""Benchmark of the latfold CLI: one workload per process.

    python3 perfbench/run.py --workload sweep-additive --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's ``latfold`` commands through
``latfold.cli.main`` for at least ``--seconds`` seconds, checks every
round's output (see ``workloads.py``), and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``items_per_s`` (median over
rounds, scaled to a reference machine speed by ``SpeedSampler``),
``setup_s`` (median of SETUP_PROBES fresh processes, from spawn until the
workload's config and lattices are built, each scaled by ``SetupSampler``
running inside it) and ``peak_rss_mb``.
``--trace 1`` runs every round twice, plain and traced, checks that both
write byte-identical output, and reports the per-layer metrics of
``tracer.py`` plus the tracing overhead.

The program is imported from ``src/`` of the checkout that holds this
file; without it the benchmark exits with an error and prints no result.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: with the default two
# threads OpenBLAS spins on the sweeps' small lstsq calls. On 2 cores the
# additive sweep at 10 trials then took 1.14x the wall and 2.2x the CPU time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("sweep-additive", "sweep-quantization", "table1", "demo2d")
SETUP_PROBES = 15


def import_program():
    """Import ``latfold.cli`` from this checkout's ``src/``, or exit."""
    if not (SRC / "latfold" / "cli.py").is_file():
        sys.exit(f"perfbench: program source not found at {SRC / 'latfold'}")
    sys.path.insert(0, str(SRC))
    from latfold import cli
    if Path(cli.__file__).resolve().parent != SRC / "latfold":
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's source")
    return cli


class SpeedSampler:
    """Samples how fast this machine runs while the program runs.

    On a shared host the same work can take 1.5x as long from one second
    to the next (one demo2d seed measured 0.48-0.98 s), and the share of
    slow time drifts over minutes. While active, an interval timer every
    PERIOD_S times a fixed probe inside the process, between the program's
    bytecodes: small matrix products, a short FFT and a rounding pass, on
    data that one untimed pass first brings back into cache, so that the
    program's own cache footprint does not count. ``take`` returns the
    mean probe time since the last call over REF_S, the probe's time when
    this machine runs fast; a round's rate times that slowness is its rate
    at the reference speed. Per round of fixed work the probe time
    correlated 0.96 (demo2d), 0.91 (sweep) and 0.89 (table1) with the
    round time. The handler costs about 0.6% of a round.
    """

    PERIOD_S = 0.02
    REF_S = 60e-6
    WARM_TICKS = 100

    def __init__(self):
        import numpy as np
        self.np = np
        self.M = np.cos(np.arange(1024.0)).reshape(32, 32)
        self.X = np.sin(np.arange(256.0)).reshape(32, 8)
        self.v = np.cos(np.arange(64.0))
        self._warm()

    def _warm(self):
        self.samples = []
        self._previous = None
        for _ in range(self.WARM_TICKS):    # warm the caches and the interpreter
            self._tick(None, None)
        self.samples.clear()

    def _probe(self, n: int) -> float:
        np, M, X, v = self.np, self.M, self.X, self.v
        acc = 0.0
        for _ in range(n):
            acc += (M @ X)[0, 0]
            acc += np.fft.fft(v)[1].real
            acc += np.round(X * 1.3).sum()
        return acc

    def _tick(self, signum, frame):
        self._probe(1)
        t0 = time.perf_counter()
        self._probe(5)
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self):
        """Slowness since the last call, or None if no tick fell in between."""
        samples, self.samples = self.samples, []
        return statistics.fmean(samples) / self.REF_S if samples else None


class SetupSampler(SpeedSampler):
    """The same sampling with a pure-Python probe, for the setup probes.

    Set-up is mostly imports, before numpy is loaded, so the probe is a
    hashing loop. REF_S is its time when this machine runs fast (its 5th
    percentile here, as for the numpy probe); on a slow host the two
    probes' times rose by different factors. Per fresh process, scaling
    its set-up wall time by this slowness halved the spread (q3 - q1) /
    median, from 0.23-0.25 to 0.11-0.12 over 25 processes per workload.
    """

    PERIOD_S = 0.01
    REF_S = 170e-6
    WARM_TICKS = 5

    def __init__(self):
        self._warm()

    def _probe(self, n: int) -> int:
        x = 0
        for i in range(200 * n):
            x ^= hash((i, x & 1023))
        return x


class Round:
    """One round's timed seconds, captured stdout, failures and slowness."""

    def __init__(self, seconds, stdouts, failures, slowness=None):
        self.seconds = seconds
        self.stdouts = stdouts
        self.failures = failures
        self.slowness = slowness


def run_round(cli, wl, run_seed: int, r: int, outdir: Path,
              sampler: SpeedSampler = None) -> Round:
    """Run round r of the workload into outdir, time it, check its output.

    Only the ``cli.main`` calls are timed (and sampled); checks are not.
    """
    from workloads import Failure
    outdir.mkdir(parents=True)
    sampling = sampler if sampler is not None else contextlib.nullcontext()
    stdouts = []
    elapsed = 0.0
    try:
        for argv in wl.argvs(run_seed, r, outdir):
            buf, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with sampling, contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            elapsed += time.perf_counter() - t0
            stdouts.append(buf.getvalue())
            if code != 0:
                raise RuntimeError(f"latfold {' '.join(argv)} exited {code}: "
                                   f"{err.getvalue().strip()}")
        failures = wl.check(outdir, stdouts)
    except Exception as exc:       # the round's items fail; the run goes on
        failures = [Failure(wl.items, f"{type(exc).__name__}: {exc}")]
    slowness = sampler.take() if sampler is not None else None
    return Round(elapsed, stdouts, failures, slowness)


def _same_output(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files_a)


def measure_setup(workload: str, size: str) -> float:
    """Seconds from spawning a fresh process until it is set up, scaled to
    the reference speed by the slowness the process sampled meanwhile."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                           "--probe-setup", "--workload", workload,
                           "--size", size],
                          stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline().split()
        wall = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or len(ready) != 2 or ready[0] != "ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return wall / float(ready[1])


class Tally:
    """Attempted and failed items over the rounds of one run."""

    def __init__(self, items: int):
        self.items = items
        self.attempted = self.failed = 0
        self.correct = True

    def add(self, r: int, failures: list) -> int:
        """Count one round; returns its failed items."""
        bad = min(self.items, sum(f.items for f in failures))
        for f in failures:
            print(f"round {r}: {f.message}", file=sys.stderr)
        self.correct = self.correct and not failures
        self.attempted += self.items
        self.failed += bad
        return bad


def run_plain(cli, wl, args, work: Path):
    """End-to-end metrics, every timing scaled to the reference speed.

    One setup probe runs before each round, and the rest after the last
    round, so that the probes spread over the run.
    """
    setup_times = []
    tally = Tally(wl.items)
    rates, slowness = [], []
    sampler = SpeedSampler()
    t_start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - t_start < args.seconds:
        if len(setup_times) < SETUP_PROBES:
            setup_times.append(measure_setup(args.workload, args.size))
        rd = run_round(cli, wl, args.seed, r, work, sampler)
        bad = tally.add(r, rd.failures)
        if rd.slowness is not None:         # None: the round failed at once
            slowness.append(rd.slowness)
            rates.append((wl.items - bad) / rd.seconds * rd.slowness)
            print(f"round {r}: {rd.seconds:.3f} s, slowness {rd.slowness:.3f}, "
                  f"{rates[-1]:.6g} items/s scaled", file=sys.stderr)
        shutil.rmtree(work)
        r += 1
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(measure_setup(args.workload, args.size))
    metrics = {
        "items_per_s": (statistics.median(rates) if rates else 0.0, "items/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"{args.workload}: {r} rounds; median slowness "
          f"{statistics.median(slowness) if slowness else math.nan:.4f}; "
          f"scaled setup times {[round(t, 4) for t in setup_times]}",
          file=sys.stderr)
    return tally, metrics


def run_traced(cli, wl, args, work: Path):
    """Per-layer metrics; each round runs plain, then traced, into two dirs."""
    from tracer import Tracer, unit
    tracer = Tracer(wl.of_by_K)
    tally = Tally(wl.items)
    plain_s, traced_s = [], []
    t_start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - t_start < args.seconds:
        rd = run_round(cli, wl, args.seed, r, work / "plain")
        tracer.install()
        try:
            rt = run_round(cli, wl, args.seed, r, work / "traced")
        finally:
            tracer.uninstall()
        plain_s.append(rd.seconds)
        traced_s.append(rt.seconds)
        if rt.stdouts != rd.stdouts or not _same_output(work / "plain", work / "traced"):
            tally.correct = False
            print(f"round {r}: traced output differs from plain output", file=sys.stderr)
        tally.add(r, rd.failures + rt.failures)
        shutil.rmtree(work)
        r += 1
    layer = tracer.metrics(rounds=r)
    layer["trace.overhead_pct"] = 100.0 * (sum(traced_s) / sum(plain_s) - 1.0)
    return tally, {k: (v, unit(k)) for k, v in layer.items()}


def run(args) -> dict:
    cli = import_program()
    import workloads
    wl = workloads.make(args.workload, args.size)
    work = RESULTS / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        tally, metrics = (run_traced if args.trace else run_plain)(cli, wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{args.workload}: {tally.attempted} items, {tally.failed} failed",
          file=sys.stderr)
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: the same rounds at a tiny size")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.probe_setup:
        with SetupSampler() as sampler:
            import_program()
            import workloads
            workloads.make(args.workload, args.size)
        print("ready", sampler.take(), flush=True)
        return 0
    result = run(args)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
