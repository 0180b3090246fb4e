"""Per-layer tracing by wrapping latfold's public functions in place.

``Tracer.install`` replaces each traced function in every ``latfold``
module namespace that holds it, so a caller that did ``from .lattices
import fold`` calls the wrapper as well; the two ``OobOperator`` methods
are replaced on the class. ``uninstall`` puts the originals back. Nothing
under ``src/`` changes.

Each wrapper records one span per call: calls, inclusive time and self
time (inclusive time minus the time of traced calls it made), plus a few
counts read from the arguments or the result (vectors per lattice family,
solver rounds per oversampling factor, LASSO iterations, accepted draws).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from latfold.recovery import OobOperator

FUNCTIONS = [
    ("lattices", "nearest_point"), ("lattices", "fold"),
    ("lattices", "snap_to_lattice"),
    ("moments", "sample_uniform_cell"), ("moments", "estimate_second_moment"),
    ("signals", "make_test_signal"),
    ("channels", "fold_signal"), ("channels", "add_noise"),
    ("channels", "scalar_quantize"), ("channels", "lattice_quantize"),
    ("recovery", "b2r2_recover"), ("recovery", "build_oob_operator"),
    ("recovery", "check_recovery"), ("recovery", "lasso_b2r2_recover"),
    ("experiments", "draw_margin_trial"), ("experiments", "burst_signal"),
    ("experiments", "run_sweep"), ("experiments", "demo_power_ratio"),
    ("cli", "main"),
]
METHODS = [(OobOperator, "rows_for"), (OobOperator, "apply")]
FAMILIES = ("zn", "a2", "dn", "e8")


class Span:
    __slots__ = ("calls", "total", "self", "count")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.count = 0.0        # layer-specific: vectors, samples, rounds ...


class Tracer:
    """Collects spans while installed; ``of_by_K`` maps record length to OF."""

    def __init__(self, of_by_K: dict):
        self.of_by_K = of_by_K
        self.spans = defaultdict(Span)
        self._child_time = []
        self._undo = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        child_time = self._child_time
        span = self.spans[name]
        on_return = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += dt
                span.calls += 1
                span.total += dt
                span.self += dt - inner
            if on_return is not None:
                on_return(args, kwargs, result, dt, dt - inner)
            return result
        return wrapper

    def _on_lattices_nearest_point(self, args, kwargs, result, dt, self_dt):
        x, lattice = args[0], args[1]
        span = self.spans["lattices.nearest_point." + lattice.family]
        span.calls += 1
        span.self += self_dt
        span.count += getattr(x, "size", len(x)) // lattice.n

    def _on_moments_sample_uniform_cell(self, args, kwargs, result, dt, self_dt):
        self.spans["moments.sample_uniform_cell"].count += \
            result.shape[0] if result.ndim == 2 else 1

    def _on_recovery_b2r2_recover(self, args, kwargs, result, dt, self_dt):
        oob = args[2] if len(args) > 2 else kwargs["oob"]
        span = self.spans[f"recovery.b2r2_recover.of{self.of_by_K.get(oob.K, oob.K)}"]
        span.calls += 1
        span.total += dt
        span.count += result.iterations

    def _on_recovery_lasso_b2r2_recover(self, args, kwargs, result, dt, self_dt):
        self.spans["recovery.lasso_b2r2_recover"].count += result.iterations

    def _on_experiments_draw_margin_trial(self, args, kwargs, result, dt, self_dt):
        self.spans["experiments.draw_margin_trial"].count += 1     # accepted

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "latfold" or n.startswith("latfold."))]
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules["latfold." + mod_name], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for cls, attr in METHODS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"recovery.{cls.__name__}.{attr}", original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- per-layer metrics ------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics; counts and self times are per round.

        A layer the workload never calls reads 0.
        """
        s = self.spans
        per = 1.0 / max(rounds, 1)

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        def mean(span, field):
            return getattr(span, field) / span.calls if span.calls else 0.0

        out = {}
        for fam in FAMILIES:
            sp = s["lattices.nearest_point." + fam]
            out[f"lattices.nearest_point.vec_per_s.{fam}"] = rate(sp.count, sp.self)
        out["lattices.nearest_point.calls"] = s["lattices.nearest_point"].calls * per
        out["lattices.fold.self_s"] = s["lattices.fold"].self * per
        out["lattices.snap_to_lattice.self_s"] = s["lattices.snap_to_lattice"].self * per
        sp = s["moments.sample_uniform_cell"]
        out["moments.sample_uniform_cell.samples_per_s"] = rate(sp.count, sp.total)
        out["moments.estimate_second_moment.self_s"] = \
            s["moments.estimate_second_moment"].self * per
        out["signals.make_test_signal.calls"] = s["signals.make_test_signal"].calls * per
        out["signals.make_test_signal.ms_per_call"] = \
            1e3 * mean(s["signals.make_test_signal"], "total")
        for ch in ("fold_signal", "add_noise", "scalar_quantize", "lattice_quantize"):
            out[f"channels.{ch}.self_s"] = s["channels." + ch].self * per
        for of in (2, 4, 6, 8):
            sp = s[f"recovery.b2r2_recover.of{of}"]
            out[f"recovery.b2r2_recover.ms_per_call.of{of}"] = 1e3 * mean(sp, "total")
            out[f"recovery.b2r2_recover.rounds_mean.of{of}"] = mean(sp, "count")
        for meth in ("rows_for", "apply"):
            sp = s["recovery.OobOperator." + meth]
            out[f"recovery.OobOperator.{meth}.calls"] = sp.calls * per
            out[f"recovery.OobOperator.{meth}.self_s"] = sp.self * per
        out["recovery.build_oob_operator.calls"] = s["recovery.build_oob_operator"].calls * per
        out["recovery.check_recovery.self_s"] = s["recovery.check_recovery"].self * per
        sp = s["recovery.lasso_b2r2_recover"]
        out["recovery.lasso_b2r2_recover.ms_per_call"] = 1e3 * mean(sp, "total")
        out["recovery.lasso_b2r2_recover.iterations_mean"] = mean(sp, "count")
        sp = s["experiments.draw_margin_trial"]
        out["experiments.draw_margin_trial.ms_per_call"] = 1e3 * mean(sp, "total")
        out["experiments.burst_signal.calls"] = s["experiments.burst_signal"].calls * per
        out["experiments.draw_margin_trial.accept_ratio"] = \
            rate(sp.count, s["experiments.burst_signal"].calls)
        out["experiments.run_sweep.self_s"] = s["experiments.run_sweep"].self * per
        out["experiments.demo_power_ratio.self_s"] = \
            s["experiments.demo_power_ratio"].self * per
        out["cli.main.self_s"] = s["cli.main"].self * per
        return out


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    for marker, u in (("per_s", "1/s"), ("self_s", "s"), ("ms_per_call", "ms"),
                      ("accept_ratio", "ratio"), ("overhead_pct", "%")):
        if marker in metric:
            return u
    return "count"          # calls, rounds_mean, iterations_mean
