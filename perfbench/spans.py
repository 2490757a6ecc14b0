"""Layer-by-layer span tracer, installed from outside the package.

The package's public functions are replaced, in every module that binds
them, by wrappers that record a span (name, start, end, parent) in memory
and count the work handed to them: integrand points, Newton evaluations of
``g``, density frequencies, oracle bins.  Nothing under ``src/`` knows the
tracer exists.  A function that a later version of the package no longer
has is simply not wrapped, so its counters read 0.

Spans of one process share a single stack: the benchmark's jobs run on
one thread (``GAMOW_THERMO_THREADS`` stays unset), so a span's children
are exactly the spans opened while it is on top of the stack.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

import numpy as np

# the seven layers and the public functions wrapped in each
LAYERS = {
    "numerics": ("integrate", "principal_value", "complex_newton",
                 "ode_evolve", "derivative"),
    "friedrichs": ("self_energy", "self_energy_boundary", "find_pole",
                   "perturbative_pole", "spectral_density", "discretize"),
    "decay": ("density_table", "survival_amplitude", "survival_probability",
              "gamow_approximation", "zeno_check", "classify_regimes"),
    "thermo": ("complex_entropy", "entropy_via_log_identity",
               "canonical_entropy", "entropy_scan",
               "naive_partition_function"),
    "evolution": ("thermal_evolve", "time_evolve",
                  "temperature_monotonicity", "verify_ode_solutions"),
    "config": ("load_config",),
    "cli": ("main",),
}

# work counters reported by the traced run; they must repeat exactly
COUNTERS = (
    "numerics.principal_value.calls", "numerics.integrate.calls",
    "numerics.integrand_points", "numerics.scalar_fallback_calls",
    "numerics.complex_newton.calls", "numerics.complex_newton.g_evals",
    "numerics.ode_evolve.calls",
    "friedrichs.spectral_density.calls", "friedrichs.spectral_density.points",
    "friedrichs.self_energy_boundary.calls", "friedrichs.self_energy.calls",
    "friedrichs.find_pole.calls", "friedrichs.perturbative_pole.calls",
    "friedrichs.discretize.calls", "friedrichs.discretize.bins",
    "decay.density_table.builds", "decay.density_table.hits",
    "decay.table_knots", "decay.survival_amplitude.calls",
    "thermo.calls", "evolution.calls", "config.load_config.calls",
    "cli.main.calls", "cli.bytes_written",
)

SELF_TIMES = (
    "numerics.principal_value", "numerics.integrate",
    "numerics.complex_newton", "numerics.ode_evolve",
    "friedrichs.spectral_density", "friedrichs.self_energy_boundary",
    "friedrichs.self_energy", "friedrichs.find_pole",
    "friedrichs.perturbative_pole", "friedrichs.discretize",
    "decay.density_table", "decay.survival_amplitude",
    "decay.classify_regimes", "decay.zeno_check", "config.load_config",
)


def _counted_integrand(counts, f):
    def integrand(x):
        if np.ndim(x) == 0:
            counts["numerics.scalar_fallback_calls"] += 1
            counts["numerics.integrand_points"] += 1
        else:
            counts["numerics.integrand_points"] += np.size(x)
        return f(x)
    return integrand


def _counted_g(counts, g):
    def counted(z):
        counts["numerics.complex_newton.g_evals"] += 1
        return g(z)
    return counted


def _wrap_first_arg(make):
    """Hook replacing the first positional argument through ``make``."""
    def hook(counts, args, kwargs):
        if args:
            return (make(counts, args[0]),) + tuple(args[1:]), kwargs
        return args, kwargs
    return hook


def _count_points(counts, args, kwargs):
    omega = args[1] if len(args) > 1 else kwargs.get("omega")
    counts["friedrichs.spectral_density.points"] += int(np.size(omega))
    return args, kwargs


def _count_bins(counts, args, kwargs):
    bins = args[1] if len(args) > 1 else kwargs.get("n_bins", 0)
    counts["friedrichs.discretize.bins"] += int(bins)
    return args, kwargs


_HOOKS = {
    "numerics.integrate": _wrap_first_arg(_counted_integrand),
    "numerics.principal_value": _wrap_first_arg(_counted_integrand),
    "numerics.complex_newton": _wrap_first_arg(_counted_g),
    "friedrichs.spectral_density": _count_points,
    "friedrichs.discretize": _count_bins,
}


class Tracer:
    """Spans and counters for one process; install, run, uninstall."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self.sections = []  # (name, start, end) of the traced jobs
        self.counts = Counter()
        self.tables = {}
        self._stack = []
        self._restore = []
        self._cache_start = None

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = _HOOKS.get(name)
        calls = name + ".calls"
        layer_calls = name.split(".")[0] + ".calls"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            counts[layer_calls] += 1
            if hook is not None:
                args, kwargs = hook(counts, args, kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        return wrapper

    def install(self):
        """Wrap every public layer function wherever a module binds it."""
        for layer in LAYERS:
            importlib.import_module(f"gamow_thermo.{layer}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gamow_thermo" or n.startswith("gamow_thermo.")]
        decay = sys.modules["gamow_thermo.decay"]
        table = getattr(decay, "density_table", None)
        self._cache_start = self._cache_info(table)
        for layer, names in LAYERS.items():
            module = sys.modules[f"gamow_thermo.{layer}"]
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                if fname == "density_table":
                    wrapper = self._table_probe(wrapper)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self):
        """Put the original functions back and settle the cache counters."""
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()
        table = getattr(sys.modules["gamow_thermo.decay"], "density_table",
                        None)
        end = self._cache_info(table)
        if self._cache_start is not None and end is not None:
            self.counts["decay.density_table.builds"] += (
                end[1] - self._cache_start[1])
            self.counts["decay.density_table.hits"] += (
                end[0] - self._cache_start[0])

    @staticmethod
    def _cache_info(table):
        info = getattr(table, "cache_info", None)
        if info is None:
            return None
        hits, misses = info()[:2]
        return hits, misses

    def _table_probe(self, wrapper):
        tables = self.tables

        @functools.wraps(wrapper)
        def probe(*args, **kwargs):
            table = wrapper(*args, **kwargs)
            if id(table) not in tables:
                tables[id(table)] = table
            return table
        return probe

    def section(self, name, fn, *args, **kwargs):
        """Run one traced job of the benchmark and keep its interval."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.sections.append((name, start, time.perf_counter()))

    def write(self, path):
        """Write the recorded spans and sections out as JSON."""
        with open(path, "w") as fh:
            json.dump({"sections": self.sections,
                       "spans": self.spans}, fh)

    def metrics(self):
        """Per-layer counts and self times derived from the spans."""
        out = {name: 0.0 for name in COUNTERS}
        out.update({f"{name}.self_s": 0.0 for name in SELF_TIMES})
        out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
        out.update((k, float(v)) for k, v in self.counts.items()
                   if k in out)

        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        covered = 0.0
        amplitude_ms = []
        for (name, start, end, parent), inner in zip(self.spans, children):
            own = (end - start) - inner
            layer = name.split(".")[0]
            out[f"{layer}.self_s"] += own
            if f"{name}.self_s" in out:
                out[f"{name}.self_s"] += own
            if parent < 0:
                covered += end - start
            if name == "decay.survival_amplitude":
                amplitude_ms.append(1e3 * (end - start))
        job = sum(end - start for _, start, end in self.sections)
        out["trace.job_s"] = job
        out["trace.uncovered_s"] = job - covered
        p50, p90 = (np.percentile(amplitude_ms, [50, 90]) if amplitude_ms
                    else (0.0, 0.0))
        out["decay.survival_amplitude.ms_p50"] = float(p50)
        out["decay.survival_amplitude.ms_p90"] = float(p90)

        knots = dev = gap = 0.0
        for table in self.tables.values():
            knots += np.size(getattr(table, "knots", ()))
            dev = max(dev, float(getattr(table, "max_refine_dev", 0.0)))
            norm = getattr(table, "norm", None)
            direct = getattr(table, "norm_direct", None)
            if norm is not None and direct is not None:
                gap = max(gap, abs(float(norm) - float(direct)))
        out["decay.table_knots"] = float(knots)
        out["decay.table_refine_dev"] = dev
        out["decay.table_norm_gap"] = gap
        return out
