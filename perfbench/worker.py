"""Job process of the benchmark: runs the package and times it from inside.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``, one plan file as its only argument, and writes one JSON result
file.  Plans come in three modes:

- ``setup``: pay the workload's set-up (imports; on ``series_warm`` also the
  density table and the pole) and report the time since spawn;
- ``session``: set up, then repeat the workload's timed pass the planned
  number of times (measured), or run it once untraced and once traced;
- ``cli``: one traced CLI run (the traced half of ``survival_cold``).

Each pass times its units one by one (a survival row, a CLI job, an oracle
diagonalization): wall and CPU seconds per unit, and the time of a fixed
speed probe run just before and just after it, so that ``run.py`` can scale
each unit to one machine speed before it reduces the repeats.  Package
functions are always looked up through their modules at call time, so a
tracer installed on those modules sees every call made here.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

import numpy as np

clock = time.perf_counter
cpu_clock = time.process_time  # user + system CPU of all the threads

_PROBE_POINTS = np.linspace(0.0, 1.0, 1024)


def speed_probe():
    """Wall and CPU seconds of a fixed ~0.6 ms of numpy work.

    It shares nothing with the package, so a change to the package leaves
    it alone; what moves it is how fast the machine runs this process at
    that moment.  Its CPU time leaves out time the host gave to others.
    """
    cpu, start = cpu_clock(), clock()
    for _ in range(20):
        np.exp(-3j * _PROBE_POINTS).sum()
    return clock() - start, cpu_clock() - cpu


class Units:
    """Timed units of one pass: (wall s, CPU s, probe, blas) each.

    ``probe`` is the mean [wall s, CPU s] of the probes run just before and
    just after the unit (consecutive units share the probe between them),
    or None in a traced pass, which runs no probes (they would show as time
    no span covers).  ``blas`` marks a unit that runs on BLAS threads over
    both vCPUs.
    """

    def __init__(self, probe=True):
        self.probe = probe
        self.times = []
        self._before = speed_probe() if probe else None

    @contextlib.contextmanager
    def unit(self, blas=False):
        """Time the block as one unit, even if it raises."""
        cpu, start = cpu_clock(), clock()
        try:
            yield
        finally:
            wall, cpu = clock() - start, cpu_clock() - cpu
            after = speed_probe() if self.probe else None
            probe = ([0.5 * (b + a) for b, a in zip(self._before, after)]
                     if self.probe else None)
            self.times.append((wall, cpu, probe, blas))
            self._before = after


def _model(spec):
    from gamow_thermo import friedrichs
    if spec["kind"] == "flat_cutoff":
        ff = friedrichs.FlatCutoff(cutoff=spec["cutoff"])
    else:
        ff = friedrichs.RationalFormFactor(scale=spec["scale"])
    return friedrichs.FriedrichsModel(omega0=spec["omega0"], lam=spec["lam"],
                                      form_factor=ff)


def _failure(exc):
    return f"{type(exc).__name__}: {exc}"


# -- series_warm ---------------------------------------------------------

def _series_setup(inputs):
    from gamow_thermo import decay, friedrichs
    model = _model(inputs["model"])
    decay.density_table(model)
    return model, friedrichs.find_pole(model)


def _series_pass(state, inputs, pass_dir, tracer):
    """One survival series, row by row as the CLI does, then its regimes."""
    import numpy as np
    from gamow_thermo import decay
    model, pole = state
    rows, amps = [], []
    units = Units(probe=tracer is None)
    for t in inputs["times"]:
        with units.unit():
            try:
                amp = decay.survival_amplitude(model, float(t))
            except Exception as exc:  # counted as failed; the run goes on
                rows.append({"t": t, "error": _failure(exc)})
                continue
        amps.append(amp)
        rows.append({"t": t, "re": amp.real, "im": amp.imag})
    out = {"rows": rows, "pole": [pole.e_r, pole.gamma]}
    with units.unit():
        try:
            zeno = decay.zeno_check(model)
            out["zeno"] = [float(zeno[0]), float(zeno[1])]
        except Exception as exc:
            out["zeno_error"] = _failure(exc)
    with units.unit():
        try:
            if len(amps) != len(rows):
                raise RuntimeError("series incomplete, regimes not "
                                   "classified")
            amps = np.asarray(amps)
            series = decay.SurvivalSeries(
                times=np.asarray(inputs["times"], dtype=float),
                amplitudes=amps, probabilities=np.abs(amps) ** 2)
            report = decay.classify_regimes(series, pole)
            out["regimes"] = {"gamma_fit": float(report.gamma_fit),
                              "exponential_window":
                                  list(report.exponential_window)}
        except Exception as exc:
            out["regimes_error"] = _failure(exc)
    return out, units.times


# -- pole_oracle ---------------------------------------------------------

def _oracle_setup(inputs):
    import gamow_thermo.cli  # noqa: F401  (the jobs' import cost)
    return None


def _oracle_pass(state, inputs, pass_dir, tracer):
    """Small CLI jobs, the ladder ODE check and the eigen-sum oracle."""
    from gamow_thermo import cli, evolution, friedrichs
    work = pass_dir.parent  # the configs sit next to the pass directories
    jobs = []
    units = Units(probe=tracer is None)
    written = 0
    for key in inputs["cli_jobs"]:
        out = pass_dir / f"{key}.csv"
        argv = [key.split("_")[0], "--config", str(work / f"{key}.cfg"),
                "--out", str(out), "--quiet"]
        with units.unit():
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code = _failure(exc)
        written += sum(p.stat().st_size for p in pass_dir.glob(f"{key}*"))
        jobs.append({"key": key, "exit": code})
    out = {"jobs": jobs}
    if tracer is not None:
        tracer.counts["cli.bytes_written"] += written

    with units.unit():
        try:
            e_r, gamma = inputs["ode_pole"]
            pole = friedrichs.ResonancePole(e_r=e_r, gamma=gamma)
            out["ode_dev"] = float(evolution.verify_ode_solutions(
                pole, inputs["ode_grid"]))
        except Exception as exc:
            out["ode_error"] = _failure(exc)

    oracle = []
    for lam in inputs["oracle_lambdas"]:
        spec = dict(inputs["oracle_model"], lam=lam)
        with units.unit(blas=True):
            try:
                model = _model(spec)
                pole = friedrichs.find_pole(model)
                spectrum = friedrichs.discretize(
                    model, inputs["oracle_bins"], spec["cutoff"])
            except Exception as exc:
                oracle.append({"lam": lam, "error": _failure(exc)})
                continue
        oracle.append({"lam": lam, "e_r": pole.e_r, "gamma": pole.gamma,
                       "eigenvalues": spectrum.eigenvalues.tolist(),
                       "overlaps": spectrum.overlaps.tolist()})
    out["oracle"] = oracle
    return out, units.times


SESSIONS = {
    "series_warm": (_series_setup, _series_pass),
    "pole_oracle": (_oracle_setup, _oracle_pass),
}


def _setup_only(plan):
    import gamow_thermo.cli  # noqa: F401
    if plan["workload"] == "series_warm":
        _series_setup(plan["inputs"])
    return {"setup_s": clock() - plan["t0"]}


def _timed_pass(pass_fn, state, plan, index, tracer=None):
    pass_dir = Path(plan["work_dir"]) / f"pass{index}"
    pass_dir.mkdir(parents=True, exist_ok=True)
    if tracer is None:
        out, units = pass_fn(state, plan["inputs"], pass_dir, None)
    else:
        out, units = tracer.section("job", pass_fn, state, plan["inputs"],
                                    pass_dir, tracer)
    return {"units": units, "outputs": out}


def _session(plan):
    setup_fn, pass_fn = SESSIONS[plan["workload"]]
    if not plan["trace"]:
        state = setup_fn(plan["inputs"])
        result = {"setup_s": clock() - plan["t0"], "passes": []}
        for k in range(plan["passes"]):
            result["passes"].append(_timed_pass(pass_fn, state, plan, k))
        return result

    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    state = tracer.section("setup", setup_fn, plan["inputs"])
    tracer.uninstall()
    plain = _timed_pass(pass_fn, state, plan, 0)
    tracer.install()
    traced = _timed_pass(pass_fn, state, plan, 1, tracer)
    tracer.uninstall()
    tracer.write(plan["spans_out"])
    metrics = tracer.metrics()
    # the units alone: the plain pass also spends time on speed probes
    metrics["trace_overhead_frac"] = (sum(u[0] for u in traced["units"])
                                      / sum(u[0] for u in plain["units"])
                                      - 1.0)
    return {"passes": [plain, traced], "trace": metrics}


def _traced_cli(plan):
    from spans import Tracer
    from gamow_thermo import cli
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.section("job", cli.main, plan["argv"])
    except SystemExit as exc:
        code = exc.code
    tracer.uninstall()
    out = Path(plan["argv"][plan["argv"].index("--out") + 1])
    tracer.counts["cli.bytes_written"] += sum(
        p.stat().st_size for p in out.parent.glob(f"{out.stem}*"))
    tracer.write(plan["spans_out"])
    return {"exit": code, "trace": tracer.metrics()}


def main(plan_path):
    plan = json.loads(Path(plan_path).read_text())
    mode = {"setup": _setup_only, "session": _session,
            "cli": _traced_cli}[plan["mode"]]
    result = mode(plan)
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
