"""Benchmark of the latent-ising package: four seeded closed-loop workloads.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload verify-n12 --seed 1 --seconds 25 --trace 0

One process runs one workload as a closed loop: a trial starts when the
previous one has finished and been checked.  It imports the package from
``src/`` and generates the workload's inputs from ``--seed`` (set-up, timed
five times), runs whole trials until ``--seconds`` have passed, and checks
every trial's outputs outside the timed region.  Reported times are wall
times scaled to a reference machine speed (see :func:`speed`).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it carries the
details: raw wall times, the tail percentile and how many trials lie beyond
it, answer quality, host and thread caps.

With ``--trace 1`` the loop runs for half the time with every layer
function wrapped (see ``tracer.py``), then repeats the same trials untraced
to measure the tracing overhead, and writes the spans to
``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: thread pools capped at the cores this process may use
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "LATENT_ISING_THREADS")

#: set-ups timed per run; setup_s is their median
SETUP_REPEATS = 5

#: traced trials over which the exact counts are taken
COUNT_TRIALS = 4

#: the calibration kernel's best-of-three time, in seconds, that defines the
#: reference machine speed; near its time on the 2-vCPU x86_64 VM of the baseline
CAL_REF_S = 0.0016


def cap_threads() -> dict:
    """Cap BLAS and package threads at nproc; call before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        wanted = int(value) if value.isdigit() and int(value) > 0 else nproc
        os.environ[var] = str(min(wanted, nproc))
    return {"nproc": nproc, **{var: int(os.environ[var]) for var in THREAD_VARS}}


def host_info(threads: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "threads": threads,
    }


def _kernel() -> int:
    """Fixed pure-Python work: integer arithmetic and dict updates."""
    table: dict = {}
    acc = 0
    for i in range(8000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += (i * 7) % 13
    return acc + len(table)


def speed() -> float:
    """Machine speed now, relative to the reference (1.0; lower is slower).

    The machine this benchmark runs on may be shared.  On the 2-vCPU VM of
    the baseline its speed moved by a factor of two within an hour and by
    20% within a minute, for this kernel and the trials alike.  Every
    reported time is a wall time multiplied by the speed measured around
    it: the time it would have taken at the reference speed.  On that VM
    this cut the run-to-run spread of trials_per_s from about 0.25 to 0.05.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return CAL_REF_S / best


def set_up(workload, seed: int, params: dict):
    """Fresh import of the package plus input generation, timed several times.

    numpy and the standard library stay loaded between repeats, so the
    median is the package's own import and the workload's generation.
    Returns the package, the input pool, and the raw and scaled medians.
    """
    from tracer import LAYERS, PACKAGE
    from workloads import make_pool

    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        before = speed()
        start = time.perf_counter()
        li = importlib.import_module(PACKAGE)
        for short in LAYERS:
            importlib.import_module(f"{PACKAGE}.{short}")
        pool = make_pool(li, workload, seed, params)
        times.append(time.perf_counter() - start)
        scaled.append(times[-1] * (before + speed()) / 2)
    return li, pool, statistics.median(times), statistics.median(scaled)


def run_trials(li, workload, pool, params, seconds, min_trials=1, trials=None, tracer=None):
    """Closed loop over the pool.

    Runs exactly ``trials`` trials when given, else whole trials until
    ``seconds`` have passed and at least ``min_trials`` have run.  Returns
    the wall time of each trial, the machine speed around each trial (see
    :func:`speed`), failures as (trial, problems) and per-trial answer
    quality.
    """
    times, samples, failures, quality = [], [speed()], [], []
    start = time.perf_counter()
    k = 0
    while (k < trials) if trials is not None else (
        k < min_trials or time.perf_counter() - start < seconds
    ):
        inp = pool[k % len(pool)]
        if tracer is not None:
            tracer.trial = k
            if k == min_trials:
                tracer.prefix = tracer.snapshot()
        t0 = time.perf_counter()
        try:
            out = workload.trial(li, inp, params)
        except Exception as exc:  # a trial that raises is a counted failure
            out = None
            error = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.paused = True
        samples.append(speed())
        if out is None:
            failures.append((k, [error]))
        else:
            problems, q = workload.check(li, inp, out, params, k)
            if problems:
                failures.append((k, problems))
            quality.append(q)
        if tracer is not None:
            tracer.paused = False
        k += 1
    if tracer is not None and tracer.prefix is None:
        tracer.prefix = tracer.snapshot()
    # a trial's speed is the median of the samples from two trials before
    # it to two after it: the machine drifts over seconds, and the median
    # keeps one noisy sample from moving a trial's time
    speeds = [statistics.median(samples[max(0, k - 2):k + 4]) for k in range(len(times))]
    return times, speeds, failures, quality


def layer_hooks():
    """Work counts recorded at layer boundaries."""

    def constraints(tr, stat, args, result):
        stat.add("constraints", len(args[0].constraints))

    def rows(tr, stat, args, result):
        stat.add("rows", args[1])

    def file_bytes(tr, stat, args, result):
        if os.path.exists(args[0]):
            stat.add("bytes", os.path.getsize(args[0]))

    def changed(tr, stat, args, result):
        if result is not None:
            stat.add("changed_quartets", sum(len(m.changed_quartets) for m in result.moves))

    def components(tr, stat, args, result):
        # single-leaf components take no fit, so they are not counted
        if result is not None:
            stat.add("components", sum(c.topology.leaf_count > 1 for c in result.components))

    def fit_attempt(tr, stat, args, result):
        if tr.inside("learn_unknown.learn_unknown_from_correlations"):
            stat.add("attempts_in_learn_unknown", 1)

    def estimate(tr, stat, args, result):
        if tr.inside("cli.learn-known") or tr.inside("cli.learn-unknown"):
            stat.add("calls_in_learn_command", 1)

    return {
        "solvers.lp_feasible": constraints,
        "distribution.sample": rows,
        "distribution.read_samples": file_bytes,
        "distribution.write_samples": file_bytes,
        "interpolate.interpolate": changed,
        "learn_unknown.learn_unknown_from_correlations": components,
        "learn_known.fit_known": fit_attempt,
        "estimation.empirical_correlations": estimate,
    }


def summarize(times, speeds, failures, quality) -> dict:
    """Trial figures at the reference speed, with the raw wall-time ones."""
    from metrics import TAIL_PCT, mean, tail

    scaled = [t * s for t, s in zip(times, speeds)]
    tail_s = tail(scaled)
    return {
        "trials": len(times),
        "failed": len(failures),
        "failed_frac": len(failures) / len(times),
        "trials_per_s": len(times) / sum(scaled),
        "trial_p50_s": statistics.median(scaled),
        "trial_tail_s": tail_s,
        "trial_tail_pct": TAIL_PCT,
        "trials_beyond_tail": sum(t > tail_s for t in scaled),
        "wall_trials_per_s": len(times) / sum(times),
        "wall_trial_p50_s": statistics.median(times),
        "wall_trial_tail_s": tail(times),
        "speed_median": statistics.median(speeds),
        "tv_fit_mean": mean(q["tv_fit"] for q in quality if "tv_fit" in q),
        "tv_forest_mean": mean(q["tv_forest"] for q in quality if "tv_forest" in q),
        "recovered_frac": mean(q["recovered"] for q in quality if "recovered" in q),
        "failures": [{"trial": k, "problems": p} for k, p in failures[:5]],
        "trial_times": times,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, params=None,
        threads=None) -> dict:
    """One benchmark run; returns the detail record and the result line."""
    from metrics import END_TO_END, PER_LAYER, layer_values
    from tracer import Tracer
    from workloads import WORKLOADS, work_dir

    workload = WORKLOADS[workload_name]
    params = params or workload.params
    li, pool, wall_setup_s, setup_s = set_up(workload, seed, params)

    # every workload runs in its own scratch directory inside the checkout;
    # the CLI pipeline writes its files there under relative names
    cwd = os.getcwd()
    scratch = work_dir(ROOT, workload_name, seed)
    os.makedirs(scratch, exist_ok=True)
    os.chdir(scratch)
    try:
        if not trace:
            times, speeds, failures, quality = run_trials(li, workload, pool, params, seconds)
            summary = summarize(times, speeds, failures, quality)
            values = {
                "trials_per_s": summary["trials_per_s"],
                "trial_p50_s": summary["trial_p50_s"],
                "trial_tail_s": summary["trial_tail_s"],
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {name: unit for name, unit, _, _ in END_TO_END}
        else:
            tracer = Tracer(layer_hooks())
            tracer.install()
            try:
                # half the time traced, then the same trials untraced
                times, speeds, failures, quality = run_trials(
                    li, workload, pool, params, seconds / 2, min_trials=COUNT_TRIALS,
                    tracer=tracer,
                )
            finally:
                tracer.uninstall()
            plain = summarize(*run_trials(li, workload, pool, params, seconds, trials=len(times)))
            if plain["failed"]:
                failures.append((None, ["a trial failed in the untraced repeat"]))
            summary = summarize(times, speeds, failures, quality)
            values = layer_values(tracer.snapshot(), tracer.prefix, len(times), COUNT_TRIALS,
                                  summary["speed_median"])
            values.update({
                "trace.overhead_frac": 1.0 - summary["trials_per_s"] / plain["trials_per_s"],
                "trace.top_level_share": tracer.top_level_s / sum(times),
                "quality.tv_fit_mean": summary["tv_fit_mean"],
                "quality.tv_forest_mean": summary["tv_forest_mean"],
                "quality.recovered_frac": summary["recovered_frac"],
                "run.failed_frac": summary["failed_frac"],
                "run.trials": summary["trials"],
            })
            units = {name: unit for name, unit, _ in PER_LAYER}
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            tracer.write(
                os.path.join(HERE, "out", f"trace-{workload_name}-{seed}.json"),
                {"workload": workload_name, "seed": seed, "trial_times": times},
            )
    finally:
        os.chdir(cwd)
        shutil.rmtree(scratch, ignore_errors=True)

    detail = {
        "workload": workload_name,
        "seed": seed,
        "params": params,
        "trace": trace,
        "setup_s": setup_s,
        "wall_setup_s": wall_setup_s,
        **summary,
        "host": host_info(threads or {}),
    }
    result = {
        "correct": not failures,
        "attempted": summary["trials"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return {"detail": detail, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "latent_ising")):
        print(f"no package source at {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    threads = cap_threads()
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), threads=threads)
    print(json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
