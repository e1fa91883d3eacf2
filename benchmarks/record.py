"""Record a labelled set of benchmark results as ``benchmarks/BENCH_<label>.json``.

Usage, from the root of a checkout::

    python3 benchmarks/record.py --label baseline --runs 10

For every workload it makes ``--runs`` untraced runs (seeds ``--first-seed``
onwards) and one traced run (the first seed), one process each and one
after another.  It keeps each end-to-end metric's median and quartiles, the
traced run's per-layer metrics, and the time per call, in the traced run
and at the reference machine speed, of the layer points ROADMAP item A
lists that the workloads cover.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: (function, workload, size note) of the item-A points these workloads cover
ROADMAP_POINTS = (
    ("distribution.marginal_distribution", "verify-n12", "n=12"),
    ("distribution.exact_tv", "verify-n12", "n=12"),
    ("distribution.closed_form_distribution", "verify-n12", "n=12, cold table"),
    ("distribution.sample", "learn-n16", "n=16, m=100k"),
    ("estimation.empirical_correlations", "learn-n16", "n=16, m=100k"),
    ("learn_known.fit_known", "learn-n16", "n=16"),
    ("learn_unknown.learn_unknown_from_correlations", "learn-n16", "n=16"),
    ("interpolate.interpolate", "interpolate-n20", "n=20"),
    ("trees.canonical_splits", "interpolate-n20", "n=20"),
)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    sys.path.insert(0, HERE)
    from metrics import LAYER_MAP

    record = {
        "label": args.label,
        "run_seconds": seconds,
        "runs": args.runs,
        "layer_map": [
            {"layer_metrics": list(names), "moves": e2e, "on": list(workloads)}
            for names, e2e, workloads in LAYER_MAP
        ],
        "workloads": {},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [one_run(workload, seed, seconds, 0) for seed in seeds]
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(values),
                "values": values,
            }
        traced = one_run(workload, seeds[0], seconds, 1)
        trace_file = os.path.join(HERE, "out", f"trace-{workload}-{seeds[0]}.json")
        with open(trace_file) as fh:
            totals = json.load(fh)["totals"]
        speed = traced["detail"]["speed_median"]
        points = {
            f"{name} ({size})": totals[name]["busy_s"] * speed / totals[name]["calls"]
            for name, w, size in ROADMAP_POINTS
            if w == workload and totals[name]["calls"]
        }
        record["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs + [traced]),
            "seeds": list(seeds),
            "trials": [r["result"]["attempted"] for r in runs],
            "speed_medians": [r["detail"]["speed_median"] for r in runs],
            "wall_trials_per_s": [r["detail"]["wall_trials_per_s"] for r in runs],
            "failed": sum(r["result"]["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "roadmap_points_s_per_call": points,
        }
        record["host"] = runs[0]["detail"]["host"]
        print(f"{workload}: recorded", flush=True)

    path = os.path.join(HERE, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
