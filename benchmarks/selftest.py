"""Self-test of the benchmark harness at tiny sizes (a few seconds in all).

Usage, from the root of a checkout::

    python3 benchmarks/selftest.py

Runs every workload untraced and traced at tiny sizes and checks that
every output check passes, that every metric named in ``BENCHMARK.json``
is reported with its unit, that ``BENCHMARK.json`` agrees with
``metrics.py``, and that the exact counts repeat exactly for one seed.
Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import os
import sys

import run

SEED = 3
SECONDS = 0.2


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def main() -> int:
    threads = run.cap_threads()
    sys.path.insert(0, run.SRC)
    from metrics import END_TO_END, EXACT, LAYER_MAP, PER_LAYER
    from workloads import TINY, WORKLOADS

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.py")
    check([(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
          == [tuple(m) for m in END_TO_END], "BENCHMARK.json end_to_end differs from metrics.py")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == [tuple(m) for m in PER_LAYER], "BENCHMARK.json per_layer differs from metrics.py")
    layer_names = {name for name, _, _ in PER_LAYER}
    for names, e2e, workloads in LAYER_MAP:
        check(set(names) <= layer_names, f"layer map names unknown metrics {set(names) - layer_names}")
        check(e2e in {m[0] for m in END_TO_END}, f"layer map names unknown metric {e2e}")
        check(set(workloads) <= set(WORKLOADS), f"layer map names unknown workloads {workloads}")

    for name in WORKLOADS:
        for trace, wanted in ((False, END_TO_END), (True, PER_LAYER)):
            out = run.run(name, SEED, SECONDS, trace, params=TINY[name], threads=threads)
            result = out["result"]
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace={trace}: checks failed: {out['detail']['failures']}")
            check(result["attempted"] >= 1, f"{name}: no trial attempted")
            for metric in wanted:
                got = result["metrics"].get(metric[0])
                check(got is not None and got["unit"] == metric[1],
                      f"{name} trace={trace}: metric {metric[0]} missing or wrong unit")
            if trace:
                counts = {m: result["metrics"][m]["value"] for m in EXACT}
                again = run.run(name, SEED, SECONDS, True, params=TINY[name], threads=threads)
                check(counts == {m: again["result"]["metrics"][m]["value"] for m in EXACT},
                      f"{name}: exact counts differ between two runs of one seed")
        print(f"selftest {name}: ok")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
