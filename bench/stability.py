"""Repeatability check of the benchmark, and the record of a baseline.

Runs bench/run.py once per (set, seed, workload), each run in its own child
process, one at a time, and reports for every metric the spread of its
values across seeds: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. With two sets
it also reports how far the second set's median moved from the first, and,
in traced mode, whether every exact counter repeated seed by seed.

    python3 bench/stability.py --seeds 10 --sets 2 --out bench/baseline-e2e.json
    python3 bench/stability.py --seeds 5 --workloads desk_picard --trace 1

A spread above a third of the metric's bound, or a median that moved by more
than the bound, is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import run_child  # noqa: E402
from tracing import EXACT_METRICS  # noqa: E402


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return "unknown"


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="at least 2")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None, help="write the results as JSON")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = list(range(args.seeds))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []  # runs[set][workload][seed] = result
    environment = None
    ok = True
    for s in range(args.sets):
        results = {w: {} for w in workloads}
        for seed in seeds:  # seed-major, so slow drift of the machine hits every workload
            for w in workloads:
                _, res, environment = run_child(w, seed, args.seconds, args.trace)
                results[w][seed] = res
                if not res["correct"] or res["failed"]:
                    ok = False
                    print(f"INCORRECT set {s} {w} seed {seed}: {res}")
                print(f"set {s} {w} seed {seed}: " + ", ".join(
                    f"{m}={v['value']:.6g}" for m, v in res["metrics"].items()
                    if args.trace == 0 or m in ("spectral.transforms", "nse.iterations")),
                    flush=True)
        runs.append(results)

    report = {"environment": environment, "cpu": _cpu_model(), "run_seconds": args.seconds,
              "trace": args.trace, "seeds": seeds, "sets": []}
    for s, results in enumerate(runs):
        per_workload = {}
        for w in workloads:
            metrics = results[w][seeds[0]]["metrics"]
            per_workload[w] = {m: _summary([results[w][seed]["metrics"][m]["value"]
                                            for seed in seeds]) for m in metrics}
            if args.trace:
                continue
            for m, summ in per_workload[w].items():
                flag = ""
                if summ["spread"] > bounds[m] / 3:
                    flag = "  SPREAD ABOVE BOUND/3"
                    ok = False
                print(f"set {s} {w:<14} {m:<12} median {summ['median']:.6g} "
                      f"spread {summ['spread']:.4f} (bound {bounds[m]}){flag}")
        report["sets"].append(per_workload)
    if args.sets == 2 and args.trace == 0:
        for w in workloads:
            for m, first in report["sets"][0][w].items():
                second = report["sets"][1][w][m]
                moved = (second["median"] - first["median"]) / first["median"]
                flag = "  WORSE BY MORE THAN BOUND" if moved > bounds[m] else ""
                ok = ok and not flag
                print(f"{w:<14} {m:<12} second median moved {moved:+.4f} "
                      f"(bound {bounds[m]}){flag}")
    if args.sets == 2 and args.trace == 1:
        for w in workloads:
            for seed in seeds:
                a, b = (runs[i][w][seed]["metrics"] for i in (0, 1))
                drift = [m for m in EXACT_METRICS if a[m]["value"] != b[m]["value"]]
                if drift:
                    ok = False
                    print(f"COUNTER DRIFT {w} seed {seed}: {drift}")
        print("exact counters compared across sets: " + ", ".join(EXACT_METRICS))
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
