"""Record a baseline: run the benchmark on every workload over ten seeds
with tracing off and once with tracing on, and write the figures, their
spread and the machine to ``benchmarks/baseline.json``.

    python3 benchmarks/baseline.py [--seeds 1-10]

Every run measures for ``run_seconds`` of ``BENCHMARK.json``, so the
baseline is comparable with the benchmark's own runs.

Spread is the distance between the first and third quartiles of the ten
values, as a share of their median. The runs go one after another, never
in parallel, so they do not slow each other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{done.stdout}")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = range(first, last + 1)

    out = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "processor": platform.machine()},
        "taken": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": seconds,
        "seeds": f"{first}-{last}",
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [bench(workload, seed, seconds, 0) for seed in seeds]
        end_to_end = {name: summary([r["metrics"][name]["value"] for r in runs])
                      for name in runs[0]["metrics"]}
        traced = bench(workload, first, seconds, 1)
        out["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer_seed": first,
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
        }
        print(workload, {n: round(s["spread"], 4) for n, s in end_to_end.items()},
              flush=True)
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
