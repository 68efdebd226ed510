"""Steadiness report: run the benchmark over several seeds and check
that every end-to-end metric is steady enough for its bound.

    python3 perfbench/steady.py --workloads fleet-jittered,paper-quick \\
        --seeds 0-9 [--sets 2] [--seconds 25]

For each workload and end-to-end metric it prints the median, the
quartiles and the run count, and the spread (interquartile distance
over the median).  It flags a spread above the metric's bound, and a
metric whose runs split into two clusters -- the signature of a
cold/warm cache leak or of a sleep-quantized path.  With ``--sets 2``
it runs the seeds twice and also reports how far the second set's
median moved from the first's.  Every run's JSON line is kept in
``perfbench/_out/steady.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402
from make_refs import seed_range  # noqa: E402


def spread(values) -> tuple:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def bimodal(values, bound: float) -> bool:
    """Two clusters: the widest gap between sorted neighbours leaves at
    least two runs on each side, is over twice the width of either
    cluster, and is worth more than half the bound."""
    ordered = sorted(values)
    if len(ordered) < 4:
        return False
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    cut = max(range(len(gaps)), key=gaps.__getitem__)
    left, right = ordered[:cut + 1], ordered[cut + 1:]
    if len(left) < 2 or len(right) < 2:
        return False
    width = max(left[-1] - left[0], right[-1] - right[0])
    return gaps[cut] > 2 * width and \
        gaps[cut] > 0.5 * bound * statistics.median(ordered)


def run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed: "
                         f"{done.stderr.strip()[-300:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seed_range, default="0-9")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    (HERE / "_out").mkdir(exist_ok=True)
    log = (HERE / "_out" / "steady.jsonl").open("a")
    values = {}                  # (workload, set, metric) -> [values]
    for index in range(args.sets):
        for workload in workloads:
            for seed in args.seeds:
                result = run(workload, seed, args.seconds)
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "set": index, **result}) + "\n")
                log.flush()
                if not result["correct"]:
                    print(f"{workload} seed {seed}: NOT CORRECT "
                          f"({result['failed']}/{result['attempted']} "
                          "failed)")
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, index, name),
                                      []).append(metric["value"])
    ok = True
    for workload in workloads:
        for name, unit, _better, bound in metrics.END_TO_END:
            medians = []
            for index in range(args.sets):
                series = values[(workload, index, name)]
                median, q1, q3, share = spread(series)
                medians.append(median)
                flags = []
                if share > bound:
                    flags.append("SPREAD>BOUND")
                    ok = False
                elif share > bound / 3:
                    flags.append("spread>bound/3")
                if bimodal(series, bound):
                    flags.append("BIMODAL")
                print(f"{workload:<20} set {index} {name:<12} "
                      f"median {median:9.4f} {unit:<3} q1 {q1:9.4f} "
                      f"q3 {q3:9.4f} n={len(series):<2} spread "
                      f"{100 * share:5.1f}% (bound {100 * bound:.0f}%) "
                      + " ".join(flags))
            if len(medians) > 1:
                shift = medians[-1] / medians[0] - 1.0
                flag = "" if shift <= bound else " MEDIAN MOVED>BOUND"
                ok = ok and not flag
                print(f"{workload:<20} {name:<12} second median "
                      f"{100 * shift:+.1f}% vs first{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
