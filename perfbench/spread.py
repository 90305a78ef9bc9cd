"""Run the benchmark over several seeds and report each end-to-end metric's
median and run-to-run spread (interquartile range over median).

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 1]
        [--save perfbench/baseline/NAME.json] [--compare EARLIER.json]

Run length and bounds come from BENCHMARK.json.  A spread is marked "ok"
when it is below a third of the metric's bound.  With --compare, each
median is also set against the same metric's median in an earlier saved
set, and marked "WORSE" when it is worse by more than the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(spec: str) -> list:
    if "-" in spec:
        lo, hi = spec.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in spec.split(",")]


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    lines = done.stdout.strip().splitlines()
    env = json.loads(lines[0].split(" ", 1)[1])
    return env, json.loads(lines[-1])


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None,
                   help="comma list (default: all in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", default=None, help="write all results here")
    p.add_argument("--compare", default=None,
                   help="an earlier --save file to compare medians against")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    earlier = (json.loads(Path(args.compare).read_text(encoding="utf-8"))
               if args.compare else None)
    seeds = parse_seeds(args.seeds)
    saved = {"run_seconds": bench["run_seconds"], "trace": args.trace,
             "seeds": seeds, "workloads": {}}
    ok_all = True
    for name in names:
        runs = []
        for seed in seeds:
            env, result = run_once(bench, name, seed, args.trace)
            runs.append({"env": env, "result": result})
            ok_all &= result["correct"]
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
        saved["workloads"][name] = runs
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{name}: {len(runs)} runs, fail_ratio {failed / attempted:g} "
              f"({failed} of {attempted} jobs)")
        metrics = runs[0]["result"]["metrics"]
        for metric, first in metrics.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            line = f"  {metric:<40} median {med:<12.6g} {first['unit']:<6}"
            if args.trace == 0 and len(values) >= 2 and med:
                s = spread(values)
                bound = bounds[metric]
                verdict = "ok" if s < bound / 3 else (
                    "within bound" if s <= bound else "OVER BOUND")
                line += f" spread {s:.4f} bound {bound} {verdict}"
            if earlier and name in earlier["workloads"] and metric in bounds:
                old = statistics.median(
                    r["result"]["metrics"][metric]["value"]
                    for r in earlier["workloads"][name])
                change = (med - old) / old
                worse = change if better[metric] == "lower" else -change
                line += (f" vs earlier {change:+.4f}"
                         + (" WORSE" if worse > bounds[metric] else ""))
            print(line)
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n",
                                   encoding="utf-8")
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
