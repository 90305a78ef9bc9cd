"""qkdrelay benchmark: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload figure-tables --seed 1 --seconds 30 \
        --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
from a traced run, and the spans are written to ``.perfbench_out/``.  The
lines before it are a readable summary and the environment record.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORK_UNITS = {  # what one item of items_per_s is, per workload
    "figure-tables": "table rows emitted (cells_per_s)",
    "optimum-scan": "operating points answered (scans_per_s)",
    "mc-validation": "pulses simulated (pulses_per_s)",
}
# Fresh interpreters timed for setup_s: half before and half after the jobs,
# so that their median spans the run's window, not one moment of it.
SETUP_RUNS = 24


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORK_UNITS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; a job started before it ends runs "
                        "to completion (mc-validation: a whole grid pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu, "commit": commit,
            "seed": seed, "loadavg": list(os.getloadavg())}


def time_setup(workload: str, seed: int, runs: int) -> list:
    """Seconds from spawning a fresh interpreter until it has imported the
    workload's entry module and generated its first input (CLOCK_MONOTONIC is
    shared between processes)."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    for _ in range(runs + 1):  # the first spawn warms the bytecode cache
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples[1:]


def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it; the maximum when there are fewer than eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Loop:
    """Closed loop: clear the job's outputs, run it, stop the clock, check
    its output, repeat.  At least one job (mc-validation: one grid pass)
    runs, so ``seconds=0`` runs exactly that."""

    def __init__(self, wl, inputs, out_dir: Path) -> None:
        self.wl, self.inputs, self.out_dir = wl, inputs, out_dir
        self.times: list[float] = []
        self.items = 0
        self.failed = 0
        self.next_job = 0

    def run(self, seconds: float, tracer=None) -> list:
        wl = self.wl
        times: list[float] = []
        t_start = time.perf_counter()
        while True:
            if times and self.next_job % wl.pass_len == 0 \
                    and time.perf_counter() - t_start >= seconds:
                break
            job_id = self.next_job
            job = next(self.inputs)
            self.next_job += 1
            for fname in wl.outputs(job):
                (self.out_dir / fname).unlink(missing_ok=True)
            scope = tracer.job(job_id) if tracer else nullcontext()
            t0 = time.perf_counter()
            try:
                with scope:
                    result = wl.run_job(job, self.out_dir)
                error = None
            except Exception as exc:  # a crashing job is a failed operation
                error = exc
            dt = time.perf_counter() - t0
            if error is None:
                try:
                    ok = wl.check(job, result, self.out_dir)
                    if ok:
                        self.items += wl.items(job, result, self.out_dir)
                except Exception as exc:  # unreadable output fails the job
                    error = exc
            if error is not None:
                ok = False
                print(f"job {job_id} raised {error!r}", file=sys.stderr)
            times.append(dt)
            self.failed += not ok
        self.times.extend(times)
        return times


def summary_line(name: str, value, unit: str, note: str = "") -> str:
    return f"  {name:<36} {value:>12.6g} {unit:<5} {note}".rstrip()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qkdrelay" / "__init__.py").is_file():
        print(f"error: no qkdrelay sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    inputs = wl.inputs(args.seed)
    if args.probe_setup:
        next(inputs)
        print(time.monotonic())
        return 0

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    loop = Loop(wl, inputs, out_dir)

    if args.trace:
        import tracing
        untraced = loop.run(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            loop.run(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        speedup = (workloads.mc_worker_speedup()
                   if args.workload == "mc-validation" else 0.0)
        spans = out_dir / f"spans-seed{args.seed}.npz"
        tracer.save(spans)
        metrics = tracing.analyze(tracer, statistics.median(untraced), speedup)
        metrics["montecarlo.false_alarm_ratio"] = {
            "value": getattr(wl, "false_alarms", 0) / len(loop.times),
            "unit": "ratio"}
        print(f"{args.workload} traced, seed {args.seed}: "
              f"{len(loop.times)} jobs ({len(untraced)} untraced), "
              f"{loop.failed} failed; spans in {spans.relative_to(ROOT)}")
        for name, m in metrics.items():
            print(summary_line(name, m["value"], m["unit"]))
    else:
        setup = time_setup(args.workload, args.seed, SETUP_RUNS // 2)
        t_run = time.perf_counter()
        times = loop.run(args.seconds)
        wall = time.perf_counter() - t_run
        setup += time_setup(args.workload, args.seed, SETUP_RUNS // 2)
        p_tail, q_tail = tail(times)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "job_s.p50": {"value": statistics.median(times), "unit": "s"},
            "job_s.tail": {"value": p_tail, "unit": "s"},
            "items_per_s": {"value": loop.items / sum(times), "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0, "unit": "MB"},
        }
        n = len(times)
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "job_s.p50": f"{n} jobs",
            "job_s.tail": f"p{q_tail:.1f} of {n} jobs",
            "items_per_s": WORK_UNITS[args.workload],
            "peak_rss_mb": "ru_maxrss of the workload process",
        }
        print(f"{args.workload}, seed {args.seed}: {n} jobs in {wall:.1f} s, "
              f"one closed-loop client")
        for name, m in metrics.items():
            print(summary_line(name, m["value"], m["unit"], notes[name]))
        print(summary_line("fail_ratio", loop.failed / n, "ratio",
                           f"{loop.failed} of {n} jobs failed their check"))
        if args.workload == "mc-validation":
            print(summary_line("false_alarms", wl.false_alarms, "count",
                               "`mc` |z| > 4 flags the exact test rejects"))

    print(json.dumps({"correct": loop.failed == 0,
                      "attempted": len(loop.times),
                      "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
