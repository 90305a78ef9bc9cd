"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

They run each workload for one job (mc-validation: one grid pass) and check
the result line against BENCHMARK.json, and check that corrupted, missing or
wrong outputs count as failures.
"""
from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SCRATCH = run.OUT / "selftest"


def bench(workload: str, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, spec: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    stdout, result = bench(workload, 0)
    assert_metrics(result, BENCH["end_to_end"])
    assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])
    env = json.loads(stdout.splitlines()[0].split(" ", 1)[1])
    assert {"nproc", "python", "numpy", "cpu", "commit", "seed",
            "loadavg"} <= set(env)
    fail_line = next(ln for ln in stdout.splitlines()
                     if ln.split()[:1] == ["fail_ratio"])
    assert float(fail_line.split()[1]) == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    _, result = bench(workload, 1)
    assert_metrics(result, BENCH["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "figure-tables":
        assert m["cli.main.s.keyrate"] > 0
        assert m["montecarlo.simulate.calls"] == 0
    if workload == "optimum-scan":
        assert m["optimize.optimal_sections.calls"] == 1
        assert m["optimize.max_distance_exact.calls"] == 30
        assert m["cli.self_s"] == 0
    if workload == "mc-validation":
        assert m["montecarlo.simulate.calls"] == 1
        assert m["montecarlo.worker_speedup"] > 0
    # Every span of a job lies inside it, so the layers' self times plus the
    # job's own (unspanned) remainder add up to the job's duration.
    spans = np.load(run.OUT / workload / "spans-seed1.npz")
    dur = spans["end"] - spans["start"]
    self_s = tracing.self_times(spans["parent"], dur)
    is_job = spans["names"][spans["name_id"]] == tracing.JOB
    for job in np.flatnonzero(is_job):
        mine = spans["job_id"] == spans["job_id"][job]
        assert self_s[mine].sum() == pytest.approx(dur[job], rel=1e-9)


def test_keyrate_evaluates_link_metrics_four_times_per_cell():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    main = workloads.cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.job(0):
            workloads.cli.main(["keyrate", "--sections", "1..2", "--dmax", "9",
                                "--out", str(SCRATCH / "keyrate.csv")])
    finally:
        tracer.uninstall()
    metrics = tracing.analyze(tracer, 1.0, 0.0)
    assert tracer.cells == 20
    assert metrics["model.link_evals_per_cell"]["value"] == 4.0
    assert workloads.cli.main is main


class CorruptingFigureTables(workloads.FigureTables):
    """Runs the real figure job, then flips one byte of one output."""

    def run_job(self, job, out_dir):
        codes = super().run_job(job, out_dir)
        path = out_dir / "maxdist.json"
        data = bytearray(path.read_bytes())
        data[-3] ^= 1
        path.write_bytes(bytes(data))
        return codes


def test_corrupted_figure_output_counts_as_failure():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    good = workloads.FigureTables()
    job = next(good.inputs(1))
    codes = good.run_job(job, SCRATCH)
    assert good.check(job, codes, SCRATCH)

    copy = SCRATCH / "corrupt"
    copy.mkdir(exist_ok=True)
    for fname, _ in job:
        shutil.copy(SCRATCH / fname, copy / fname)
    with open(copy / "keyrate.csv", "r+b") as f:
        f.seek(200)
        byte = f.read(1)
        f.seek(200)
        f.write(bytes([byte[0] ^ 1]))
    assert not good.check(job, codes, copy)

    loop = run.Loop(CorruptingFigureTables(), iter([job]), SCRATCH)
    loop.run(seconds=0.0)
    assert (len(loop.times), loop.failed) == (1, 1)


class SilentFigureTables(workloads.FigureTables):
    """Reports success for every command without writing any output."""

    def run_job(self, job, out_dir):
        return [0] * len(job)


def test_missing_figure_output_counts_as_failure():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    good = workloads.FigureTables()
    job = next(good.inputs(1))
    assert good.check(job, good.run_job(job, SCRATCH), SCRATCH)
    # the correct files of the job before must not pass for this one
    loop = run.Loop(SilentFigureTables(), iter([job]), SCRATCH)
    loop.run(seconds=0.0)
    assert (len(loop.times), loop.failed, loop.items) == (1, 1, 0)
    assert not any((SCRATCH / fname).exists() for fname, _ in job)


def test_optimum_scan_check_rejects_wrong_answers():
    scan = workloads.OptimumScan()
    point = next(scan.inputs(7))
    assert point.default
    n_star, d_star = scan.run_job(point, SCRATCH)
    assert scan.check(point, (n_star, d_star), SCRATCH)
    assert not scan.check(point, (n_star, d_star + 5.0), SCRATCH)
    assert not scan.check(point, (n_star, d_star - 5.0), SCRATCH)
    assert not scan.check(point, (17, d_star), SCRATCH)


def first(iterator, count: int) -> list:
    return list(itertools.islice(iterator, count))


def test_inputs_follow_the_seed_and_never_repeat():
    points = workloads.operating_points
    assert first(points(3), 50) == first(points(3), 50)
    assert first(points(3), 50) != first(points(4), 50)
    assert len(set(first(points(3), 20000))) == 20000
    cells = workloads.mc_cells
    assert first(cells(3), 40) == first(cells(3), 40)
    assert first(cells(3), 40) != first(cells(4), 40)
    # every pass covers the grid in order, with fresh seeds
    passes = first(cells(3), 5 * 18)
    grid = [(c.n, c.distance_km) for c in passes[:18]]
    assert len(set(grid)) == 18
    assert all([(c.n, c.distance_km) for c in passes[18 * k:18 * (k + 1)]]
               == grid for k in range(5))
    assert len({c.seed for c in passes}) == len(passes)


def mc_report(cell, accepted, correct, z_p, z_v, passed):
    return {"config": {"n_sections": cell.n, "distance_km": cell.distance_km,
                       "trials": workloads.MC_TRIALS, "seed": cell.seed},
            "analytic": {"p_total": float(format(
                workloads.link_metrics(workloads.RelayConfig(
                    cell.n, cell.distance_km)).p_total, ".10g"))},
            "estimate": {"accepted": accepted, "correct": correct},
            "z_scores": {"p_total": z_p, "v_ab": z_v},
            "threshold": 4.0, "pass": passed}


def test_mc_check():
    cell = workloads.McCell(4, 200.0, 5)
    # one event where 0.02 are expected: |z_p| = 6.6, but P(K >= 1) is 2%
    assert workloads.mc_check(cell, 1, mc_report(cell, 1, 1, 6.6, 0.2,
                                                 False)) == (True, True)
    # forty events where 0.02 are expected is a real disagreement
    assert workloads.mc_check(cell, 1, mc_report(cell, 40, 36, 270.0, 0.1,
                                                 False)) == (False, False)
    assert workloads.mc_check(cell, 0, mc_report(cell, 0, 0, -0.1, None,
                                                  True)) == (True, False)
    # a report about another cell is wrong even if it passes
    other = workloads.McCell(4, 100.0, 5)
    assert workloads.mc_check(cell, 0, mc_report(other, 6, 6, 0.1, 0.5,
                                                 True)) == (False, False)


def test_exact_binomial_matches_normal_tail_for_large_counts():
    n, p = 10 ** 6, 0.1
    k = int(n * p + 4.0 * math.sqrt(n * p * (1 - p)))
    assert workloads.binom_two_sided_p(k, n, p) == pytest.approx(
        workloads.FOUR_SIGMA_P, rel=0.1)
    assert workloads.binom_two_sided_p(0, 10 ** 6, 2e-8) == 1.0


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    samples = list(range(100))
    assert run.tail(samples) == (89, 90.0)
