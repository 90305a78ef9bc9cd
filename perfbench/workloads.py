"""The three benchmark workloads: seeded inputs, one job each, output checks.

Every workload is a closed loop driven by one client: the next job starts
only after the previous one has finished and been checked.  Jobs call the
package exactly as a user would (``cli.main`` or the library API); checks run
outside the timed region.  ``inputs(seed)`` is an endless iterator of jobs;
the seeded workloads never repeat an input, so a cache inside the package
gains only what it would gain on fresh traffic.  ``outputs(job)`` names the
files a job writes, which the loop deletes before the job starts, so a job
that writes nothing cannot pass on an earlier job's files.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from qkdrelay import cli, montecarlo, optimize
from qkdrelay.model import key_rates, link_metrics
from qkdrelay.params import ChannelParams, DetectorParams, RelayConfig

NPROC = os.cpu_count() or 1
HERE = Path(__file__).resolve().parent
DIGESTS_FILE = HERE / "digests.json"

# Two-sided tail mass beyond 4 sigma: the false-alarm level of the `mc`
# subcommand's |z| <= 4 rule when its normal approximation holds.
FOUR_SIGMA_P = math.erfc(4.0 / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# figure-tables: the paper's figure set through cli.main, CSV and JSON
# ---------------------------------------------------------------------------

FIGURE_SET = [
    ("visibility", ["visibility"]),
    ("keyrate", ["keyrate"]),
    ("keyrate-reverse", ["keyrate", "--sections", "1",
                         "--reconciliation", "reverse", "--dmax", "200"]),
    ("maxdist", ["maxdist", "--method", "both"]),
    ("detector-sweep-normal", ["detector-sweep", "--distance", "400",
                               "--line", "normal"]),
    ("detector-sweep-good", ["detector-sweep", "--distance", "400",
                             "--line", "good"]),
    ("detector-sweep-best", ["detector-sweep", "--distance", "400",
                             "--line", "best"]),
    ("source-penalty", ["source-penalty", "--sources", "2"]),
]
FORMATS = ("csv", "json")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_rows(path: Path) -> int:
    """Data rows of a CSV table: lines that are neither comments nor header."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return len(lines) - 1


class FigureTables:
    name = "figure-tables"
    pass_len = 1

    def __init__(self) -> None:
        self.digests = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))

    def inputs(self, seed: int):
        # The figure set is fixed by the paper; the seed changes nothing.
        return itertools.repeat([(f"{slug}.{fmt}", argv + ["--format", fmt])
                                 for fmt in FORMATS
                                 for slug, argv in FIGURE_SET])

    def outputs(self, job) -> list:
        return [fname for fname, _ in job]

    def run_job(self, job, out_dir: Path):
        codes = []
        for fname, argv in job:
            codes.append(cli.main(argv + ["--out", str(out_dir / fname)]))
        return codes

    def check(self, job, codes, out_dir: Path) -> bool:
        return all(code == 0 for code in codes) and all(
            sha256_file(out_dir / fname) == self.digests[fname]
            for fname, _ in job)

    def items(self, job, codes, out_dir: Path) -> int:
        """Table rows emitted: each CSV's data rows, once per format."""
        return len(FORMATS) * sum(csv_rows(out_dir / fname)
                                  for fname, _ in job
                                  if fname.endswith(".csv"))


# ---------------------------------------------------------------------------
# optimum-scan: optimal_sections(n_max=30) at seeded operating points
# ---------------------------------------------------------------------------

SCAN_N_MAX = 30


@dataclass(frozen=True)
class OperatingPoint:
    channel: ChannelParams
    detector: DetectorParams
    default: bool = False


def operating_points(seed: int):
    """The paper's default point, then endlessly many seeded points."""
    rng = random.Random(seed)
    yield OperatingPoint(ChannelParams(), DetectorParams(), default=True)
    lines = sorted(optimize.DETECTOR_LINES)
    while True:
        alpha = rng.uniform(0.16, 0.35)
        v_opt = rng.uniform(0.95, 1.0)
        line = optimize.DETECTOR_LINES[rng.choice(lines)]
        eta = rng.uniform(0.05, 0.4)
        yield OperatingPoint(
            ChannelParams(alpha, v_opt),
            DetectorParams(eta, optimize.detector_dark(eta, line)))


class OptimumScan:
    name = "optimum-scan"
    pass_len = 1

    def inputs(self, seed: int):
        return operating_points(seed)

    def outputs(self, point) -> list:
        return []

    def run_job(self, point: OperatingPoint, out_dir: Path):
        return optimize.optimal_sections(point.channel, point.detector,
                                         n_max=SCAN_N_MAX)

    def check(self, point: OperatingPoint, result, out_dir: Path) -> bool:
        n_star, d_star = result
        if point.default and not (n_star == 18 and 600.0 <= d_star <= 700.0):
            return False
        if not d_star >= 0.1:
            return False

        def rate(n: int, d: float) -> float:
            cfg = RelayConfig(n, d, point.channel, point.detector)
            return key_rates(cfg).rate_forward

        return (rate(n_star, d_star - 0.1) > 0.0
                and all(rate(n, d_star + 0.1) == 0.0
                        for n in range(1, SCAN_N_MAX + 1)))

    def items(self, point, result, out_dir: Path) -> int:
        return 1


# ---------------------------------------------------------------------------
# mc-validation: one `mc` JSON report per (n, d) cell
# ---------------------------------------------------------------------------

MC_SECTIONS = (1, 2, 3, 4, 6, 18)
MC_DISTANCES = (0.0, 100.0, 200.0)
MC_TRIALS = 1_000_000
MC_SPEEDUP_REPS = 3


@dataclass(frozen=True)
class McCell:
    n: int
    distance_km: float
    seed: int


def mc_cells(seed: int):
    """Endless passes over the fixed grid; every cell of every pass has its
    own 63-bit seed drawn from ``seed``."""
    rng = random.Random(seed)
    while True:
        for n in MC_SECTIONS:
            for d in MC_DISTANCES:
                yield McCell(n, d, rng.getrandbits(63))


def _binom_log_pmf(k: int, n: int, p: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def binom_two_sided_p(k: int, n: int, p: float) -> float:
    """Exact two-sided p-value of k successes in n Bernoulli(p) trials:
    twice the smaller tail, each tail summed from k outward."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    step = 1 if k >= n * p else -1
    tail, j = 0.0, k
    while 0 <= j <= n:
        term = math.exp(_binom_log_pmf(j, n, p))
        tail += term
        if term < tail * 1e-17:
            break
        j += step
    return min(1.0, 2.0 * tail)


def mc_flag_confirmed(report: dict, p_total: float, v_ab: float) -> bool:
    """Whether an exact binomial test at the same 4-sigma level confirms at
    least one of the report's |z| > 4 flags.

    The `mc` z-scores use the normal approximation, which fails when a cell
    expects only a few accepted events (e.g. n=4, d=200 km expects 0.02 in
    1e6 trials, and one event gives z_p = 6.6).
    """
    threshold = report["threshold"]
    est = report["estimate"]
    trials = report["config"]["trials"]
    z = report["z_scores"]
    if z["p_total"] is not None and abs(z["p_total"]) > threshold:
        if binom_two_sided_p(est["accepted"], trials, p_total) < FOUR_SIGMA_P:
            return True
    if z["v_ab"] is not None and abs(z["v_ab"]) > threshold:
        q = 0.5 * (1.0 + v_ab)
        p_value = binom_two_sided_p(est["correct"], est["accepted"], q)
        if p_value < FOUR_SIGMA_P:
            return True
    return False


def mc_check(cell: McCell, code: int, report: dict) -> tuple:
    """(ok, false_alarm) for one `mc` report.

    A report passes when the program exits 0 with "pass": true.  A report
    that exits 1 still passes, as a false alarm, when no flagged z-score is
    confirmed by the exact binomial test at the same level.
    """
    lm = link_metrics(RelayConfig(cell.n, cell.distance_km))
    cfg = report["config"]
    if (cfg["n_sections"], cfg["distance_km"], cfg["trials"], cfg["seed"]) \
            != (cell.n, cell.distance_km, MC_TRIALS, cell.seed):
        return False, False
    if report["analytic"]["p_total"] != float(format(lm.p_total, ".10g")):
        return False, False
    if code == 0 and report["pass"] is True:
        return True, False
    if code == 1 and report["pass"] is False \
            and not mc_flag_confirmed(report, lm.p_total, lm.v_ab):
        return True, True
    return False, False


class McValidation:
    name = "mc-validation"
    pass_len = len(MC_SECTIONS) * len(MC_DISTANCES)

    def __init__(self) -> None:
        self.false_alarms = 0

    def inputs(self, seed: int):
        return mc_cells(seed)

    def outputs(self, cell) -> list:
        return ["mc.json"]

    def run_job(self, cell: McCell, out_dir: Path):
        return cli.main(["mc", "--sections", str(cell.n),
                         "--distance", format(cell.distance_km, "g"),
                         "--trials", str(MC_TRIALS), "--seed", str(cell.seed),
                         "--workers", str(NPROC),
                         "--out", str(out_dir / "mc.json")])

    def check(self, cell: McCell, code: int, out_dir: Path) -> bool:
        report = json.loads((out_dir / "mc.json").read_text(encoding="utf-8"))
        ok, false_alarm = mc_check(cell, code, report)
        self.false_alarms += false_alarm
        return ok

    def items(self, cell, code, out_dir: Path) -> int:
        return MC_TRIALS


def mc_worker_speedup() -> float:
    """simulate() pulses/s with nproc workers over 1 worker on the n=18,
    d=0 cell, median of a few repetitions each."""
    trial = montecarlo.TrialConfig(RelayConfig(18, 0.0), MC_TRIALS, 1)
    secs = {}
    for workers in (1, NPROC):
        reps = []
        for _ in range(MC_SPEEDUP_REPS):
            t0 = time.perf_counter()
            montecarlo.simulate(trial, workers=workers)
            reps.append(time.perf_counter() - t0)
        secs[workers] = statistics.median(reps)
    return secs[1] / secs[NPROC]


WORKLOADS = {w.name: w for w in (FigureTables, OptimumScan, McValidation)}
