"""In-memory span tracing of the package's public functions, from outside it.

``Tracer.install`` rebinds each traced function in every ``qkdrelay`` module
namespace that holds it, which is where callers look it up at call time
(``qkdrelay.cli.link_metrics``, ``qkdrelay.model.link_metrics`` inside
``info_metrics``, ``qkdrelay.optimize.max_distance_exact`` inside
``optimal_sections``, ...).  Spans are recorded only inside a job span, so
the benchmark's own output checks are not traced.  Spans stay in compact
arrays until the run ends; ``analyze`` turns them into per-layer metrics.
"""
from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from qkdrelay import cli, model, montecarlo, optimize, params
from workloads import MC_SECTIONS

# span name -> (home module, attribute)
TRACED = {
    "params.RelayConfig": (params, "RelayConfig"),
    "model.link_metrics": (model, "link_metrics"),
    "model.info_metrics": (model, "info_metrics"),
    "model.key_rates": (model, "key_rates"),
    "model.eve_usable_visibility": (model, "eve_usable_visibility"),
    "optimize.optimal_sections": (optimize, "optimal_sections"),
    "optimize.max_distance_exact": (optimize, "max_distance_exact"),
    "optimize.detector_sweep": (optimize, "detector_sweep"),
    "montecarlo.simulate": (montecarlo, "simulate"),
    "cli.main": (cli, "main"),
}
JOB = "job"
CLI_SUBCOMMANDS = ("visibility", "keyrate", "maxdist", "detector-sweep", "mc",
                   "source-penalty")


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "qkdrelay"
                                    or name.startswith("qkdrelay."))]


def _flag_value(argv: list, flag: str, default: str | None = None):
    return argv[argv.index(flag) + 1] if flag in argv else default


class Tracer:
    """Spans as parallel arrays: name id, start, end, parent index, job id."""

    def __init__(self) -> None:
        self.names = [JOB] + list(TRACED)
        self._id = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job_id = array("q")
        self.meta: dict[int, dict] = {}   # span index -> attributes
        self.cells = 0                    # distinct configs per top-level call
        self._configs: set = set()
        self._stack: list[int] = []
        self._job = -1
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job_id.append(self._job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if len(self._stack) == 1:          # a top-level call inside the job
            self.cells += len(self._configs)
            self._configs.clear()

    @contextmanager
    def job(self, job_id: int):
        self._job = job_id
        idx = self._open(JOB)
        try:
            yield
        finally:
            self._close(idx)
            self._job = -1

    def _wrap(self, name: str, fn):
        tracer = self
        hook = getattr(self, "_on_" + name.rsplit(".", 1)[1], None)

        def traced(*args, **kwargs):
            if tracer._job < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_link_metrics(self, idx, args, kwargs, result) -> None:
        self._configs.add(args[0] if args else kwargs["config"])

    def _on_simulate(self, idx, args, kwargs, result) -> None:
        trial = args[0] if args else kwargs["config"]
        self.meta[idx] = {"n": trial.relay.n_sections, "trials": trial.trials,
                          "accepted": result.accepted}

    def _on_main(self, idx, args, kwargs, result) -> None:
        argv = list(args[0] if args else kwargs["argv"])
        out = _flag_value(argv, "--out")
        fmt = "json" if argv[0] == "mc" else _flag_value(argv, "--format",
                                                          "csv")
        self.meta[idx] = {"cmd": argv[0], "format": fmt,
                          "bytes": Path(out).stat().st_size if out else 0}

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for name, (home, attr) in TRACED.items():
            orig = getattr(home, attr)
            wrapped = self._wrap(name, orig)
            for mod in _package_modules():
                if mod.__dict__.get(attr) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        return {"name_id": np.asarray(self.name_id, dtype=np.uint8),
                "start": np.asarray(self.start, dtype=np.float64),
                "end": np.asarray(self.end, dtype=np.float64),
                "parent": np.asarray(self.parent, dtype=np.int64),
                "job_id": np.asarray(self.job_id, dtype=np.int64)}

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Span duration minus the durations of its direct children (spans are
    strictly nested on one thread)."""
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur - child


def draws_per_pulse(n: int) -> int:
    """Uniform draws per pulse in montecarlo._run_chunk: sifting, one per
    terminal station, four per Bell station, optics and agreement coins."""
    n_bell = (n - 1) // 2
    return 3 + (n - 2 * n_bell) + 4 * n_bell


def bytes_per_pulse(n: int) -> int:
    """Bytes materialised per pulse in montecarlo._run_chunk: 8 per float64
    uniform plus 1 per boolean temporary (10 fixed, 2 per terminal station,
    13 per Bell station), counted from the code."""
    n_bell = (n - 1) // 2
    return 8 * draws_per_pulse(n) + 10 + 2 * (n - 2 * n_bell) + 13 * n_bell


def analyze(tracer: Tracer, untraced_p50: float,
            worker_speedup: float) -> dict:
    """Per-layer metrics from the spans: counts and self seconds are per job;
    layers a workload does not exercise read 0."""
    a = tracer.arrays()
    names = tracer.names
    dur = a["end"] - a["start"]
    self_s = self_times(a["parent"], dur)
    nid = a["name_id"]
    is_ = {name: nid == i for i, name in enumerate(names)}
    jobs = max(1, int(is_[JOB].sum()))
    traced_p50 = float(np.median(dur[is_[JOB]])) if is_[JOB].any() else 0.0
    job_time = float(dur[is_[JOB]].sum())

    m: dict[str, tuple] = {}

    def per_job(name: str, value: float, unit: str) -> None:
        m[name] = (value / jobs, unit + "/job")

    for name in TRACED:
        if name == "montecarlo.simulate":
            per_job(name + ".calls", int(is_[name].sum()), "calls")
            per_job(name + ".s", float(dur[is_[name]].sum()), "s")
        elif name != "cli.main":
            per_job(name + ".calls", int(is_[name].sum()), "calls")
            per_job(name + ".self_s", float(self_s[is_[name]].sum()), "s")

    cells = tracer.cells
    link_calls = int(is_["model.link_metrics"].sum())
    model_self = sum(float(self_s[is_[n]].sum())
                     for n in TRACED if n.startswith("model."))
    m["model.link_evals_per_cell"] = (link_calls / cells if cells else 0.0,
                                      "evals/cell")
    m["model.us_per_cell"] = (1e6 * model_self / cells if cells else 0.0,
                              "us/cell")

    roots = is_["optimize.max_distance_exact"]
    root_idx = np.flatnonzero(roots)
    evals = int(np.isin(a["parent"][is_["model.info_metrics"]],
                        root_idx).sum())
    m["optimize.rate_evals_per_root"] = (
        evals / len(root_idx) if len(root_idx) else 0.0, "evals/call")

    sims = [(tracer.meta[i], dur[i])
            for i in np.flatnonzero(is_["montecarlo.simulate"])]
    for n in MC_SECTIONS:
        trials = sum(meta["trials"] for meta, _ in sims if meta["n"] == n)
        secs = sum(d for meta, d in sims if meta["n"] == n)
        m[f"montecarlo.pulses_per_s.n{n}"] = (trials / secs if secs else 0.0,
                                              "1/s")
    trials = sum(meta["trials"] for meta, _ in sims)
    accepted = sum(meta["accepted"] for meta, _ in sims)
    m["montecarlo.accept_ratio"] = (accepted / trials if trials else 0.0,
                                    "ratio")
    m["montecarlo.draws_per_pulse"] = (
        sum(meta["trials"] * draws_per_pulse(meta["n"]) for meta, _ in sims)
        / trials if trials else 0.0, "draws/pulse")
    m["montecarlo.bytes_per_pulse"] = (
        sum(meta["trials"] * bytes_per_pulse(meta["n"]) for meta, _ in sims)
        / trials if trials else 0.0, "B/pulse")
    m["montecarlo.worker_speedup"] = (worker_speedup, "ratio")

    mains = np.flatnonzero(is_["cli.main"])
    for cmd in CLI_SUBCOMMANDS:
        sel = [i for i in mains if tracer.meta[i]["cmd"] == cmd]
        m[f"cli.main.s.{cmd}"] = (float(dur[sel].mean()) if sel else 0.0,
                                  "s/call")
    cli_self = float(self_s[mains].sum())
    per_job("cli.self_s", cli_self, "s")
    for fmt in ("csv", "json"):
        sel = [i for i in mains if tracer.meta[i]["format"] == fmt]
        per_job(f"cli.self_s.{fmt}", float(self_s[sel].sum()), "s")
    per_job("cli.bytes_out", sum(tracer.meta[i]["bytes"] for i in mains), "B")
    m["cli.self_share"] = (cli_self / job_time if job_time else 0.0, "ratio")

    per_job("trace.unspanned_s", float(self_s[is_[JOB]].sum()), "s")
    per_job("trace.spans", len(dur) - int(is_[JOB].sum()), "spans")
    m["trace.overhead"] = (traced_p50 / untraced_p50 if untraced_p50 else 0.0,
                           "ratio")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in m.items()}
