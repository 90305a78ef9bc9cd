"""Event-level Monte Carlo simulation of the relay pulse train.

The simulator replays the acceptance rules click by click and therefore
estimates p_total and v_ab without going through the closed-form expressions,
making it an independent stochastic cross-check of the analytic model.

Reproducibility contract: trials are processed in fixed-size chunks and chunk
``i`` draws from a dedicated Philox (counter-based) stream with key
``(seed, i)``.  Results depend only on (seed, trials, chunk_size) and are
invariant to the number of worker threads, since per-chunk integer counts are
summed.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .params import InvalidParameterError, RelayConfig, require_count

DEFAULT_CHUNK_SIZE = 250_000
# a chunk holds several float64 arrays of its size; larger chunks buy no speed
MAX_CHUNK_SIZE = 2 ** 24
# keeps every chunk index inside the uint64 word of the Philox key
MAX_TRIALS = 2 ** 62
# |z| bound of the mc verdict: the two-sided normal tail of 6.3e-5
Z_THRESHOLD = 4.0

GENERATOR_METADATA = {
    "algorithm": "philox4x64 (numpy.random.Philox)",
    "substreams": "key = (seed, chunk_index), counter from 0",
}


@dataclass(frozen=True)
class TrialConfig:
    """Simulation request: link, sample size and reproducibility inputs."""

    relay: RelayConfig
    trials: int
    seed: int
    chunk_size: int = DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        require_count("trials", self.trials, 1, MAX_TRIALS)
        if (isinstance(self.seed, bool) or not isinstance(self.seed, int)
                or not 0 <= self.seed < 2 ** 64):
            raise InvalidParameterError(
                f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        require_count("chunk_size", self.chunk_size, 1, MAX_CHUNK_SIZE)


@dataclass(frozen=True)
class McEstimate:
    """Counts and binomial estimators from one simulation run.

    v_ab_hat maps the fraction of agreeing sifted bits q = correct/accepted
    back to a visibility, 2q - 1.  Standard errors are the estimate-based
    binomial ones; with zero accepted events the visibility fields are NaN.
    """

    trials: int
    accepted: int
    correct: int
    p_total_hat: float
    v_ab_hat: float
    se_p_total: float
    se_v_ab: float


def _run_chunk(relay: RelayConfig, size: int, seed: int,
               chunk_index: int) -> tuple[int, int]:
    """Simulate one chunk of pulses; returns (accepted, correct) counts."""
    import numpy as np  # here, so that of the CLI only ``mc`` loads numpy
    # the fibre transmission is computed here, not read from the model,
    # so that the oracle shares no formula with what it checks
    t = 10.0 ** (-relay.channel.alpha_db_per_km * relay.distance_km / 10.0)
    dk = relay.detector.dark_prob
    s = t ** (1.0 / relay.n_sections) * relay.detector.eta
    genuine = s * (1.0 - dk)          # photon seen, no wrong-side dark count
    rescue = (1.0 - s) * 2.0 * dk * (1.0 - dk)  # photon lost, a dark fakes it
    merge_rescue = 2.0 * dk   # merged Bell outcome completed by a dark count
    gr = genuine + rescue
    n_bells = (relay.n_sections - 1) // 2
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64)))

    accepted = rng.random(size) < 0.5          # basis sifting
    all_genuine = np.ones(size, dtype=bool)

    for _ in range(relay.n_sections - 2 * n_bells):   # terminal stations
        u = rng.random(size)
        accepted &= u < gr
        all_genuine &= u < genuine

    for _ in range(n_bells):
        u1 = rng.random(size)
        u2 = rng.random(size)
        resolved = rng.random(size) < 0.5      # which Bell states landed
        rescued = rng.random(size) < merge_rescue
        g1 = u1 < genuine
        g2 = u2 < genuine
        both = g1 & g2
        # Two genuine clicks: accepted if resolved, or if the merged single
        # click is completed by a dark count.  Otherwise each photon-less
        # side must be faked by a dark count.
        accepted &= (u1 < gr) & (u2 < gr) & (~both | resolved | rescued)
        if not accepted.any():                 # every pulse rejected: the
            return 0, 0                        # later draws change no count
        all_genuine &= both & resolved

    clean_optics = rng.random(size) < relay.channel.v_opt ** relay.n_sections
    agree_coin = rng.random(size) < 0.5
    signal = accepted & all_genuine & clean_optics
    correct = signal | (accepted & agree_coin)   # signal within accepted
    return int(accepted.sum()), int(correct.sum())


def simulate(config: TrialConfig, workers: int = 1) -> McEstimate:
    """Run the pulse train and return counts with binomial estimators.

    ``workers`` only controls thread fan-out over chunks, capped at the
    chunk count and the CPU count; it never changes the result.
    """
    require_count("workers", workers, 1)
    import numpy  # on the calling thread, before the workers start
    n_chunks = (config.trials + config.chunk_size - 1) // config.chunk_size

    def run(i: int) -> tuple[int, int]:
        size = min(config.chunk_size, config.trials - i * config.chunk_size)
        return _run_chunk(config.relay, size, config.seed, i)

    accepted = 0
    correct = 0
    threads = min(workers, n_chunks, os.cpu_count() or 1)
    chunks = range(n_chunks)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # one wave of ``threads`` chunks at a time, so that pending futures
        # stay few however many chunks there are
        for start in range(0, n_chunks, threads):
            for a, c in pool.map(run, chunks[start:start + threads]):
                accepted += a
                correct += c

    p_hat = accepted / config.trials
    se_p = math.sqrt(p_hat * (1.0 - p_hat) / config.trials)
    if accepted > 0:
        q = correct / accepted
        v_hat = 2.0 * q - 1.0
        se_v = 2.0 * math.sqrt(q * (1.0 - q) / accepted)
    else:
        v_hat = math.nan
        se_v = math.nan
    return McEstimate(config.trials, accepted, correct, p_hat, v_hat,
                      se_p, se_v)


def zscore(est: McEstimate, analytic_p_total: float,
           analytic_v_ab: float) -> tuple[float | None, float | None]:
    """Standardized deviations of the estimates from the analytic values.

    Standard errors are the binomial ones evaluated at the analytic values
    (the null hypothesis), so the scores stay defined for sparse samples:

        z_p = (p_hat - p) / sqrt(p (1 - p) / trials)
        z_v = (v_hat - v) / (2 sqrt(q (1 - q) / accepted)),  q = (1 + v) / 2

    A score is None when it is undefined: z_p when its standard error is 0
    (the model accepts no events), z_v when no event was accepted or when its
    standard error is 0 (v = 1) and the estimate differs; an estimate equal
    to v = 1 scores 0.0.
    """
    se_p = math.sqrt(analytic_p_total * (1.0 - analytic_p_total) / est.trials)
    z_p = (est.p_total_hat - analytic_p_total) / se_p if se_p > 0.0 else None
    if est.accepted == 0:
        return z_p, None
    q = 0.5 * (1.0 + analytic_v_ab)
    se_v = 2.0 * math.sqrt(q * (1.0 - q) / est.accepted)
    delta_v = est.v_ab_hat - analytic_v_ab
    if se_v > 0.0:
        return z_p, delta_v / se_v
    return z_p, 0.0 if delta_v == 0.0 else None


def verdict(est: McEstimate, analytic_p_total: float, analytic_v_ab: float,
            ) -> tuple[dict, bool]:
    """``(scores, passed)``: the ``mc`` report's z-scores and its verdict.

    ``scores`` holds ``zscore``'s ``p_total`` and ``v_ab`` scores and
    ``degenerate_sample``, the estimators whose own standard error is 0 or
    undefined (their analytic-SE score may still apply).  ``passed`` is
    true when every score that is not None has ``|z| <= Z_THRESHOLD``.
    """
    z_p, z_v = zscore(est, analytic_p_total, analytic_v_ab)
    degenerate = [name for name, se in (("p_total", est.se_p_total),
                                        ("v_ab", est.se_v_ab))
                  if not se > 0.0]
    passed = all(abs(z) <= Z_THRESHOLD for z in (z_p, z_v) if z is not None)
    return {"p_total": z_p, "v_ab": z_v, "degenerate_sample": degenerate}, passed
