import ast
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qkdrelay import (ChannelParams, DetectorParams, InvalidParameterError,
                      McEstimate, RelayConfig, TrialConfig, link_metrics,
                      simulate, zscore)
from qkdrelay import montecarlo
from qkdrelay.montecarlo import (GENERATOR_METADATA, MAX_CHUNK_SIZE,
                                 MAX_TRIALS, Z_THRESHOLD, verdict)


def make_config(n, d, eta=0.3, dark=1e-4, v_opt=0.99, alpha=0.25):
    return RelayConfig(n, d, ChannelParams(alpha, v_opt),
                       DetectorParams(eta, dark))


def test_oracle_imports_nothing_from_the_model():
    # the simulator checks the closed-form model, so it must not share its
    # formulas: no import of qkdrelay.model in any form
    tree = ast.parse(Path(montecarlo.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any("model" in name.split(".") for name in names), \
            ast.unparse(node)


def test_estimate_is_deterministic():
    trial = TrialConfig(make_config(2, 60.0), trials=300_000, seed=99,
                        chunk_size=50_000)
    assert simulate(trial) == simulate(trial)


def test_estimate_invariant_to_worker_count():
    trial = TrialConfig(make_config(3, 40.0), trials=400_000, seed=5,
                        chunk_size=30_000)
    assert simulate(trial, workers=1) == simulate(trial, workers=4)


def test_partial_final_chunk_is_covered():
    trial = TrialConfig(make_config(1, 10.0), trials=123_457, seed=8,
                        chunk_size=50_000)
    est = simulate(trial)
    assert est.trials == 123_457
    assert est.p_total_hat == est.accepted / 123_457


def test_perfect_apparatus_only_sifting_is_random():
    trial = TrialConfig(make_config(1, 0.0, eta=1.0, dark=0.0, v_opt=1.0),
                        trials=40_000, seed=3)
    est = simulate(trial)
    assert est.v_ab_hat == 1.0
    assert est.correct == est.accepted
    # accepted ~ Binomial(trials, 1/2)
    z = (est.accepted / est.trials - 0.5) / math.sqrt(0.25 / est.trials)
    assert abs(z) <= 4.0


def test_no_darks_full_visibility_every_accepted_event_is_signal():
    trial = TrialConfig(make_config(2, 30.0, dark=0.0, v_opt=1.0),
                        trials=200_000, seed=17)
    est = simulate(trial)
    assert est.accepted > 0
    assert est.correct == est.accepted
    assert est.v_ab_hat == 1.0


def test_single_section_50km_matches_analytic():
    cfg = make_config(1, 50.0)
    lm = link_metrics(cfg)
    assert lm.p_total == pytest.approx(0.0085325, abs=1e-6)
    est = simulate(TrialConfig(cfg, trials=10**6, seed=11))
    z_p, z_v = zscore(est, lm.p_total, lm.v_ab)
    assert abs(z_p) <= 4.0
    assert abs(z_v) <= 4.0


def test_three_sections_150km_matches_analytic():
    cfg = make_config(3, 150.0)
    lm = link_metrics(cfg)
    est = simulate(TrialConfig(cfg, trials=10**7, seed=31))
    z_p, z_v = zscore(est, lm.p_total, lm.v_ab)
    assert abs(z_p) <= 4.0
    assert abs(z_v) <= 4.0


def test_visibility_estimate_maps_agreement_fraction():
    est = simulate(TrialConfig(make_config(1, 30.0), trials=100_000, seed=2))
    q = est.correct / est.accepted
    assert est.v_ab_hat == pytest.approx(2.0 * q - 1.0, abs=1e-15)
    assert 0 <= est.correct <= est.accepted <= est.trials


def test_zero_accepted_yields_nan_visibility():
    # dark-free link beyond transmission underflow never accepts
    est = simulate(TrialConfig(make_config(1, 20000.0, dark=0.0),
                               trials=1000, seed=4))
    assert est.accepted == 0
    assert math.isnan(est.v_ab_hat)
    assert math.isnan(est.se_v_ab)


def test_chunk_stops_drawing_once_every_pulse_is_rejected(monkeypatch):
    # 1000 Bell stations of 4 draws each (40,040 uniforms for 10 pulses);
    # with eta = 0.3 a station passes a pulse with probability under 0.05, so
    # all 10 pulses are gone after a station or two, and the counts cannot
    # change after that
    drawn = []

    class CountingGenerator(np.random.Generator):
        def random(self, *args, **kwargs):
            values = super().random(*args, **kwargs)
            drawn.append(np.size(values))
            return values

    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    est = simulate(TrialConfig(RelayConfig(2001, 50.0), trials=10, seed=1,
                               chunk_size=10))
    assert (est.accepted, est.correct) == (0, 0)
    assert 0 < sum(drawn) < 1000


# sha256 of the JSON list of _run_chunk's (accepted, correct) over the
# mc-validation cells (n in 1, 2, 3, 4, 6, 18 by d in 0, 100, 200 km) under
# the Philox keys (1, 0) and (2**64 - 1, 7), per chunk size.  The sizes sit on
# either side of the 2**15 uniforms that a station reads per block; the
# digests were taken from the kernel that drew each station in one array.
FROZEN_CHUNK_COUNTS = {
    1: "67a9dd131d8136909388c8e91686f0176a06924747f8c8caa8537daa9dd29c5a",
    32767: "bbebbda1814151e239bdb77df8187a85a96d9de4266052aaee0f5ff353ab6e2b",
    32768: "4f0facf3e947c5e993c6d5a0a8213459c3b52ef13e1ccb26c5aace00aea733a6",
    32769: "9676ccd405da66de0d2fa3962a3ddced160a4d5615c134bcc8baf2ed84c1afa4",
    98311: "f78a0a5471c183b9629c87a4359c5cbd4a59080b0c3e73a72a9b05d861dd532d",
    250000: "a35b6c1661fcb94c99a25c768951ded1e4b2b06ef4566456397b5aad640e92c6",
}


@pytest.mark.parametrize("size", sorted(FROZEN_CHUNK_COUNTS))
def test_chunk_counts_frozen_across_block_edges(size):
    counts = [montecarlo._run_chunk(RelayConfig(n, d), size, seed, chunk)
              for n in (1, 2, 3, 4, 6, 18) for d in (0.0, 100.0, 200.0)
              for seed, chunk in ((1, 0), (2 ** 64 - 1, 7))]
    digest = hashlib.sha256(json.dumps(counts).encode()).hexdigest()
    assert digest == FROZEN_CHUNK_COUNTS[size]


@pytest.mark.parametrize("n", [1, 6, 18])
def test_chunk_memory_stays_under_16_bytes_per_pulse(n):
    # one byte per pulse for each comparison mask; the uniforms are read a
    # block at a time, so no float64 array of the chunk's size is held
    size = 2 ** 20
    montecarlo._run_chunk(RelayConfig(n, 0.0), 10, 1, 0)   # warm numpy up
    tracemalloc.start()
    try:
        montecarlo._run_chunk(RelayConfig(n, 0.0), size, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * size


def test_generator_metadata_names_the_substream_scheme():
    assert "philox" in GENERATOR_METADATA["algorithm"].lower()
    assert "chunk" in GENERATOR_METADATA["substreams"]


# -------------------------------------------------------------------- zscore

def test_zscore_zero_when_estimate_matches():
    est = McEstimate(trials=1000, accepted=100, correct=90,
                     p_total_hat=0.1, v_ab_hat=0.8,
                     se_p_total=0.009, se_v_ab=0.05)
    assert zscore(est, 0.1, 0.8) == (0.0, 0.0)


def test_zscore_one_standard_error_is_one():
    p = 0.1
    trials = 1000
    se_p = math.sqrt(p * (1 - p) / trials)
    est = McEstimate(trials=trials, accepted=100, correct=90,
                     p_total_hat=p + se_p, v_ab_hat=0.8,
                     se_p_total=se_p, se_v_ab=0.05)
    z_p, z_v = zscore(est, p, 0.8)
    assert z_p == pytest.approx(1.0, rel=1e-12)
    assert z_v == 0.0


def test_zscore_empty_sample_scores_only_the_count():
    est = McEstimate(trials=1000, accepted=0, correct=0,
                     p_total_hat=0.0, v_ab_hat=math.nan,
                     se_p_total=0.0, se_v_ab=math.nan)
    z_p, z_v = zscore(est, 0.1, 0.8)
    assert z_p == pytest.approx(-0.1 / math.sqrt(0.1 * 0.9 / 1000), rel=1e-12)
    assert z_v is None


def test_zscore_zero_standard_error():
    # a model that accepts nothing gives the count no score at all
    est = McEstimate(trials=1000, accepted=0, correct=0,
                     p_total_hat=0.0, v_ab_hat=math.nan,
                     se_p_total=0.0, se_v_ab=math.nan)
    assert zscore(est, 0.0, 0.0) == (None, None)
    # v = 1 has no spread: a perfect sample scores 0, any error is undefined
    perfect = McEstimate(trials=1000, accepted=500, correct=500,
                         p_total_hat=0.5, v_ab_hat=1.0,
                         se_p_total=0.0158, se_v_ab=0.0)
    assert zscore(perfect, 0.5, 1.0) == (0.0, 0.0)
    flawed = McEstimate(trials=1000, accepted=500, correct=499,
                        p_total_hat=0.5, v_ab_hat=0.996,
                        se_p_total=0.0158, se_v_ab=0.0057)
    assert zscore(flawed, 0.5, 1.0) == (0.0, None)


def test_zscore_grid_against_analytic():
    for n, d, seed in [(1, 0.0, 41), (2, 50.0, 42), (4, 100.0, 43)]:
        cfg = make_config(n, d)
        lm = link_metrics(cfg)
        est = simulate(TrialConfig(cfg, trials=200_000, seed=seed))
        z_p, z_v = zscore(est, lm.p_total, lm.v_ab)
        assert abs(z_p) <= 4.0
        assert abs(z_v) <= 4.0


# Dark-dominated cells, beside criterion 09's D = 1e-4 grid: there every
# dark-count rule is an O(1e-4) effect, below what 1e6 trials resolve, so a
# wrong rescue weight or a signal that ignores the Bell resolution passes.
# Cell i draws with seed 1000 + i; the seeds were fixed before the first run.
DARK_GRID = (
    [(n, d, 0.3, dark) for dark in (0.01, 0.05) for n in (1, 2, 3, 4)
     for d in (0.0, 50.0, 100.0)]
    + [(n, d, 0.9, dark) for dark in (0.05, 0.2, 0.3) for n in (3, 5)
       for d in (0.0, 20.0)])


def test_dark_dominated_grid_matches_analytic():
    assert len(DARK_GRID) == 36
    offenders = []
    for i, (n, d, eta, dark) in enumerate(DARK_GRID):
        cfg = make_config(n, d, eta=eta, dark=dark)
        lm = link_metrics(cfg)
        est = simulate(TrialConfig(cfg, trials=10**6, seed=1000 + i),
                       workers=2)
        z_p, z_v = zscore(est, lm.p_total, lm.v_ab)
        if not (z_p is not None and z_v is not None
                and abs(z_p) <= Z_THRESHOLD and abs(z_v) <= Z_THRESHOLD):
            offenders.append((n, d, eta, dark, z_p, z_v))
    assert offenders == []


def test_verdict_passes_at_the_threshold_and_skips_undefined_scores():
    # p = 1/2 over 64 trials has a standard error of exactly 1/16, so an
    # estimate 16 trials off the expected 32 scores exactly 4.0; v = 1 with
    # a differing estimate leaves z_v undefined
    def sample(accepted):
        return McEstimate(trials=64, accepted=accepted, correct=accepted - 1,
                          p_total_hat=accepted / 64, v_ab_hat=0.9,
                          se_p_total=0.05, se_v_ab=0.1)

    assert Z_THRESHOLD == 4.0
    for accepted, z_p in ((48, 4.0), (16, -4.0)):
        scores, passed = verdict(sample(accepted), 0.5, 1.0)
        assert scores == {"p_total": z_p, "v_ab": None,
                          "degenerate_sample": []}
        assert list(scores) == ["p_total", "v_ab", "degenerate_sample"]
        assert passed is True
    _, passed = verdict(sample(49), 0.5, 1.0)   # z_p = 4.25
    assert passed is False


def test_verdict_without_scores_passes_and_flags_both_estimators():
    est = McEstimate(trials=1000, accepted=0, correct=0,
                     p_total_hat=0.0, v_ab_hat=math.nan,
                     se_p_total=0.0, se_v_ab=math.nan)
    assert verdict(est, 0.0, 0.0) == (
        {"p_total": None, "v_ab": None,
         "degenerate_sample": ["p_total", "v_ab"]}, True)


# ---------------------------------------------------------------- validation

@pytest.mark.parametrize("kwargs", [
    dict(trials=0, seed=1),
    dict(trials=-5, seed=1),
    dict(trials=MAX_TRIALS + 1, seed=1),
    dict(trials=100, seed=-1),
    dict(trials=100, seed=2**64),
    dict(trials=100, seed=1, chunk_size=0),
    dict(trials=10 ** 400, seed=1),
    dict(trials=100, seed=1, chunk_size=10 ** 400),
    dict(trials=100, seed=1, chunk_size=MAX_CHUNK_SIZE + 1),
])
def test_trial_config_validation(kwargs):
    with pytest.raises(InvalidParameterError):
        TrialConfig(make_config(1, 10.0), **kwargs)


@pytest.mark.parametrize("workers,chunks,expected", [
    (1, 5, 1), (2, 1, 1), (10**6, 2, 2), (10**6, 100, 3)])
def test_simulate_caps_thread_count(monkeypatch, workers, chunks, expected):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(montecarlo, "_run_chunk", lambda *args: (0, 0))
    simulate(TrialConfig(make_config(1, 10.0), trials=chunks, seed=1,
                         chunk_size=1), workers=workers)
    assert sizes == [expected]


def test_simulate_keeps_few_chunks_in_flight(monkeypatch):
    # every chunk handed to the pool at once would hold one future per chunk
    batches = []
    chunks = []

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            batches.append(len(items))
            return map(fn, items)

    def run_chunk(model, size, seed, chunk_index):
        chunks.append(chunk_index)
        return size, 0

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(montecarlo, "_run_chunk", run_chunk)
    est = simulate(TrialConfig(make_config(1, 10.0), trials=1000, seed=1,
                               chunk_size=1), workers=8)
    assert max(batches) <= 3
    assert sorted(chunks) == list(range(1000)) and est.accepted == 1000


@pytest.mark.parametrize("field, message", [
    ("trials", "trials must be an integer >= 1, got True"),
    ("seed", "seed must be an unsigned 64-bit integer, got True"),
    ("chunk_size", "chunk_size must be an integer >= 1, got True"),
], ids=["trials", "seed", "chunk_size"])
def test_trial_config_rejects_boolean_counts(field, message):
    kwargs = {"trials": 10, "seed": 1, "chunk_size": 10, field: True}
    with pytest.raises(InvalidParameterError) as exc:
        TrialConfig(make_config(1, 10.0), **kwargs)
    assert str(exc.value) == message


def test_simulate_rejects_bad_worker_count():
    for workers in (0, 2.5, "2", True):
        with pytest.raises(InvalidParameterError):
            simulate(TrialConfig(make_config(1, 10.0), trials=10, seed=1),
                     workers=workers)
