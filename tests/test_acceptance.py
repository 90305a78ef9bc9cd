"""Acceptance suite: one test per exit criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
live) and then asserts, so the suite both reports and gates.
"""
import math
import time

import numpy as np

import reference as ref
from qkdrelay import (GOOD_LINE, ChannelParams, DetectorParams, RelayConfig,
                      TrialConfig, detector_dark, detector_sweep,
                      info_metrics, key_rates, link_metrics,
                      max_distance_approx, max_distance_exact,
                      optimal_sections, simulate, source_penalty, zscore)

CHANNEL = ChannelParams()
DETECTOR = DetectorParams()

MC_BASE_SEED = 20031114
PROPERTY_SAMPLES = 10_000


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_single_section_forward_cutoff():
    t0 = time.perf_counter()
    d = max_distance_exact(1, CHANNEL, DETECTOR, "forward")
    elapsed = time.perf_counter() - t0
    ok = 135.0 <= d <= 165.0 and elapsed < 1.0
    _report(1, "single-section forward cutoff", ok,
            f"d_max = {d:.1f} km (required [135, 165]), {elapsed:.2f}s")


def test_criterion_02_reverse_beats_forward():
    t0 = time.perf_counter()
    fwd = max_distance_exact(1, CHANNEL, DETECTOR, "forward")
    rev = max_distance_exact(1, CHANNEL, DETECTOR, "reverse")
    elapsed = time.perf_counter() - t0
    ok = rev > fwd + 1.0 and elapsed < 1.0
    _report(2, "reverse beats forward", ok,
            f"reverse {rev:.1f} km vs forward {fwd:.1f} km, {elapsed:.2f}s")


def test_criterion_03_optimal_relay():
    t0 = time.perf_counter()
    n_star, d_star = optimal_sections(CHANNEL, DETECTOR, 30, "exact")
    elapsed = time.perf_counter() - t0
    ok = 16 <= n_star <= 20 and 600.0 <= d_star <= 700.0 and elapsed < 10.0
    _report(3, "optimal relay", ok,
            f"n* = {n_star} (required [16, 20]), d* = {d_star:.1f} km "
            f"(required [600, 700]), {elapsed:.2f}s")


def test_criterion_04_approximation_quality():
    t0 = time.perf_counter()
    errors = {}
    for n in range(10, 31):
        exact = max_distance_exact(n, CHANNEL, DETECTOR)
        approx = max_distance_approx(n, CHANNEL, DETECTOR)
        errors[n] = abs(approx - exact) / exact
    elapsed = time.perf_counter() - t0
    offenders = {n: round(e, 3) for n, e in errors.items() if e > 0.15}
    ok = not offenders and elapsed < 10.0
    _report(4, "approximation quality", ok,
            f"max rel err {max(errors.values()):.3f} over n in [10, 30] "
            f"(required <= 0.15); offenders {offenders or 'none'}, "
            f"{elapsed:.2f}s")


def test_criterion_05_visibility_ceiling():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 31):
        for d in range(301, 801):
            v = link_metrics(RelayConfig(n, float(d), CHANNEL, DETECTOR)).v_ab
            if v > worst:
                worst = v
    elapsed = time.perf_counter() - t0
    ok = worst < 0.9 and elapsed < 30.0
    _report(5, "visibility ceiling past 300 km", ok,
            f"max v_ab = {worst:.4f} over n in 1..30, d in [301, 800] "
            f"(required < 0.9), {elapsed:.2f}s")


def test_criterion_06_zero_distance_intercepts():
    # dark-count-free limit: the intercept equality is exact only at dark = 0
    t0 = time.perf_counter()
    detector = DetectorParams(DETECTOR.eta, 0.0)
    worst = 0.0
    for n in range(1, 11):
        v = link_metrics(RelayConfig(n, 0.0, CHANNEL, detector)).v_ab
        worst = max(worst, abs(v - CHANNEL.v_opt ** n))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(6, "zero-distance intercepts", ok,
            f"max |v_ab(n, 0) - v_opt**n| = {worst:.2e} for n in 1..10 "
            f"(required <= 1e-9), {elapsed:.2f}s")


def test_criterion_07_detector_sweep_400km():
    t0 = time.perf_counter()
    grid = [i / 100 for i in range(2, 31)]
    result = detector_sweep(400.0, [1, 2, 3, 4, 5, 6], GOOD_LINE, grid,
                            channel=CHANNEL)
    low_rates = [p.rate for p in result.points if p.n_sections <= 3]
    best4 = result.best_by_n[4]
    elapsed = time.perf_counter() - t0
    ok = (all(r == 0.0 for r in low_rates)
          and best4.rate > result.best_by_n[5].rate
          and best4.rate > result.best_by_n[6].rate
          and 0.14 <= best4.eta <= 0.22
          and elapsed < 30.0)
    _report(7, "400 km detector sweep", ok,
            f"n<=3 rates all zero: {all(r == 0.0 for r in low_rates)}; "
            f"best n=4 eta = {best4.eta:.2f} (required [0.14, 0.22]) at "
            f"rate {best4.rate:.2e} vs n=5 {result.best_by_n[5].rate:.2e}, "
            f"n=6 {result.best_by_n[6].rate:.2e}, {elapsed:.2f}s")


def test_criterion_08_detector_line_anchors():
    t0 = time.perf_counter()
    d30 = detector_dark(0.3, GOOD_LINE)
    d05 = detector_dark(0.05, GOOD_LINE)
    elapsed = time.perf_counter() - t0
    ok = 0.9e-4 <= d30 <= 1.1e-4 and 1.0e-6 <= d05 <= 2.0e-6 and elapsed < 1.0
    _report(8, "detector line anchors", ok,
            f"dark(0.30) = {d30:.3e} (required [0.9e-4, 1.1e-4]); "
            f"dark(0.05) = {d05:.3e} (required [1.0e-6, 2.0e-6]), "
            f"{elapsed:.2f}s")


def test_criterion_09_oracle_equivalence():
    t0 = time.perf_counter()
    cells = []
    ok = True
    for idx, (n, d) in enumerate(
            [(n, d) for n in (1, 2, 3, 4) for d in (0.0, 100.0, 200.0)]):
        cfg = RelayConfig(n, d, CHANNEL, DETECTOR)
        lm = link_metrics(cfg)
        est = simulate(TrialConfig(cfg, 10 ** 6, MC_BASE_SEED + idx))
        if est.accepted == 0:
            # no conditional sample for v_ab; the count itself is still
            # checked against the analytic expectation
            z_p = ((est.p_total_hat - lm.p_total)
                   / math.sqrt(lm.p_total * (1 - lm.p_total) / est.trials))
            ok &= abs(z_p) <= 4.0
            cells.append(f"n={n},d={d:.0f}:z_p={z_p:+.2f},z_v=degen")
            continue
        z_p, z_v = zscore(est, lm.p_total, lm.v_ab)
        ok &= abs(z_p) <= 4.0 and abs(z_v) <= 4.0
        cells.append(f"n={n},d={d:.0f}:z_p={z_p:+.2f},z_v={z_v:+.2f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 300.0
    _report(9, "Monte Carlo oracle equivalence", ok,
            f"|z| <= 4 on the 12-cell grid at 1e6 trials "
            f"(seed base {MC_BASE_SEED}); {'; '.join(cells)}; {elapsed:.1f}s")


def _rel_err(got: float, want: float) -> float:
    if want == got:
        return 0.0
    return abs(got - want) / max(abs(want), 1e-300)


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8086)
    failures = []

    worst_norm = 0.0
    for _ in range(PROPERTY_SAMPLES):
        lm = link_metrics(ref.random_config(rng))
        if not (0.0 <= lm.p_signal <= lm.p_total <= 1.0):
            failures.append("normalization")
            break

    for _ in range(PROPERTY_SAMPLES):
        cfg = ref.random_config(rng, d_hi=700.0)
        d2 = cfg.distance_km + float(rng.uniform(1.0, 100.0))
        v1 = link_metrics(cfg).v_ab
        v2 = link_metrics(RelayConfig(cfg.n_sections, d2, cfg.channel,
                                      cfg.detector)).v_ab
        if v2 > v1 + 1e-12:
            failures.append(f"monotonicity at n={cfg.n_sections}")
            break

    for _ in range(PROPERTY_SAMPLES):
        im = info_metrics(ref.random_config(rng, parity="even"))
        if im.i_ae != im.i_be:
            failures.append("even-n symmetry")
            break

    for _ in range(PROPERTY_SAMPLES):
        kr = key_rates(ref.random_config(rng, n_lo=1, n_hi=1))
        if kr.rate_reverse < kr.rate_forward:
            failures.append("reverse dominance")
            break

    explicit_link = {1: ref.one_section_link, 2: ref.two_section_link,
                     3: ref.three_section_link}
    explicit_info = {1: lambda *a: ref.one_section_info(*a)[:3],
                     2: ref.two_section_info, 3: ref.three_section_info}
    worst_red = 0.0
    for _ in range(PROPERTY_SAMPLES):
        n = int(rng.integers(1, 4))
        cfg = ref.random_config(rng, n_lo=n, n_hi=n)
        args = (cfg.distance_km, cfg.channel.alpha_db_per_km,
                cfg.detector.eta, cfg.detector.dark_prob, cfg.channel.v_opt)
        lm = link_metrics(cfg)
        im = info_metrics(cfg)
        p_signal, p_total, v_ab = explicit_link[n](*args)
        i_ab, i_ae, i_be = explicit_info[n](*args)
        worst_red = max(worst_red,
                        _rel_err(lm.p_signal, p_signal),
                        _rel_err(lm.p_total, p_total),
                        _rel_err(lm.v_ab, v_ab),
                        _rel_err(im.i_ab, i_ab),
                        _rel_err(im.i_ae, i_ae),
                        _rel_err(im.i_be, i_be))
    if worst_red > 1e-12:
        failures.append(f"reduction rel err {worst_red:.2e}")

    worst_dark_free = 0.0
    for _ in range(PROPERTY_SAMPLES):
        cfg = ref.random_config(rng, n_lo=1, n_hi=10, dark_zero=True)
        lm = link_metrics(cfg)
        worst_dark_free = max(
            worst_dark_free,
            _rel_err(lm.v_ab, cfg.channel.v_opt ** cfg.n_sections))
    if worst_dark_free > 1e-12:
        failures.append(f"dark-free visibility rel err {worst_dark_free:.2e}")

    elapsed = time.perf_counter() - t0
    ok = not failures
    _report(10, "property suites", ok,
            f"{PROPERTY_SAMPLES} samples per property; reduction rel err "
            f"{worst_red:.1e}, dark-free rel err {worst_dark_free:.1e}; "
            f"failures: {failures or 'none'}; {elapsed:.1f}s")


def test_criterion_11_source_penalty():
    penalty = source_penalty(1, 0.1, 0.25)
    ok = penalty.rate_factor == 0.1 and penalty.distance_loss_km == 40.0
    _report(11, "source penalty", ok,
            f"factor = {penalty.rate_factor}, loss = "
            f"{penalty.distance_loss_km} km (required exactly (0.1, 40))")
