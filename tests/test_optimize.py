import ast
import decimal
import hashlib
import math
import random
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from qkdrelay import model, optimize
from qkdrelay import (BEST_LINE, DETECTOR_LINES, GOOD_LINE, NORMAL_LINE,
                      ChannelParams, DetectorLine, DetectorParams,
                      InvalidParameterError, RelayConfig, detector_dark,
                      detector_sweep, evaluate, key_rates, max_distance_approx,
                      max_distance_exact, optimal_sections, source_penalty,
                      threshold_distance)

CHANNEL = ChannelParams()
DETECTOR = DetectorParams()
OUT_OF_MODEL = r"^dark\(.*\) = .* on line .* is >= 0\.5$"


def forward_rate(n, d):
    return key_rates(RelayConfig(n, d, CHANNEL, DETECTOR)).rate_forward


# --------------------------------------------------------- exact max distance

def test_single_section_forward_cutoff():
    res = max_distance_exact(1, CHANNEL, DETECTOR, "forward")
    assert 135.0 <= res <= 165.0


@pytest.mark.parametrize("n", [1, 4])
def test_bisection_certificate(n):
    d = max_distance_exact(n, CHANNEL, DETECTOR)
    assert forward_rate(n, d - 0.2) > 0.0
    assert forward_rate(n, d + 0.2) <= 0.0


def test_optimize_restates_no_rate():
    # every cutoff, threshold and sweep reads the model's KeyRates, so a
    # change to the rate reaches them all: optimize reads none of its inputs
    tree = ast.parse(Path(optimize.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            assert node.attr not in {"p_total", "i_ab", "i_ae", "i_be"}, \
                ast.unparse(node)


def test_exact_cutoff_names_n_sections_for_a_bad_count():
    bad_count = r"^n_sections must be an integer >= 1, got 0$"
    for call in (lambda: max_distance_exact(0, CHANNEL, DETECTOR),
                 lambda: max_distance_approx(0, CHANNEL, DETECTOR),
                 lambda: threshold_distance(0, CHANNEL, DETECTOR),
                 lambda: detector_sweep(400.0, [0], GOOD_LINE, [0.1],
                                        CHANNEL)):
        with pytest.raises(InvalidParameterError, match=bad_count):
            call()


def test_reverse_beats_forward():
    fwd = max_distance_exact(1, CHANNEL, DETECTOR, "forward")
    rev = max_distance_exact(1, CHANNEL, DETECTOR, "reverse")
    assert rev > fwd + 1.0


def test_reverse_requires_single_section():
    with pytest.raises(InvalidParameterError, match="reverse reconciliation "
                       "is only defined for n_sections == 1"):
        max_distance_exact(2, CHANNEL, DETECTOR, "reverse")


def test_rate_changes_sign_at_most_once():
    # the assumption behind the bisection: positive up to the cutoff, never
    # positive again beyond it; without dark counts the cutoff is the
    # horizon where p_total leaves the normal range, thousands of km out
    rng = np.random.default_rng(1414)
    for dark_zero, step_km in ((False, 20.0), (True, 200.0)):
        grid = [step_km * i for i in range(201)]
        for _ in range(400):
            cfg = ref.random_config(rng, dark_zero=dark_zero)
            positive = []
            for d in grid:
                lm, im, _ = evaluate(RelayConfig(cfg.n_sections, d,
                                                 cfg.channel, cfg.detector))
                positive.append(lm.p_total * (im.i_ab - im.i_ae) > 0.0)
            first_dead = (positive.index(False) if False in positive
                          else len(grid))
            assert not any(positive[first_dead:]), cfg


def test_no_key_when_eve_wins_at_zero_distance():
    channel = ChannelParams(0.25, 0.5)
    res = max_distance_exact(1, channel, DETECTOR)
    assert res == 0.0


# -------------------------------------------------------- approx max distance

def test_approx_single_section():
    res = max_distance_approx(1, CHANNEL, DETECTOR)
    expected = 40.0 * math.log10(750.0 * (math.sqrt(2.0) * 0.99 - 1.0))
    assert res == pytest.approx(expected, rel=1e-12)
    assert res == pytest.approx(99.1, abs=0.1)


def test_approx_eighteen_sections():
    res = max_distance_approx(18, CHANNEL, DETECTOR)
    expected = (720.0
                * math.log10(750.0 * (2.0 ** (1.0 / 36.0) * 0.99 - 1.0)))
    assert res == pytest.approx(expected, rel=1e-12)
    assert res == pytest.approx(605.0, abs=1.0)


def test_approx_no_key_possible():
    assert max_distance_approx(1, ChannelParams(0.25, 0.7), DETECTOR) == 0.0


def test_approx_without_darks_is_its_limit():
    # nothing lowers v_ab with distance: inf while v_opt**n > 1/sqrt(2),
    # which at v_opt = 0.99 holds up to n = 34, and 0 otherwise
    no_darks = DetectorParams(0.3, 0.0)
    assert max_distance_approx(1, CHANNEL, no_darks) == math.inf
    assert max_distance_approx(34, CHANNEL, no_darks) == math.inf
    assert max_distance_approx(35, CHANNEL, no_darks) == 0.0
    assert max_distance_approx(1, ChannelParams(0.25, 0.7), no_darks) == 0.0


# ------------------------------------------------------------ optimal sections

def approx_optimum(channel, n_max):
    # the closed-form optimum, as ``maxdist --method approx`` picks it
    return optimize.best_section_count(
        (n, max_distance_approx(n, channel, DETECTOR))
        for n in range(1, n_max + 1))


def test_optimal_sections_exact():
    n_star, d_star = optimal_sections(CHANNEL, DETECTOR, 30)
    assert 16 <= n_star <= 20
    assert 600.0 <= d_star <= 700.0


def test_optimal_sections_single_candidate():
    for n_star, _ in (optimal_sections(CHANNEL, DETECTOR, 1),
                      approx_optimum(CHANNEL, 1)):
        assert n_star == 1


def test_optimal_sections_approx_close_to_exact_optimum():
    _, d_exact = optimal_sections(CHANNEL, DETECTOR, 30)
    _, d_approx = approx_optimum(CHANNEL, 30)
    assert abs(d_approx - d_exact) / d_exact <= 0.15


def test_optimal_sections_ties_break_to_fewer_sections():
    # no key anywhere: every candidate ties at zero distance
    channel = ChannelParams(0.25, 0.705)
    for n_star, d_star in (optimal_sections(channel, DETECTOR, 2),
                           approx_optimum(channel, 2)):
        assert (n_star, d_star) == (1, 0.0)


def test_approx_tracks_exact_in_its_validity_region():
    # the estimate assumes per-section loss dominates darks; past n ~ 25 at
    # the baseline operating point that breaks down and the gap blows up
    for n in range(10, 26):
        exact = max_distance_exact(n, CHANNEL, DETECTOR)
        approx = max_distance_approx(n, CHANNEL, DETECTOR)
        assert abs(approx - exact) / exact <= 0.15


# ------------------------------------------------ the abstract's negative claim

def test_relays_beat_one_section_only_near_its_cutoff():
    # The abstract: a relay cannot "improve the rate of key exchange over
    # distances where the standard single section scheme already works".
    # Over the window where the better one-section rate (forward or reverse)
    # is positive, record where each n first has a larger forward rate.  The
    # claim holds only below 138.7 km; n >= 8 never wins.  Settling Eve's
    # Bell dilution (ROADMAP item 3) leaves every entry where it is at this
    # 0.1 km resolution.
    grid = [i / 10 for i in range(1944)]                # 0 .. 194.3 km
    single = [max(kr.rate_forward, kr.rate_reverse)
              for kr in (evaluate(RelayConfig(1, d, CHANNEL, DETECTOR))[2]
                         for d in grid)]
    assert min(single) > 0.0
    assert evaluate(RelayConfig(1, 194.4, CHANNEL, DETECTOR))[2] \
        .rate_reverse == 0.0
    first_win = {}
    for n in range(2, 31):
        for d, rate_1 in zip(grid, single):
            if forward_rate(n, d) > rate_1:
                first_win[n] = d
                break
    assert first_win == {2: 138.7, 3: 175.5, 4: 185.8, 5: 192.9, 6: 193.9,
                         7: 194.3}


# ---------------------------------------------------------- threshold distance

def test_threshold_distance_tiny_threshold_equals_cutoff():
    cutoff = max_distance_exact(4, CHANNEL, DETECTOR)
    near = threshold_distance(4, CHANNEL, DETECTOR, 1e-300)
    assert near == pytest.approx(cutoff, abs=0.25)


def test_threshold_distance_unreachable_threshold():
    assert threshold_distance(1, CHANNEL, DETECTOR, 1.0) == 0.0


def test_threshold_distance_practical_rate_four_sections():
    d = threshold_distance(4, CHANNEL, DETECTOR, 1.667e-12)
    assert d == pytest.approx(316.84, abs=0.3)  # frozen at build time
    assert d < max_distance_exact(4, CHANNEL, DETECTOR)


def test_threshold_distance_non_increasing_in_threshold():
    previous = math.inf
    for thr in (1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
        d = threshold_distance(4, CHANNEL, DETECTOR, thr)
        assert d <= previous + 0.2
        previous = d


def test_threshold_distance_rejects_nonpositive_threshold():
    with pytest.raises(InvalidParameterError):
        threshold_distance(1, CHANNEL, DETECTOR, 0.0)


# ----------------------------------------------------------- detector tradeoff

def test_detector_line_presets():
    assert GOOD_LINE.a_coeff == 6.1e-7 and GOOD_LINE.b_coeff == 17.0
    assert NORMAL_LINE.a_coeff == 2.3e-6 and NORMAL_LINE.b_coeff == 17.0
    assert BEST_LINE.a_coeff == 1.2e-7 and BEST_LINE.b_coeff == 16.0
    assert set(DETECTOR_LINES) == {"normal", "good", "best"}


def test_detector_dark_anchors_on_good_line():
    assert 0.9e-4 <= detector_dark(0.3, GOOD_LINE) <= 1.1e-4
    assert 1.0e-6 <= detector_dark(0.05, GOOD_LINE) <= 2.0e-6


def test_detector_dark_limit_at_low_efficiency():
    assert detector_dark(1e-9, GOOD_LINE) == pytest.approx(GOOD_LINE.a_coeff,
                                                           rel=1e-6)


def test_detector_dark_strictly_increasing():
    etas = [i / 100 for i in range(2, 62, 2)]
    darks = [detector_dark(e, GOOD_LINE) for e in etas]
    assert all(a < b for a, b in zip(darks, darks[1:]))


def test_detector_dark_out_of_model():
    with pytest.raises(InvalidParameterError, match=OUT_OF_MODEL):
        detector_dark(0.9, GOOD_LINE)


def test_detector_dark_rejects_bad_efficiency():
    with pytest.raises(InvalidParameterError):
        detector_dark(0.0, GOOD_LINE)


def test_detector_sweep_400km():
    grid = [i / 100 for i in range(2, 31)]
    result = detector_sweep(400.0, [1, 2, 3, 4, 5, 6], GOOD_LINE, grid,
                            CHANNEL)
    by_n = {}
    for p in result.points:
        by_n.setdefault(p.n_sections, []).append(p)
    for n in (1, 2, 3):
        assert all(p.rate == 0.0 for p in by_n[n])
    best4 = result.best_by_n[4]
    assert best4.rate > result.best_by_n[5].rate
    assert best4.rate > result.best_by_n[6].rate
    assert 0.14 <= best4.eta <= 0.22


def test_detector_sweep_best_dominates_grid():
    grid = [i / 100 for i in range(5, 30, 5)]
    result = detector_sweep(400.0, [4, 5], GOOD_LINE, grid, CHANNEL)
    for p in result.points:
        assert result.best_by_n[p.n_sections].rate >= p.rate


def test_detector_sweep_single_point_grid():
    result = detector_sweep(200.0, [4], GOOD_LINE, [0.2], CHANNEL)
    assert len(result.points) == 1
    assert result.best_by_n[4] == result.points[0]


def test_detector_sweep_ties_go_to_the_smaller_efficiency():
    # every rate is 0 at 2000 km, so the descending grid's last point wins
    result = detector_sweep(2000.0, [4], GOOD_LINE, [0.2, 0.1], CHANNEL)
    assert {p.rate for p in result.points} == {0.0}
    assert result.best_by_n[4].eta == 0.1


def test_optimize_builds_no_relay_config():
    # the sweep checks its distance with the params rule, not with a config
    assert "RelayConfig" not in vars(optimize)


def test_detector_sweep_rejects_empty_grids():
    with pytest.raises(InvalidParameterError):
        detector_sweep(400.0, [], GOOD_LINE, [0.1], CHANNEL)
    with pytest.raises(InvalidParameterError):
        detector_sweep(400.0, [4], GOOD_LINE, [], CHANNEL)


def test_detector_sweep_propagates_out_of_model():
    with pytest.raises(InvalidParameterError, match=OUT_OF_MODEL):
        detector_sweep(400.0, [4], GOOD_LINE, [0.2, 0.85], CHANNEL)


def test_detector_line_validation():
    with pytest.raises(InvalidParameterError):
        DetectorLine(0.0, 17.0)
    with pytest.raises(InvalidParameterError):
        DetectorLine(1e-6, -1.0)


# -------------------------------------------------------------- source penalty

def test_source_penalty_no_sources():
    penalty = source_penalty(0, 0.5, 0.25)
    assert penalty.rate_factor == 1.0
    assert penalty.distance_loss_km == 0.0


def test_source_penalty_single_weak_source():
    penalty = source_penalty(1, 0.1, 0.25)
    assert penalty.rate_factor == 0.1
    assert penalty.distance_loss_km == 40.0


def test_source_penalty_scales_linearly_in_sources():
    penalty = source_penalty(3, 0.1, 0.25)
    assert penalty.rate_factor == pytest.approx(1e-3, rel=1e-12)
    assert penalty.distance_loss_km == pytest.approx(120.0, rel=1e-12)


def test_source_penalty_perfect_source_costs_nothing():
    penalty = source_penalty(5, 1.0, 0.25)
    assert penalty.rate_factor == 1.0
    assert penalty.distance_loss_km == 0.0


def test_source_penalty_tiny_emission_probability_stays_finite():
    # 1 / p overflows to inf below p ~ 5.6e-309
    penalty = source_penalty(2, 1e-320, 0.25)
    want = -80.0 * float(decimal.Decimal(1e-320).log10())
    assert penalty.distance_loss_km == pytest.approx(want, rel=1e-12)
    perfect = source_penalty(2, 1.0, 0.25).distance_loss_km
    assert math.copysign(1.0, perfect) == 1.0


@pytest.mark.parametrize("m,p,alpha", [
    (-1, 0.1, 0.25), (1, 0.0, 0.25), (1, 1.5, 0.25), (1, 0.1, 0.0),
    (1, 0.1, math.nan), (1, 0.1, math.inf),
    pytest.param(10 ** 400, 0.1, 0.25, id="10**400-0.1-0.25"),
])
def test_source_penalty_validation(m, p, alpha):
    with pytest.raises(InvalidParameterError):
        source_penalty(m, p, alpha)


# ------------------------------------------------------------- frozen outputs

OPTIMIZER_DIGEST = ("77de822c0f261ebc2a3088077714e29e"
                    "5a190e32b527fa462f50a4836a833510")


def test_optimizer_outputs_are_frozen():
    # sha256 of repr of cutoff scans, cutoffs, thresholds and sweeps, frozen
    # before the probes moved onto the model's per-cell kernel; it changes
    # only with the independent evidence ROADMAP's frozen-values rule asks for
    rng = random.Random(1604)
    results = []
    for i in range(60):
        alpha = rng.uniform(0.16, 0.35)
        v_opt = 1.0 if i % 5 == 0 else rng.uniform(0.95, 1.0)
        eta = rng.uniform(0.05, 0.9)
        dark = 0.0 if i % 6 == 0 else 10.0 ** rng.uniform(-7.0, -2.5)
        results.append(optimal_sections(ChannelParams(alpha, v_opt),
                                        DetectorParams(eta, dark), 30))
    results += [max_distance_exact(1, CHANNEL, DETECTOR, rec)
                for rec in ("forward", "reverse")]
    results += [threshold_distance(n, CHANNEL, DETECTOR)
                for n in range(1, 7)]
    results.append(detector_sweep(400.0, [1, 2, 3, 4, 5, 6], GOOD_LINE,
                                  [i / 100 for i in range(2, 31)], CHANNEL))
    results.append(detector_sweep(150.0, [1, 2, 3], BEST_LINE,
                                  [0.05, 0.1, 0.2, 0.4],
                                  ChannelParams(0.2, 1.0)))
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == OPTIMIZER_DIGEST


@pytest.mark.parametrize("call, most", [
    (lambda: max_distance_exact(18, CHANNEL, DETECTOR), 1),
    (lambda: max_distance_exact(1, CHANNEL, DETECTOR, "reverse"), 1),
    (lambda: threshold_distance(4, CHANNEL, DETECTOR), 1),
    (lambda: detector_sweep(400.0, [1, 2, 3, 4], GOOD_LINE,
                            [0.1, 0.2, 0.3], CHANNEL), 4),
], ids=["forward", "reverse", "threshold", "sweep"])
def test_probes_build_no_config_each(monkeypatch, call, most):
    # a cutoff takes about 20 rate probes, and none may build a config
    built = []
    real = RelayConfig.__post_init__

    def counted(config):
        built.append(config)
        real(config)

    monkeypatch.setattr(RelayConfig, "__post_init__", counted)
    call()
    assert len(built) <= most


# ---------------------------------------------------- estimate-started bracket

def cold_cutoff(positive):
    # the reference search, from the cold start: probe 0, double up from
    # 10 km to the cap, bisect; any start of the bracket must give its result
    if not positive(0.0):
        return 0.0
    lo, hi = 0.0, optimize.BRACKET_START_KM
    while positive(hi):
        lo, hi = hi, hi * 2.0
        if hi > optimize.BRACKET_CAP_KM:
            return math.inf
    while hi - lo > optimize.BISECT_TOL_KM:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_estimate_start_gives_the_cold_cutoffs_and_thresholds():
    rng = random.Random(1121)
    estimates = {"zero": 0, "inf": 0, "finite": 0}
    for i in range(400):
        channel = ChannelParams(rng.uniform(0.15, 0.35),
                                1.0 if i % 5 == 0 else rng.uniform(0.9, 1.0))
        dark = 0.0 if i % 6 == 0 else 10.0 ** rng.uniform(-7.0, -2.0)
        detector = DetectorParams(rng.uniform(0.05, 0.9), dark)
        threshold = 10.0 ** rng.uniform(-14.0, -4.0)
        for n in range(1, 31):
            estimate = max_distance_approx(n, channel, detector)
            estimates["zero" if estimate == 0.0 else "inf"
                      if estimate == math.inf else "finite"] += 1
            cell = model.kernel(n, channel, detector)[1]
            assert max_distance_exact(n, channel, detector) == cold_cutoff(
                lambda d: cell(d)[2][0] > 0.0), (i, n)
            assert threshold_distance(n, channel, detector, threshold) == \
                cold_cutoff(lambda d: cell(d)[2][0] >= threshold), (i, n)
        cell = model.kernel(1, channel, detector)[1]
        assert max_distance_exact(1, channel, detector, "reverse") == \
            cold_cutoff(lambda d: cell(d)[2][1] > 0.0), i
    assert min(estimates.values()) > 600, estimates


def record_probes(monkeypatch):
    # the distances of every full-cell call of model.kernel, in call order
    probes = []
    real_kernel = model.kernel

    def kernel(*args):
        link, cell = real_kernel(*args)

        def probe(d):
            probes.append(d)
            return cell(d)
        return link, probe

    monkeypatch.setattr(model, "kernel", kernel)
    return probes


def test_estimate_start_stays_under_the_cap(monkeypatch):
    # the estimate, about 815,000 km, lies in the bucket that ends at
    # 10 * 2**17 km, past the cap; the rate is positive at 10 * 2**16 km and
    # 0 at 10 * 2**17, so a start there would bisect to a finite cutoff
    channel = ChannelParams(2e-4, 1.0)
    detector = DetectorParams(0.3, 1e-10)
    assert 10.0 * 2 ** 16 < max_distance_approx(2, channel, detector) \
        < 10.0 * 2 ** 17
    cell = model.kernel(2, channel, detector)[1]
    assert cell(10.0 * 2 ** 16)[2][0] > 0.0
    assert cell(10.0 * 2 ** 17)[2][0] == 0.0
    probes = record_probes(monkeypatch)
    assert max_distance_exact(2, channel, detector) == math.inf
    assert probes == [10.0 * 2 ** 16]


def test_estimate_start_saves_probes_at_the_default_point(monkeypatch):
    # 592 probes from the cold start
    probes = record_probes(monkeypatch)
    assert optimal_sections(CHANNEL, DETECTOR, 30)[0] == 18
    assert len(probes) <= 430


# ------------------------------------------------------------------ validation

def test_max_distance_validation():
    with pytest.raises(InvalidParameterError):
        max_distance_exact(0, CHANNEL, DETECTOR)
    with pytest.raises(InvalidParameterError):
        max_distance_exact(1, CHANNEL, DETECTOR, "sideways")
    with pytest.raises(InvalidParameterError):
        max_distance_approx(0, CHANNEL, DETECTOR)
    with pytest.raises(InvalidParameterError):
        optimal_sections(CHANNEL, DETECTOR, 0)
    for huge in (10 ** 400, -10 ** 400):
        with pytest.raises(InvalidParameterError):
            max_distance_exact(huge, CHANNEL, DETECTOR)
        with pytest.raises(InvalidParameterError):
            max_distance_approx(huge, CHANNEL, DETECTOR)
        with pytest.raises(InvalidParameterError):
            optimal_sections(CHANNEL, DETECTOR, huge)
    for bad in (math.nan, -1.0, math.inf):
        with pytest.raises(InvalidParameterError, match=r"^distance_km must "
                           r"be finite and >= 0, got "):
            detector_sweep(bad, [4], GOOD_LINE, [0.1], CHANNEL)
