import math

import numpy as np
import pytest

import reference as ref
from qkdrelay import (BEST_LINE, DETECTOR_LINES, GOOD_LINE, NORMAL_LINE,
                      ChannelParams, DetectorLine, DetectorParams,
                      InvalidParameterError, RelayConfig, detector_dark,
                      detector_sweep, evaluate, key_rates, max_distance_approx,
                      max_distance_exact, max_eta_on_line, optimal_sections,
                      source_penalty, threshold_distance)

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


def test_reverse_beats_forward():
    fwd = max_distance_exact(1, CHANNEL, DETECTOR, "forward")
    rev = max_distance_exact(1, CHANNEL, DETECTOR, "reverse")
    assert rev > fwd + 1.0


def test_reverse_requires_single_section():
    with pytest.raises(InvalidParameterError, match="reverse reconciliation "
                       "is only defined for n_sections == 1"):
        max_distance_exact(2, CHANNEL, DETECTOR, "reverse")


def test_signed_rate_changes_sign_at_most_once():
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

def test_optimal_sections_exact():
    n_star, d_star = optimal_sections(CHANNEL, DETECTOR, 30, "exact")
    assert 16 <= n_star <= 20
    assert 600.0 <= d_star <= 700.0


def test_optimal_sections_single_candidate():
    for method in ("exact", "approx"):
        n_star, _ = optimal_sections(CHANNEL, DETECTOR, 1, method)
        assert n_star == 1


def test_optimal_sections_approx_close_to_exact_optimum():
    _, d_exact = optimal_sections(CHANNEL, DETECTOR, 30, "exact")
    _, d_approx = optimal_sections(CHANNEL, DETECTOR, 30, "approx")
    assert abs(d_approx - d_exact) / d_exact <= 0.15


def test_optimal_sections_ties_break_to_fewer_sections():
    # no key anywhere: every candidate ties at zero distance
    channel = ChannelParams(0.25, 0.705)
    n_star, d_star = optimal_sections(channel, DETECTOR, 2, "approx")
    assert (n_star, d_star) == (1, 0.0)


def test_approx_tracks_exact_in_its_validity_region():
    # the estimate assumes per-section loss dominates darks; past n ~ 25 at
    # the baseline operating point that breaks down and the gap blows up
    for n in range(10, 26):
        exact = max_distance_exact(n, CHANNEL, DETECTOR)
        approx = max_distance_approx(n, CHANNEL, DETECTOR)
        assert abs(approx - exact) / exact <= 0.15


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


def test_max_eta_on_line_is_the_validity_edge():
    edge = max_eta_on_line(GOOD_LINE)
    assert detector_dark(edge, GOOD_LINE) < 0.5
    assert edge < 1.0
    with pytest.raises(InvalidParameterError, match=OUT_OF_MODEL):
        detector_dark(min(1.0, edge * 1.01), GOOD_LINE)


def test_detector_sweep_400km():
    grid = [i / 100 for i in range(2, 31)]
    result = detector_sweep(400.0, [1, 2, 3, 4, 5, 6], GOOD_LINE, grid)
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
    result = detector_sweep(400.0, [4, 5], GOOD_LINE, grid)
    for p in result.points:
        assert result.best_by_n[p.n_sections].rate >= p.rate


def test_detector_sweep_single_point_grid():
    result = detector_sweep(200.0, [4], GOOD_LINE, [0.2])
    assert len(result.points) == 1
    assert result.best_by_n[4] == result.points[0]


def test_detector_sweep_rejects_empty_grids():
    with pytest.raises(InvalidParameterError):
        detector_sweep(400.0, [], GOOD_LINE, [0.1])
    with pytest.raises(InvalidParameterError):
        detector_sweep(400.0, [4], GOOD_LINE, [])


def test_detector_sweep_propagates_out_of_model():
    with pytest.raises(InvalidParameterError, match=OUT_OF_MODEL):
        detector_sweep(400.0, [4], GOOD_LINE, [0.2, 0.85])


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


@pytest.mark.parametrize("m,p,alpha", [
    (-1, 0.1, 0.25), (1, 0.0, 0.25), (1, 1.5, 0.25), (1, 0.1, 0.0),
])
def test_source_penalty_validation(m, p, alpha):
    with pytest.raises(InvalidParameterError):
        source_penalty(m, p, alpha)


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
    with pytest.raises(InvalidParameterError):
        optimal_sections(CHANNEL, DETECTOR, 5, "guess")
