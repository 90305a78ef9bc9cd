"""Root-finding and sweep layer on top of the closed-form model: maximum key
distances (exact and closed-form estimate), optimal section counts,
practical-rate thresholds and the detector efficiency/dark-count tradeoff."""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from . import model
from .params import (ChannelParams, DetectorParams, InvalidParameterError,
                     require_count, require_finite, require_fraction)

BISECT_TOL_KM = 0.1          # figures are read at roughly km resolution
BRACKET_START_KM = 10.0
BRACKET_CAP_KM = 1e6         # beyond this the rate is treated as never dying

# 1 bit/minute when pulsing at 10 GHz.
PRACTICAL_RATE_THRESHOLD = 1.0 / (60.0 * 1e10)


@dataclass(frozen=True)
class DetectorLine:
    """Exponential efficiency/dark-count tradeoff dark(eta) = a * exp(b * eta),
    fitted to InGaAs APD families."""

    a_coeff: float
    b_coeff: float
    name: str = "custom"

    def __post_init__(self) -> None:
        if not self.a_coeff > 0:
            raise InvalidParameterError(f"a_coeff must be > 0, got {self.a_coeff}")
        if not self.b_coeff > 0:
            raise InvalidParameterError(f"b_coeff must be > 0, got {self.b_coeff}")


NORMAL_LINE = DetectorLine(2.3e-6, 17.0, "normal")
GOOD_LINE = DetectorLine(6.1e-7, 17.0, "good")
BEST_LINE = DetectorLine(1.2e-7, 16.0, "best")
DETECTOR_LINES = {line.name: line for line in (NORMAL_LINE, GOOD_LINE, BEST_LINE)}


@dataclass(frozen=True)
class SourcePenalty:
    """Rate and distance cost of sources that emit only a fraction of the time."""

    rate_factor: float
    distance_loss_km: float


@dataclass(frozen=True)
class SweepPoint:
    n_sections: int
    eta: float
    dark_prob: float
    rate: float


@dataclass(frozen=True)
class DetectorSweepResult:
    points: tuple[SweepPoint, ...]
    best_by_n: dict[int, SweepPoint]


def _largest_distance_where(positive, estimate_km: float) -> float:
    """sup{d >= 0 : positive(d)} via doubling bracket plus bisection.

    Assumes positive changes from True to False at most once in d; returns 0
    when positive(0) is False and inf if the bracket cap is exceeded.  The
    bracket's top is the first of 10 km * 2**k, k = 0..16, where positive
    fails, and its bottom the bucket before (0 for k = 0).  Under that
    assumption every search finds the same bracket, so this one starts at the
    bucket holding ``estimate_km`` and steps up or down from there (from
    10 km, the cold start, when the estimate is 0 or inf), and it probes 0
    only when the bracket's bottom is 0: any positive probe implies
    positive(0).
    """
    hi = BRACKET_START_KM
    while hi < estimate_km < math.inf and hi * 2.0 <= BRACKET_CAP_KM:
        hi *= 2.0
    if positive(hi):                    # short of the cutoff: double up
        while True:
            lo, hi = hi, hi * 2.0
            if hi > BRACKET_CAP_KM:
                return math.inf
            if not positive(hi):
                break
    else:                               # past it: halve down
        lo = hi * 0.5
        while lo >= BRACKET_START_KM and not positive(lo):
            lo, hi = lo * 0.5, lo
        if lo < BRACKET_START_KM:
            if not positive(0.0):
                return 0.0
            lo = 0.0
    while hi - lo > BISECT_TOL_KM:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def max_distance_exact(n: int, channel: ChannelParams,
                       detector: DetectorParams,
                       reconciliation: str = "forward") -> float:
    """Largest distance in km with a strictly positive key rate, to 0.1 km;
    0 when there is no key at 0 km, inf past the bracket cap.  Each probe is
    one ``model.kernel`` cell."""
    k = model.check_reconciliation(n, reconciliation)
    cell = model.kernel(n, channel, detector)[1]
    return _largest_distance_where(lambda d: cell(d)[2][k] > 0.0,
                                   max_distance_approx(n, channel, detector))


def max_distance_approx(n: int, channel: ChannelParams,
                        detector: DetectorParams) -> float:
    """Closed-form estimate of the maximum key distance in km.

    Derived by handing every dark count in the system to Eve (so the key
    survives while v_ab > 1/sqrt(2)) and folding the unresolved Bell outcomes
    into a doubling of the effective dark counts.  Good for many sections;
    pessimistic for few.  0 where the estimate predicts no key.  Without dark
    counts nothing lowers the visibility with distance, so the estimate's
    limit is inf when 2**(1/(2n)) * v_opt > 1 and 0 otherwise.
    """
    require_count("n_sections", n, 1)
    margin = 2.0 ** (1.0 / (2.0 * n)) * channel.v_opt - 1.0
    if detector.dark_prob == 0.0:
        return math.inf if margin > 0.0 else 0.0
    arg = (detector.eta / (4.0 * detector.dark_prob)) * margin
    if arg <= 1.0:
        return 0.0
    return (10.0 * n / channel.alpha_db_per_km) * math.log10(arg)


def best_section_count(cutoffs: Iterable[tuple[int, float]],
                       ) -> tuple[int, float]:
    """The (n, d_max_km) pair of ``cutoffs`` with the largest distance; ties
    go to the smaller section count (cheaper hardware)."""
    return max(cutoffs, key=lambda item: (item[1], -item[0]))


def optimal_sections(channel: ChannelParams, detector: DetectorParams,
                     n_max: int) -> tuple[int, float]:
    """Scan the exact cutoffs of 1..n_max sections and return
    (n_star, d_max_km) as ``best_section_count`` picks it."""
    require_count("n_max", n_max, 1)
    return best_section_count(
        (n, max_distance_exact(n, channel, detector))
        for n in range(1, n_max + 1))


def threshold_distance(n: int, channel: ChannelParams,
                       detector: DetectorParams,
                       rate_threshold_per_pulse: float = PRACTICAL_RATE_THRESHOLD,
                       ) -> float:
    """Largest distance whose forward key rate still meets the threshold."""
    if not rate_threshold_per_pulse > 0:
        raise InvalidParameterError(
            f"rate threshold must be > 0, got {rate_threshold_per_pulse}")
    cell = model.kernel(n, channel, detector)[1]
    return _largest_distance_where(
        lambda d: cell(d)[2][0] >= rate_threshold_per_pulse,
        max_distance_approx(n, channel, detector))


def detector_dark(eta: float, line: DetectorLine) -> float:
    """Dark-count probability on the tradeoff line at efficiency ``eta``."""
    require_fraction("eta", eta)
    try:
        dark = line.a_coeff * math.exp(line.b_coeff * eta)
    except OverflowError:
        dark = math.inf
    if dark >= 0.5:
        raise InvalidParameterError(
            f"dark({eta:g}) = {dark:.4g} on line {line.name!r} is >= 0.5")
    return dark


def detector_sweep(distance_km: float, sections: list[int],
                   line: DetectorLine, eta_grid: list[float],
                   channel: ChannelParams) -> DetectorSweepResult:
    """Forward key rate over an (n, eta) grid with darks taken from the line.

    The best grid point per section count maximizes the rate; ties go to the
    smaller efficiency.
    """
    if not sections or not eta_grid:
        raise InvalidParameterError("sections and eta_grid must be non-empty")
    detectors = [DetectorParams(eta, detector_dark(eta, line))
                 for eta in eta_grid]
    require_finite("distance_km", distance_km, zero_ok=True)
    points: list[SweepPoint] = []
    best_by_n: dict[int, SweepPoint] = {}
    for n in sections:   # each (n, eta) kernel checks n
        row = [SweepPoint(n, det.eta, det.dark_prob,
                          model.kernel(n, channel, det)[1](distance_km)[2][0])
               for det in detectors]
        points += row
        best_by_n[n] = max(row, key=lambda point: (point.rate, -point.eta))
    return DetectorSweepResult(tuple(points), best_by_n)


def source_penalty(m_sources: int, emission_prob: float,
                   alpha: float) -> SourcePenalty:
    """Cost of ``m_sources`` imperfect sources that each emit with probability
    ``emission_prob``: the signal shrinks by emission_prob**m, equivalent to
    extra fibre of (10 m / alpha) * log10(1 / emission_prob) km."""
    require_count("m_sources", m_sources, 0)
    require_fraction("emission_prob", emission_prob)
    require_finite("alpha", alpha)
    rate_factor = emission_prob ** m_sources
    # not log10(1 / p), which overflows below p ~ 5.6e-309; 0.0 - keeps +0.0
    log_loss = 0.0 - math.log10(emission_prob)
    return SourcePenalty(rate_factor, (10.0 * m_sources / alpha) * log_loss)
