"""Root-finding and sweep layer on top of the closed-form model: maximum key
distances (exact and closed-form estimate), optimal section counts,
practical-rate thresholds and the detector efficiency/dark-count tradeoff."""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .model import evaluate, key_rates
from .params import (ChannelParams, DetectorParams, InvalidParameterError,
                     RelayConfig)

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


def _signed_rate(n: int, distance_km: float, channel: ChannelParams,
                 detector: DetectorParams, reconciliation: str) -> float:
    """p_total * (i_ab - i_eve) without the clamp at zero."""
    lm, im, _ = evaluate(RelayConfig(n, distance_km, channel, detector))
    i_eve = im.i_be if reconciliation == "reverse" else im.i_ae
    return lm.p_total * (im.i_ab - i_eve)


def _largest_distance_where(positive) -> float:
    """sup{d >= 0 : positive(d)} via doubling bracket plus bisection.

    Assumes positive changes from True to False at most once in d; returns 0
    when positive(0) is False and inf if the bracket cap is exceeded.
    """
    if not positive(0.0):
        return 0.0
    lo = 0.0
    hi = BRACKET_START_KM
    while positive(hi):
        lo, hi = hi, hi * 2.0
        if hi > BRACKET_CAP_KM:
            return math.inf
    while hi - lo > BISECT_TOL_KM:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_reconciliation(n: int, reconciliation: str) -> None:
    if reconciliation not in ("forward", "reverse"):
        raise InvalidParameterError(
            f"reconciliation must be 'forward' or 'reverse', got {reconciliation!r}")
    if reconciliation == "reverse" and n != 1:
        raise InvalidParameterError(
            "reverse reconciliation is only defined for n_sections == 1")


def max_distance_exact(n: int, channel: ChannelParams,
                       detector: DetectorParams,
                       reconciliation: str = "forward") -> float:
    """Largest distance in km with a strictly positive key rate, to 0.1 km;
    0 when there is no key at 0 km, inf past the bracket cap."""
    if not isinstance(n, int) or n < 1:
        raise InvalidParameterError(f"n must be an integer >= 1, got {n!r}")
    _check_reconciliation(n, reconciliation)
    return _largest_distance_where(
        lambda d: _signed_rate(n, d, channel, detector, reconciliation) > 0.0)


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
    if not isinstance(n, int) or n < 1:
        raise InvalidParameterError(f"n must be an integer >= 1, got {n!r}")
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
                     n_max: int, method: str = "exact") -> tuple[int, float]:
    """Scan 1..n_max sections with ``method`` "exact" (bisection) or
    "approx" (closed-form estimate) and return (n_star, d_max_km) as
    ``best_section_count`` picks it."""
    if not isinstance(n_max, int) or n_max < 1:
        raise InvalidParameterError(f"n_max must be an integer >= 1, got {n_max!r}")
    if method not in ("exact", "approx"):
        raise InvalidParameterError(
            f"method must be 'exact' or 'approx', got {method!r}")
    cutoff = max_distance_exact if method == "exact" else max_distance_approx
    return best_section_count(
        (n, cutoff(n, channel, detector)) for n in range(1, n_max + 1))


def threshold_distance(n: int, channel: ChannelParams,
                       detector: DetectorParams,
                       rate_threshold_per_pulse: float = PRACTICAL_RATE_THRESHOLD,
                       ) -> float:
    """Largest distance whose forward key rate still meets the threshold."""
    if not rate_threshold_per_pulse > 0:
        raise InvalidParameterError(
            f"rate threshold must be > 0, got {rate_threshold_per_pulse}")

    def meets(d: float) -> bool:
        cfg = RelayConfig(n, d, channel, detector)
        return key_rates(cfg).rate_forward >= rate_threshold_per_pulse

    return _largest_distance_where(meets)


def detector_dark(eta: float, line: DetectorLine) -> float:
    """Dark-count probability on the tradeoff line at efficiency ``eta``."""
    if not 0 < eta <= 1:
        raise InvalidParameterError(f"eta must be in (0, 1], got {eta}")
    try:
        dark = line.a_coeff * math.exp(line.b_coeff * eta)
    except OverflowError:
        dark = math.inf
    if dark >= 0.5:
        raise InvalidParameterError(
            f"dark({eta:g}) = {dark:.4g} on line {line.name!r} is >= 0.5")
    return dark


def max_eta_on_line(line: DetectorLine) -> float:
    """Largest efficiency for which the line stays strictly below dark = 0.5;
    0 when the line is invalid everywhere."""
    edge = math.log(0.5 / line.a_coeff) / line.b_coeff * (1.0 - 1e-12)
    return min(1.0, max(0.0, edge))


def detector_sweep(distance_km: float, sections: list[int],
                   line: DetectorLine, eta_grid: list[float],
                   channel: ChannelParams | None = None) -> DetectorSweepResult:
    """Forward key rate over an (n, eta) grid with darks taken from the line.

    The best grid point per section count maximizes the rate; ties go to the
    smaller efficiency.
    """
    if not sections or not eta_grid:
        raise InvalidParameterError("sections and eta_grid must be non-empty")
    channel = channel if channel is not None else ChannelParams()
    darks = [detector_dark(eta, line) for eta in eta_grid]
    points: list[SweepPoint] = []
    best_by_n: dict[int, SweepPoint] = {}
    for n in sections:
        for eta, dark in zip(eta_grid, darks):
            cfg = RelayConfig(n, distance_km, channel,
                              DetectorParams(eta, dark))
            rate = key_rates(cfg).rate_forward
            point = SweepPoint(n, eta, dark, rate)
            points.append(point)
            if n not in best_by_n or point.rate > best_by_n[n].rate:
                best_by_n[n] = point
    return DetectorSweepResult(tuple(points), best_by_n)


def source_penalty(m_sources: int, emission_prob: float,
                   alpha: float) -> SourcePenalty:
    """Cost of ``m_sources`` imperfect sources that each emit with probability
    ``emission_prob``: the signal shrinks by emission_prob**m, equivalent to
    extra fibre of (10 m / alpha) * log10(1 / emission_prob) km."""
    if not isinstance(m_sources, int) or m_sources < 0:
        raise InvalidParameterError(
            f"m_sources must be an integer >= 0, got {m_sources!r}")
    if not 0 < emission_prob <= 1:
        raise InvalidParameterError(
            f"emission_prob must be in (0, 1], got {emission_prob}")
    if not alpha > 0:
        raise InvalidParameterError(f"alpha must be > 0, got {alpha}")
    rate_factor = emission_prob ** m_sources
    distance_loss = (10.0 * m_sources / alpha) * math.log10(1.0 / emission_prob)
    return SourcePenalty(rate_factor, distance_loss)
