"""Closed-form probabilities, visibilities, mutual informations and secret-key
rates for a relay link of n equal sections.

Conventions used throughout:

* ``t`` is the end-to-end fibre transmission, ``t**(1/n)`` the per-section one.
* A station "accepts" when exactly one of its detectors fires: either the
  photon is detected and no dark count spoils the conjugate detector, or the
  photon is lost but a dark count fires in one of the two detectors.
* An n-section link has ``(n - 1) // 2`` Bell-measurement stations and
  ``n - 2 * ((n - 1) // 2)`` terminal measurement stations (Bob always; Alice
  too for even n, where both ends measure halves of entangled pairs).
* A linear-optics Bell measurement resolves only half of the Bell states; the
  unresolved half shows up as a single merged click that can still be accepted
  if a dark count completes the two-click signature.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .params import (ChannelParams, DetectorParams, InvalidParameterError,
                     RelayConfig)

_MIN_NORMAL = sys.float_info.min  # below it a link is degenerate


@dataclass(frozen=True)
class LinkMetrics:
    """Click-level description of the sifted key channel."""

    t_section: float        # per-section transmission t**(1/n)
    p_click: float          # accepted-click probability of one station
    p_signal: float         # pulse yields a noiseless sifted bit
    p_total: float          # pulse yields a sifted bit at all
    v_ab: float             # visibility of Alice's bit at Bob, p_signal/p_total


@dataclass(frozen=True)
class InfoMetrics:
    """Per-sifted-bit mutual informations between Alice, Bob and Eve."""

    i_ab: float             # I(A;B)
    i_ae: float             # I(A;E); equals i_be for even section counts
    i_be: float             # I(B;E)
    v_ab_e: float           # visibility of the error channel Eve can exploit
    p_photonpass: float     # fraction of sifted bits carried by a real photon
    v_ae_n: float           # Eve's dark-count-diluted visibility


@dataclass(frozen=True)
class KeyRates:
    """Distillable secret bits per pulse sent."""

    rate_forward: float
    rate_reverse: float | None  # defined for single-section links only


def check_reconciliation(n: int, reconciliation: str) -> None:
    """Reject a reconciliation that ``KeyRates`` does not define for ``n``
    sections: anything but forward and reverse, and reverse for n != 1."""
    if reconciliation not in ("forward", "reverse"):
        raise InvalidParameterError(
            f"reconciliation must be 'forward' or 'reverse', got {reconciliation!r}")
    if reconciliation == "reverse" and n != 1:
        raise InvalidParameterError(
            "reverse reconciliation is only defined for n_sections == 1")


def transmittance(alpha_db_per_km: float, distance_km: float) -> float:
    """Probability that a photon survives ``distance_km`` of fibre."""
    if alpha_db_per_km <= 0:
        raise InvalidParameterError(
            f"alpha_db_per_km must be > 0, got {alpha_db_per_km}")
    if distance_km < 0:
        raise InvalidParameterError(
            f"distance_km must be >= 0, got {distance_km}")
    return 10.0 ** (-alpha_db_per_km * distance_km / 10.0)


def binary_entropy(p: float) -> float:
    """Shannon entropy of a biased coin, in bits; H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"p must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _station_counts(n: int) -> tuple[int, int]:
    """(terminal stations, Bell stations) for an n-section link."""
    n_bell = (n - 1) // 2
    return n - 2 * n_bell, n_bell


def _link(n: int, channel: ChannelParams, detector: DetectorParams,
          distance_km: float) -> tuple[float, float, float, float, float]:
    """The ``LinkMetrics`` fields of one cell, in field order: the per-cell
    kernel's first half.  ``link_metrics`` wraps them in the record, and the
    optimizer's rate probes (``_key_rates``) read them bare."""
    eta = detector.eta
    dk = detector.dark_prob
    t = transmittance(channel.alpha_db_per_km, distance_km)
    t_section = t ** (1.0 / n)
    s = t_section * eta
    p_click = (s + (1.0 - s) * 2.0 * dk) * (1.0 - dk)
    n_term, n_bell = _station_counts(n)

    p_signal = (0.5 ** ((n + 1) // 2)
                * channel.v_opt ** n
                * (s * (1.0 - dk)) ** n)
    # Bell acceptance: two independent clicks, minus the indistinguishable
    # merged outcomes, plus the merged ones rescued by a dark count.
    bell_accept = (p_click * p_click
                   - (1.0 - 2.0 * dk) * 0.5 * s * s * (1.0 - dk) ** 2)
    p_total = 0.5 * p_click ** n_term * bell_accept ** n_bell

    if p_total < _MIN_NORMAL:
        return t_section, p_click, 0.0, 0.0, 0.0
    # p_signal <= p_total holds exactly; guard the few-ulp rounding gap, after
    # which the correctly rounded ratio cannot exceed 1.
    if p_total < p_signal:
        p_signal = p_total
    return t_section, p_click, p_signal, p_total, p_signal / p_total


def link_metrics(config: RelayConfig) -> LinkMetrics:
    """Evaluate signal, total and visibility for the sifted key channel.

    A p_total below the smallest normal double (possible only without dark
    counts, or with tiny ones, once the per-section transmission
    underflows) is reported as a degenerate link, ``p_total == 0.0`` with
    p_signal and v_ab 0 too, instead of raising, so that parameter sweeps
    never abort: a subnormal p_signal / p_total carries no significant digits.
    Every other link has ``p_total >= sys.float_info.min``.
    """
    return LinkMetrics(*_link(config.n_sections, config.channel,
                              config.detector, config.distance_km))


def eve_base_visibility(v_channel: float) -> float:
    """Eve's visibility when a channel of visibility ``v_channel`` is entirely
    replaced by her optimal individual (cloning) attack."""
    if not 0.0 <= v_channel <= 1.0:
        raise InvalidParameterError(
            f"v_channel must be in [0, 1], got {v_channel}")
    return math.sqrt(1.0 - v_channel * v_channel)


def eve_usable_visibility(config: RelayConfig) -> float:
    """Visibility of the error channel available to Eve.

    Besides the optical imperfections, Eve can exploit the dark counts of the
    Bell stations (they sit outside the end laboratories).  Each Bell station
    dilutes the usable visibility by the ratio of resolved two-photon outcomes
    to all accepted outcomes.  0 on a degenerate link.
    """
    return evaluate(config)[1].v_ab_e


def _info(n: int, channel: ChannelParams, detector: DetectorParams,
          t_section: float, p_click: float, p_total: float, v_ab: float,
          ) -> tuple[tuple[float, ...], float, float | None]:
    """(the ``InfoMetrics`` fields in field order, ``rate_forward``,
    ``rate_reverse``) of one cell from its ``_link`` values: the per-cell
    kernel's second half; see ``evaluate``."""
    if p_total == 0.0:
        i_ab = i_ae = i_be = v_ab_e = p_photonpass = v_ae_n = 0.0
    else:
        eta = detector.eta
        dk = detector.dark_prob
        s = t_section * eta

        i_ab = 1.0 - binary_entropy(0.5 * (1.0 + v_ab))

        v_ab_e = channel.v_opt ** n
        _, n_bell = _station_counts(n)
        if n_bell > 0:
            # p_click**2 > (1 - 2D) s**2 / 2 on any link that is not
            # degenerate, so the ratio is defined.  It is not formed without
            # Bell stations: its square terms underflow long before p_total.
            v_ab_e *= (0.5 * s * s / (p_click * p_click
                                      - (1.0 - 2.0 * dk) * 0.5 * s * s)
                       ) ** n_bell
            # The ratio overshoots 1 by O(dark_prob) at short distance with a
            # near-perfect channel; clamp to keep the visibility physical.
            if v_ab_e > 1.0:
                v_ab_e = 1.0
        eve_vis = eve_base_visibility(v_ab_e)

        # Eve learns nothing from the sifted bits that exist only thanks to a
        # dark count inside a terminal laboratory.
        click_given_photon = eta + (1.0 - eta) * 2.0 * dk
        p_photonpass = (t_section * click_given_photon
                        / (s + (1.0 - s) * 2.0 * dk))
        v_ae_n = eta * eve_vis / click_given_photon
        i_be = p_photonpass * (1.0 - binary_entropy(0.5 * (1.0 + v_ae_n)))

        if n % 2 == 0:
            i_ae = i_be
        else:
            i_ae = 1.0 - binary_entropy(0.5 + 0.5 * eve_vis)

    rate_forward = max(0.0, p_total * (i_ab - i_ae))
    rate_reverse = (max(0.0, p_total * (i_ab - i_be)) if n == 1
                    else None)
    return ((i_ab, i_ae, i_be, v_ab_e, p_photonpass, v_ae_n),
            rate_forward, rate_reverse)


def _key_rates(n: int, channel: ChannelParams, detector: DetectorParams,
               distance_km: float) -> tuple[float, float | None]:
    """``(rate_forward, rate_reverse)`` of one cell from the per-cell kernel,
    with no config or record built: the optimizer's rate probe.  The caller
    has checked ``n`` and ``distance_km`` as ``RelayConfig`` would."""
    t_section, p_click, _, p_total, v_ab = _link(n, channel, detector,
                                                 distance_km)
    return _info(n, channel, detector, t_section, p_click, p_total, v_ab)[1:]


def evaluate(config: RelayConfig) -> tuple[LinkMetrics, InfoMetrics, KeyRates]:
    """Link, information and rate metrics of one configuration, from a single
    ``link_metrics`` evaluation; see ``info_metrics`` and ``key_rates``."""
    lm = link_metrics(config)
    info, rate_forward, rate_reverse = _info(
        config.n_sections, config.channel, config.detector,
        lm.t_section, lm.p_click, lm.p_total, lm.v_ab)
    return lm, InfoMetrics(*info), KeyRates(rate_forward, rate_reverse)


def info_metrics(config: RelayConfig) -> InfoMetrics:
    """Mutual informations per sifted bit.

    For odd section counts Eve's information about Alice's bit uses the
    dark-count-free upper bound (generous to Eve).  For even section counts
    the link is symmetric between the two ends and i_ae equals i_be.
    """
    return evaluate(config)[1]


def key_rates(config: RelayConfig) -> KeyRates:
    """Secret-key rates per pulse, clamped at zero.

    Forward reconciliation (one-way, Alice to Bob) is defined for any section
    count.  Reverse reconciliation (centred on Bob) is only meaningful for the
    single-section link, where Bob's local dark counts dilute Eve's knowledge
    of his bit; for relays the field is None.
    """
    return evaluate(config)[2]
