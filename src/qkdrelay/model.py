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
                     RelayConfig, require_count)

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


def check_reconciliation(n: int, reconciliation: str) -> int:
    """Index of ``reconciliation``'s rate in ``KeyRates``: 0 for forward, 1
    for reverse.  Rejects what ``KeyRates`` does not define for ``n``
    sections: anything but forward and reverse, and reverse for n != 1."""
    if reconciliation not in ("forward", "reverse"):
        raise InvalidParameterError(
            f"reconciliation must be 'forward' or 'reverse', got {reconciliation!r}")
    if reconciliation == "reverse" and n != 1:
        raise InvalidParameterError(
            "reverse reconciliation is only defined for n_sections == 1")
    return 1 if reconciliation == "reverse" else 0


def transmittance(alpha_db_per_km: float, distance_km: float) -> float:
    """Probability that a photon survives ``distance_km`` of fibre."""
    if not 0 < alpha_db_per_km < math.inf:
        raise InvalidParameterError(f"alpha_db_per_km must be finite "
                                    f"and > 0, got {alpha_db_per_km}")
    if not 0 <= distance_km < math.inf:
        raise InvalidParameterError(f"distance_km must be finite and "
                                    f">= 0, got {distance_km}")
    return 10.0 ** (-alpha_db_per_km * distance_km / 10.0)


def _entropy(p: float) -> float:
    """``binary_entropy`` without its range check, for the kernel."""
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def binary_entropy(p: float) -> float:
    """Shannon entropy of a biased coin, in bits; H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"p must be in [0, 1], got {p}")
    return _entropy(p)


def kernel(n: int, channel: ChannelParams, detector: DetectorParams):
    """``(link, cell)``: the per-cell kernel of ``n``-section links on
    ``channel`` and ``detector``, as two functions of the distance in km.

    ``link(d)`` gives the ``LinkMetrics`` fields in field order, and
    ``cell(d)`` the ``evaluate`` fields as ``(link fields, InfoMetrics
    fields, (rate_forward, rate_reverse))``; neither builds a record.  ``n``
    is checked here, once, as ``RelayConfig`` checks it, and the per-n and
    per-detector constants are hoisted; ``d`` is not checked, so the caller
    keeps it finite and >= 0, as ``RelayConfig`` would.
    """
    require_count("n_sections", n, 1)
    neg_alpha = -channel.alpha_db_per_km
    eta, dk = detector.eta, detector.dark_prob
    inv_n = 1.0 / n
    n_bell = (n - 1) // 2
    n_term = n - 2 * n_bell
    v_opt_n = channel.v_opt ** n
    signal_scale = 0.5 ** ((n + 1) // 2) * v_opt_n
    one_minus_dk = 1.0 - dk
    two_dk = 2.0 * dk
    merge = (1.0 - two_dk) * 0.5
    one_minus_dk_sq = one_minus_dk ** 2
    click_given_photon = eta + (1.0 - eta) * two_dk
    dead = ((0.0,) * 6, (0.0, 0.0 if n == 1 else None))
    odd = n % 2 == 1

    def cell(distance_km: float, full: bool = True):
        t_section = (10.0 ** (neg_alpha * distance_km / 10.0)) ** inv_n
        s = t_section * eta
        click_or_dark = s + (1.0 - s) * two_dk
        p_click = click_or_dark * one_minus_dk
        p_click_sq = p_click * p_click
        # merged Bell outcomes, s**2 (1 - 2D) / 2 per station
        merged = merge * s * s
        p_signal = signal_scale * (s * one_minus_dk) ** n
        # Bell acceptance: two independent clicks, minus the indistinguishable
        # merged outcomes, plus the merged ones rescued by a dark count.
        p_total = (0.5 * p_click ** n_term
                   * (p_click_sq - merged * one_minus_dk_sq) ** n_bell)
        if p_total < _MIN_NORMAL:
            link = (t_section, p_click, 0.0, 0.0, 0.0)
            return (link, *dead) if full else link
        # p_signal <= p_total holds exactly; guard the few-ulp rounding gap,
        # after which the correctly rounded ratio cannot exceed 1.
        if p_total < p_signal:
            p_signal = p_total
        v_ab = p_signal / p_total
        link = (t_section, p_click, p_signal, p_total, v_ab)
        if not full:
            return link

        i_ab = 1.0 - _entropy(0.5 * (1.0 + v_ab))
        v_ab_e = v_opt_n
        if n_bell > 0:
            # p_click**2 > merged on any link that is not degenerate, so the
            # ratio is defined.  It is not formed without Bell stations: its
            # square terms underflow long before p_total.
            v_ab_e *= (0.5 * s * s / (p_click_sq - merged)) ** n_bell
            # The ratio overshoots 1 by O(dark_prob) at short distance with a
            # near-perfect channel; clamp to keep the visibility physical.
            if v_ab_e > 1.0:
                v_ab_e = 1.0
        eve_vis = math.sqrt(1.0 - v_ab_e * v_ab_e)  # eve_base_visibility
        # Eve learns nothing from the sifted bits that exist only thanks to a
        # dark count inside a terminal laboratory.
        p_photonpass = t_section * click_given_photon / click_or_dark
        v_ae_n = eta * eve_vis / click_given_photon
        i_be = p_photonpass * (1.0 - _entropy(0.5 * (1.0 + v_ae_n)))
        i_ae = 1.0 - _entropy(0.5 + 0.5 * eve_vis) if odd else i_be
        # max(0.0, r), which is 0.0 also for r = -0.0 or nan
        rate = p_total * (i_ab - i_ae)
        rate_forward = rate if rate > 0.0 else 0.0
        rate_reverse = None
        if n == 1:
            rate = p_total * (i_ab - i_be)
            rate_reverse = rate if rate > 0.0 else 0.0
        return (link, (i_ab, i_ae, i_be, v_ab_e, p_photonpass, v_ae_n),
                (rate_forward, rate_reverse))

    return (lambda distance_km: cell(distance_km, False)), cell


def link_metrics(config: RelayConfig) -> LinkMetrics:
    """Evaluate signal, total and visibility for the sifted key channel.

    A p_total below the smallest normal double (possible only without dark
    counts, or with tiny ones, once the per-section transmission
    underflows) is reported as a degenerate link, ``p_total == 0.0`` with
    p_signal and v_ab 0 too, instead of raising, so that parameter sweeps
    never abort: a subnormal p_signal / p_total carries no significant digits.
    Every other link has ``p_total >= sys.float_info.min``.
    """
    link = kernel(config.n_sections, config.channel, config.detector)[0]
    return LinkMetrics(*link(config.distance_km))


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


def evaluate(config: RelayConfig) -> tuple[LinkMetrics, InfoMetrics, KeyRates]:
    """Link, information and rate metrics of one configuration, from one
    ``kernel`` cell; see ``link_metrics``, ``info_metrics`` and
    ``key_rates``."""
    cell = kernel(config.n_sections, config.channel, config.detector)[1]
    link, info, rates = cell(config.distance_km)
    return LinkMetrics(*link), InfoMetrics(*info), KeyRates(*rates)


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
