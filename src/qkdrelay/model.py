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
from dataclasses import dataclass

from .params import InvalidParameterError, RelayConfig


class DegenerateLinkError(ValueError):
    """The link produces no accepted events at all (p_total == 0)."""


@dataclass(frozen=True)
class LinkMetrics:
    """Click-level description of the sifted key channel."""

    t: float                # end-to-end fibre transmission
    t_section: float        # per-section transmission t**(1/n)
    p_click: float          # accepted-click probability of one station
    p_signal: float         # pulse yields a noiseless sifted bit
    p_total: float          # pulse yields a sifted bit at all
    v_ab: float             # visibility of Alice's bit at Bob, p_signal/p_total
    degenerate: bool = False


@dataclass(frozen=True)
class InfoMetrics:
    """Per-sifted-bit mutual informations between Alice, Bob and Eve."""

    i_ab: float             # I(A;B)
    i_ae: float             # I(A;E); equals i_be for even section counts
    i_be: float             # I(B;E)
    v_ab_e: float           # visibility of the error channel Eve can exploit
    p_photonpass: float     # fraction of sifted bits carried by a real photon
    v_ae_n: float           # Eve's dark-count-diluted visibility
    degenerate: bool = False


@dataclass(frozen=True)
class KeyRates:
    """Distillable secret bits per pulse sent."""

    rate_forward: float
    rate_reverse: float | None = None  # defined for single-section links only


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


def section_click_prob(config: RelayConfig) -> float:
    """Accepted-click probability of a single station watching one section."""
    return link_metrics(config).p_click


def link_metrics(config: RelayConfig) -> LinkMetrics:
    """Evaluate signal, total and visibility for the sifted key channel.

    A zero p_total (possible only without dark counts, once the per-section
    transmission underflows) is reported with the ``degenerate`` flag instead
    of raising, so that parameter sweeps never abort.
    """
    n = config.n_sections
    eta = config.detector.eta
    dk = config.detector.dark_prob
    t = transmittance(config.channel.alpha_db_per_km, config.distance_km)
    t_section = t ** (1.0 / n)
    s = t_section * eta
    p_click = (s + (1.0 - s) * 2.0 * dk) * (1.0 - dk)
    n_term, n_bell = _station_counts(n)

    p_signal = (0.5 ** ((n + 1) // 2)
                * config.channel.v_opt ** n
                * (s * (1.0 - dk)) ** n)
    # Bell acceptance: two independent clicks, minus the indistinguishable
    # merged outcomes, plus the merged ones rescued by a dark count.
    bell_accept = (p_click * p_click
                   - (1.0 - 2.0 * dk) * 0.5 * s * s * (1.0 - dk) ** 2)
    p_total = 0.5 * p_click ** n_term * bell_accept ** n_bell

    if p_total <= 0.0:
        return LinkMetrics(t, t_section, p_click, 0.0, 0.0, 0.0,
                           degenerate=True)
    # p_signal <= p_total holds exactly; guard the few-ulp rounding gap.
    p_signal = min(p_signal, p_total)
    return LinkMetrics(t, t_section, p_click, p_signal, p_total,
                       min(p_signal / p_total, 1.0))


def eve_base_visibility(v_channel: float) -> float:
    """Eve's visibility when a channel of visibility ``v_channel`` is entirely
    replaced by her optimal individual (cloning) attack."""
    if not 0.0 <= v_channel <= 1.0:
        raise InvalidParameterError(
            f"v_channel must be in [0, 1], got {v_channel}")
    return math.sqrt(1.0 - v_channel * v_channel)


def _eve_usable_visibility(config: RelayConfig, lm: LinkMetrics) -> float:
    raw = config.channel.v_opt ** config.n_sections
    _, n_bell = _station_counts(config.n_sections)
    if n_bell == 0 and not lm.degenerate:
        # Nothing dilutes the optics.  The Bell ratio is not formed: its
        # square terms underflow long before p_total does.
        return raw
    dk = config.detector.dark_prob
    s = lm.t_section * config.detector.eta
    denom = lm.p_click * lm.p_click - (1.0 - 2.0 * dk) * 0.5 * s * s
    if denom <= 0.0:
        raise DegenerateLinkError(
            "Bell acceptance vanished; no usable visibility is defined")
    raw *= (0.5 * s * s / denom) ** n_bell
    # The ratio overshoots 1 by O(dark_prob) at short distance with a
    # near-perfect channel; clamp to keep the visibility physical.
    return min(raw, 1.0)


def eve_usable_visibility(config: RelayConfig) -> float:
    """Visibility of the error channel available to Eve.

    Besides the optical imperfections, Eve can exploit the dark counts of the
    Bell stations (they sit outside the end laboratories).  Each Bell station
    dilutes the usable visibility by the ratio of resolved two-photon outcomes
    to all accepted outcomes.
    """
    return _eve_usable_visibility(config, link_metrics(config))


def evaluate(config: RelayConfig) -> tuple[LinkMetrics, InfoMetrics, KeyRates]:
    """Link, information and rate metrics of one configuration, from a single
    ``link_metrics`` evaluation; see ``info_metrics`` and ``key_rates``."""
    lm = link_metrics(config)
    n = config.n_sections
    if lm.degenerate:
        im = InfoMetrics(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, degenerate=True)
    else:
        eta = config.detector.eta
        dk = config.detector.dark_prob
        s = lm.t_section * eta

        i_ab = 1.0 - binary_entropy(0.5 * (1.0 + lm.v_ab))

        v_ab_e = _eve_usable_visibility(config, lm)
        eve_vis = eve_base_visibility(v_ab_e)

        # Eve learns nothing from the sifted bits that exist only thanks to a
        # dark count inside a terminal laboratory.
        p_photonpass = (lm.t_section * (eta + (1.0 - eta) * 2.0 * dk)
                        / (s + (1.0 - s) * 2.0 * dk))
        v_ae_n = eta * eve_vis / (eta + (1.0 - eta) * 2.0 * dk)
        i_be = p_photonpass * (1.0 - binary_entropy(0.5 * (1.0 + v_ae_n)))

        if n % 2 == 0:
            i_ae = i_be
        else:
            i_ae = 1.0 - binary_entropy(0.5 + 0.5 * eve_vis)
        im = InfoMetrics(i_ab, i_ae, i_be, v_ab_e, p_photonpass, v_ae_n)

    rate_forward = max(0.0, lm.p_total * (im.i_ab - im.i_ae))
    rate_reverse = (max(0.0, lm.p_total * (im.i_ab - im.i_be)) if n == 1
                    else None)
    return lm, im, KeyRates(rate_forward, rate_reverse)


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
