"""Detector-level enumeration of the relay's measurement stations.

An oracle for the closed-form model that works below its station
abstraction: every station is a set of threshold detectors, and its
probabilities are sums over each photon outcome crossed with each dark-count
pattern.  A linear-optics Bell measurement has two output ports (a, b) times
two polarisations (H, V).  Psi- fires aH.bV or aV.bH, Psi+ fires aH.aV or
bH.bV, and Phi+- bunch into one detector, so it resolves half the Bell states
(Braunstein & Mann, PRA 51, R1727, 1995).  Uniform detector loss commutes
with the beam splitter, so each photon is detected with s = t_section * eta
before it.  Nothing here comes from ``qkdrelay.model``.
"""
from itertools import product

BELL_DETECTORS = ("aH", "aV", "bH", "bV")
PSI_PAIRS = ({"aH", "bV"}, {"aV", "bH"}, {"aH", "aV"}, {"bH", "bV"})
# both photons detected: the 8 equally likely firing sets of a uniformly
# random Bell state, flagged True for a resolved Psi state
TWO_PHOTONS = ([(pair, True) for pair in PSI_PAIRS]
               + [({det}, False) for det in BELL_DETECTORS])


def _dark_patterns(detectors, dark):
    """(probability, detectors firing in the dark) of every dark pattern."""
    for fires in product((False, True), repeat=len(detectors)):
        weight = 1.0
        for fire in fires:
            weight *= dark if fire else 1.0 - dark
        yield weight, {det for det, fire in zip(detectors, fires) if fire}


def bell_station(s, dark):
    """(accepted, genuine-resolved) probabilities of one Bell station whose
    two photons are each detected with probability ``s``."""
    cases = [(s * s / 8.0, fired, psi) for fired, psi in TWO_PHOTONS]
    cases += [(2.0 * s * (1.0 - s) / 4.0, {det}, False)
              for det in BELL_DETECTORS]
    cases.append(((1.0 - s) ** 2, set(), False))
    darks = list(_dark_patterns(BELL_DETECTORS, dark))
    accepted = genuine = 0.0
    for p, photons, psi in cases:
        for w, dark_set in darks:
            if (photons | dark_set) in PSI_PAIRS:
                accepted += p * w
                genuine += p * w if psi else 0.0
    return accepted, genuine


def terminal_station(t_section, eta, dark):
    """(accepted, genuine, photon-pass) of a two-detector station: the photon
    arrives with probability ``t_section`` and is detected with ``eta``;
    photon-pass is the probability that it arrived, given acceptance."""
    cases = ((t_section * eta, {"own"}, True),
             (t_section * (1.0 - eta), set(), True),
             (1.0 - t_section, set(), False))
    accepted = genuine = arrived = 0.0
    for p, photons, came in cases:
        for w, dark_set in _dark_patterns(("own", "other"), dark):
            if len(photons | dark_set) == 1:
                accepted += p * w
                genuine += p * w if photons else 0.0
                arrived += p * w if came else 0.0
    return accepted, genuine, arrived / accepted


def chain(config):
    """The link values of a ``RelayConfig`` as products over its independent
    stations: ``(n - 1) // 2`` Bell stations and one or two terminals."""
    n = config.n_sections
    alpha, v_opt = config.channel.alpha_db_per_km, config.channel.v_opt
    eta, dark = config.detector.eta, config.detector.dark_prob
    t_section = (10.0 ** (-alpha * config.distance_km / 10.0)) ** (1.0 / n)
    n_bell = (n - 1) // 2
    n_term = n - 2 * n_bell
    term, term_genuine, photonpass = terminal_station(t_section, eta, dark)
    bell, bell_genuine = bell_station(t_section * eta, dark)
    p_total = 0.5 * term ** n_term * bell ** n_bell
    p_signal = (0.5 * term_genuine ** n_term * bell_genuine ** n_bell
                * v_opt ** n)
    return {"p_click": term, "p_total": p_total, "p_signal": p_signal,
            "v_ab": p_signal / p_total, "p_photonpass": photonpass}
