import hashlib
import math
import random
from dataclasses import replace

import numpy as np
import pytest

import reference as ref
from qkdrelay import model
from qkdrelay import (ChannelParams, DetectorParams, InvalidParameterError,
                      RelayConfig, binary_entropy, evaluate,
                      eve_base_visibility, eve_usable_visibility,
                      info_metrics, key_rates, link_metrics, transmittance)

DEF = dict(alpha=0.25, eta=0.3, dark=1e-4, v_opt=0.99)


def make_config(n, d, alpha=0.25, eta=0.3, dark=1e-4, v_opt=0.99):
    return RelayConfig(n, d, ChannelParams(alpha, v_opt),
                       DetectorParams(eta, dark))


# ---------------------------------------------------------------- fibre loss

def test_transmittance_zero_distance():
    assert transmittance(0.25, 0.0) == 1.0


def test_transmittance_forty_km_is_ten_db():
    assert transmittance(0.25, 40.0) == pytest.approx(0.1, rel=1e-15)


def test_transmittance_hundred_km():
    assert transmittance(0.25, 100.0) == pytest.approx(3.1622776601683794e-3,
                                                       rel=1e-12)


@pytest.mark.parametrize("alpha,d", [(-0.25, 10.0), (0.0, 10.0), (0.25, -1.0)])
def test_transmittance_rejects_invalid(alpha, d):
    with pytest.raises(InvalidParameterError):
        transmittance(alpha, d)


# ------------------------------------------------------------ binary entropy

def test_entropy_anchors():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # frozen from a 50-digit evaluation of the definition
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-14)


def test_entropy_symmetry_and_concavity():
    grid = np.linspace(0.0, 1.0, 201)
    for p in grid:
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p),
                                                  abs=1e-15)
    # midpoint concavity on interior points
    for p, q in zip(grid[1:-2], grid[2:-1]):
        mid = 0.5 * (p + q)
        assert (binary_entropy(mid)
                >= 0.5 * (binary_entropy(p) + binary_entropy(q)) - 1e-12)


@pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
def test_entropy_rejects_outside_unit_interval(p):
    with pytest.raises(InvalidParameterError):
        binary_entropy(p)


# -------------------------------------------------------- station click term

def test_click_prob_perfect_apparatus():
    assert link_metrics(make_config(1, 0.0, eta=1.0, dark=0.0)).p_click == 1.0


def test_click_prob_one_section_hand_value():
    got = link_metrics(make_config(1, 0.0)).p_click
    assert got == pytest.approx((0.3 + 0.7 * 2e-4) * (1 - 1e-4), rel=1e-12)
    assert got == pytest.approx(0.300110, abs=1e-6)


def test_click_prob_two_sections_hand_value():
    th = 10.0 ** -1.25  # half of 100 km at 0.25 dB/km
    expected = (th * 0.3 + (1 - th * 0.3) * 2e-4) * (1 - 1e-4)
    got = link_metrics(make_config(2, 100.0)).p_click
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.017065159021188554, rel=1e-12)


# --------------------------------------------------------------- link metrics

def test_link_metrics_perfect_apparatus():
    lm = link_metrics(make_config(1, 0.0, eta=1.0, dark=0.0, v_opt=1.0))
    assert lm.p_signal == 0.5
    assert lm.p_total == 0.5
    assert lm.v_ab == 1.0
    assert lm.p_total > 0.0


def test_link_metrics_one_section_100km():
    lm = link_metrics(make_config(1, 100.0))
    p_signal, p_total, v_ab = ref.one_section_link(100.0, *DEF.values())
    assert lm.p_signal == pytest.approx(p_signal, rel=1e-12)
    assert lm.p_total == pytest.approx(p_total, rel=1e-12)
    assert lm.v_ab == pytest.approx(v_ab, rel=1e-12)
    # frozen oracle values
    assert lm.p_total == pytest.approx(5.741893560173824e-4, rel=1e-12)
    assert lm.v_ab == pytest.approx(0.8177638052516183, rel=1e-12)
    assert lm.v_ab == pytest.approx(0.8178, abs=1e-4)


def test_three_sections_no_darks_visibility_is_pure_optics():
    # the Bell merge correction scales signal and total alike at dark = 0
    for d in (0.0, 123.0, 400.0):
        lm = link_metrics(make_config(3, d, dark=0.0))
        assert lm.v_ab == pytest.approx(0.99 ** 3, rel=1e-13)


@pytest.mark.parametrize("n", range(1, 11))
def test_dark_free_visibility_equals_optics_power(n):
    lm = link_metrics(make_config(n, 250.0, dark=0.0))
    assert lm.v_ab == pytest.approx(0.99 ** n, rel=1e-12)


def test_reduction_to_explicit_cases_on_random_grid():
    rng = np.random.default_rng(1207)
    explicit = {1: ref.one_section_link, 2: ref.two_section_link,
                3: ref.three_section_link}
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        cfg = ref.random_config(rng, n_lo=n, n_hi=n)
        lm = link_metrics(cfg)
        p_signal, p_total, v_ab = explicit[n](
            cfg.distance_km, cfg.channel.alpha_db_per_km, cfg.detector.eta,
            cfg.detector.dark_prob, cfg.channel.v_opt)
        assert lm.p_signal == pytest.approx(p_signal, rel=1e-12)
        assert lm.p_total == pytest.approx(p_total, rel=1e-12)
        assert lm.v_ab == pytest.approx(v_ab, rel=1e-12)


def test_probabilities_normalized_on_random_grid():
    rng = np.random.default_rng(2404)
    for _ in range(1000):
        lm = link_metrics(ref.random_config(rng))
        assert 0.0 <= lm.p_signal <= lm.p_total <= 1.0
        assert 0.0 <= lm.v_ab <= 1.0


def test_perfect_optics_keep_v_ab_physical():
    # at v_opt = 1, and most of all without dark counts, p_signal rounds
    # above p_total by a few ulps on about a third of these; the model's
    # clamp keeps v_ab <= 1 and binary_entropy's argument in range
    rng = np.random.default_rng(1423)
    for _ in range(20000):
        cfg = ref.random_config(rng, n_hi=40, dark_zero=rng.random() < 0.8)
        cfg = replace(cfg, channel=replace(cfg.channel, v_opt=1.0))
        assert evaluate(cfg)[0].v_ab <= 1.0, cfg


def test_visibility_non_increasing_in_distance():
    rng = np.random.default_rng(905)
    for _ in range(50):
        cfg = ref.random_config(rng, d_hi=0.0)
        prev = math.inf
        for d in np.arange(0.0, 801.0, 5.0):
            v = link_metrics(RelayConfig(cfg.n_sections, float(d),
                                         cfg.channel, cfg.detector)).v_ab
            assert v <= prev + 1e-12
            prev = v


def test_degenerate_link_flagged_not_raised():
    # dark-free link beyond fibre-transmission underflow
    lm = link_metrics(make_config(1, 20000.0, dark=0.0))
    assert lm.p_total == 0.0
    assert lm.v_ab == 0.0
    im = info_metrics(make_config(1, 20000.0, dark=0.0))
    assert im.i_ab == im.i_ae == im.i_be == 0.0
    kr = key_rates(make_config(1, 20000.0, dark=0.0))
    assert kr.rate_forward == 0.0
    assert kr.rate_reverse == 0.0


# ------------------------------------------------------------ Eve visibility

def test_eve_base_visibility_anchors():
    assert eve_base_visibility(1.0) == 0.0
    assert eve_base_visibility(0.0) == 1.0
    assert eve_base_visibility(0.99) == pytest.approx(0.141067, abs=1e-6)


def test_eve_base_visibility_complementarity():
    for v in np.linspace(0.0, 1.0, 101):
        e = eve_base_visibility(float(v))
        assert e * e + v * v == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("v", [-0.01, 1.01])
def test_eve_base_visibility_rejects_invalid(v):
    with pytest.raises(InvalidParameterError):
        eve_base_visibility(v)


def test_eve_usable_visibility_no_bell_stations():
    # no Bell stations: nothing dilutes the optics
    for d in (0.0, 75.0, 300.0):
        assert eve_usable_visibility(make_config(1, d)) == pytest.approx(
            0.99, rel=1e-12)
        assert eve_usable_visibility(make_config(2, d)) == pytest.approx(
            0.99 ** 2, rel=1e-12)
    # beyond ~6473 km without dark counts s*s underflows, s itself does not
    assert eve_usable_visibility(make_config(1, 7000.0, dark=0.0)) == 0.99


def test_eve_usable_visibility_three_sections_300km():
    got = eve_usable_visibility(make_config(3, 300.0))
    expected = ref.three_section_eve_visibility(300.0, *DEF.values())
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.5025351697374834, rel=1e-12)  # frozen
    assert 0.0 < got < 1.0


def test_eve_usable_visibility_is_zero_on_degenerate_link():
    cfg = make_config(2, 20000.0, dark=0.0)
    assert eve_usable_visibility(cfg) == info_metrics(cfg).v_ab_e == 0.0


# ------------------------------------------------------- mutual informations

def test_info_perfect_apparatus():
    im = info_metrics(make_config(1, 0.0, eta=1.0, dark=0.0, v_opt=1.0))
    assert im.i_ab == 1.0
    assert im.i_ae == 0.0
    assert im.i_be == 0.0


def test_info_one_section_zero_distance():
    im = info_metrics(make_config(1, 0.0))
    i_ab, i_ae, i_be, p_pp, v_be = ref.one_section_info(0.0, *DEF.values())
    assert im.i_ab == pytest.approx(i_ab, rel=1e-12)
    assert im.i_ae == pytest.approx(i_ae, rel=1e-12)
    assert im.i_be == pytest.approx(i_be, rel=1e-12)
    assert im.p_photonpass == pytest.approx(p_pp, rel=1e-12)
    assert im.v_ae_n == pytest.approx(v_be, rel=1e-12)
    # frozen oracle values
    assert im.i_ab == pytest.approx(0.9528296843310853, rel=1e-9)
    assert im.i_ae == pytest.approx(0.014402808863020922, rel=1e-9)
    assert im.i_ab == pytest.approx(0.95283, abs=1e-5)
    assert im.i_ae == pytest.approx(0.01440, abs=1e-5)


def test_info_single_section_matches_explicit_formulas_over_distance():
    for d in (0.0, 50.0, 120.0, 180.0):
        im = info_metrics(make_config(1, d))
        i_ab, i_ae, i_be, p_pp, v_be = ref.one_section_info(d, *DEF.values())
        assert im.i_ab == pytest.approx(i_ab, rel=1e-12)
        assert im.i_ae == pytest.approx(i_ae, rel=1e-12)
        assert im.i_be == pytest.approx(i_be, rel=1e-12)


def test_info_even_sections_symmetric():
    rng = np.random.default_rng(1914)
    for _ in range(200):
        cfg = ref.random_config(rng, parity="even")
        im = info_metrics(cfg)
        assert im.i_ae == im.i_be  # bit-identical


def test_info_two_sections_matches_explicit_formulas():
    for d in (0.0, 80.0, 220.0):
        im = info_metrics(make_config(2, d))
        i_ab, i_ae, i_be = ref.two_section_info(d, *DEF.values())
        assert im.i_ab == pytest.approx(i_ab, rel=1e-12)
        assert im.i_ae == pytest.approx(i_ae, rel=1e-12)


def test_info_three_sections_matches_explicit_formulas():
    for d in (0.0, 150.0, 320.0):
        im = info_metrics(make_config(3, d))
        i_ab, i_ae, i_be = ref.three_section_info(d, *DEF.values())
        assert im.i_ab == pytest.approx(i_ab, rel=1e-12)
        assert im.i_ae == pytest.approx(i_ae, rel=1e-12)
        assert im.i_be == pytest.approx(i_be, rel=1e-12)


def test_reverse_sees_less_of_eve_than_forward():
    rng = np.random.default_rng(67)
    for _ in range(300):
        cfg = ref.random_config(rng, n_lo=1, n_hi=1)
        im = info_metrics(cfg)
        assert im.i_be <= im.i_ae + 1e-15


def test_info_fields_within_unit_interval():
    rng = np.random.default_rng(222)
    for _ in range(500):
        im = info_metrics(ref.random_config(rng))
        for value in (im.i_ab, im.i_ae, im.i_be, im.v_ab_e, im.p_photonpass,
                      im.v_ae_n):
            assert 0.0 <= value <= 1.0


# ------------------------------------------------------------------ key rates

def test_evaluate_equals_single_purpose_calls():
    def separately(cfg):
        return (link_metrics(cfg), info_metrics(cfg), key_rates(cfg))

    rng = np.random.default_rng(2468)
    degenerate = 0
    for n in range(1, 21):
        for dark_zero, d_hi in ((False, 800.0), (True, 40000.0)):
            for _ in range(50):
                cfg = ref.random_config(rng, n_lo=n, n_hi=n, d_hi=d_hi,
                                        dark_zero=dark_zero)
                got = evaluate(cfg)
                assert got == separately(cfg)
                assert eve_usable_visibility(cfg) == got[1].v_ab_e
                degenerate += got[0].p_total == 0.0
    assert degenerate > 100


# sha256 of repr of the evaluate fields of KERNEL_CELLS, frozen before the
# per-cell kernel was hoisted into model.kernel; it changes only with the
# independent evidence ROADMAP's frozen-values rule asks for
KERNEL_DIGEST = ("41bfc889f4c38815e7f3ebbc55de10de"
                 "e1c99efb13e94dd84144db8dd75f3a97")


def kernel_cells(count=40_000):
    """Seeded (n, channel, detector, d): n up to 30, dark 0 on a sixth,
    v_opt 1 on a fifth, and half the distances log-uniform out to 1e5 km,
    far past the horizon where a dark-free link turns degenerate."""
    rng = random.Random(2104)
    for i in range(count):
        n = rng.randint(1, 30)
        v_opt = 1.0 if i % 5 == 0 else rng.uniform(0.8, 1.0)
        channel = ChannelParams(rng.uniform(0.15, 0.35), v_opt)
        dark = 0.0 if i % 6 == 0 else 10.0 ** rng.uniform(-7.0, -2.3)
        detector = DetectorParams(rng.uniform(0.05, 0.9), dark)
        d = (0.0 if i % 97 == 0 else rng.uniform(0.0, 1000.0)
             if rng.random() < 0.5 else 10.0 ** rng.uniform(-1.0, 5.0))
        yield n, channel, detector, d


def test_kernel_values_are_frozen():
    via_records, via_kernel = [], []
    degenerate = 0
    for n, channel, detector, d in kernel_cells():
        records = evaluate(RelayConfig(n, d, channel, detector))
        via_records.append(tuple(value for record in records
                                 for value in vars(record).values()))
        link, cell = model.kernel(n, channel, detector)
        fields, info, rates = cell(d)
        assert link(d) == fields
        via_kernel.append(fields + info + rates)
        degenerate += fields[3] == 0.0
    assert degenerate > 400
    for values in (via_records, via_kernel):
        assert hashlib.sha256(repr(values).encode()).hexdigest() \
            == KERNEL_DIGEST


def test_kernel_checks_the_section_count_as_relay_config_does():
    for bad in (0, 1.0, 10 ** 400):
        with pytest.raises(InvalidParameterError) as from_kernel:
            model.kernel(bad, ChannelParams(), DetectorParams())
        with pytest.raises(InvalidParameterError) as from_config:
            RelayConfig(bad, 10.0)
        assert str(from_kernel.value) == str(from_config.value)


def test_key_rate_zero_distance():
    kr = key_rates(make_config(1, 0.0))
    assert kr.rate_forward == pytest.approx(0.14081563822937224, rel=1e-9)
    assert kr.rate_forward == pytest.approx(0.1408, abs=5e-5)
    # consistency of the published evaluation chain
    lm = link_metrics(make_config(1, 0.0))
    im = info_metrics(make_config(1, 0.0))
    assert lm.p_total == pytest.approx(0.15006, abs=1e-5)
    assert im.i_ab - im.i_ae == pytest.approx(0.93843, abs=1e-5)


def test_reverse_rate_defined_only_for_single_section():
    assert key_rates(make_config(1, 10.0)).rate_reverse is not None
    assert key_rates(make_config(2, 10.0)).rate_reverse is None
    assert key_rates(make_config(5, 10.0)).rate_reverse is None


def test_reverse_dominates_forward():
    rng = np.random.default_rng(31)
    for _ in range(300):
        cfg = ref.random_config(rng, n_lo=1, n_hi=1)
        kr = key_rates(cfg)
        assert kr.rate_reverse >= kr.rate_forward - 1e-15


def test_between_forward_and_reverse_cutoffs():
    # defaults cut off forward near 158 km, reverse near 194 km
    kr = key_rates(make_config(1, 170.0))
    assert kr.rate_forward == 0.0
    assert kr.rate_reverse > 0.0


def test_noiseless_channel_gives_eve_nothing():
    for d in (0.0, 100.0, 400.0):
        cfg = make_config(4, d, dark=0.0, v_opt=1.0)
        im = info_metrics(cfg)
        kr = key_rates(cfg)
        lm = link_metrics(cfg)
        assert im.i_ae == 0.0
        assert kr.rate_forward == pytest.approx(lm.p_total * im.i_ab,
                                                rel=1e-15)


def test_rates_clamp_to_zero_past_cutoff():
    kr = key_rates(make_config(1, 500.0))
    assert kr.rate_forward == 0.0
    assert kr.rate_reverse == 0.0


# ---------------------------------------------------------- physical invariants

# (dark_zero, d_hi): the default dark counts, and none out to the horizons
# where p_total leaves the normal double range
INVARIANT_INPUTS = ((False, 800.0), (True, 40000.0))

def test_rate_non_increasing_in_dark_prob_and_alpha():
    rng = np.random.default_rng(2718)
    for dark_zero, d_hi in INVARIANT_INPUTS:
        for _ in range(10_000):
            cfg = ref.random_config(rng, d_hi=d_hi, dark_zero=dark_zero)
            rate = key_rates(cfg).rate_forward
            darker = replace(cfg, detector=replace(
                cfg.detector, dark_prob=cfg.detector.dark_prob * 1.1))
            lossier = replace(cfg, channel=replace(
                cfg.channel,
                alpha_db_per_km=cfg.channel.alpha_db_per_km * 1.1))
            assert key_rates(darker).rate_forward <= rate, darker
            assert key_rates(lossier).rate_forward <= rate, lossier


def test_rate_below_repeaterless_bound_of_one_section():
    # no protocol beats -log2(1 - eta) bits per use of a lossy channel of
    # transmittance eta (Pirandola et al., Nat. Commun. 8, 15043, 2017); a
    # chain is bounded by one of its sections, eta = t**(1/n)
    rng = np.random.default_rng(1729)
    for dark_zero, d_hi in INVARIANT_INPUTS:
        for _ in range(10_000):
            cfg = ref.random_config(rng, d_hi=d_hi, dark_zero=dark_zero)
            t_section = ref.fibre_transmission(
                cfg.channel.alpha_db_per_km, cfg.distance_km / cfg.n_sections)
            bound = (-math.log1p(-t_section) / math.log(2.0)
                     if t_section < 1.0 else math.inf)
            assert key_rates(cfg).rate_forward <= bound, cfg
