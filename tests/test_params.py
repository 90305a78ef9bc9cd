import dataclasses
import math
import sys

import pytest

from qkdrelay import (GOOD_LINE, ChannelParams, DetectorParams,
                      InvalidParameterError, RelayConfig, TrialConfig,
                      detector_dark, detector_sweep, source_penalty,
                      transmittance)


def test_defaults_match_baseline_operating_point():
    ch = ChannelParams()
    det = DetectorParams()
    assert ch.alpha_db_per_km == 0.25
    assert ch.v_opt == 0.99
    assert det.eta == 0.3
    assert det.dark_prob == 1e-4


@pytest.mark.parametrize("alpha,v_opt", [
    (0.0, 0.99), (-0.1, 0.99), (0.25, 0.0), (0.25, -0.5), (0.25, 1.1),
    (float("inf"), 0.99), (float("nan"), 0.99),
])
def test_channel_params_rejects_out_of_range(alpha, v_opt):
    with pytest.raises(InvalidParameterError):
        ChannelParams(alpha, v_opt)


@pytest.mark.parametrize("eta,dark", [
    (0.0, 1e-4), (-0.2, 1e-4), (1.5, 1e-4), (0.3, -1e-9), (0.3, 0.5),
    (0.3, 0.7),
])
def test_detector_params_rejects_out_of_range(eta, dark):
    with pytest.raises(InvalidParameterError):
        DetectorParams(eta, dark)


def test_detector_params_allows_zero_dark():
    assert DetectorParams(0.3, 0.0).dark_prob == 0.0


@pytest.mark.parametrize("n,d", [(0, 10.0), (-3, 10.0), (True, 10.0),
                                 (2, -1.0),
                                 (2, float("inf")), (2, float("nan")),
                                 pytest.param(10 ** 400, 10.0,
                                              id="10**400-10.0")])
def test_relay_config_rejects_out_of_range(n, d):
    with pytest.raises(InvalidParameterError):
        RelayConfig(n, d)


def test_relay_config_rejects_non_integer_sections():
    with pytest.raises(InvalidParameterError):
        RelayConfig(2.0, 10.0)  # type: ignore[arg-type]


def test_count_beyond_the_largest_float_names_the_bound():
    # the model computes with n_sections as a float
    assert RelayConfig(int(sys.float_info.max), 10.0).n_sections > 0
    message = (r"^n_sections must be <= 1\.7976931348623157e\+308 "
               r"\(the largest float\), got a 1329-bit integer$")
    with pytest.raises(InvalidParameterError, match=message):
        RelayConfig(10 ** 400, 10.0)


@pytest.mark.parametrize("call, message", [
    (lambda: ChannelParams(0.0),
     "alpha_db_per_km must be finite and > 0, got 0.0"),
    (lambda: ChannelParams(0.25, 1.5), "v_opt must be in (0, 1], got 1.5"),
    (lambda: DetectorParams(0.0), "eta must be in (0, 1], got 0.0"),
    (lambda: RelayConfig(2, -1.0),
     "distance_km must be finite and >= 0, got -1.0"),
    (lambda: transmittance(math.inf, 1.0),
     "alpha_db_per_km must be finite and > 0, got inf"),
    (lambda: transmittance(0.25, math.nan),
     "distance_km must be finite and >= 0, got nan"),
    (lambda: detector_dark(1.5, GOOD_LINE), "eta must be in (0, 1], got 1.5"),
    (lambda: source_penalty(1, 0.0, 0.25),
     "emission_prob must be in (0, 1], got 0.0"),
    (lambda: source_penalty(1, 0.5, -0.25),
     "alpha must be finite and > 0, got -0.25"),
    (lambda: TrialConfig(RelayConfig(1, 10.0), 2 ** 62 + 1, 1),
     "trials must be <= 4611686018427387904, got 4611686018427387905"),
    (lambda: TrialConfig(RelayConfig(1, 10.0), 10, 1, 2 ** 24 + 1),
     "chunk_size must be <= 16777216, got 16777217"),
    (lambda: detector_sweep(math.inf, [4], GOOD_LINE, [0.1], ChannelParams()),
     "distance_km must be finite and >= 0, got inf"),
], ids=["channel-alpha", "channel-v_opt", "detector-eta", "relay-distance",
        "transmittance-alpha", "transmittance-distance", "detector_dark-eta",
        "source_penalty-emission_prob", "source_penalty-alpha",
        "trial-trials", "trial-chunk_size", "detector_sweep-distance"])
def test_range_rule_messages(call, message):
    # each rule's message, written once where the rule is stated
    with pytest.raises(InvalidParameterError) as exc:
        call()
    assert str(exc.value) == message


def test_types_are_immutable():
    cfg = RelayConfig(2, 50.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.distance_km = 60.0  # type: ignore[misc]
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.channel.v_opt = 0.5  # type: ignore[misc]
