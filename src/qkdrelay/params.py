"""Link-budget parameter types shared by the analytic model, the Monte Carlo
simulator and the optimizer."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

# Baseline operating point: 1550 nm telecom fibre with InGaAs APD detectors.
DEFAULT_ALPHA_DB_PER_KM = 0.25
DEFAULT_ETA = 0.3
DEFAULT_DARK_PROB = 1e-4
DEFAULT_V_OPT = 0.99


class InvalidParameterError(ValueError):
    """A physical parameter is outside its supported range."""


def require_count(name: str, value, minimum: int) -> None:
    """Reject ``value`` unless it is an integer >= ``minimum`` that converts
    to a float (the model computes with counts as floats)."""
    if not isinstance(value, int) or value < minimum:
        raise InvalidParameterError(
            f"{name} must be an integer >= {minimum}, got {value!r}")
    if value > sys.float_info.max:
        raise InvalidParameterError(
            f"{name} must be <= {sys.float_info.max!r} (the largest float), "
            f"got a {value.bit_length()}-bit integer")


@dataclass(frozen=True)
class ChannelParams:
    """Optical channel description.

    alpha_db_per_km: fibre attenuation in dB/km (finite, > 0).
    v_opt: single-section optical visibility in (0, 1]; the fraction of
        pulses for which the optics behave perfectly, the rest arriving
        as white noise.
    """

    alpha_db_per_km: float = DEFAULT_ALPHA_DB_PER_KM
    v_opt: float = DEFAULT_V_OPT

    def __post_init__(self) -> None:
        if not 0 < self.alpha_db_per_km < math.inf:
            raise InvalidParameterError(f"alpha_db_per_km must be finite "
                                        f"and > 0, got {self.alpha_db_per_km}")
        if not 0 < self.v_opt <= 1:
            raise InvalidParameterError(
                f"v_opt must be in (0, 1], got {self.v_opt}")


@dataclass(frozen=True)
class DetectorParams:
    """Single-photon detector description.

    eta: detection efficiency in (0, 1].
    dark_prob: dark-count probability per detector per gate, in [0, 0.5).
    """

    eta: float = DEFAULT_ETA
    dark_prob: float = DEFAULT_DARK_PROB

    def __post_init__(self) -> None:
        if not 0 < self.eta <= 1:
            raise InvalidParameterError(f"eta must be in (0, 1], got {self.eta}")
        if not 0 <= self.dark_prob < 0.5:
            raise InvalidParameterError(
                f"dark_prob must be in [0, 0.5), got {self.dark_prob}")


@dataclass(frozen=True)
class RelayConfig:
    """An end-to-end link split into equal sections.

    Every section carries one photon; sections are joined by entangled-pair
    sources and linear-optics Bell measurements.  All stations share the same
    detector parameters.
    """

    n_sections: int
    distance_km: float
    channel: ChannelParams = field(default_factory=ChannelParams)
    detector: DetectorParams = field(default_factory=DetectorParams)

    def __post_init__(self) -> None:
        require_count("n_sections", self.n_sections, 1)
        if not 0 <= self.distance_km < math.inf:
            raise InvalidParameterError(f"distance_km must be finite and "
                                        f">= 0, got {self.distance_km}")
