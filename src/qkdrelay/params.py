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


def require_count(name: str, value, minimum: int,
                  maximum: int | None = None) -> None:
    """Reject ``value`` unless it is an integer, not a bool, >= ``minimum``
    that converts to a float (the model computes with counts as floats) and
    is <= ``maximum`` when one is given."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or value < minimum):
        raise InvalidParameterError(
            f"{name} must be an integer >= {minimum}, got {value!r}")
    if value > sys.float_info.max:
        raise InvalidParameterError(
            f"{name} must be <= {sys.float_info.max!r} (the largest float), "
            f"got a {value.bit_length()}-bit integer")
    if maximum is not None and value > maximum:
        raise InvalidParameterError(
            f"{name} must be <= {maximum}, got {value}")


def require_fraction(name: str, value: float) -> None:
    """Reject ``value`` unless it is in (0, 1]."""
    if not 0 < value <= 1:
        raise InvalidParameterError(f"{name} must be in (0, 1], got {value}")


def require_finite(name: str, value: float, zero_ok: bool = False) -> None:
    """Reject ``value`` unless it is finite and > 0, or >= 0 if ``zero_ok``."""
    if not (0 <= value if zero_ok else 0 < value) or not value < math.inf:
        raise InvalidParameterError(
            f"{name} must be finite and {'>=' if zero_ok else '>'} 0, "
            f"got {value}")


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
        require_finite("alpha_db_per_km", self.alpha_db_per_km)
        require_fraction("v_opt", self.v_opt)


@dataclass(frozen=True)
class DetectorParams:
    """Single-photon detector description.

    eta: detection efficiency in (0, 1].
    dark_prob: dark-count probability per detector per gate, in [0, 0.5).
    """

    eta: float = DEFAULT_ETA
    dark_prob: float = DEFAULT_DARK_PROB

    def __post_init__(self) -> None:
        require_fraction("eta", self.eta)
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
        require_finite("distance_km", self.distance_km, zero_ok=True)
