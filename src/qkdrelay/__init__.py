"""Secret-key rate modeling for multi-section quantum relay QKD links:
closed-form link metrics, an event-level Monte Carlo cross-check, and
operating-point optimization."""

from .model import (InfoMetrics, KeyRates, LinkMetrics, binary_entropy,
                    eve_base_visibility, eve_usable_visibility, evaluate,
                    info_metrics, key_rates, link_metrics, transmittance)
from .montecarlo import McEstimate, TrialConfig, simulate, zscore
from .optimize import (BEST_LINE, DETECTOR_LINES, GOOD_LINE, NORMAL_LINE,
                       DetectorLine, DetectorSweepResult, SourcePenalty,
                       SweepPoint, detector_dark, detector_sweep,
                       max_distance_approx, max_distance_exact,
                       optimal_sections, source_penalty, threshold_distance)
from .params import (ChannelParams, DetectorParams, InvalidParameterError,
                     RelayConfig)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams", "DetectorParams", "RelayConfig",
    "InvalidParameterError",
    "LinkMetrics", "InfoMetrics", "KeyRates",
    "transmittance", "binary_entropy", "link_metrics",
    "eve_base_visibility", "eve_usable_visibility", "evaluate",
    "info_metrics", "key_rates",
    "TrialConfig", "McEstimate", "simulate", "zscore",
    "DetectorLine", "SourcePenalty", "SweepPoint", "DetectorSweepResult",
    "NORMAL_LINE", "GOOD_LINE", "BEST_LINE", "DETECTOR_LINES",
    "max_distance_exact", "max_distance_approx", "optimal_sections",
    "threshold_distance", "detector_dark", "detector_sweep",
    "source_penalty",
    "__version__",
]
