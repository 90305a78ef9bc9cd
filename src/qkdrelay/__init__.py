"""Secret-key rate modeling for multi-section quantum relay QKD links:
closed-form link metrics, an event-level Monte Carlo cross-check, and
operating-point optimization."""

from .model import (DegenerateLinkError, InfoMetrics, KeyRates, LinkMetrics,
                    binary_entropy, eve_base_visibility, eve_usable_visibility,
                    evaluate, info_metrics, key_rates, link_metrics,
                    section_click_prob, transmittance)
from .montecarlo import McEstimate, TrialConfig, simulate, zscore
from .optimize import (BEST_LINE, DETECTOR_LINES, GOOD_LINE, NORMAL_LINE,
                       DetectorLine, DetectorSweepResult, MaxDistanceResult,
                       NoKeyPossibleError, OutOfModelError, SourcePenalty,
                       SweepPoint, UnsupportedReconciliationError,
                       detector_dark, detector_sweep, max_distance_approx,
                       max_distance_exact, max_eta_on_line, optimal_sections,
                       source_penalty, threshold_distance)
from .params import (ChannelParams, DetectorParams, InvalidParameterError,
                     RelayConfig)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams", "DetectorParams", "RelayConfig",
    "InvalidParameterError",
    "LinkMetrics", "InfoMetrics", "KeyRates", "DegenerateLinkError",
    "transmittance", "binary_entropy", "section_click_prob", "link_metrics",
    "eve_base_visibility", "eve_usable_visibility", "evaluate",
    "info_metrics", "key_rates",
    "TrialConfig", "McEstimate", "simulate", "zscore",
    "DetectorLine", "MaxDistanceResult", "SourcePenalty", "SweepPoint",
    "DetectorSweepResult", "NORMAL_LINE", "GOOD_LINE", "BEST_LINE",
    "DETECTOR_LINES", "UnsupportedReconciliationError", "NoKeyPossibleError",
    "OutOfModelError", "max_distance_exact", "max_distance_approx",
    "optimal_sections", "threshold_distance", "detector_dark",
    "max_eta_on_line", "detector_sweep", "source_penalty",
    "__version__",
]
