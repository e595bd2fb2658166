"""Utility metrics from Section 6."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".utility": (
        "false_negative_rate",
        "score_error_rate",
        "precision_recall",
        "selection_report",
    ),
    ".privacy": ("PrivacyReport", "privacy_report"),
})
