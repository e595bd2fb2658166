"""Differentially private primitives used throughout the library.

This package contains the two classical mechanisms the paper builds on — the
Laplace mechanism [Dwork et al., TCC 2006] and the Exponential Mechanism
[McSherry & Talwar, FOCS 2007] — plus report-noisy-max, which is used as a
cross-check for top-1 selection.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".laplace": (
        "LaplaceDistribution",
        "LaplaceMechanism",
        "laplace_cdf",
        "laplace_pdf",
        "laplace_ppf",
        "sample_laplace",
    ),
    ".geometric": (
        "GeometricMechanism",
        "geometric_cdf",
        "geometric_pmf",
        "sample_two_sided_geometric",
    ),
    ".exponential": (
        "ExponentialMechanism",
        "exponential_mechanism_probabilities",
        "select_one",
        "select_top_c_em",
    ),
    ".noisy_max": (
        "report_noisy_max",
        "report_noisy_max_top_c",
    ),
})
