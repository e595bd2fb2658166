"""The paper's primary contribution: a correct, better-utility SVT.

* :mod:`repro.core.base` — response symbols, run results, threshold handling.
* :mod:`repro.core.svt` — Alg. 1 and the generalized Alg. 7 (streaming and
  vectorized batch forms, monotonic mode, optional numeric-output phase).
* :mod:`repro.core.allocation` — Section 4.2 privacy-budget allocation.
* :mod:`repro.core.retraversal` — Section 5 "SVT with Retraversal".
* :mod:`repro.core.selection` — one facade for private top-c selection.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": (
        "ABOVE",
        "BELOW",
        "Response",
        "SVTResult",
        "normalize_thresholds",
    ),
    ".allocation": (
        "BudgetAllocation",
        "allocate",
        "comparison_std",
        "comparison_variance",
        "optimal_ratio_exponent_weight",
    ),
    ".svt": (
        "StandardSVT",
        "svt_alg1",
        "run_svt",
        "run_svt_batch",
    ),
    ".epsilon_delta": (
        "EpsilonDeltaAllocation",
        "per_positive_epsilon",
        "run_svt_epsilon_delta",
    ),
    ".retraversal": (
        "RetraversalResult",
        "svt_retraversal",
    ),
    ".selection": ("select_top_c",),
})
