"""repro — a reproduction of *Understanding the Sparse Vector Technique for
Differential Privacy* (Min Lyu, Dong Su, Ninghui Li; VLDB 2017).

Quick tour
----------

The paper's corrected, better-utility SVT (Alg. 1 / Alg. 7)::

    from repro import BudgetAllocation, StandardSVT

    alloc = BudgetAllocation.from_ratio(epsilon=1.0, c=25, ratio="optimal")
    svt = StandardSVT(alloc, sensitivity=1.0, c=25, rng=0)
    answer = svt.process(true_answer=431.0, threshold=400.0)   # ⊤ or ⊥

Private top-c selection (non-interactive setting — Section 5 recommends EM)::

    from repro import select_top_c
    winners = select_top_c(scores, epsilon=0.1, c=50, method="em",
                           monotonic=True, rng=0)

The six Figure-1 variants, including the broken ones (opt-in required)::

    from repro.variants import get_variant
    result = get_variant("alg6").run(scores, epsilon=0.1, c=50,
                                     thresholds=100.0, allow_non_private=True)

Reproducing the paper's evaluation::

    from repro.experiments import run_figure4, run_figure5
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core": (
        "ABOVE",
        "BELOW",
        "Response",
        "SVTResult",
        "StandardSVT",
        "BudgetAllocation",
        "allocate",
        "svt_alg1",
        "run_svt",
        "run_svt_batch",
        "svt_retraversal",
        "select_top_c",
    ),
    ".mechanisms": (
        "LaplaceMechanism",
        "ExponentialMechanism",
        "select_top_c_em",
        "report_noisy_max",
    ),
    ".accounting": ("PrivacyBudget", "BudgetLedger", "split_budget"),
    ".data": (
        "ScoreDataset",
        "TransactionDatabase",
        "bms_pos_like",
        "kosarak_like",
        "aol_like",
        "zipf_like",
        "generate_dataset",
    ),
    ".metrics": ("false_negative_rate", "score_error_rate", "selection_report"),
    ".exceptions": (
        "ReproError",
        "PrivacyError",
        "BudgetExhaustedError",
        "NonPrivateMechanismError",
        "InvalidParameterError",
        "DatasetError",
        "QueryError",
    ),
})
__all__ = ["__version__", *__all__]
