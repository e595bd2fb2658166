"""Data substrates for the evaluation.

The paper's Section 6 evaluates on item frequencies from three real datasets
(BMS-POS, Kosarak, AOL) plus a Zipf synthetic.  The real datasets are not
redistributable here, so :mod:`repro.data.generators` builds synthetic
equivalents calibrated to the paper's Table 1 (record/item counts) and
Figure 3 (rank-vs-support shape); see DESIGN.md §4 for the substitution
rationale.  Real data in FIMI ``.dat`` format drops in via
:mod:`repro.data.loaders` and flows through the same APIs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".generators": (
        "DATASET_GENERATORS",
        "ScoreDataset",
        "aol_like",
        "bms_pos_like",
        "generate_dataset",
        "kosarak_like",
        "zipf_like",
    ),
    ".scores": (
        "DenseScores",
        "GeneratorScores",
        "MemmapScores",
        "ScoreSource",
        "SourceDataset",
        "as_score_source",
        "topc_stats",
        "topc_values",
    ),
    ".histograms": (
        "block_queries",
        "interval_queries",
        "point_queries",
        "power_law_histogram",
        "prefix_queries",
        "random_linear_queries",
    ),
    ".transaction_db": ("TransactionDatabase",),
    ".loaders": (
        "load_transactions",
        "save_transactions",
    ),
})
