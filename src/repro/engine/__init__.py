"""The vectorized batch execution engine.

One subsystem for running SVT variants over whole query arrays — and whole
Monte-Carlo trial batches — without a Python-level inner loop:

* :mod:`repro.engine.noise` — block samplers for threshold/query noise,
  with an optional per-trial-stream mode that stays bit-compatible with
  query-at-a-time loops;
* :mod:`repro.engine.kernels` — pure noise-in/transcript-out kernels, each
  with a streaming reference twin used by the equivalence test suite;
* :mod:`repro.engine.batch` — single-run ``run_*_batch`` counterparts of
  every :mod:`repro.variants` implementation;
* :mod:`repro.engine.retraversal` — the Section-5 kernels: multi-pass
  SVT-ReTr rescans and the Gumbel-max EM baseline, batched across trials;
* :mod:`repro.engine.trials` — the multi-trial layer: all trials of a
  (variant, epsilon, c) cell in one pass, with vectorized SER/FNR and
  shared-unit-noise epsilon grids;
* :mod:`repro.engine.plans` / :mod:`repro.engine.exec` — execution planning:
  ``max_bytes``-driven two-axis chunking (trials × query tiles, with
  ``"auto"`` budgets from live memory) and process-pool sharding;
* :mod:`repro.engine.tiled` — the out-of-core path: every variant folded
  across query-axis tiles over a lazy :class:`~repro.data.scores.ScoreSource`,
  bit-identical to the dense per-trial-stream engine.

The experiment harness (:mod:`repro.experiments`), the attack estimator
(:mod:`repro.attacks.estimator`), and the registry's
:meth:`~repro.variants.registry.VariantInfo.run_batch` dispatch all route
through here.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".noise": ("TrialRngs", "laplace_matrix", "laplace_vector", "gumbel_matrix"),
    ".batch": (
        "run_svt_batch",
        "run_dpbook_batch",
        "run_roth_batch",
        "run_lee_clifton_batch",
        "run_stoddard_batch",
        "run_chen_batch",
        "run_gptt_batch",
    ),
    ".retraversal": ("RetraversalTrialBatch", "retraversal_trials", "em_selection_matrix"),
    ".trials": (
        "TrialBatch",
        "cut_matrix",
        "selection_matrix",
        "svt_selection_matrix",
        "svt_selection_grid",
        "run_trials",
        "transcript_sampler",
    ),
    ".plans": (
        "TrialPlan",
        "plan_trials",
        "available_memory_bytes",
        "BYTES_PER_CELL",
        "bytes_per_cell",
    ),
    ".tiled": ("run_tiled_chunk",),
    ".exec": ("execute_trials", "merge_batches", "run_sharded"),
    ".gate": ("GateBlock", "gate_block"),
})
