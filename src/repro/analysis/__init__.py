"""Analytical machinery: exact outcome probabilities, utility bounds, GPTT.

* :mod:`repro.analysis.verifier` — numerically integrates the paper's Eq. (5)
  to get *exact* outcome probabilities for each variant, from which privacy
  ratios (and hence eps-DP violations) are computed without Monte Carlo.
* :mod:`repro.analysis.theory` — the Section-5 utility bounds
  (alpha_SVT vs alpha_EM) and related closed forms.
* :mod:`repro.analysis.gptt` — the GPTT model of [2] and a numerical
  demonstration of the subtle error in its non-privacy proof (Section 3.3 /
  Appendix 10.3).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".theory": ("alpha_svt", "alpha_em", "alpha_ratio", "em_correct_selection_probability"),
    ".verifier": (
        "MechanismSpec",
        "outcome_probability",
        "privacy_ratio",
        "empirical_epsilon",
        "spec_for_variant",
    ),
    ".lemma1": ("f_side_margin", "g_side_margin", "rho_shift_margin", "one_side_conflict"),
    ".accuracy": ("AccuracyCheck", "svt_accuracy_check", "em_accuracy_check"),
    ".gptt": ("gptt_counterexample_ratio", "gptt_kappa", "broken_proof_would_condemn_alg1"),
})
