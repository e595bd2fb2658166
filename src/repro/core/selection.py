"""One facade for private top-c selection.

Downstream code (the applications, the experiment harness, and users who just
want "give me the c largest answers privately") goes through
:func:`select_top_c`, choosing a method:

* ``"em"`` — Exponential Mechanism, c rounds (the paper's recommendation for
  the non-interactive setting, Section 5).
* ``"svt"`` — Standard SVT (Alg. 7), vectorized batch run.
* ``"svt-retraversal"`` — SVT-ReTr with a threshold bump in D units.
* ``"noisy-max"`` — report-noisy-max baseline (cross-check, not in the paper's
  evaluation).

All methods cost *epsilon* in total and return selected indices.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.core.allocation import BudgetAllocation
from repro.core.svt import run_svt_batch
from repro.exceptions import InvalidParameterError
from repro.mechanisms.exponential import select_top_c_em
from repro.mechanisms.noisy_max import report_noisy_max_top_c
from repro.rng import RngLike

__all__ = ["select_top_c", "SELECTION_METHODS"]

SELECTION_METHODS = ("em", "svt", "svt-retraversal", "noisy-max")


def select_top_c(
    scores: Sequence[float],
    epsilon: float,
    c: int,
    method: str = "em",
    sensitivity: float = 1.0,
    monotonic: bool = False,
    threshold: Union[float, Sequence[float], None] = None,
    ratio: Union[str, float] = "optimal",
    threshold_bump_d: float = 0.0,
    rng: RngLike = None,
) -> np.ndarray:
    """Privately select (up to) c of the highest-scoring candidates.

    Parameters
    ----------
    scores:
        True candidate scores (query answers); the caller is responsible for
        their sensitivity being at most *sensitivity*.
    threshold:
        Required for the SVT methods (they are threshold-testing algorithms at
        heart).  Ignored by ``"em"`` and ``"noisy-max"``.
    ratio:
        eps1:eps2 allocation for the SVT methods (Section 4.2); default is the
        paper's optimal ratio.
    threshold_bump_d:
        SVT-ReTr threshold increment in D units.

    Returns
    -------
    numpy.ndarray
        Selected indices.  EM and noisy-max always return exactly c; plain SVT
        may return fewer (it stops when the list is exhausted), which is
        precisely the deficiency retraversal addresses.
    """
    method = method.strip().lower()
    if method not in SELECTION_METHODS:
        raise InvalidParameterError(
            f"unknown selection method {method!r}; choose from {SELECTION_METHODS}"
        )
    if method == "em":
        return select_top_c_em(
            scores, epsilon, c, sensitivity=sensitivity, monotonic=monotonic, rng=rng
        )
    if method == "noisy-max":
        return report_noisy_max_top_c(
            scores, epsilon, c, sensitivity=sensitivity, monotonic=monotonic, rng=rng
        )
    if threshold is None:
        raise InvalidParameterError(f"method {method!r} requires a threshold")
    allocation = BudgetAllocation.from_ratio(epsilon, c, ratio=ratio, monotonic=monotonic)
    if method == "svt":
        result = run_svt_batch(
            scores,
            allocation,
            c,
            thresholds=threshold,
            sensitivity=sensitivity,
            monotonic=monotonic,
            rng=rng,
        )
        return np.asarray(result.positives, dtype=np.int64)
    from repro.core.retraversal import svt_retraversal  # not on the serve path

    result = svt_retraversal(
        scores,
        allocation,
        c,
        thresholds=threshold,
        sensitivity=sensitivity,
        monotonic=monotonic,
        threshold_bump_d=threshold_bump_d,
        rng=rng,
    )
    return np.asarray(result.selected, dtype=np.int64)
