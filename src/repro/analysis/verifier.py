"""Exact outcome probabilities for SVT-style mechanisms (the paper's Eq. (5)).

Every variant in Figure 1 produces an output vector whose probability is

    Pr[A(D) = a] = ∫ Pr[rho = z] * f_D(z) * g_D(z) dz                (Eq. 5)

    f_D(z) = prod_{i in I_bot} Pr[q_i(D) + nu_i <  T_i + z]
    g_D(z) = prod_{i in I_top} Pr[q_i(D) + nu_i >= T_i + z]

with `rho ~ Lap(threshold_scale)` and `nu_i ~ Lap(query_scale)` (a point mass
at 0 for Alg. 5).  This module evaluates that integral with adaptive
quadrature, handling the three structural wrinkles among the variants:

* **Alg. 2** refreshes rho after each positive outcome, which factorizes the
  probability into independent per-segment integrals (each segment = a run of
  ⊥ ended by one ⊤);
* **Alg. 3** outputs the noisy answer itself for positives, so the "outcome"
  carries numeric values and the result is a *density*, with the released
  value constraining the integration range (that constraint is precisely why
  Alg. 3 leaks — see Theorem 6);
* **Alg. 5** has no query noise, so f/g become step functions (handled by
  splitting the integration at the jump points).

From outcome probabilities we get privacy ratios and, maximizing over output
patterns, an *exact* lower bound on the epsilon any claimed guarantee must
satisfy — no Monte Carlo error bars.  Tests use this to certify Theorem 2
(Alg. 1 ratios <= e^eps on random instances) and to reproduce Theorems 3, 6,
and 7 quantitatively.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.mechanisms.laplace import laplace_cdf, laplace_pdf, laplace_sf
from repro.variants.registry import get_variant

__all__ = [
    "MechanismSpec",
    "spec_for_variant",
    "outcome_probability",
    "privacy_ratio",
    "empirical_epsilon",
]

# Integration half-width in threshold-noise scales.  exp(-60) ~ 9e-27 of tail
# mass per side — far below quadrature tolerance.
_TAIL_WIDTH = 60.0


@dataclass(frozen=True)
class MechanismSpec:
    """Noise structure of one SVT variant, sufficient to evaluate Eq. (5).

    ``threshold_scale`` and ``query_scale`` are the Laplace scales of rho and
    nu_i (``query_scale = 0`` means no query noise).  ``resets_threshold``
    marks Alg. 2's refresh; ``refresh_scale`` is the scale used for refreshed
    rho draws.  ``outputs_numeric`` marks Alg. 3's answer-releasing behavior:
    the released value *is* ``q_i + nu_i`` — correlated with the comparison —
    which truncates the integral and breaks privacy (Theorem 6).

    ``independent_numeric_scale`` models Alg. 7's eps3 phase instead: the
    release is ``q_i + Lap(c*Delta/eps3)`` with *fresh* noise, statistically
    independent of the comparison, so the outcome density factorizes into the
    indicator probability times unconstrained Laplace densities — exactly why
    Theorem 4 goes through where Alg. 3 fails.
    """

    threshold_scale: float
    query_scale: float
    resets_threshold: bool = False
    refresh_scale: Optional[float] = None
    outputs_numeric: bool = False
    independent_numeric_scale: Optional[float] = None

    def __post_init__(self) -> None:
        if self.threshold_scale <= 0.0:
            raise InvalidParameterError("threshold_scale must be > 0")
        if self.query_scale < 0.0:
            raise InvalidParameterError("query_scale must be >= 0")
        if self.resets_threshold and (self.refresh_scale is None or self.refresh_scale <= 0):
            raise InvalidParameterError("resets_threshold requires a positive refresh_scale")
        if self.outputs_numeric and self.query_scale <= 0.0:
            raise InvalidParameterError("numeric outputs require query noise")
        if self.independent_numeric_scale is not None:
            if self.independent_numeric_scale <= 0.0:
                raise InvalidParameterError("independent_numeric_scale must be > 0")
            if self.outputs_numeric:
                raise InvalidParameterError(
                    "a spec releases either correlated (Alg. 3) or independent "
                    "(Alg. 7) numeric answers, not both"
                )


def spec_for_variant(
    key: str, epsilon: float, c: int, sensitivity: float = 1.0
) -> MechanismSpec:
    """Build the :class:`MechanismSpec` for one of the six Figure-1 variants."""
    info = get_variant(key)
    eps1 = epsilon * info.eps1_fraction
    eps2 = epsilon - eps1
    # Alg. 2 scales its query noise with eps1 (see the Figure 1 listing); all
    # others with eps2.  The registry's scale callables take the right one.
    query_eps = eps1 if info.key == "alg2" else eps2
    return MechanismSpec(
        threshold_scale=info.threshold_noise_scale(c, sensitivity, eps1),
        query_scale=info.query_noise_scale(c, sensitivity, query_eps),
        resets_threshold=info.resets_threshold_noise,
        refresh_scale=(c * sensitivity / eps2) if info.resets_threshold_noise else None,
        outputs_numeric=info.outputs_numeric_answer,
    )


def _noise_cdf(x: np.ndarray, scale: float) -> np.ndarray:
    """CDF of the query noise; a unit step when scale == 0 (Alg. 5).

    For the step case, Pr[nu < t] = 1{t > 0} — the paper's strict inequality
    on line 5 means a tie goes to "above"; the boundary is measure-zero under
    any continuous rho so the convention cannot affect integrals.
    """
    if scale == 0.0:
        return (np.asarray(x) > 0.0).astype(float)
    return laplace_cdf(x, scale)


def _noise_sf(x: np.ndarray, scale: float) -> np.ndarray:
    if scale == 0.0:
        return (np.asarray(x) <= 0.0).astype(float)
    return laplace_sf(x, scale)


def _integrate(fn, lo: float, hi: float, points: Sequence[float]) -> float:
    """Adaptive quadrature with interior breakpoints, tolerant of kinks."""
    from scipy import integrate

    pts = sorted(p for p in points if lo < p < hi)
    value, _err = integrate.quad(fn, lo, hi, points=pts or None, limit=400)
    return float(value)


def _kink_points(kinks: Sequence[float], query_scale: float) -> list:
    """Breakpoints for the quadrature: each comparison kink plus its skirt.

    When the query noise is much tighter than the threshold noise, the
    factors f/g transition over a window of width ~query_scale around each
    kink — a feature far narrower than the integration interval, which the
    adaptive rule can step over entirely (losing ~1e-3 of mass) unless the
    transition region is pinned with its own breakpoints.
    """
    pts = list(kinks)
    if query_scale > 0.0:
        for k in kinks:
            for m in (1.0, 8.0, 40.0):
                pts.extend((k - m * query_scale, k + m * query_scale))
    return pts


def _segment_probability(
    answers: np.ndarray,
    thresholds: np.ndarray,
    pattern: Sequence[bool],
    spec: MechanismSpec,
    rho_scale: float,
) -> float:
    """∫ p_rho(z) * f(z) * g(z) dz over one constant-rho segment."""
    below = np.array([t for t, flag in zip(thresholds, pattern) if not flag])
    below_q = np.array([q for q, flag in zip(answers, pattern) if not flag])
    above = np.array([t for t, flag in zip(thresholds, pattern) if flag])
    above_q = np.array([q for q, flag in zip(answers, pattern) if flag])

    def integrand(z: float) -> float:
        out = laplace_pdf(z, rho_scale)
        if below.size:
            out *= float(np.prod(_noise_cdf(below + z - below_q, spec.query_scale)))
        if above.size:
            out *= float(np.prod(_noise_sf(above + z - above_q, spec.query_scale)))
        return float(out)

    width = _TAIL_WIDTH * rho_scale
    # Break the quadrature at the comparison kink of every query (and at the
    # step discontinuities when query_scale == 0), plus z = 0 where the rho
    # density itself has a kink — without it quad can report a tight error
    # estimate while missing ~1e-4 of mass on these wide intervals.
    kinks = [0.0] + _kink_points(
        list(below_q - below) + list(above_q - above), spec.query_scale
    )
    return _integrate(integrand, -width, width, kinks)


def _numeric_outcome_density(
    answers: np.ndarray,
    thresholds: np.ndarray,
    pattern: Sequence[bool],
    numeric_values: Sequence[float],
    spec: MechanismSpec,
) -> float:
    """Density of an Alg.-3-style outcome: ⊥s plus released numeric answers.

    For each positive i the released value a_i pins the noise nu_i = a_i - q_i
    (density factor) *and* implies a_i >= T_i + z, truncating the integral to
    z <= min_i (a_i - T_i).  This is the Appendix 10.1 calculation in general
    form.
    """
    numeric_iter = iter(numeric_values)
    below_q, below_t = [], []
    density = 1.0
    z_cap = math.inf
    for q, t, flag in zip(answers, thresholds, pattern):
        if flag:
            a = float(next(numeric_iter))
            density *= float(laplace_pdf(a - q, spec.query_scale))
            z_cap = min(z_cap, a - t)
        else:
            below_q.append(q)
            below_t.append(t)
    below_q_arr = np.asarray(below_q)
    below_t_arr = np.asarray(below_t)

    def integrand(z: float) -> float:
        out = laplace_pdf(z, spec.threshold_scale)
        if below_q_arr.size:
            out *= float(
                np.prod(_noise_cdf(below_t_arr + z - below_q_arr, spec.query_scale))
            )
        return float(out)

    width = _TAIL_WIDTH * spec.threshold_scale
    hi = min(width, z_cap)
    if hi <= -width:
        return 0.0
    kinks = [0.0] + _kink_points(list(below_q_arr - below_t_arr), spec.query_scale)
    return density * _integrate(integrand, -width, hi, kinks)


def outcome_probability(
    spec: MechanismSpec,
    answers: Sequence[float],
    pattern: Sequence[bool],
    thresholds: float | Sequence[float] = 0.0,
    numeric_values: Optional[Sequence[float]] = None,
) -> float:
    """Exact Pr[A(D) = a] (or outcome density for numeric-output variants).

    Parameters
    ----------
    answers:
        True query answers ``q_i(D)`` for the *processed* queries, i.e. the
        transcript length (if the mechanism halts at the c-th positive, the
        pattern simply ends there; the cutoff needs no special handling).
    pattern:
        The output vector: True = positive (⊤ / numeric), False = ⊥.
    numeric_values:
        For ``spec.outputs_numeric``: the released values, one per positive,
        in order.
    """
    answers_arr = np.asarray(answers, dtype=float)
    pattern_list = [bool(p) for p in pattern]
    if answers_arr.ndim != 1 or answers_arr.size != len(pattern_list):
        raise InvalidParameterError("answers and pattern must be 1-D and equal length")
    thr = np.asarray(thresholds, dtype=float)
    if thr.ndim == 0:
        thr = np.full(answers_arr.size, float(thr))
    if thr.size != answers_arr.size:
        raise InvalidParameterError("need one threshold per answer")

    if spec.outputs_numeric:
        if numeric_values is None or len(numeric_values) != sum(pattern_list):
            raise InvalidParameterError(
                "numeric-output spec needs one numeric value per positive"
            )
        return _numeric_outcome_density(answers_arr, thr, pattern_list, numeric_values, spec)

    if spec.independent_numeric_scale is not None and numeric_values is not None:
        # Alg. 7's eps3 phase: independent releases factor out of Eq. (5).
        if len(numeric_values) != sum(pattern_list):
            raise InvalidParameterError("need one numeric value per positive")
        density = 1.0
        numeric_iter = iter(numeric_values)
        for q, flag in zip(answers_arr, pattern_list):
            if flag:
                a = float(next(numeric_iter))
                density *= float(laplace_pdf(a - q, spec.independent_numeric_scale))
        indicator_only = MechanismSpec(
            threshold_scale=spec.threshold_scale,
            query_scale=spec.query_scale,
            resets_threshold=spec.resets_threshold,
            refresh_scale=spec.refresh_scale,
        )
        return density * outcome_probability(
            indicator_only, answers_arr, pattern_list, thr
        )

    if numeric_values is not None:
        raise InvalidParameterError("numeric_values only apply to numeric-output specs")

    if not spec.resets_threshold:
        return _segment_probability(answers_arr, thr, pattern_list, spec, spec.threshold_scale)

    # Alg. 2: independent segments, each ending at a positive; rho is drawn
    # from threshold_scale for the first segment and refresh_scale afterwards.
    probability = 1.0
    start = 0
    segment_index = 0
    for i, flag in enumerate(pattern_list):
        if flag:
            rho_scale = spec.threshold_scale if segment_index == 0 else spec.refresh_scale
            probability *= _segment_probability(
                answers_arr[start : i + 1],
                thr[start : i + 1],
                pattern_list[start : i + 1],
                spec,
                rho_scale,
            )
            start = i + 1
            segment_index += 1
    if start < len(pattern_list):  # trailing all-⊥ segment
        rho_scale = spec.threshold_scale if segment_index == 0 else spec.refresh_scale
        probability *= _segment_probability(
            answers_arr[start:], thr[start:], pattern_list[start:], spec, rho_scale
        )
    return probability


def privacy_ratio(
    spec: MechanismSpec,
    answers_d: Sequence[float],
    answers_d_prime: Sequence[float],
    pattern: Sequence[bool],
    thresholds: float | Sequence[float] = 0.0,
    numeric_values: Optional[Sequence[float]] = None,
) -> float:
    """``Pr[A(D) = a] / Pr[A(D') = a]`` for one neighboring pair and outcome.

    Returns ``inf`` when the denominator is (numerically) zero while the
    numerator is not — the Theorem 3 situation.
    """
    p = outcome_probability(spec, answers_d, pattern, thresholds, numeric_values)
    q = outcome_probability(spec, answers_d_prime, pattern, thresholds, numeric_values)
    if q <= 0.0:
        return math.inf if p > 0.0 else 1.0
    return p / q


def enumerate_valid_patterns(n: int, c: Optional[int] = None):
    """All output transcripts an SVT with cutoff *c* can emit over *n* queries.

    Without a cutoff (``c=None``, Alg. 5/6) every length-n ⊤/⊥ pattern is a
    possible outcome.  With a cutoff, a transcript either processes all n
    queries with fewer than c positives, or ends exactly at the c-th positive
    (possibly before query n).  Yields tuples of bools; their probabilities
    under Eq. (5) sum to 1 — a property test relies on this.
    """
    if n < 0:
        raise InvalidParameterError("n must be non-negative")
    if c is None:
        yield from itertools.product([False, True], repeat=n)
        return
    if c <= 0:
        raise InvalidParameterError("c must be positive when given")
    # Full-length transcripts with fewer than c positives.
    for pattern in itertools.product([False, True], repeat=n):
        if sum(pattern) < c:
            yield pattern
    # Halted transcripts: the c-th positive at position L-1 for L = c..n.
    for length in range(c, n + 1):
        for head in itertools.product([False, True], repeat=length - 1):
            if sum(head) == c - 1:
                yield (*head, True)


def empirical_epsilon(
    spec: MechanismSpec,
    answers_d: Sequence[float],
    answers_d_prime: Sequence[float],
    thresholds: float | Sequence[float] = 0.0,
    c: Optional[int] = None,
    max_queries: int = 6,
) -> float:
    """Exact privacy loss ``max_a |ln Pr_D[a] - ln Pr_D'[a]|`` over all outcomes.

    Enumerates every *valid* transcript over the (short) query list (see
    :func:`enumerate_valid_patterns`; pass *c* for variants with a cutoff).
    For numeric-output specs this is not applicable (the outcome space is
    continuous); use :func:`privacy_ratio` with explicit values.
    """
    if spec.outputs_numeric:
        raise InvalidParameterError(
            "empirical_epsilon enumerates discrete patterns; "
            "numeric-output variants need explicit outcomes"
        )
    answers_d = list(answers_d)
    answers_d_prime = list(answers_d_prime)
    n = len(answers_d)
    if n != len(answers_d_prime):
        raise InvalidParameterError("neighboring answer lists must have equal length")
    if n > max_queries:
        raise InvalidParameterError(
            f"{n} queries would enumerate 2^{n} patterns; raise max_queries to confirm"
        )
    thr = np.asarray(thresholds, dtype=float)
    if thr.ndim == 0:
        thr = np.full(n, float(thr))
    worst = 0.0
    for pattern in enumerate_valid_patterns(n, c):
        length = len(pattern)
        ratio = privacy_ratio(
            spec,
            answers_d[:length],
            answers_d_prime[:length],
            pattern,
            thr[:length],
        )
        if ratio == math.inf or ratio <= 0.0:
            return math.inf
        worst = max(worst, abs(math.log(ratio)))
    return worst
