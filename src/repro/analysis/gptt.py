"""GPTT and the error in the non-privacy proof of Chen & Machanavajjhala [2].

GPTT (generalized private threshold testing) perturbs the threshold with
``Lap(Delta/eps1)``, each query with ``Lap(Delta/eps2)``, has no cutoff, and
with ``eps1 = eps2 = eps/2`` coincides with Alg. 6.  The proof in [2] that
GPTT is ∞-DP considers ``q(D) = 0^t 1^t``, ``q(D') = 1^t 0^t``,
``a = ⊥^t ⊤^t`` and argues via

    kappa(z) = (F(z) - F(z)F(z-1)) / (F(z-1) - F(z)F(z-1)) > 1,

restricted to a finite interval [-delta, delta] on which kappa is bounded
away from 1.  Section 3.3 / Appendix 10.3 of our paper shows the proof is
circular: delta depends on t, grows with t, and the interval minimum
kappa(t) decays toward 1, so ``kappa(t)^{t/2}`` is not obviously unbounded.
Worse, the same proof template would "prove" the genuinely private Alg. 1
non-private.  This module makes all three observations computable:

* :func:`gptt_kappa` — kappa(z), with kappa(z) -> 1 as |z| -> inf;
* :func:`gptt_counterexample_ratio` — the true ratio for the [2]
  counterexample, by direct integration (it *does* grow with t — GPTT really
  is non-private, per Theorem 7 — the point is that [2]'s *argument* for it
  was broken);
* :func:`broken_proof_would_condemn_alg1` — runs the proof template against
  Alg. 1 and returns the "lower bound" it fabricates, side by side with
  Alg. 1's true (bounded) ratio from the verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.mechanisms.laplace import laplace_cdf, laplace_pdf, laplace_ppf, laplace_sf

__all__ = [
    "gptt_kappa",
    "gptt_counterexample_ratio",
    "BrokenProofReport",
    "broken_proof_would_condemn_alg1",
]


def gptt_kappa(z: float, eps2: float, sensitivity: float = 1.0) -> float:
    """The integrand ratio kappa(z) from the [2] proof.

    Always > 1, maximal near z = 0, and decaying toward ``e^{eps2*Delta}`` in
    both tails (our numerics; the paper's prose says the tails approach 1,
    which holds for the *CDF-only* ratio ``F(z)/F(z-1)`` of the Alg.-1 replay
    at z -> +inf, the quantity whose interval minimum actually drives the
    circularity — see :func:`broken_proof_would_condemn_alg1`).
    """
    if eps2 <= 0.0:
        raise InvalidParameterError("eps2 must be > 0")
    scale = sensitivity / eps2
    f_z = float(laplace_cdf(z, scale))
    f_z1 = float(laplace_cdf(z - sensitivity, scale))
    numerator = f_z - f_z * f_z1
    denominator = f_z1 - f_z * f_z1
    if denominator <= 0.0:  # pragma: no cover - only at z -> -inf underflow
        return math.inf
    return numerator / denominator


def gptt_counterexample_ratio(
    t: int, epsilon: float, sensitivity: float = 1.0
) -> float:
    """True Pr_D[a]/Pr_D'[a] for the [2] counterexample, by direct integration.

    ``q(D) = 0^t 1^t``, ``q(D') = 1^t 0^t``, ``a = ⊥^t ⊤^t``, ``T = 0``,
    ``eps1 = eps2 = eps/2``.  For query noise ``nu ~ Lap(2/eps)``:

        Pr_D[a]  = ∫ p_rho(z) (F(z) (1 - F(z - 1)))^t dz
        Pr_D'[a] = ∫ p_rho(z) (F(z - 1) (1 - F(z)))^t dz

    (F = CDF of nu).  The ratio grows without bound in t, consistent with
    GPTT being ∞-DP — established correctly by Theorem 7's argument, not by
    the [2] proof.
    """
    if not isinstance(t, int) or t <= 0:
        raise InvalidParameterError(f"t must be a positive integer, got {t!r}")
    if epsilon <= 0.0:
        raise InvalidParameterError("epsilon must be > 0")
    eps_half = epsilon / 2.0
    rho_scale = sensitivity / eps_half
    nu_scale = sensitivity / eps_half

    # Everything is evaluated on the whole grid at once; log(0) -> -inf is the
    # wanted limit, so just silence the warning.
    def log_num_integrand(z: np.ndarray) -> np.ndarray:
        f_z = laplace_cdf(z, nu_scale)
        sf_z1 = laplace_sf(z - sensitivity, nu_scale)
        with np.errstate(divide="ignore"):
            return np.log(laplace_pdf(z, rho_scale)) + t * (np.log(f_z) + np.log(sf_z1))

    def log_den_integrand(z: np.ndarray) -> np.ndarray:
        f_z1 = laplace_cdf(z - sensitivity, nu_scale)
        sf_z = laplace_sf(z, nu_scale)
        with np.errstate(divide="ignore"):
            return np.log(laplace_pdf(z, rho_scale)) + t * (np.log(f_z1) + np.log(sf_z))

    def integrate_log(fn) -> float:
        # Shift by the max of the log-integrand so huge t stays in range.
        grid = np.linspace(-40.0 * rho_scale, 40.0 * rho_scale, 20001)
        values = fn(grid)
        peak = float(values.max())
        if peak == -math.inf:
            return -math.inf
        shifted = np.exp(values - peak)
        total = float(np.trapezoid(shifted, grid))
        return peak + math.log(total)

    log_ratio = integrate_log(log_num_integrand) - integrate_log(log_den_integrand)
    return math.exp(log_ratio) if log_ratio < 700 else math.inf


@dataclass(frozen=True)
class BrokenProofReport:
    """Output of running [2]'s proof template against Alg. 1 (c = 1).

    Fields tell the Appendix-10.3 story quantitatively:

    * ``per_t_lower_bound`` — ``kappa_min(t)^t / 2``, the bound the template
      *soundly* derives for ``beta/alpha`` at this t.  It is a true lower
      bound (``true_ratio >= per_t_lower_bound``) but stays bounded, because
      ``kappa_min(t) -> 1`` as t grows — the t-dependence the original proof
      ignored.
    * ``fabricated_if_kappa_constant`` — what the template *claims*: treating
      kappa as a t-independent constant (we freeze it at ``t0 = 10``) and
      concluding ``kappa^t / 2`` grows without bound.  For large t this
      fabricated value exceeds ``lemma1_bound = e^{eps/2}``, contradicting the
      proven Lemma 1 — which is exactly how the paper exposes the error.
    * ``true_ratio`` — the actual ``Pr[A(D)=⊥^t] / Pr[A(D')=⊥^t]`` by direct
      integration; always within the Lemma 1 bound.
    """

    t: int
    epsilon: float
    alpha: float
    delta_interval: float
    kappa_min: float
    per_t_lower_bound: float
    fabricated_if_kappa_constant: float
    true_ratio: float
    lemma1_bound: float

    @property
    def fabricated_exceeds_lemma1(self) -> bool:
        """True when the kappa-held-constant claim contradicts Lemma 1."""
        return self.fabricated_if_kappa_constant > self.lemma1_bound

    @property
    def per_t_bound_is_sound(self) -> bool:
        """The per-t inequality the template derives does hold."""
        return self.true_ratio >= self.per_t_lower_bound * (1.0 - 1e-9)


def broken_proof_would_condemn_alg1(
    t: int, epsilon: float, sensitivity: float = 1.0
) -> BrokenProofReport:
    """Replay Appendix 10.3: the [2] template applied to Alg. 1 (c = 1).

    Setting: ``q(D) = 0^t``, ``q(D') = 1^t``, output ``⊥^t``, ``T = 0``.
    Alg. 1 with c = 1 uses ``rho ~ Lap(1/(eps/2)) = Lap(2/eps)`` and
    ``nu ~ Lap(2*1/(eps/2)) = Lap(4/eps)`` (so F below is the CDF of
    Lap(4/eps), the paper's ``F_{eps/4}``).

    Template steps: compute ``alpha = Pr[A(D')=⊥^t]``; pick delta with
    ``Pr[|rho| <= delta] >= 1 - alpha/2``; let ``kappa`` be the minimum of
    ``F(z)/F(z-1)`` on [-delta, delta]; conclude
    ``beta = Pr[A(D)=⊥^t] >= kappa^t * alpha / 2``.  Each step is locally
    sound; the fabricated conclusion "beta/alpha >= kappa^t/2 grows without
    bound" contradicts Lemma 1 because kappa depends on t through alpha and
    delta — exposing the circularity.
    """
    if not isinstance(t, int) or t <= 0:
        raise InvalidParameterError(f"t must be a positive integer, got {t!r}")
    if epsilon <= 0.0:
        raise InvalidParameterError("epsilon must be > 0")
    rho_scale = 2.0 * sensitivity / epsilon
    nu_scale = 4.0 * sensitivity / epsilon

    from scipy import integrate

    def prob_all_below(shift: float) -> float:
        def integrand(z: float) -> float:
            f = float(laplace_cdf(z - shift, nu_scale))
            if f <= 0.0:
                return 0.0
            return float(laplace_pdf(z, rho_scale)) * f**t

        value, _ = integrate.quad(
            integrand, -60.0 * rho_scale, 60.0 * rho_scale, limit=400
        )
        return float(value)

    alpha = prob_all_below(sensitivity)  # D': all answers 1, F(z - 1) terms
    beta = prob_all_below(0.0)  # D: all answers 0, F(z) terms

    # delta such that Pr[|rho| <= delta] >= 1 - alpha/2, i.e. each tail alpha/4.
    delta_interval = abs(float(laplace_ppf(alpha / 4.0, rho_scale)))

    def kappa_min_on(grid: np.ndarray) -> float:
        f_z = laplace_cdf(grid, nu_scale)
        f_z1 = laplace_cdf(grid - sensitivity, nu_scale)
        ratio = np.where(f_z1 > 0, f_z / np.where(f_z1 > 0, f_z1, 1.0), np.inf)
        return float(ratio.min())

    # kappa is minimized at the right end of the interval (F(z)/F(z-1) is
    # non-increasing in z for the Laplace CDF), but we scan to stay honest.
    kappa_min = kappa_min_on(np.linspace(-delta_interval, delta_interval, 4001))

    # The template's *claim* freezes kappa at a reference t0 and lets t grow.
    t0 = 10
    if t <= t0:
        kappa_frozen = kappa_min
    else:
        half0 = broken_proof_interval(t0, epsilon, sensitivity)
        kappa_frozen = kappa_min_on(np.linspace(-half0, half0, 4001))

    return BrokenProofReport(
        t=t,
        epsilon=epsilon,
        alpha=alpha,
        delta_interval=delta_interval,
        kappa_min=kappa_min,
        per_t_lower_bound=(kappa_min**t) / 2.0,
        fabricated_if_kappa_constant=(kappa_frozen**t) / 2.0,
        true_ratio=beta / alpha if alpha > 0 else math.inf,
        lemma1_bound=math.exp(epsilon / 2.0),
    )


def broken_proof_interval(t: int, epsilon: float, sensitivity: float = 1.0) -> float:
    """The delta(t) interval half-width the template picks at a given t."""
    report_alpha = _alpha_for(t, epsilon, sensitivity)
    rho_scale = 2.0 * sensitivity / epsilon
    return abs(float(laplace_ppf(report_alpha / 4.0, rho_scale)))


def _alpha_for(t: int, epsilon: float, sensitivity: float) -> float:
    """alpha(t) = Pr[A(D') = ⊥^t] for the replay instance."""
    from scipy import integrate

    rho_scale = 2.0 * sensitivity / epsilon
    nu_scale = 4.0 * sensitivity / epsilon

    def integrand(z: float) -> float:
        f = float(laplace_cdf(z - sensitivity, nu_scale))
        if f <= 0.0:
            return 0.0
        return float(laplace_pdf(z, rho_scale)) * f**t

    value, _ = integrate.quad(integrand, -60.0 * rho_scale, 60.0 * rho_scale, limit=400)
    return float(value)
