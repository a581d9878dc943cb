"""Per-replicate reference path: the single-trial forms that the block
engine's batched forms are tested against.

* The single-dataset Laplace fit.  ``fit_laplace`` fits one dataset with a
  Cholesky-factored Newton iteration and returns a ``PosteriorFit``;
  ``marginal_posterior_prob`` reads one tail probability from it.  The
  engine fits every block with :func:`mamsim.glm.fit_laplace_batch`, which
  follows ``fit_laplace`` row by row, and the quadrature oracle of the
  tests (``tests/quadrature_oracle.py``) checks this fit against
  quadrature.  ``design_values`` builds a model matrix from arm labels.
* The one-trial rule API.  ``efficacy_arm``, ``futility_arm``,
  ``trial_stop``, ``rar_weights`` and ``normalize_allocation`` evaluate one
  look of one trial, held in a :class:`RuleContext`, through the block
  forms registered in :mod:`mamsim.rules`, as a block of one.
* One-cohort allocation.  ``allocate_arms`` and ``allocate_codes`` draw the
  arms of one cohort from a generator, as the block draws of
  :mod:`mamsim.datagen` do for a whole block.

No run calls this module; tests compare each form with its block form.
``import mamsim`` does not load it, and so does not load ``scipy.linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit

from .config import coefficient_names
from .datagen import DataGenError, allocate_simple, balanced_counts
from .glm import (
    MAX_HALVINGS,
    MODE_CHANGE_TOL,
    SCORE_TOL,
    FitError,
    PriorSpec,
    check_nuisance,
    default_prior,
    design_rows,
    tail_probabilities,
)
from .rules import ArmDecision, RuleBlock, RuleError, RuleSpec, check_rule, normalize_rows


class NonConvergedError(RuntimeError):
    """A posterior quantity was requested from a non-converged fit."""


@dataclass(frozen=True)
class DesignMatrix:
    """Column-named n x p model matrix with treatment (dummy) contrasts."""

    columns: tuple[str, ...]
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass
class PosteriorFit:
    """Laplace approximation of the coefficient posterior.

    ``marginal_mean`` equals the joint mode; ``marginal_sd`` is the square
    root of the covariance diagonal.  ``log_det_precision`` is kept as a
    convergence diagnostic.
    """

    mode: np.ndarray
    covariance: np.ndarray
    marginal_mean: np.ndarray
    marginal_sd: np.ndarray
    converged: bool
    iterations: int
    log_det_precision: float


def design_values(arm_labels, covariates, model) -> np.ndarray:
    """Model-matrix values for given arm labels and covariate columns, laid
    out by ``design_rows``."""
    arms = np.asarray(arm_labels).tolist()
    index = {arm: code for code, arm in enumerate(model.arm_names)}
    unknown = sorted(set(arms) - index.keys())
    if unknown:
        raise FitError(f"unknown arm label(s) in data: {', '.join(map(str, unknown))}")
    return design_rows(np.array([index[arm] for arm in arms], dtype=int), covariates, model)


def build_design_matrix(data, model) -> tuple[DesignMatrix, np.ndarray]:
    """Assemble the model matrix and response from accumulated subjects.

    ``data`` provides per-subject ``arm`` labels, a ``covariates`` mapping,
    and ``response`` values as attributes: the fields of a replicate's
    ``extended=2`` ``dataset``.
    """
    x = design_values(data.arm, data.covariates, model)
    y = np.asarray(data.response, dtype=float)
    if y.shape[0] != x.shape[0]:
        raise FitError("response length does not match the number of subjects")
    return DesignMatrix(columns=coefficient_names(model), values=x), y


# --------------------------------------------------------------------------
# likelihood derivatives on the linear-predictor scale
# --------------------------------------------------------------------------


def _family_terms(family, eta, y, nuisance):
    """Log-likelihood (up to data-only constants), d ll / d eta, and the
    per-observation negative second derivative w = -d2 ll / d eta2.

    All four families have w >= 0, so the log posterior is concave and the
    Newton iteration below is globally stable under step-halving.
    """
    if family == "gaussian":
        sigma2 = nuisance["sd"] ** 2
        resid = y - eta
        ll = -0.5 * float(resid @ resid) / sigma2
        return ll, resid / sigma2, np.full_like(eta, 1.0 / sigma2)
    if family == "binomial":
        mu = expit(eta)
        ll = float(y @ eta - np.logaddexp(0.0, eta).sum())
        return ll, y - mu, mu * (1.0 - mu)
    if family == "poisson":
        mu = np.exp(eta)
        ll = float(y @ eta - mu.sum())
        return ll, y - mu, mu
    if family == "nbinomial":
        phi = nuisance["dispersion"]
        mu = np.exp(eta)
        ll = float(y @ eta - (y + phi) @ np.log(phi + mu))
        d1 = y - (y + phi) * mu / (phi + mu)
        w = (y + phi) * phi * mu / (phi + mu) ** 2
        return ll, d1, w
    raise FitError(f"unknown family {family!r}")


def _cholesky(a):
    """Lower Cholesky factor of ``a`` and LAPACK's ``info`` (> 0: not
    positive definite).  A non-finite matrix raises ``ValueError``."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return dpotrf(a, lower=1, clean=0)


def fit_laplace(
    X,
    y,
    family: str,
    link: str,
    nuisance=None,
    prior: PriorSpec | None = None,
    max_iterations: int = 100,
) -> PosteriorFit:
    """Fit the gaussian Laplace approximation of the coefficient posterior.

    Newton iterations start from the zero vector, with up to 30 step
    halvings per iteration whenever the log posterior would not improve.
    Convergence is declared when the largest score component falls below
    1e-8 or the relative mode change falls below 1e-10.  On failure the
    best iterate is returned with ``converged=False``; so is a final
    Hessian that is not positive definite, with a pseudo-inverse
    covariance.  A non-finite Hessian or score raises ``ValueError``.

    The likelihood is evaluated once per iterate: the terms of the accepted
    line-search candidate give the next score and Hessian, and those of the
    mode give the covariance.  Factor and solves call LAPACK's ``potrf`` and
    ``potrs`` directly.
    """
    x = X.values if isinstance(X, DesignMatrix) else np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    nuisance = dict(nuisance or {})
    check_nuisance(family, nuisance)
    n, p = x.shape
    if y.shape[0] != n:
        raise FitError(f"response has {y.shape[0]} entries for {n} design rows")
    if prior is None:
        prior = default_prior(p)
    pm = np.asarray(prior.mean, dtype=float)
    tau = np.asarray(prior.precision, dtype=float)
    if pm.shape[0] != p or tau.shape[0] != p:
        raise FitError("prior dimensions do not match the design matrix")

    def posterior_terms(beta):
        """Log posterior, d ll / d eta and w at ``beta``."""
        ll, d1, w = _family_terms(family, x @ beta, y, nuisance)
        return ll - 0.5 * float(tau @ (beta - pm) ** 2), d1, w

    def neg_hessian(w):
        hess = (x.T * w) @ x
        hess.flat[:: p + 1] += tau
        return hess

    beta = np.zeros(p)
    lp, d1, w = posterior_terms(beta)
    if not np.isfinite(lp):
        raise FitError("log posterior is not finite at the starting point")

    converged = False
    iterations = 0
    for it in range(max_iterations):
        iterations = it + 1
        score = x.T @ d1 - tau * (beta - pm)
        score_max = np.abs(score).max()
        if score_max < SCORE_TOL:
            converged = True
            break
        chol, info = _cholesky(neg_hessian(w))
        if info > 0:
            break
        if not np.isfinite(score_max):
            raise ValueError("array must not contain infs or NaNs")
        step = dpotrs(chol, score, lower=1)[0]

        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            cand = beta + scale * step
            lp_cand, d1_cand, w_cand = posterior_terms(cand)
            if np.isfinite(lp_cand) and lp_cand >= lp - 1e-12 * (1.0 + abs(lp)):
                break
            scale *= 0.5
        else:
            break
        change = np.abs(cand - beta).max() / max(1.0, np.abs(beta).max())
        beta, lp, d1, w = cand, lp_cand, d1_cand, w_cand
        if change < MODE_CHANGE_TOL:
            converged = True
            break

    hess = neg_hessian(w)
    chol, info = _cholesky(hess)
    if info > 0:
        converged = False
        cov = np.linalg.pinv(hess)
        log_det = np.nan
    else:
        cov = dpotrs(chol, np.eye(p), lower=1)[0]
        log_det = 2.0 * float(np.log(np.diag(chol)).sum())
    cov = 0.5 * (cov + cov.T)
    sd = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return PosteriorFit(
        mode=beta,
        covariance=cov,
        marginal_mean=beta.copy(),
        marginal_sd=sd,
        converged=converged,
        iterations=iterations,
        log_det_precision=log_det,
    )


def marginal_posterior_prob(
    fit: PosteriorFit, k: int, delta: float, direction: str
) -> float:
    """Tail probability of coefficient k under the gaussian marginal.

    ``greater`` returns P(beta_k > delta), ``less`` returns P(beta_k <
    delta).  The result is clamped to the open interval (0, 1).
    """
    if not fit.converged:
        raise NonConvergedError("tail probability requested from a non-converged fit")
    if not 0 <= k < fit.mode.shape[0]:
        raise FitError(f"coefficient index {k} out of range")
    if direction not in ("greater", "less"):
        raise FitError(f"direction must be 'greater' or 'less', got {direction!r}")
    return float(
        tail_probabilities(
            fit.marginal_mean[k], fit.marginal_sd[k], delta, direction == "greater"
        )
    )


# --------------------------------------------------------------------------
# the one-trial rule API
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RuleContext:
    """Per-look quantities of one trial, handed to the scalar entry points.

    Vectors indexed per arm follow the design's arm order (control first).
    ``posterior`` is indexed per *active intervention* only, in arm order,
    and holds tail probabilities oriented along each target's alternative
    and margined by the delta relevant to the rule being evaluated.
    """

    active: tuple[bool, ...]
    posterior: tuple[float, ...]
    n: tuple[int, ...]
    ref: tuple[bool, ...]
    prob: tuple[float, ...]
    m: int
    n_max: int
    look_index: int
    is_final: bool

    def __post_init__(self) -> None:
        if sum(self.ref) != 1:
            raise RuleError("exactly one arm must be flagged as reference")
        ref_idx = self.ref.index(True)
        if not self.active[ref_idx]:
            raise RuleError("the reference arm can never be inactive")
        if any(p < 0.0 or p > 1.0 for p in self.posterior):
            raise RuleError("posterior probabilities must lie in [0, 1]")
        if sum(self.n) > self.n_max:
            raise RuleError("recruited counts exceed the maximum sample size")


def evaluate(kind: str, rule: RuleSpec, *inputs) -> np.ndarray:
    """The block form of the ``kind`` rule ``rule`` on ``inputs``."""
    return check_rule(kind, rule)(*inputs, rule.params)


def _block_of_one(ctx: RuleContext) -> RuleBlock:
    active, ref = np.array([ctx.active], dtype=bool), np.array(ctx.ref, dtype=bool)
    return RuleBlock(active=active, n=np.array([ctx.n]), ref=ref, n_max=ctx.n_max)


def _tails_of_one(ctx: RuleContext) -> tuple[np.ndarray, np.ndarray]:
    """``ctx.posterior`` as a one-row tail matrix, and the columns it fills."""
    columns = np.flatnonzero(np.array(ctx.active) & ~np.array(ctx.ref))
    if len(columns) != len(ctx.posterior):
        raise RuleError("posterior must hold one tail per active intervention")
    tails = np.full((1, len(ctx.active)), np.nan)
    tails[0, columns] = ctx.posterior
    return tails, columns


def _arm_rule(kind: str, ctx: RuleContext, rule: RuleSpec) -> np.ndarray:
    tails, columns = _tails_of_one(ctx)
    return evaluate(kind, rule, tails, _block_of_one(ctx))[0, columns]


def efficacy_arm(ctx: RuleContext, rule: RuleSpec) -> np.ndarray:
    """Evaluate the efficacy stopping rule for every active intervention.

    Returns a boolean array aligned with ``ctx.posterior``.
    """
    return _arm_rule("eff_arm", ctx, rule)


def futility_arm(ctx: RuleContext, rule: RuleSpec) -> np.ndarray:
    """Evaluate the futility stopping rule for every active intervention."""
    return _arm_rule("fut_arm", ctx, rule)


def trial_stop(
    decisions: Iterable[ArmDecision],
    ctx: RuleContext,
    eff_rule: RuleSpec,
    fut_rule: RuleSpec,
) -> str:
    """Combine arm decisions so far into a trial-level verdict.

    Returns one of ``continue``, ``stop_efficacy``, ``stop_futility``.  The
    efficacy rule is consulted first.  Independently of the families chosen
    here, the engine terminates once every intervention arm is inactive.
    """
    decisions = list(decisions)
    efficacy = np.array([[d.efficacy_met for d in decisions]], dtype=bool)
    futility = np.array([[d.futility_met for d in decisions]], dtype=bool)
    if evaluate("eff_trial", eff_rule, efficacy, futility)[0]:
        return "stop_efficacy"
    if evaluate("fut_trial", fut_rule, efficacy, futility)[0]:
        return "stop_futility"
    return "continue"


def rar_weights(ctx: RuleContext, rule: RuleSpec) -> np.ndarray:
    """Unnormalised allocation weights for the active arms, in arm order
    (control first)."""
    tails, _ = _tails_of_one(ctx)
    block = _block_of_one(ctx)
    return evaluate("rar", rule, tails, block)[block.active]


def normalize_allocation(weights) -> np.ndarray:
    """Map weights to probabilities via abs(w) / sum(abs(w))."""
    w = np.asarray(weights, dtype=float).reshape(1, -1)
    return normalize_rows(w, np.ones(w.shape, dtype=bool))[0]


# --------------------------------------------------------------------------
# one-cohort allocation
# --------------------------------------------------------------------------


def allocate_arms(
    m: int,
    weights: Mapping[str, float],
    method: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw arm labels for a cohort of m subjects.

    ``simple`` samples i.i.d. from the categorical distribution with
    probabilities abs(w)/sum(abs(w)).  ``balanced`` fixes the per-arm counts
    by largest-remainder apportionment of m * abs(w)/sum(abs(w)) and then
    shuffles the label sequence uniformly at random.
    """
    names = np.array(list(weights), dtype=object)
    return names[allocate_codes(m, list(weights.values()), method, rng)]


def allocate_codes(m: int, weights, method: str, rng: np.random.Generator) -> np.ndarray:
    """Positions in ``weights`` of the arms of m subjects, as ``allocate_arms``
    draws them: the same generator draws give the same arms."""
    w = np.array(weights, dtype=float)[None]
    every = np.ones(w.shape, dtype=bool)
    if method == "simple":
        # Generator.choice(len(w), size=m, p=prob) without its checks: the
        # same cdf, uniforms and search, so the same draws.  An empty or
        # negative cohort draws no uniforms and is rejected as such.
        return allocate_simple(w, every, rng.random((1, max(m, 0))))[0]
    if method == "balanced":
        counts = balanced_counts(w, every, m)[0]
        return rng.permutation(np.repeat(np.arange(len(counts)), counts))
    raise DataGenError(f"unknown allocation method {method!r}")
