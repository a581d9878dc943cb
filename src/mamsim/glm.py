"""Bayesian GLM fitting via Laplace approximation.

The posterior over the coefficient vector is approximated by a gaussian
centred at the posterior mode with covariance equal to the inverse of the
negative log-posterior Hessian at the mode.  Supported response families
(with their canonical-for-this-package links):

* gaussian + identity, known residual sd ``sigma``
* binomial + logit (single-trial outcomes)
* poisson + log
* nbinomial + log, known dispersion ``phi`` (variance mu + mu^2/phi)

Nuisance parameters are plug-in values supplied by the caller; coefficient
priors are independent gaussians.  ``fit_laplace`` fits one dataset;
``fit_laplace_batch`` fits a block of replicates in one Newton iteration.
The independent quadrature oracle lives in :mod:`mamsim.oracle`;
``quadrature_oracle_prob`` is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit, ndtr

from .config import coefficient_names, covariate_columns

SCORE_TOL = 1e-8
MODE_CHANGE_TOL = 1e-10
MAX_HALVINGS = 30

_PROB_FLOOR = np.finfo(float).tiny
_PROB_CEIL = float(np.nextafter(1.0, 0.0))


class FitError(ValueError):
    """Dimension mismatch, invalid nuisance, or pathological inputs."""


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


@dataclass(frozen=True)
class PriorSpec:
    """Independent gaussian priors: one mean and precision per coefficient."""

    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.precision) <= 0):
            raise FitError("prior precisions must be positive")


def default_prior(p: int, mean: float = 0.0, precision: float = 0.001) -> PriorSpec:
    """Weakly-informative default: N(0, precision 0.001) per coefficient."""
    return PriorSpec(np.full(p, mean, dtype=float), np.full(p, precision, dtype=float))


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


def inverse_link(link: str, eta: np.ndarray) -> np.ndarray:
    """Map the linear predictor to the response mean."""
    eta = np.asarray(eta, dtype=float)
    if link == "identity":
        return eta
    if link == "logit":
        return expit(eta)
    if link == "log":
        with np.errstate(over="ignore"):
            return np.exp(eta)
    raise FitError(f"unknown link {link!r}")


def check_nuisance(family: str, nuisance) -> None:
    """Reject invalid plug-in nuisance parameters for the family."""
    if family == "gaussian" and not nuisance.get("sd", 0.0) > 0.0:
        raise FitError("gaussian family requires nuisance sd > 0")
    if family == "nbinomial" and not nuisance.get("dispersion", 0.0) > 0.0:
        raise FitError("nbinomial family requires nuisance dispersion > 0")
    if family not in ("gaussian", "binomial", "poisson", "nbinomial"):
        raise FitError(f"unknown family {family!r}")


def design_values(arm_labels, covariates, model) -> np.ndarray:
    """Model-matrix values for given arm labels and covariate columns.

    Columns are ordered intercept, one indicator per intervention arm
    (control as the reference level, all indicators zero), then covariates.
    """
    arms = np.asarray(arm_labels)
    n = arms.shape[0]
    if n == 0:
        raise FitError("no subjects to build a design matrix from")
    known = set(model.arm_names)
    unknown = sorted(set(arms.tolist()) - known)
    if unknown:
        raise FitError(f"unknown arm label(s) in data: {', '.join(map(str, unknown))}")

    cov_cols = covariate_columns(model)
    x = np.zeros((n, 1 + len(model.interventions) + len(cov_cols)))
    x[:, 0] = 1.0
    for j, arm in enumerate(model.interventions, start=1):
        x[:, j] = arms == arm
    for j, name in enumerate(cov_cols, start=1 + len(model.interventions)):
        x[:, j] = np.asarray(covariates[name], dtype=float)
    return x


def build_design_matrix(data, model) -> tuple[DesignMatrix, np.ndarray]:
    """Assemble the model matrix and response from accumulated subjects.

    ``data`` provides per-subject ``arm`` labels, a ``covariates`` mapping,
    and ``response`` values (the shape of :class:`mamsim.datagen.Cohort`).
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


# --------------------------------------------------------------------------
# batched fits: one Newton iteration over a block of replicates
# --------------------------------------------------------------------------


class ArmTotals:
    """Arm-only data of a block of replicates, one row per replicate.

    ``count``, ``total`` and ``square`` hold, per arm (control first), the
    subjects, the sum of their responses and the sum of their squared
    responses (needed by the gaussian family only).  The model matrix is the
    intercept plus one indicator per intervention, so the linear predictor
    is constant within an arm and these totals are sufficient: arm g has
    eta_g = beta_0 + beta_g, and eta_0 = beta_0 for the control.
    """

    def __init__(self, count, total, square=None) -> None:
        self.count = np.asarray(count, dtype=float)
        self.total = np.asarray(total, dtype=float)
        self.square = None if square is None else np.asarray(square, dtype=float)
        self.shape = self.count.shape

    def eta(self, beta):
        eta = beta.copy()
        eta[:, 1:] += beta[:, :1]
        return eta

    def score(self, d1):
        """X' d1: every arm feeds the intercept, arm g its own coefficient."""
        score = d1.copy()
        score[:, 0] = d1.sum(axis=1)
        return score

    def hessian(self, w):
        """X' W X, an arrowhead: the intercept row and column plus a diagonal."""
        n_rep, p = w.shape
        hess = np.zeros((n_rep, p, p))
        hess[:, 0, 0] = w.sum(axis=1)
        hess[:, 0, 1:] = hess[:, 1:, 0] = w[:, 1:]
        arm = np.arange(1, p)
        hess[:, arm, arm] = w[:, 1:]
        return hess


class SubjectRows:
    """Per-subject data of a block of replicates: design rows ``x`` of shape
    (R, n, p) and responses ``y`` of shape (R, n).  Each subject is a unit of
    count one; every product runs slice by slice."""

    def __init__(self, x, y) -> None:
        self.x = np.ascontiguousarray(x, dtype=float)
        self.xt = np.ascontiguousarray(self.x.transpose(0, 2, 1))
        self.total = np.asarray(y, dtype=float)
        self.count = np.ones_like(self.total)
        self.square = self.total * self.total
        self.shape = (self.x.shape[0], self.x.shape[2])

    def eta(self, beta):
        return (self.x * beta[:, None, :]).sum(axis=2)

    def score(self, d1):
        return (self.xt * d1[:, None, :]).sum(axis=2)

    def hessian(self, w):
        return np.matmul(self.xt * w[:, None, :], self.x)


def _unit_terms(family, eta, data, nuisance):
    """``_family_terms`` over a block: units of ``count`` subjects that share
    a linear predictor, with response sums ``total`` (and ``square``).

    Returns the log-likelihood of each replicate (summed over its units, up
    to data-only constants) and d ll / d eta and w per unit.
    """
    c, s = data.count, data.total
    if family == "gaussian":
        sigma2 = nuisance["sd"] ** 2
        units = -0.5 * (data.square - 2.0 * eta * s + c * eta * eta) / sigma2
        return units.sum(axis=1), (s - c * eta) / sigma2, c / sigma2
    if family == "binomial":
        mu = expit(eta)
        units = s * eta - c * np.logaddexp(0.0, eta)
        return units.sum(axis=1), s - c * mu, c * mu * (1.0 - mu)
    if family == "poisson":
        mu = np.exp(eta)
        return (s * eta - c * mu).sum(axis=1), s - c * mu, c * mu
    if family == "nbinomial":
        phi = nuisance["dispersion"]
        mu = np.exp(eta)
        a = s + c * phi
        units = s * eta - a * np.log(phi + mu)
        return units.sum(axis=1), s - a * mu / (phi + mu), a * phi * mu / (phi + mu) ** 2
    raise FitError(f"unknown family {family!r}")


def _solve_each(a, b):
    """Solve ``a[r] x = b[r]`` for every slice ``r``; NaN where ``a[r]`` is
    singular, without disturbing the other slices."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for r in range(a.shape[0]):
            try:
                out[r] = np.linalg.solve(a[r], b[r])
            except np.linalg.LinAlgError:
                pass
        return out


@dataclass
class BatchFit:
    """Laplace fits of a block of replicates, one row per replicate.

    ``mode`` and ``marginal_sd`` have shape (R, p); ``converged`` and
    ``iterations`` have shape (R,).  ``marginal_sd`` is NaN for a replicate
    whose final Hessian cannot be factorised.
    """

    mode: np.ndarray
    marginal_sd: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray


def fit_laplace_batch(
    data: ArmTotals | SubjectRows,
    family: str,
    nuisance=None,
    prior: PriorSpec | None = None,
    max_iterations: int = 100,
) -> BatchFit:
    """``fit_laplace`` for every replicate of a block, in one Newton iteration.

    Each replicate follows ``fit_laplace``: a zero start, the same score and
    mode-change tolerances, up to 30 step halvings and the same iteration
    cap.  A replicate leaves the iteration when it converges, when its
    line search fails, or when its Hessian cannot be factorised; the last
    two end non-converged, and the rest of the block carries on.  A
    non-finite Hessian or score of an iterating replicate raises
    ``ValueError``.

    Every operation acts elementwise, on one replicate's row, or on one
    replicate's slice of a stack (``np.linalg.solve`` and ``np.matmul``
    slice by slice), never on a product across replicates, so a replicate's
    fit is bit-identical whatever else is in the block.
    """
    nuisance = dict(nuisance or {})
    check_nuisance(family, nuisance)
    n_rep, p = data.shape
    if family == "gaussian" and data.square is None:
        raise FitError("gaussian arm totals need the sums of squared responses")
    if prior is None:
        prior = default_prior(p)
    pm = np.asarray(prior.mean, dtype=float)
    tau = np.asarray(prior.precision, dtype=float)
    if pm.shape[0] != p or tau.shape[0] != p:
        raise FitError("prior dimensions do not match the design matrix")
    diag = np.arange(p)

    def posterior_terms(beta):
        ll, d1, w = _unit_terms(family, data.eta(beta), data, nuisance)
        return ll - 0.5 * (tau * (beta - pm) ** 2).sum(axis=1), d1, w

    def neg_hessian(w):
        hess = data.hessian(w)
        hess[:, diag, diag] += tau
        return hess

    beta = np.zeros((n_rep, p))
    lp, d1, w = posterior_terms(beta)
    if not np.isfinite(lp).all():
        raise FitError("log posterior is not finite at the starting point")

    converged = np.zeros(n_rep, dtype=bool)
    iterations = np.zeros(n_rep, dtype=int)
    live = np.ones(n_rep, dtype=bool)  # still iterating
    for it in range(max_iterations):
        iterations[live] = it + 1
        score = data.score(d1) - tau * (beta - pm)
        done = live & (np.abs(score).max(axis=1) < SCORE_TOL)
        converged |= done
        live &= ~done
        if not live.any():
            break
        hess = neg_hessian(w)
        if not (np.isfinite(hess[live]).all() and np.isfinite(score[live]).all()):
            raise ValueError("array must not contain infs or NaNs")
        step = _solve_each(hess, score[:, :, None])[:, :, 0]
        live &= np.isfinite(step).all(axis=1)  # singular: stop, not converged
        step[~live] = 0.0

        scale = np.ones(n_rep)
        pending = live.copy()
        floor = lp - 1e-12 * (1.0 + np.abs(lp))
        beta_new, lp_new, d1_new, w_new = beta.copy(), lp.copy(), d1.copy(), w.copy()
        for _ in range(MAX_HALVINGS + 1):
            cand = beta + scale[:, None] * step
            lp_cand, d1_cand, w_cand = posterior_terms(cand)
            ok = pending & np.isfinite(lp_cand) & (lp_cand >= floor)
            beta_new[ok], lp_new[ok] = cand[ok], lp_cand[ok]
            d1_new[ok], w_new[ok] = d1_cand[ok], w_cand[ok]
            pending &= ~ok
            if not pending.any():
                break
            scale[pending] *= 0.5
        live &= ~pending  # no acceptable step: stop, not converged
        change = np.abs(beta_new - beta).max(axis=1) / np.maximum(
            1.0, np.abs(beta).max(axis=1)
        )
        beta, lp, d1, w = beta_new, lp_new, d1_new, w_new
        done = live & (change < MODE_CHANGE_TOL)
        converged |= done
        live &= ~done
        if not live.any():
            break

    hess = neg_hessian(w)
    if not np.isfinite(hess).all():
        raise ValueError("array must not contain infs or NaNs")
    cov = _solve_each(hess, np.broadcast_to(np.eye(p), hess.shape))
    var = np.diagonal(cov, axis1=1, axis2=2)
    converged &= np.isfinite(var).all(axis=1)
    return BatchFit(
        mode=beta,
        marginal_sd=np.sqrt(np.clip(var, 0.0, None)),
        converged=converged,
        iterations=iterations,
    )


def estimate_nuisance_mom(family: str, y, mu) -> dict:
    """Method-of-moments nuisance re-estimate from fitted means.

    An alternative to the plug-in defaults for callers who want the
    nuisance refreshed at each look: the gaussian residual sd is the root
    mean squared residual; the negative-binomial dispersion solves the
    pooled moment identity E[(Y-mu)^2] = mu + mu^2/phi.  Binomial and
    poisson families carry no nuisance and return an empty mapping.
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if family == "gaussian":
        return {"sd": float(np.sqrt(np.mean((y - mu) ** 2)))}
    if family == "nbinomial":
        excess = float(np.sum((y - mu) ** 2 - mu))
        if excess <= 0.0:
            raise FitError(
                "no overdispersion in the data; the moment estimate of the "
                "dispersion is undefined"
            )
        return {"dispersion": float(np.sum(mu**2) / excess)}
    if family in ("binomial", "poisson"):
        return {}
    raise FitError(f"unknown family {family!r}")


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


def tail_probabilities(mean, sd, delta, greater) -> np.ndarray:
    """Tail probabilities of gaussian marginals, with broadcasting.

    P(beta > delta) where ``greater`` is true, P(beta < delta) elsewhere,
    for beta with the given ``mean`` and ``sd``; clamped to the open
    interval (0, 1), and NaN where ``delta`` is NaN.
    """
    z = (delta - mean) / sd
    return np.clip(ndtr(np.where(greater, -z, z)), _PROB_FLOOR, _PROB_CEIL)


# Re-exported for callers of the documented ``mamsim.glm.quadrature_oracle_prob``;
# imported last because the oracle module imports from this one.
from .oracle import quadrature_oracle_prob  # noqa: E402,F401
