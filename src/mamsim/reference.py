"""Per-replicate reference fit: the single-dataset Laplace fit that the
batched fit is tested against.

``fit_laplace`` fits one dataset with a Cholesky-factored Newton iteration
and returns a ``PosteriorFit``; ``marginal_posterior_prob`` reads one tail
probability from it.  No run calls this module: the engine fits every block
with :func:`mamsim.glm.fit_laplace_batch`, which follows ``fit_laplace`` row
by row.  Tests compare the two, and :mod:`mamsim.oracle` checks this fit
against quadrature.  ``import mamsim`` does not load this module, and so
does not load ``scipy.linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit

from .config import coefficient_names
from .glm import (
    MAX_HALVINGS,
    MODE_CHANGE_TOL,
    SCORE_TOL,
    FitError,
    PriorSpec,
    check_nuisance,
    default_prior,
    design_values,
    tail_probabilities,
)


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
