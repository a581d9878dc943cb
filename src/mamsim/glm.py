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
priors are independent gaussians.  ``quadrature_oracle_prob`` provides an
independent dense-grid evaluation of posterior tail probabilities for small
models, used to validate the Laplace path; it deliberately builds its
densities from ``scipy.stats`` rather than the hand-coded likelihood below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize
from scipy.integrate import simpson
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit, ndtr
from scipy import stats

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
    z = (delta - fit.marginal_mean[k]) / fit.marginal_sd[k]
    if direction == "greater":
        prob = float(ndtr(-z))
    elif direction == "less":
        prob = float(ndtr(z))
    else:
        raise FitError(f"direction must be 'greater' or 'less', got {direction!r}")
    return min(max(prob, _PROB_FLOOR), _PROB_CEIL)


# --------------------------------------------------------------------------
# independent quadrature oracle (test support, p <= 3)
# --------------------------------------------------------------------------


def quadrature_oracle_prob(
    X,
    y,
    family: str,
    link: str,
    nuisance,
    prior: PriorSpec,
    k: int,
    delta: float,
    direction: str,
    points_per_axis: int = 401,
) -> float:
    """Exact posterior tail probability by dense tensor-grid quadrature.

    The unnormalised posterior is evaluated over a box of +-10 posterior
    standard deviations around an independently located mode, on a grid of
    ``points_per_axis`` nodes per axis (the grid along axis ``k`` is shifted
    so ``delta`` falls exactly on a node).  Tail and normalising integrals
    use the same grid.  Densities come from ``scipy.stats``, the mode from a
    derivative-free ``scipy.optimize`` search, so no code is shared with the
    Laplace fitting path.
    """
    x = X.values if isinstance(X, DesignMatrix) else np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    nuisance = dict(nuisance or {})
    check_nuisance(family, nuisance)
    n, p = x.shape
    if p > 3:
        raise FitError("the quadrature oracle supports at most 3 coefficients")
    if points_per_axis < 401:
        raise FitError("the oracle grid needs at least 401 points per axis")
    if direction not in ("greater", "less"):
        raise FitError(f"direction must be 'greater' or 'less', got {direction!r}")
    prior_sd = 1.0 / np.sqrt(np.asarray(prior.precision, dtype=float))
    prior_mean = np.asarray(prior.mean, dtype=float)

    def scipy_loglik(mu_vals, y_vals):
        if family == "gaussian":
            return stats.norm.logpdf(y_vals, loc=mu_vals, scale=nuisance["sd"])
        if family == "binomial":
            return stats.bernoulli.logpmf(y_vals, mu_vals)
        if family == "poisson":
            return stats.poisson.logpmf(y_vals, mu_vals)
        phi = nuisance["dispersion"]
        return stats.nbinom.logpmf(y_vals, phi, phi / (phi + mu_vals))

    def neg_log_post(beta):
        mu = inverse_link(link, x @ beta)
        ll = scipy_loglik(mu, y).sum()
        lp = stats.norm.logpdf(beta, prior_mean, prior_sd).sum()
        value = ll + lp
        return -value if np.isfinite(value) else np.inf

    start = np.zeros(p)
    res = scipy.optimize.minimize(neg_log_post, start, method="Nelder-Mead",
                                  options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000})
    center = res.x

    hess = _fd_hessian(neg_log_post, center)
    sds = prior_sd.copy()
    try:
        eigvals = np.linalg.eigvalsh(hess)
        if np.all(eigvals > 0):
            sds = np.sqrt(np.diag(np.linalg.inv(hess)))
    except np.linalg.LinAlgError:
        pass

    axes = []
    for i in range(p):
        lo, hi = center[i] - 10.0 * sds[i], center[i] + 10.0 * sds[i]
        axis = np.linspace(lo, hi, points_per_axis)
        if i == k and lo < delta < hi:
            step = axis[1] - axis[0]
            axis = axis + (delta - lo) - round((delta - lo) / step) * step
        axes.append(axis)

    total, marginal = _grid_posterior_marginal(x, y, axes, k, prior_mean, prior_sd, scipy_loglik, link)
    if not np.isfinite(total) or total <= 0.0:
        raise FitError("quadrature grid underflow: all posterior weights are zero")

    axis_k = axes[k]
    if delta <= axis_k[0]:
        p_greater = 1.0
    elif delta >= axis_k[-1]:
        p_greater = 0.0
    else:
        idx = int(round((delta - axis_k[0]) / (axis_k[1] - axis_k[0])))
        denom = simpson(marginal, x=axis_k)
        upper = simpson(marginal[idx:], x=axis_k[idx:]) if idx <= len(axis_k) - 2 else 0.0
        p_greater = upper / denom
    prob = p_greater if direction == "greater" else 1.0 - p_greater
    return min(max(prob, _PROB_FLOOR), _PROB_CEIL)


def _fd_hessian(f, x0, rel_step: float = 1e-4) -> np.ndarray:
    """Central finite-difference Hessian of a scalar function."""
    p = len(x0)
    h = rel_step * (1.0 + np.abs(x0))
    hess = np.empty((p, p))
    f0 = f(x0)
    for i in range(p):
        ei = np.zeros(p)
        ei[i] = h[i]
        hess[i, i] = (f(x0 + ei) - 2.0 * f0 + f(x0 - ei)) / h[i] ** 2
        for j in range(i + 1, p):
            ej = np.zeros(p)
            ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                f(x0 + ei + ej) - f(x0 + ei - ej) - f(x0 - ei + ej) + f(x0 - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return hess


def _grid_posterior_marginal(x, y, axes, k, prior_mean, prior_sd, scipy_loglik, link):
    """Total posterior mass and the axis-k marginal over the tensor grid.

    The likelihood factors over distinct design rows; each row's
    contribution depends only on the axes its nonzero coefficients touch,
    so terms are precomputed on sub-grids and broadcast.  For 3-axis grids
    the combination runs in slabs along axis 0 to bound memory.
    """
    p = len(axes)
    rows, inverse = np.unique(x, axis=0, return_inverse=True)

    # log-likelihood terms per unique design row, on the sub-grid of the
    # axes that row actually involves
    terms: list[tuple[tuple[int, ...], np.ndarray]] = []
    for g in range(rows.shape[0]):
        row = rows[g]
        involved = tuple(int(j) for j in np.nonzero(row)[0])
        y_vals, y_counts = np.unique(y[inverse == g], return_counts=True)
        mesh_shape = tuple(len(axes[j]) for j in involved)
        eta = np.zeros(mesh_shape)
        for pos, j in enumerate(involved):
            shape = [1] * len(involved)
            shape[pos] = len(axes[j])
            eta = eta + row[j] * axes[j].reshape(shape)
        mu = inverse_link(link, eta)
        term = np.zeros(mesh_shape)
        for val, count in zip(y_vals, y_counts):
            term += count * scipy_loglik(mu, val)
        terms.append((involved, term))
    for j in range(p):
        lp = stats.norm.logpdf(axes[j], prior_mean[j], prior_sd[j])
        terms.append(((j,), lp))

    def broadcast(term_axes, arr, full_ndim):
        # term_axes is ascending (np.nonzero order), so a reshape suffices
        shape = [1] * full_ndim
        for pos, j in enumerate(term_axes):
            shape[j] = arr.shape[pos]
        return arr.reshape(shape)

    if p <= 2:
        logden = sum(broadcast(t_axes, arr, p) for t_axes, arr in terms)
        logden = np.broadcast_to(logden, tuple(len(a) for a in axes))
        peak = logden.max()
        weight = np.exp(logden - peak)
        total = float(weight.sum())
        marginal = weight.sum(axis=tuple(j for j in range(p) if j != k))
        return total, np.asarray(marginal, dtype=float)

    # p == 3: two passes over axis-0 slabs (max, then exp-accumulate)
    n0 = len(axes[0])
    b_terms = [(t_axes, broadcast(t_axes, arr, 3)) for t_axes, arr in terms]

    def slab(lo, hi):
        out = np.zeros((hi - lo, len(axes[1]), len(axes[2])))
        for t_axes, arr in b_terms:
            out = out + (arr[lo:hi] if 0 in t_axes else arr)
        return out

    chunk = 16
    peak = -np.inf
    for lo in range(0, n0, chunk):
        peak = max(peak, float(slab(lo, min(lo + chunk, n0)).max()))
    total = 0.0
    marginal = np.zeros(len(axes[k]))
    for lo in range(0, n0, chunk):
        hi = min(lo + chunk, n0)
        weight = np.exp(slab(lo, hi) - peak)
        total += float(weight.sum())
        if k == 0:
            marginal[lo:hi] = weight.sum(axis=(1, 2))
        elif k == 1:
            marginal += weight.sum(axis=(0, 2))
        else:
            marginal += weight.sum(axis=(0, 1))
    return total, marginal
