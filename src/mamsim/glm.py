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
priors are independent gaussians.  ``fit_laplace_batch`` fits a block of
replicates in one Newton iteration over the rows still fitting, and
``tail_probabilities`` reads the marginals' tails.  The single-dataset
reference fit it follows, ``fit_laplace``, and ``design_values`` live in
:mod:`mamsim.reference`, the per-trial reference path no run imports.

The logistic and normal-tail ufuncs, ``scipy.special.expit`` and ``ndtr``,
are bound by ``load_special`` at the first fit, link or tail, not at
import.  ``import mamsim``, design validation and the report verbs do not
import this module at all, so they load neither numpy nor scipy:
``FitError`` and ``check_nuisance`` are defined in :mod:`mamsim.config`
and bound here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FitError, check_nuisance, covariate_columns

# scipy.special's ufuncs, bound by ``load_special``
expit = ndtr = None

SCORE_TOL = 1e-8
MODE_CHANGE_TOL = 1e-10
MAX_HALVINGS = 30

_PROB_FLOOR = np.finfo(float).tiny
_PROB_CEIL = float(np.nextafter(1.0, 0.0))


def load_special() -> None:
    """Bind ``expit`` and ``ndtr`` from ``scipy.special``, once.

    ``inverse_link``, ``fit_laplace_batch`` and ``tail_probabilities`` call
    it on entry, so that no import runs inside the Newton iteration.
    ``montecarlo.run_batch`` calls it before it starts a process pool,
    whose forked processes then inherit the module instead of each
    importing it."""
    global expit, ndtr
    if ndtr is None:
        from scipy.special import expit, ndtr


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


def inverse_link(link: str, eta: np.ndarray) -> np.ndarray:
    """Map the linear predictor to the response mean."""
    load_special()
    eta = np.asarray(eta, dtype=float)
    if link == "identity":
        return eta
    if link == "logit":
        return expit(eta)
    if link == "log":
        with np.errstate(over="ignore"):
            return np.exp(eta)
    raise FitError(f"unknown link {link!r}")


def design_rows(codes, covariates, model) -> np.ndarray:
    """Model-matrix values for subjects in the arms ``codes`` (positions in
    ``model.arm_names``) with the given covariate columns.

    Columns are ordered intercept, one indicator per intervention arm
    (control as the reference level, all indicators zero), then covariates.
    """
    codes = np.asarray(codes)
    n = codes.shape[0]
    if n == 0:
        raise FitError("no subjects to build a design matrix from")
    cov_cols = covariate_columns(model)
    n_arms = len(model.arm_names)
    x = np.zeros((n, n_arms + len(cov_cols)))
    x[:, 0] = 1.0
    x[:, 1:n_arms] = codes[:, None] == np.arange(1, n_arms)
    for j, name in enumerate(cov_cols, start=n_arms):
        x[:, j] = np.asarray(covariates[name], dtype=float)
    return x


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
        # ``hessian`` fills the arrowhead's entries in place; the others stay 0
        self._hessians = np.zeros(self.shape + self.shape[1:])

    def take(self, rows):
        """The totals of the replicates at the indices ``rows``; they share
        this block's Hessian buffer."""
        part = object.__new__(ArmTotals)
        part.count, part.total = self.count.take(rows, 0), self.total.take(rows, 0)
        part.square = None if self.square is None else self.square.take(rows, 0)
        part.shape, part._hessians = part.count.shape, self._hessians
        return part

    def eta(self, beta):
        eta = beta + beta[:, :1]
        eta[:, 0] = beta[:, 0]
        return eta

    def score(self, d1):
        """X' d1: every arm feeds the intercept, arm g its own coefficient."""
        score = d1.copy()
        score[:, 0] = d1.sum(axis=1)
        return score

    def hessian(self, w):
        """X' W X, an arrowhead: the intercept row and column plus a diagonal.
        It is written into the block's buffer, which the next call
        overwrites."""
        n_rep, p = w.shape
        hess = self._hessians[:n_rep]
        flat = hess.reshape(n_rep, p * p)  # a view: the buffer is C-contiguous
        flat[:, 0] = w.sum(axis=1)
        # the intercept row and column, and the arms' diagonal
        flat[:, 1:p] = flat[:, p::p] = flat[:, p + 1 :: p + 1] = w[:, 1:]
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

    def take(self, rows):
        """The rows of the replicates at the indices ``rows``."""
        part = object.__new__(SubjectRows)
        part.x, part.xt = self.x.take(rows, 0), self.xt.take(rows, 0)
        part.total, part.count = self.total.take(rows, 0), self.count.take(rows, 0)
        part.square = self.square.take(rows, 0)
        part.shape = (part.x.shape[0], self.shape[1])
        return part

    def eta(self, beta):
        return (self.x * beta[:, None, :]).sum(axis=2)

    def score(self, d1):
        return (self.xt * d1[:, None, :]).sum(axis=2)

    def hessian(self, w):
        return np.matmul(self.xt * w[:, None, :], self.x)


def _unit_terms(family, eta, data, nuisance):
    """``reference._family_terms`` over a block: units of ``count`` subjects that share
    a linear predictor, with response sums ``total`` (and ``square``).

    Returns the log-likelihood of each replicate (summed over its units, up
    to data-only constants) and d ll / d eta and w per unit.
    """
    c, s = data.count, data.total
    if family == "gaussian":
        sigma2 = nuisance["sd"] ** 2
        ce = c * eta
        units = -0.5 * (data.square - 2.0 * eta * s + ce * eta) / sigma2
        return units.sum(axis=1), (s - ce) / sigma2, c / sigma2
    if family == "binomial":
        mu = expit(eta)
        units = s * eta - c * np.logaddexp(0.0, eta)
        cmu = c * mu
        return units.sum(axis=1), s - cmu, cmu * (1.0 - mu)
    if family == "poisson":
        cmu = c * np.exp(eta)
        return (s * eta - cmu).sum(axis=1), s - cmu, cmu
    if family == "nbinomial":
        phi = nuisance["dispersion"]
        mu = np.exp(eta)
        a, shifted = s + c * phi, phi + mu
        units = s * eta - a * np.log(shifted)
        return units.sum(axis=1), s - a * mu / shifted, a * phi * mu / shifted**2
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


def _all_finite(a) -> bool:
    """``np.isfinite(a).all()``, counted rather than reduced: one call less."""
    return np.count_nonzero(np.isfinite(a)) == a.size


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
    """``mamsim.reference.fit_laplace`` for every replicate of a block, in
    one Newton iteration.

    Each replicate follows ``fit_laplace``: a zero start, the same score and
    mode-change tolerances, up to 30 step halvings and the same iteration
    cap.  A replicate leaves the Newton iteration when it converges or
    stops: when its line search fails, when its Hessian cannot be
    factorised, or at the cap, the last three non-converged.  The block
    iterates only the rows still fitting, and a row's result is kept as
    it leaves.  Each of those rows evaluates its full step once; only the
    rows that reject it go on to the halvings.  A non-finite Hessian or
    score of an iterating replicate raises ``FitError``.

    Every operation acts elementwise, on one replicate's row, or on one
    replicate's slice of a stack (``np.linalg.solve`` and ``np.matmul``
    slice by slice), never on a product across replicates, so a replicate's
    fit is bit-identical whatever else is in the block.
    """
    load_special()
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

    def posterior_terms(data, beta):
        """The log posterior, d ll / d eta and w per unit, and the prior's
        gradient, which the next score reuses."""
        ll, d1, w = _unit_terms(family, data.eta(beta), data, nuisance)
        diff = beta - pm
        return ll - 0.5 * (tau * diff**2).sum(axis=1), d1, w, tau * diff

    def neg_hessian(data, w):
        hess = data.hessian(w)  # C-contiguous, so the flat rows are a view
        hess.reshape(len(hess), p * p)[:, :: p + 1] += tau  # the diagonal
        return hess

    beta = np.zeros((n_rep, p))
    lp, d1, w, grad = posterior_terms(data, beta)
    if not np.isfinite(lp).all():
        raise FitError("log posterior is not finite at the starting point")

    # the block's results: a row's flags are set as it leaves the iteration,
    # its mode and weights when it is dropped from the iterating rows
    mode, unit_w = beta.copy(), w.copy()
    converged = np.zeros(n_rep, dtype=bool)
    iterations = np.zeros(n_rep, dtype=int)

    # ``rows`` are the block rows still iterating; ``part`` and the state
    # (``beta``, ``lp``, ``d1``, ``w``, ``grad`` and ``score``) hold theirs
    # only.  ``leave`` marks those that left at the last iteration's step;
    # one index drops them together with those whose score vanishes, and
    # the loop ends as soon as the last row has left
    rows, part = np.arange(n_rep), data
    leave = np.zeros(n_rep, dtype=bool)
    score = part.score(d1) - grad
    for it in range(1, max_iterations + 1):
        # max |score| < SCORE_TOL, row by row (NaN fails both)
        done = (np.abs(score) < SCORE_TOL).all(axis=1) & ~leave
        if np.count_nonzero(done):
            converged[rows[done]], iterations[rows[done]] = True, it
            leave |= done
        if np.count_nonzero(leave):
            gone, keep = leave.nonzero()[0], (~leave).nonzero()[0]
            mode[rows[gone]], unit_w[rows[gone]] = beta.take(gone, 0), w.take(gone, 0)
            rows, lp, part = rows[keep], lp[keep], part.take(keep)
            beta, d1, w, grad, score = (a.take(keep, 0) for a in (beta, d1, w, grad, score))
            if not rows.size:
                break
        hess = neg_hessian(part, w)
        if not (_all_finite(hess) and _all_finite(score)):
            raise FitError("array must not contain infs or NaNs")
        step = _solve_each(hess, score[:, :, None])[:, :, 0]
        stop = None
        if not _all_finite(step):
            stop = ~np.isfinite(step).all(axis=1)  # singular: stop, not converged
            step[stop] = 0.0

        # the full step; rows that reject it halve it, from the same start
        floor = lp - 1e-12 * (1.0 + np.abs(lp))
        cand = beta + step
        lp_cand, d1_cand, w_cand, grad_cand = posterior_terms(part, cand)
        ok = np.isfinite(lp_cand) & (lp_cand >= floor)
        if np.count_nonzero(ok) < ok.size:
            pending = (~ok).nonzero()[0]
            halving = part.take(pending)
            scale = np.full(pending.size, 0.5)
            for _ in range(MAX_HALVINGS):
                trial = beta[pending] + scale[:, None] * step[pending]
                lp_t, d1_t, w_t, grad_t = posterior_terms(halving, trial)
                found = np.isfinite(lp_t) & (lp_t >= floor[pending])
                index = pending[found]
                cand[index], lp_cand[index] = trial[found], lp_t[found]
                d1_cand[index], w_cand[index] = d1_t[found], w_t[found]
                grad_cand[index] = grad_t[found]
                ok[index] = True
                lost = (~found).nonzero()[0]
                pending, halving, scale = pending[lost], halving.take(lost), scale[lost]
                if not pending.size:
                    break
                scale *= 0.5
            else:
                # no acceptable step: stop, not converged, at the last iterate
                cand[pending], lp_cand[pending] = beta[pending], lp[pending]
                d1_cand[pending], w_cand[pending] = d1[pending], w[pending]
                grad_cand[pending] = grad[pending]
                stop = ~ok if stop is None else stop | ~ok
        # max |cand - beta| / max(1, max |beta|) < MODE_CHANGE_TOL, row by
        # row: division by a positive number keeps the order of the
        # numerators, so the largest ratio is the ratio of the largest
        norm = np.maximum(1.0, np.abs(beta).max(axis=1))
        leave = (np.abs(cand - beta) / norm[:, None] < MODE_CHANGE_TOL).all(axis=1)
        beta, lp, d1, w, grad = cand, lp_cand, d1_cand, w_cand, grad_cand
        if stop is not None:
            leave &= ~stop
        if np.count_nonzero(leave):
            converged[rows[leave]], iterations[rows[leave]] = True, it
        if stop is not None:
            iterations[rows[stop]] = it
            leave |= stop
        if np.count_nonzero(leave) == leave.size:
            break
        score = part.score(d1) - grad  # the next iteration's
    else:
        iterations[rows[~leave]] = max_iterations  # the iteration cap
    mode[rows], unit_w[rows] = beta, w  # the rows not dropped

    hess = neg_hessian(data, unit_w)
    if not _all_finite(hess):
        raise FitError("array must not contain infs or NaNs")
    cov = _solve_each(hess, np.broadcast_to(np.eye(p), hess.shape))
    var = np.diagonal(cov, axis1=1, axis2=2)
    converged &= np.isfinite(var).all(axis=1)
    return BatchFit(
        mode=mode,
        marginal_sd=np.sqrt(np.clip(var, 0.0, None)),
        converged=converged,
        iterations=iterations,
    )


def tail_probabilities(mean, sd, delta, greater) -> np.ndarray:
    """Tail probabilities of gaussian marginals, with broadcasting.

    P(beta > delta) where ``greater`` is true, P(beta < delta) elsewhere,
    for beta with the given ``mean`` and ``sd``; clamped to the open
    interval (0, 1), and NaN where ``delta`` is NaN.
    """
    load_special()
    z = (delta - mean) / sd
    return np.clip(ndtr(np.where(greater, -z, z)), _PROB_FLOOR, _PROB_CEIL)


# Tracing-only binding, like ``engine.substream``: benchmark/tracing.py and
# benchmark/micro.py look these reference names up on ``glm``.  It goes when
# the benchmark hooks what runs and names ``mamsim.reference`` instead.
_REFERENCE_NAMES = ("build_design_matrix", "design_values", "fit_laplace", "marginal_posterior_prob")


def __getattr__(name):
    if name in _REFERENCE_NAMES:
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
