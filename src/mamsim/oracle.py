"""Independent quadrature oracle for posterior tail probabilities.

``quadrature_oracle_prob`` evaluates a tail probability of a small model
(at most 3 coefficients) by dense tensor-grid quadrature.  It validates the
Laplace path of :mod:`mamsim.glm` and deliberately shares no code with it:
densities come from ``scipy.stats`` and the mode from a derivative-free
``scipy.optimize`` search, not from the hand-coded likelihood.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize
from scipy import stats
from scipy.integrate import simpson

from .glm import (
    _PROB_CEIL,
    _PROB_FLOOR,
    FitError,
    PriorSpec,
    check_nuisance,
    inverse_link,
)
from .reference import DesignMatrix


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
