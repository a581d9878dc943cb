"""Laplace fit correctness against closed forms and the quadrature oracle."""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit, ndtr
from scipy import stats

from mamsim import glm, reference
from mamsim.glm import FitError, PriorSpec, default_prior
from mamsim.reference import (
    NonConvergedError,
    build_design_matrix,
    fit_laplace,
    marginal_posterior_prob,
)

from quadrature_oracle import quadrature_oracle_prob
from trial_designs import count_dose_design, validated


def conjugate_posterior(x, y, sigma, prior):
    """Closed-form gaussian posterior for a gaussian likelihood, known sd."""
    precision = np.diag(prior.precision) + x.T @ x / sigma**2
    cov = np.linalg.inv(precision)
    mean = cov @ (prior.precision * prior.mean + x.T @ y / sigma**2)
    return mean, cov


class TestDesignMatrix:
    def setup_method(self):
        self.model = validated(count_dose_design()).spec.model

    def test_one_subject_per_arm(self):
        data = SimpleNamespace(
            arm=np.array(["control", "A", "B", "C"]),
            covariates={},
            response=np.zeros(4),
        )
        design, _ = build_design_matrix(data, self.model)
        assert design.columns == ("intercept", "A", "B", "C")
        expected = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]]
        assert np.array_equal(design.values, np.array(expected, dtype=float))

    def test_all_control_rows(self):
        data = SimpleNamespace(
            arm=np.array(["control"] * 5), covariates={}, response=np.zeros(5)
        )
        design, _ = build_design_matrix(data, self.model)
        assert np.all(design.values[:, 1:] == 0)

    def test_truth_mean_for_highest_dose(self):
        # dummy coding: arm C mean = exp(log 4 + log 0.4) = 1.6
        beta = np.array(validated(count_dose_design()).spec.beta_true)
        row = np.array([1.0, 0.0, 0.0, 1.0])
        assert math.exp(row @ beta) == pytest.approx(1.6)

    def test_rows_from_codes_match_rows_from_labels(self):
        codes = np.array([3, 0, 1, 2, 0, 3])
        labels = np.array(self.model.arm_names, dtype=object)[codes]
        rows = glm.design_rows(codes, {}, self.model)
        assert np.array_equal(rows, reference.design_values(labels, {}, self.model))
        expected = [
            [1, 0, 0, 1], [1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 0], [1, 0, 0, 1],
        ]
        assert np.array_equal(rows, np.array(expected, dtype=float))

    def test_unknown_arm_label(self):
        data = SimpleNamespace(arm=np.array(["Z"]), covariates={}, response=np.zeros(1))
        with pytest.raises(FitError, match="Z"):
            build_design_matrix(data, self.model)


class TestGaussianExactness:
    def test_intercept_only_reference_values(self):
        fit = fit_laplace(np.ones((3, 1)), [1.0, 2.0, 3.0], "gaussian", "identity", {"sd": 1.0})
        assert fit.converged
        assert fit.marginal_mean[0] == pytest.approx(6.0 / 3.001, abs=1e-10)
        assert fit.marginal_sd[0] == pytest.approx(1.0 / math.sqrt(3.001), abs=1e-10)

    def test_matches_conjugate_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(5, 200))
            p = int(rng.integers(1, 5))
            x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
            sigma = float(rng.uniform(0.5, 3.0))
            y = rng.normal(size=n) * sigma
            prior = PriorSpec(rng.normal(size=p), rng.uniform(0.001, 1.0, p))
            fit = fit_laplace(x, y, "gaussian", "identity", {"sd": sigma}, prior)
            mean, cov = conjugate_posterior(x, y, sigma, prior)
            np.testing.assert_allclose(fit.marginal_mean, mean, atol=1e-8)
            np.testing.assert_allclose(fit.marginal_sd, np.sqrt(np.diag(cov)), atol=1e-8)
            delta = float(rng.normal())
            k = int(rng.integers(0, p))
            want = float(ndtr(-(delta - mean[k]) / math.sqrt(cov[k, k])))
            got = marginal_posterior_prob(fit, k, delta, "greater")
            assert got == pytest.approx(want, abs=1e-8)


class TestFitBehaviour:
    def test_separation_regularised_by_prior(self):
        fit = fit_laplace(np.ones((20, 1)), np.zeros(20), "binomial", "logit", {})
        assert fit.converged
        assert fit.mode[0] < -5.0

    def test_empty_arm_column_keeps_prior(self):
        # no subject ever assigned to the second arm: its coefficient's
        # posterior reduces to the prior
        x = np.column_stack([np.ones(30), np.zeros(30)])
        y = np.random.default_rng(0).poisson(2.0, 30).astype(float)
        fit = fit_laplace(x, y, "poisson", "log", {})
        assert fit.converged
        assert fit.marginal_mean[1] == pytest.approx(0.0, abs=1e-6)
        assert fit.marginal_sd[1] == pytest.approx(1.0 / math.sqrt(0.001), rel=1e-6)

    def test_covariance_symmetric(self):
        rng = np.random.default_rng(3)
        x = np.column_stack([np.ones(50), rng.binomial(1, 0.5, 50)])
        y = rng.binomial(1, 0.4, 50).astype(float)
        fit = fit_laplace(x, y, "binomial", "logit", {})
        assert np.max(np.abs(fit.covariance - fit.covariance.T)) < 1e-10

    def test_duplicating_data_shrinks_sd(self):
        rng = np.random.default_rng(9)
        x = np.column_stack([np.ones(60), rng.binomial(1, 0.5, 60)])
        y = rng.binomial(1, 0.45, 60).astype(float)
        fit1 = fit_laplace(x, y, "binomial", "logit", {})
        fit2 = fit_laplace(np.vstack([x, x]), np.r_[y, y], "binomial", "logit", {})
        assert np.all(fit2.marginal_sd < fit1.marginal_sd)

    def test_iteration_cap_reports_non_convergence(self):
        rng = np.random.default_rng(4)
        x = np.column_stack([np.ones(80), rng.binomial(1, 0.5, 80)])
        y = rng.binomial(1, 0.3, 80).astype(float)
        fit = fit_laplace(x, y, "binomial", "logit", {}, max_iterations=1)
        assert not fit.converged
        with pytest.raises(NonConvergedError):
            marginal_posterior_prob(fit, 0, 0.0, "greater")

    def test_dimension_mismatch(self):
        with pytest.raises(FitError, match="design rows"):
            fit_laplace(np.ones((4, 1)), np.zeros(3), "gaussian", "identity", {"sd": 1})

    def test_invalid_nuisance(self):
        with pytest.raises(FitError, match="dispersion"):
            fit_laplace(np.ones((4, 1)), np.zeros(4), "nbinomial", "log", {"dispersion": 0.0})


class TestCholeskyFailure:
    """A Hessian that is not positive definite, or not finite."""

    def setup_method(self):
        rng = np.random.default_rng(21)
        self.x = np.column_stack([np.ones(80), rng.binomial(1, 0.5, 80)])
        self.y = rng.binomial(1, 0.4, 80).astype(float)
        self.real_cholesky = reference._cholesky

    def fit(self):
        return fit_laplace(self.x, self.y, "binomial", "logit", {})

    def fail_on_calls(self, monkeypatch, failing):
        """Make the listed (1-based) factorisations report info > 0."""
        calls = []

        def patched(a):
            calls.append(a.copy())
            chol, info = self.real_cholesky(a)
            return (chol, 1) if len(calls) in failing else (chol, info)

        monkeypatch.setattr(reference, "_cholesky", patched)
        return calls

    def test_failure_inside_the_loop_stops_iterating(self, monkeypatch):
        self.fail_on_calls(monkeypatch, {1})
        fit = self.fit()
        assert fit.iterations == 1
        assert not fit.converged
        assert np.array_equal(fit.mode, np.zeros(2))

    def test_failure_at_the_final_hessian_gives_pinv_covariance(self, monkeypatch):
        reference = self.fit()
        assert reference.converged
        calls = self.fail_on_calls(monkeypatch, set())
        self.fit()
        n_calls = len(calls)
        calls = self.fail_on_calls(monkeypatch, {n_calls})
        fit = self.fit()
        assert len(calls) == n_calls
        assert not fit.converged
        assert np.array_equal(fit.mode, reference.mode)
        assert np.isnan(fit.log_det_precision)
        pinv = np.linalg.pinv(calls[-1])
        np.testing.assert_array_equal(fit.covariance, 0.5 * (pinv + pinv.T))

    def test_non_finite_hessian_raises_value_error(self, monkeypatch):
        real = reference._family_terms

        def nan_weights(family, eta, y, nuisance):
            ll, d1, w = real(family, eta, y, nuisance)
            return ll, d1, np.full_like(w, np.nan)

        monkeypatch.setattr(reference, "_family_terms", nan_weights)
        with pytest.raises(ValueError, match="infs or NaNs") as info:
            self.fit()
        assert not isinstance(info.value, FitError)


class TestHessianAgainstFiniteDifferences:
    """The analytic curvature must match central differences of the score."""

    @pytest.mark.parametrize(
        "family,link,nuisance,make_y",
        [
            ("gaussian", "identity", {"sd": 1.7}, lambda rng, mu: rng.normal(mu, 1.7)),
            ("binomial", "logit", {}, lambda rng, mu: rng.binomial(1, mu).astype(float)),
            ("poisson", "log", {}, lambda rng, mu: rng.poisson(mu).astype(float)),
            (
                "nbinomial",
                "log",
                {"dispersion": 0.7},
                lambda rng, mu: rng.poisson(rng.gamma(0.7, mu / 0.7)).astype(float),
            ),
        ],
    )
    def test_analytic_matches_numeric(self, family, link, nuisance, make_y):
        rng = np.random.default_rng(11)
        x = np.column_stack([np.ones(120), rng.binomial(1, 0.5, 120), rng.normal(0, 0.3, 120)])
        beta_true = np.array([0.2 if link != "log" else 0.8, 0.4, -0.3])
        mu = glm.inverse_link(link, x @ beta_true)
        y = make_y(rng, mu)
        fit = fit_laplace(x, y, family, link, nuisance)
        assert fit.converged
        prior = default_prior(3)

        def score(beta):
            _, d1, _ = reference._family_terms(family, x @ beta, y, nuisance)
            return x.T @ d1 - prior.precision * (beta - prior.mean)

        h = 1e-6
        numeric = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            numeric[:, j] = (score(fit.mode + e) - score(fit.mode - e)) / (2 * h)
        _, _, w = reference._family_terms(family, x @ fit.mode, y, nuisance)
        analytic = -((x.T * w) @ x + np.diag(prior.precision))
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


class TestMarginalProbability:
    def test_half_at_the_mode(self):
        fit = fit_laplace(np.ones((10, 1)), np.arange(10.0), "gaussian", "identity", {"sd": 2.0})
        mode = float(fit.marginal_mean[0])
        assert marginal_posterior_prob(fit, 0, mode, "greater") == pytest.approx(0.5)
        assert marginal_posterior_prob(fit, 0, mode, "less") == pytest.approx(0.5)

    def test_directions_are_complements(self):
        fit = fit_laplace(np.ones((10, 1)), np.arange(10.0), "gaussian", "identity", {"sd": 2.0})
        for delta in (-1.0, 0.3, 7.7):
            up = marginal_posterior_prob(fit, 0, delta, "greater")
            down = marginal_posterior_prob(fit, 0, delta, "less")
            assert up + down == pytest.approx(1.0, abs=1e-12)

    def test_reference_tail_value(self):
        # mean 1.0, sd 0.5, delta 0, greater: 1 - Phi(-2) ~ 0.97725
        fit = fit_laplace(np.ones((1, 1)), [0.0], "gaussian", "identity", {"sd": 1.0})
        fit.marginal_mean = np.array([1.0])
        fit.marginal_sd = np.array([0.5])
        got = marginal_posterior_prob(fit, 0, 0.0, "greater")
        assert got == pytest.approx(1.0 - stats.norm.cdf(-2.0), abs=1e-10)
        assert got == pytest.approx(0.97725, abs=5e-6)

    def test_strictly_decreasing_in_delta(self):
        # float64 gaussian tails saturate beyond |z| ~ 8; test inside that
        fit = fit_laplace(np.ones((10, 1)), np.arange(10.0), "gaussian", "identity", {"sd": 2.0})
        mean, sd = fit.marginal_mean[0], fit.marginal_sd[0]
        deltas = np.linspace(mean - 7 * sd, mean + 7 * sd, 40)
        probs = [marginal_posterior_prob(fit, 0, d, "greater") for d in deltas]
        assert all(a > b for a, b in zip(probs, probs[1:]))


class TestQuadratureOracle:
    def test_gaussian_conjugate_within_1e6(self):
        x = np.ones((3, 1))
        y = np.array([1.0, 2.0, 3.0])
        prior = default_prior(1)
        mean, cov = conjugate_posterior(x, y, 1.0, prior)
        for delta in (0.5, 1.9993, 3.0):
            want = float(ndtr(-(delta - mean[0]) / math.sqrt(cov[0, 0])))
            got = quadrature_oracle_prob(
                x, y, "gaussian", "identity", {"sd": 1.0}, prior, 0, delta, "greater"
            )
            assert got == pytest.approx(want, abs=1e-6)

    def test_binomial_exact_beta_posterior(self):
        # with an essentially flat prior the intercept posterior transforms
        # to Beta(s, n-s) on the probability scale
        n, s = 60, 21
        x = np.ones((n, 1))
        y = np.r_[np.ones(s), np.zeros(n - s)]
        prior = PriorSpec(np.zeros(1), np.full(1, 1e-8))
        for delta in (-0.9, -0.5, 0.0):
            got = quadrature_oracle_prob(x, y, "binomial", "logit", {}, prior, 0, delta, "greater")
            want = 1.0 - stats.beta.cdf(expit(delta), s, n - s)
            assert got == pytest.approx(want, abs=1e-6)

    def test_two_arm_null_odds_ratio_agreement(self):
        rng = np.random.default_rng(60)
        x = np.column_stack([np.ones(60), np.repeat([0.0, 1.0], 30)])
        y = rng.binomial(1, 0.5, 60).astype(float)
        prior = default_prior(2)
        fit = fit_laplace(x, y, "binomial", "logit", {}, prior)
        for delta in (0.0, 0.4):
            lap = marginal_posterior_prob(fit, 1, delta, "greater")
            orc = quadrature_oracle_prob(x, y, "binomial", "logit", {}, prior, 1, delta, "greater")
            assert abs(lap - orc) < 5e-3

    def test_poisson_all_zero_counts(self):
        x = np.ones((3, 1))
        y = np.zeros(3)
        prior = default_prior(1)
        got = quadrature_oracle_prob(x, y, "poisson", "log", {}, prior, 0, 0.0, "less")
        assert got > 0.5

    def test_oracle_rejects_large_models(self):
        with pytest.raises(FitError, match="at most 3"):
            quadrature_oracle_prob(
                np.ones((5, 4)), np.zeros(5), "gaussian", "identity", {"sd": 1},
                default_prior(4), 0, 0.0, "greater",
            )


def _fit_case(family, n, beta_true, seed, nuisance=None, prior=None, max_iterations=100):
    """Seeded dataset: intercept, arm indicators, then one normal covariate."""
    rng = np.random.default_rng(seed)
    n_arms = len(beta_true) - 1
    arm = rng.integers(0, n_arms, n)
    x = np.zeros((n, len(beta_true)))
    x[:, 0] = 1.0
    for j in range(1, n_arms):
        x[:, j] = arm == j
    x[:, -1] = rng.normal(0.0, 0.5, n)
    link = {"gaussian": "identity", "binomial": "logit"}.get(family, "log")
    mu = glm.inverse_link(link, x @ np.asarray(beta_true))
    if family == "gaussian":
        y = rng.normal(mu, nuisance["sd"])
    elif family == "binomial":
        y = rng.binomial(1, mu)
    elif family == "poisson":
        y = rng.poisson(mu)
    else:
        phi = nuisance["dispersion"]
        y = rng.poisson(rng.gamma(phi, mu / phi))
    return (x, y.astype(float), family, link, nuisance or {}, prior), max_iterations


FIT_CASES = {
    "gaussian": _fit_case("gaussian", 120, [0.3, 0.5, -0.2, 0.4], 101, {"sd": 1.5}),
    "binomial": _fit_case("binomial", 216, [-0.4, 0.3, 0.6, -0.2, 0.1, 0.5], 102),
    # large counts: the first Newton steps overshoot and need halving
    "poisson": _fit_case("poisson", 150, [3.0, 0.2, -0.3, 0.4], 103),
    "nbinomial": _fit_case("nbinomial", 260, [1.4, -0.3, 0.2, 0.3], 104, {"dispersion": 2.0}),
    "binomial_informative_prior": _fit_case(
        "binomial", 90, [0.2, 0.8, -0.5, 0.3], 105,
        prior=PriorSpec(np.array([0.1, 0.5, -0.2, 0.0]), np.array([0.5, 2.0, 1.0, 0.25])),
    ),
    "poisson_iteration_cap": _fit_case("poisson", 150, [3.0, 0.2, -0.3, 0.4], 103, max_iterations=3),
}

# Recorded once, with the fit that factored through scipy.linalg's
# cho_factor/cho_solve, and never edited: a change to fit_laplace that keeps
# every float keeps these hashes.  The poisson cases take step halvings.
FIT_GOLDEN = {
    "binomial": "4b63aed51421565706725a220ce8d4047165636a9ec688299605ae5a30c6a28c",
    "binomial_informative_prior": "99934917a18d3db58544bb9900da776e182924431c0958a3a24bc4d129f3b146",
    "gaussian": "73606471293f6aaa84929c67b13d20da3f18002fe3a3ee188709019a93b0ecca",
    "nbinomial": "611a8ce7b92261e8861259a02af2d184e0943b5581673bfb40c280bff72cb4d7",
    "poisson": "e9230fd484959d2c990fd52ec489d89517bdd9ce529b1db3865711fb14a7e4e2",
    "poisson_iteration_cap": "f118a328d801e8debaa31b7b1ea2839c49e2789edd7dc5f9545882d49167053f",
}


def _fit_digest(fit):
    h = hashlib.sha256()
    for array in (fit.mode, fit.covariance, fit.marginal_sd):
        h.update(np.ascontiguousarray(array, dtype=float).tobytes())
    h.update(repr((fit.iterations, fit.converged)).encode())
    h.update(np.float64(fit.log_det_precision).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(FIT_CASES))
def test_fit_matches_golden_hash(name):
    args, max_iterations = FIT_CASES[name]
    fit = fit_laplace(*args, max_iterations=max_iterations)
    assert _fit_digest(fit) == FIT_GOLDEN[name]


# --------------------------------------------------------------------------
# batched fits
# --------------------------------------------------------------------------


def _arm_only(args):
    """A fit case without its covariate column, as arm codes and rows."""
    x, y, family, link, nuisance, prior = args
    x = x[:, :-1]
    if prior is not None:
        prior = PriorSpec(prior.mean[:-1], prior.precision[:-1])
    codes = np.where(x[:, 1:].any(axis=1), x[:, 1:].argmax(axis=1) + 1, 0)
    return codes, (x, y, family, link, nuisance, prior)


def _arm_totals(codes, y, n_arms):
    def by_arm(weights=None):
        return np.bincount(codes, weights=weights, minlength=n_arms)[None]

    return glm.ArmTotals(by_arm(), by_arm(y), by_arm(y * y))


def _batch_fit(data, args, max_iterations):
    _, _, family, _, nuisance, prior = args
    return glm.fit_laplace_batch(data, family, nuisance, prior, max_iterations)


def _assert_same_fit(batch, ref):
    assert batch.iterations.tolist() == [ref.iterations]
    assert batch.converged.tolist() == [ref.converged]
    np.testing.assert_allclose(batch.mode[0], ref.mode, rtol=0, atol=1e-10)
    np.testing.assert_allclose(batch.marginal_sd[0], ref.marginal_sd, rtol=0, atol=1e-10)


@pytest.mark.parametrize("name", sorted(FIT_CASES))
def test_batch_fit_on_subject_rows_matches_fit_laplace(name):
    # covariate column included: the per-subject path
    args, max_iterations = FIT_CASES[name]
    x, y = args[0], args[1]
    batch = _batch_fit(glm.SubjectRows(x[None], y[None]), args, max_iterations)
    _assert_same_fit(batch, fit_laplace(*args, max_iterations=max_iterations))


@pytest.mark.parametrize("name", sorted(FIT_CASES))
def test_batch_fit_on_arm_totals_matches_fit_laplace(name):
    codes, args = _arm_only(FIT_CASES[name][0])
    max_iterations = FIT_CASES[name][1]
    x, y = args[0], args[1]
    batch = _batch_fit(_arm_totals(codes, y, x.shape[1]), args, max_iterations)
    _assert_same_fit(batch, fit_laplace(*args, max_iterations=max_iterations))


def test_batch_fit_takes_step_halvings(monkeypatch):
    # the poisson case overshoots from the zero start: more likelihood
    # evaluations than one per iteration plus the start mean halved steps
    args, _ = FIT_CASES["poisson"]
    x, y, family, _, nuisance, prior = args
    real = glm._unit_terms
    calls = []

    def counted(*a):
        calls.append(1)
        return real(*a)

    monkeypatch.setattr(glm, "_unit_terms", counted)
    fit = glm.fit_laplace_batch(glm.SubjectRows(x[None], y[None]), family, nuisance, prior)
    assert fit.converged[0]
    assert len(calls) > 1 + fit.iterations[0]


def test_batch_iteration_cap_reports_non_convergence():
    rng = np.random.default_rng(4)
    x = np.column_stack([np.ones(80), rng.binomial(1, 0.5, 80)])
    y = rng.binomial(1, 0.3, 80).astype(float)
    ref = fit_laplace(x, y, "binomial", "logit", {}, max_iterations=1)
    codes = x[:, 1].astype(int)
    for data in (glm.SubjectRows(x[None], y[None]), _arm_totals(codes, y, 2)):
        batch = glm.fit_laplace_batch(data, "binomial", {}, max_iterations=1)
        assert not ref.converged and batch.converged.tolist() == [False]
        assert batch.iterations.tolist() == [1]


def _mixed_arm_block(n_arms=9, replicates=6):
    """Poisson arm totals: varied sizes and rates, one with large counts."""
    rng = np.random.default_rng(77)
    count = rng.integers(0, 40, (replicates, n_arms)).astype(float)
    rate = rng.uniform(0.5, 4.0, (replicates, n_arms))
    rate[2] *= 30.0
    total = rng.poisson(count * rate).astype(float)
    return count, total


def _rows(fit):
    return [
        (m.tobytes(), s.tobytes(), bool(c), int(i))
        for m, s, c, i in zip(fit.mode, fit.marginal_sd, fit.converged, fit.iterations)
    ]


@pytest.mark.parametrize("kind", ["arm_totals", "subject_rows"])
def test_batch_fit_is_bit_identical_whatever_the_block(kind):
    if kind == "arm_totals":
        count, total = _mixed_arm_block()

        def block(rows):
            return glm.ArmTotals(count[rows], total[rows])

        family, n_rep = "poisson", count.shape[0]
    else:
        rng = np.random.default_rng(5)
        x = np.concatenate(
            [np.ones((7, 90, 1)), rng.binomial(1, 0.5, (7, 90, 2)), rng.normal(size=(7, 90, 1))],
            axis=2,
        )
        y = rng.binomial(1, 0.4, (7, 90)).astype(float)

        def block(rows):
            return glm.SubjectRows(x[rows], y[rows])

        family, n_rep = "binomial", x.shape[0]
    rows = np.arange(n_rep)
    whole = _rows(glm.fit_laplace_batch(block(rows), family, {}))
    singles = [_rows(glm.fit_laplace_batch(block([r]), family, {}))[0] for r in rows]
    reverse = _rows(glm.fit_laplace_batch(block(rows[::-1]), family, {}))[::-1]
    assert whole == singles == reverse


@st.composite
def _arm_totals_blocks(draw):
    """Arm totals of a block of 1-6 replicates with 2-7 arms, of any family:
    empty arms, binomial arms with no responder or only responders, and
    poisson and negative binomial rates up to 60 (poisson fits of such
    rates overshoot from the zero start and halve their steps)."""
    family = draw(st.sampled_from(["gaussian", "binomial", "poisson", "nbinomial"]))
    shape = draw(st.integers(1, 6)), draw(st.integers(2, 7))
    count = np.array(draw(st.lists(
        st.integers(0, 30), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    )), dtype=float).reshape(shape)
    share = draw(st.lists(
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        min_size=count.size, max_size=count.size,
    ))
    share = np.array(share).reshape(shape)
    nuisance = {}
    if family == "binomial":
        total = np.round(share * count)
    elif family == "gaussian":
        nuisance["sd"] = draw(st.floats(0.5, 3.0))
        mean, spread = 10.0 * share - 5.0, draw(st.floats(0.0, 4.0))
        return glm.ArmTotals(count, count * mean, count * (mean * mean + spread)), family, nuisance
    else:
        total = np.round(60.0 * share * count)
        if family == "nbinomial":
            nuisance["dispersion"] = draw(st.floats(0.2, 5.0))
    return glm.ArmTotals(count, total), family, nuisance


@settings(max_examples=150, deadline=None)
@given(block=_arm_totals_blocks())
def test_batch_fit_bytes_do_not_depend_on_the_block(block):
    data, family, nuisance = block
    rows = np.arange(data.shape[0])
    whole = _rows(glm.fit_laplace_batch(data, family, nuisance))
    singles = [_rows(glm.fit_laplace_batch(data.take([r]), family, nuisance))[0] for r in rows]
    reverse = _rows(glm.fit_laplace_batch(data.take(rows[::-1]), family, nuisance))[::-1]
    assert whole == singles == reverse


def test_singular_hessian_stops_only_its_replicate(monkeypatch):
    count, total = _mixed_arm_block(n_arms=4, replicates=3)
    real_hessian = glm.ArmTotals.hessian
    tau = default_prior(4).precision

    def hessian(self, w):
        hess = real_hessian(self, w)
        if hess.shape[0] == 3:
            hess[1] = -np.diag(tau)  # zero once the prior is added
        return hess

    alone = _rows(glm.fit_laplace_batch(glm.ArmTotals(count, total), "poisson", {}))
    monkeypatch.setattr(glm.ArmTotals, "hessian", hessian)
    fit = glm.fit_laplace_batch(glm.ArmTotals(count, total), "poisson", {})
    assert fit.converged.tolist() == [True, False, True]
    assert fit.iterations[1] == 1
    assert np.array_equal(fit.mode[1], np.zeros(4))
    assert np.isnan(fit.marginal_sd[1]).all()
    got = _rows(fit)
    assert got[0] == alone[0] and got[2] == alone[2]


def test_failed_line_search_stops_only_its_replicate(monkeypatch):
    count, total = _mixed_arm_block(n_arms=4, replicates=3)
    alone = _rows(glm.fit_laplace_batch(glm.ArmTotals(count, total), "poisson", {}))
    real = glm._unit_terms

    def no_ascent(family, eta, data, nuisance):
        ll, d1, w = real(family, eta, data, nuisance)
        # replicate 1 (told by its totals) has no finite likelihood off the start
        lost = (data.total == total[1]).all(axis=1) & (eta != 0.0).any(axis=1)
        return np.where(lost, -np.inf, ll), d1, w

    monkeypatch.setattr(glm, "_unit_terms", no_ascent)
    fit = glm.fit_laplace_batch(glm.ArmTotals(count, total), "poisson", {})
    assert fit.converged.tolist() == [True, False, True]
    assert fit.iterations[1] == 1
    assert np.array_equal(fit.mode[1], np.zeros(4))
    assert np.isfinite(fit.marginal_sd[1]).all()  # from the Hessian at the start
    got = _rows(fit)
    assert got[0] == alone[0] and got[2] == alone[2]

def test_batch_non_finite_hessian_raises_value_error(monkeypatch):
    count, total = _mixed_arm_block(n_arms=3, replicates=3)
    real = glm._unit_terms

    def nan_weights(family, eta, data, nuisance):
        ll, d1, w = real(family, eta, data, nuisance)
        return ll, d1, np.full_like(w, np.nan)

    monkeypatch.setattr(glm, "_unit_terms", nan_weights)
    with pytest.raises(ValueError, match="infs or NaNs") as info:
        glm.fit_laplace_batch(glm.ArmTotals(count, total), "poisson", {})
    assert isinstance(info.value, FitError)  # a named error, which the CLI reports


def test_gaussian_arm_totals_need_squares():
    with pytest.raises(FitError, match="squared"):
        glm.fit_laplace_batch(glm.ArmTotals([[3, 4]], [[1.0, 2.0]]), "gaussian", {"sd": 1})


def _six_arm_totals(rng):
    """Six-arm binomial totals, some arms without a responder."""
    count = rng.integers(3, 40, (40, 6)).astype(float)
    total = rng.binomial(count.astype(int), rng.uniform(0.05, 0.6, (40, 6))).astype(float)
    return glm.ArmTotals(count, total)


def _six_arm_edge_totals(rng):
    """A 256-row six-arm binomial block with rates across (0, 1): many
    arms with no responder or only responders, the rows that iterate
    longest."""
    count = rng.integers(1, 40, (256, 6)).astype(float)
    total = rng.binomial(count.astype(int), rng.uniform(0.0, 1.0, (256, 6))).astype(float)
    return glm.ArmTotals(count, total)


def _count_totals(rng, phi=0.5):
    """Four-arm negative binomial totals: a sum of c draws of dispersion phi
    is one draw of dispersion c * phi."""
    count = rng.integers(5, 70, (40, 4)).astype(float)
    mu = np.array([4.0, 3.0, 2.2, 1.6]) * rng.uniform(0.7, 1.3, (40, 1))
    total = rng.negative_binomial(count * phi, phi / (phi + mu)).astype(float)
    return glm.ArmTotals(count, total)


def _gaussian_totals(rng, sd=1.5):
    count = rng.integers(2, 30, (20, 3))
    y = [[rng.normal(m, sd, c) for m, c in zip([0.3, 0.8, -0.2], row)] for row in count]
    total = [[v.sum() for v in row] for row in y]
    square = [[(v * v).sum() for v in row] for row in y]
    return glm.ArmTotals(count, total, square)


def _binomial_subject_rows(rng):
    """Intercept, two arm indicators and a normal covariate per subject."""
    arm = rng.integers(0, 3, (12, 70))
    x = np.stack(
        [np.ones((12, 70)), arm == 1, arm == 2, rng.normal(0.0, 0.5, (12, 70))], axis=2
    )
    eta = x @ np.array([-0.4, 0.5, 0.9, 0.6])
    y = rng.binomial(1, expit(eta)).astype(float)
    return glm.SubjectRows(x, y)


def _mixed_poisson_totals():
    """Rows that converge after 6, 7 and 9 iterations, two of them with step
    halvings, the last capped at 8 iterations below; and a row whose Hessian
    is exactly singular at the start (the prior precision is lost in
    counts of 1e14 that all sit in one arm and the intercept)."""
    rng = np.random.default_rng(77)
    count = rng.integers(1, 40, (6, 4)).astype(float)
    rate = rng.uniform(0.5, 4.0, (6, 4))
    rate[2] *= 30.0
    rate[4] *= 300.0
    total = rng.poisson(count * rate).astype(float)
    count[5], total[5] = [0.0, 1e14, 0.0, 0.0], [0.0, 3e14, 0.0, 0.0]
    return glm.ArmTotals(count, total)


# name: (block maker, family, nuisance, max_iterations)
BATCH_CASES = {
    "six_arm_binomial_totals": (
        lambda: _six_arm_totals(np.random.default_rng(11)), "binomial", {}, 100
    ),
    "six_arm_binomial_edge_totals_256": (
        lambda: _six_arm_edge_totals(np.random.default_rng(15)), "binomial", {}, 100
    ),
    "nbinomial_count_totals": (
        lambda: _count_totals(np.random.default_rng(12)), "nbinomial", {"dispersion": 0.5}, 100
    ),
    "gaussian_totals": (
        lambda: _gaussian_totals(np.random.default_rng(13)), "gaussian", {"sd": 1.5}, 100
    ),
    "binomial_subject_rows": (
        lambda: _binomial_subject_rows(np.random.default_rng(14)), "binomial", {}, 100
    ),
    "poisson_mixed_rows": (_mixed_poisson_totals, "poisson", {}, 8),
}


def test_mixed_poisson_rows_leave_each_their_own_way():
    # the block behind the "poisson_mixed_rows" hash
    fit = glm.fit_laplace_batch(_mixed_poisson_totals(), "poisson", {}, max_iterations=8)
    assert fit.iterations.tolist() == [6, 6, 7, 6, 8, 1]
    assert fit.converged.tolist() == [True, True, True, True, False, False]
    assert np.isnan(fit.marginal_sd[5]).all() and not np.isnan(fit.marginal_sd[:5]).any()


# Recorded with the Newton loop that iterated every row of the block until
# all had stopped: a rewrite of fit_laplace_batch that keeps every float
# keeps these hashes.
BATCH_GOLDEN = {
    "binomial_subject_rows": "a3bb18afd507f16243e3e0ba43b6b331dd3235dc3dbee421a969f5704e676b97",
    "gaussian_totals": "b9ad698a69f6b4c41641dc4fc9dc639ae68f6dfb402e9ec9e839dc88299afb80",
    "nbinomial_count_totals": "a655d8d96a3e415f1baf895235df56460df00444b94ec979fc752aa3ff297eb6",
    "poisson_mixed_rows": "ccccb7187cd8a159498717af061a9086da91aeb1b8beb5603bb9b3410b6f0dc7",
    "six_arm_binomial_totals": "a12a83d8ea8324688c96b2f0ab2553c6d0ca5e1091088e2506d32def858953d1",
    # added later, recorded with the fit that dropped a row one iteration
    # after it left
    "six_arm_binomial_edge_totals_256": (
        "ef449d8d39720d1b9832574e7debee75c928ec986924bf178f6256e676f18c3b"
    ),
}


def _batch_digest(fit):
    h = hashlib.sha256()
    for array in (fit.mode, fit.marginal_sd, fit.converged, fit.iterations):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batch_fit_matches_golden_hash(name):
    data, family, nuisance, max_iterations = BATCH_CASES[name]
    fit = glm.fit_laplace_batch(data(), family, nuisance, max_iterations=max_iterations)
    assert _batch_digest(fit) == BATCH_GOLDEN[name]


def test_tail_probabilities_are_clamped_gaussian_tails():
    deltas = np.array([-1.959963984540054, 0.0, 1.959963984540054, 40.0, -40.0, np.nan])
    greater = glm.tail_probabilities(0.0, 1.0, deltas, True)
    np.testing.assert_allclose(greater[:3], [0.975, 0.5, 0.025], rtol=1e-12)
    assert greater[3] == np.finfo(float).tiny
    assert greater[4] == np.nextafter(1.0, 0.0)
    assert np.isnan(greater[5])
    less = glm.tail_probabilities(0.0, 1.0, deltas, False)
    np.testing.assert_allclose(less[:3], [0.025, 0.5, 0.975], rtol=1e-12)
    # broadcast over a block: per-row means and sds, per-column directions
    block = glm.tail_probabilities(
        np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([[2.0, 2.0], [1.0, 1.0]]),
        1.0, np.array([True, False]),
    )
    np.testing.assert_allclose(block, [[0.5, 0.5], [0.841344746068543, 0.158655253931457]])
