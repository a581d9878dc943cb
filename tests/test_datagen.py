"""Allocation, covariate, and response simulation behaviour."""

import hashlib
import math

import numpy as np
import pytest

from mamsim import datagen
from mamsim.config import CovariateSpec
from mamsim.datagen import DataGenError, allocate_arms, simulate_covariates, simulate_response, substream


class TestSubstreams:
    def test_bit_reproducible(self):
        a = substream(11, "look", 0, "response").normal(size=5)
        b = substream(11, "look", 0, "response").normal(size=5)
        assert np.array_equal(a, b)

    def test_labels_separate_streams(self):
        a = substream(11, "look", 0, "response").normal(size=5)
        b = substream(11, "look", 0, "alloc").normal(size=5)
        c = substream(12, "look", 0, "response").normal(size=5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @staticmethod
    def direct_draws(seed, *labels):
        """First draws of the stream keyed by uncached repr digests."""
        key = tuple(
            int.from_bytes(hashlib.blake2s(repr(l).encode(), digest_size=4).digest(), "little")
            for l in labels
        )
        seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
        return np.random.Generator(np.random.Philox(seq)).random(4)

    @pytest.mark.parametrize(
        "label, twin",
        [(3, np.int64(3)), (np.int32(3), np.int64(3)), (0.0, -0.0), ((1,), (np.int64(1),))],
    )
    def test_cached_keys_follow_the_label_repr(self, label, twin):
        draws = {}
        for value in (label, twin, label, twin):
            got = substream(21, "look", value, "alloc").random(4)
            assert np.array_equal(got, self.direct_draws(21, "look", value, "alloc"))
            draws.setdefault(repr(value), got)
        assert len(draws) == 2
        assert not np.array_equal(*draws.values())


class TestAllocateArms:
    def test_balanced_exact_split(self):
        labels = allocate_arms(
            4, {"ctl": 1, "A": 1, "B": 1, "C": 1}, "balanced", substream(1, "alloc")
        )
        assert sorted(labels) == ["A", "B", "C", "ctl"]

    def test_balanced_largest_remainder(self):
        labels = allocate_arms(3, {"ctl": 2, "A": 1}, "balanced", substream(2, "alloc"))
        counts = {arm: int(np.sum(labels == arm)) for arm in ("ctl", "A")}
        assert counts == {"ctl": 2, "A": 1}

    def test_balanced_counts_within_one_of_quota(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            weights = {f"a{i}": w for i, w in enumerate(rng.uniform(0.1, 3.0, 4))}
            m = int(rng.integers(1, 40))
            labels = allocate_arms(m, weights, "balanced", substream(3, "alloc"))
            total = sum(weights.values())
            for arm, w in weights.items():
                quota = m * w / total
                assert abs(int(np.sum(labels == arm)) - quota) < 1.0

    def test_simple_concentration(self):
        labels = allocate_arms(
            1000, {"ctl": 1, "A": 1}, "simple", substream(4, "alloc")
        )
        count = int(np.sum(labels == "ctl"))
        assert abs(count - 500) <= 3 * math.sqrt(1000 * 0.25)

    def test_negative_weights_use_absolute_value(self):
        labels = allocate_arms(10, {"ctl": -1.0, "A": 1.0}, "balanced", substream(6, "alloc"))
        assert sorted(set(labels)) == ["A", "ctl"]

    def test_errors(self):
        with pytest.raises(DataGenError, match="all zero"):
            allocate_arms(5, {"a": 0.0, "b": 0.0}, "simple", substream(1, "x"))
        with pytest.raises(DataGenError, match=">= 1"):
            allocate_arms(0, {"a": 1.0}, "simple", substream(1, "x"))
        with pytest.raises(DataGenError, match="method"):
            allocate_arms(5, {"a": 1.0}, "stratified", substream(1, "x"))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("method", ["simple", "balanced"])
    @pytest.mark.parametrize("weights", [[1.0, np.inf], [np.nan, 1.0], [1e308, 1e308]])
    def test_non_finite_weights_rejected(self, method, weights):
        with pytest.raises(DataGenError, match="finite"):
            datagen.allocate_codes(5, weights, method, substream(1, "x"))


class TestCovariates:
    def test_empty_specs(self):
        assert simulate_covariates([], 5, substream(1, "cov")) == {}

    def test_normal_sample_mean(self):
        values = simulate_covariates(
            [CovariateSpec("x", "normal", {"mean": 0.0, "sd": 1.0})],
            10_000,
            substream(2, "cov"),
        )
        assert abs(values["x"].mean()) < 0.04  # 3 sigma of the CLT bound 3/sqrt(m)

    def test_bernoulli_degenerate(self):
        values = simulate_covariates(
            [CovariateSpec("z", "bernoulli", {"p": 1.0})], 50, substream(3, "cov")
        )
        assert np.all(values["z"] == 1.0)

    def test_mvnormal_joint_columns(self):
        spec = CovariateSpec(
            "block",
            "mvnormal",
            {"names": ["u", "v"], "mean": [0.0, 0.0], "cov": [[1.0, 0.9], [0.9, 1.0]]},
        )
        values = simulate_covariates([spec], 4000, substream(4, "cov"))
        corr = np.corrcoef(values["u"], values["v"])[0, 1]
        assert corr > 0.85

    def test_unknown_generator(self):
        with pytest.raises(DataGenError, match="weibull"):
            simulate_covariates([CovariateSpec("x", "weibull", {})], 5, substream(5, "cov"))

    _MV = {"names": ["u", "v"], "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}

    @pytest.mark.parametrize(
        "generator, params, message",
        [
            ("bernoulli", {}, "bernoulli covariate needs parameter 'p'"),
            ("mvnormal", {"mean": [0.0], "cov": [[1.0]]}, "needs parameter 'names'"),
            ("mvnormal", {"names": ["u"], "cov": [[1.0]]}, "needs parameter 'mean'"),
            ("mvnormal", {"names": ["u", "v", "w"], "mean": [0.0, 0.0], "cov": np.eye(2).tolist()},
             "mean needs 3 entries and cov 3 x 3"),
            ("mvnormal", {"names": ["u", "v"], "mean": [0.0, 0.0], "cov": np.eye(3).tolist()},
             "mean needs 2 entries and cov 2 x 2"),
            # each of these raised a raw TypeError
            ("normal", {"sd": "x"}, "normal covariate parameter 'sd' must be a number, got 'x'"),
            ("bernoulli", {"p": "x"}, "parameter 'p' must be a number, got 'x'"),
            ("bernoulli", {"p": [0.5]}, r"parameter 'p' must be a number, got \[0.5\]"),
            ("mvnormal", {**_MV, "names": 5}, "parameter 'names' must be a list, got 5"),
            # each of these raised a raw ValueError
            ("normal", {"mean": "x"}, "parameter 'mean' must be a number, got 'x'"),
            ("uniform", {"low": "a"}, "parameter 'low' must be a number, got 'a'"),
            ("uniform", {"low": 2, "high": 1}, "needs low <= high, got low 2 and high 1"),
            ("mvnormal", {**_MV, "mean": ["x", 0.0]}, "mean must be a list of numbers"),
            # this one was read as sd 1
            ("normal", {"sd": True}, "parameter 'sd' must be a number, got True"),
            # these drew anyway, with a RuntimeWarning only
            ("mvnormal", {"names": ["u"], "mean": [0.0], "cov": [[-1.0]]},
             "cov must be symmetric positive semi-definite"),
            ("mvnormal", {**_MV, "cov": [[1.0, 0.5], [0.0, 1.0]]},
             "cov must be symmetric positive semi-definite"),
            # this one was reported as a cov that is not positive semi-definite
            ("mvnormal", {"names": [], "mean": [], "cov": []}, "names no column"),
        ],
        ids=["bernoulli-without-p", "mvnormal-without-names", "mvnormal-without-mean",
             "mvnormal-more-names", "mvnormal-larger-cov",
             "normal-sd-string", "bernoulli-p-string", "bernoulli-p-list", "mvnormal-names-number",
             "normal-mean-string", "uniform-low-string", "uniform-high-below-low",
             "mvnormal-mean-string", "normal-sd-bool", "mvnormal-cov-negative",
             "mvnormal-cov-asymmetric", "mvnormal-no-names"],
    )
    def test_generator_parameters_fail_by_name(self, generator, params, message):
        with pytest.raises(DataGenError, match=message):
            simulate_covariates([CovariateSpec("x", generator, params)], 5, substream(6, "cov"))


class TestResponses:
    def test_nbinomial_moments(self):
        # mean 4 and variance 4 + 16/0.5 = 36 for eta=log 4, dispersion 0.5
        eta = np.full(100_000, math.log(4.0))
        y = simulate_response(eta, "nbinomial", "log", {"dispersion": 0.5}, substream(6, "resp"))
        assert y.mean() == pytest.approx(4.0, rel=0.05)
        assert y.var() == pytest.approx(36.0, rel=0.05)
        assert np.all(y >= 0) and y.dtype.kind == "i"

    def test_binomial_logit_half(self):
        y = simulate_response(np.zeros(100_000), "binomial", "logit", {}, substream(7, "resp"))
        assert y.mean() == pytest.approx(0.5, abs=0.005)

    def test_poisson_mean(self):
        y = simulate_response(np.full(50_000, math.log(3.0)), "poisson", "log", {}, substream(8, "resp"))
        assert y.mean() == pytest.approx(3.0, rel=0.03)

    def test_gaussian_moments(self):
        y = simulate_response(np.full(50_000, 2.0), "gaussian", "identity", {"sd": 1.5}, substream(12, "resp"))
        assert y.mean() == pytest.approx(2.0, abs=3 * 1.5 / math.sqrt(50_000))
        assert y.std() == pytest.approx(1.5, rel=0.03)

    def test_gaussian_zero_sd_rejected(self):
        with pytest.raises(Exception, match="sd"):
            simulate_response(np.full(3, 2.0), "gaussian", "identity", {"sd": 0.0}, substream(9, "r"))

    def test_non_finite_eta_rejected(self):
        with pytest.raises(DataGenError, match="finite"):
            simulate_response(np.array([np.inf]), "poisson", "log", {}, substream(10, "r"))

    def test_overflowing_mean_rejected(self):
        with pytest.raises(DataGenError, match="finite"):
            simulate_response(np.array([800.0]), "poisson", "log", {}, substream(11, "r"))


@pytest.mark.parametrize("method", ["simple", "balanced"])
def test_arm_codes_draw_the_labels_of_object_arrays(method):
    # drawing codes and looking up names consumes the generator exactly as
    # drawing from the array of names does
    weights = {"control": 0.3, "A": 0.0, "B": 0.45, "C": 0.25}
    names = np.array(list(weights), dtype=object)
    prob = np.array(list(weights.values())) / 1.0
    for seed in range(1, 201):
        if method == "simple":
            want = substream(seed, "alloc").choice(names, size=23, p=prob)
        else:
            want = substream(seed, "alloc").permutation(np.repeat(names, [7, 0, 10, 6]))
        got = allocate_arms(23, weights, method, substream(seed, "alloc"))
        codes = datagen.allocate_codes(23, list(weights.values()), method, substream(seed, "alloc"))
        assert got.dtype == object
        assert got.tolist() == want.tolist() == names[codes].tolist()
