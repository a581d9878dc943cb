"""Cohort simulation: arm allocation, covariates, and responses.

Reproducibility contract: every random draw comes from a counter-based
Philox generator whose stream is derived from the replicate seed plus a
label path (``substream(seed, "look", j, "response")`` and friends).
Because sub-streams are keyed by purpose rather than consumed in sequence,
adding a covariate to a design never perturbs the response draws, and
replicates are bit-reproducible regardless of execution order.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import CovariateSpec
from .glm import inverse_link, check_nuisance


class DataGenError(ValueError):
    """Invalid simulation inputs (weights, generators, nuisance values)."""


@functools.lru_cache(maxsize=None)
def _label_int(label_repr: str) -> int:
    """32-bit blake2s key of a label's ``repr``.

    The cache is keyed on the repr, not on the label: labels that compare
    equal but print differently (``0.0`` and ``-0.0``, ``(1,)`` and
    ``(np.int64(1),)``) must keep keys of their own.
    """
    digest = hashlib.blake2s(label_repr.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def substream(seed: int, *labels) -> np.random.Generator:
    """Philox stream for one (seed, label path) combination."""
    key = tuple(_label_int(repr(l)) for l in labels)
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


@dataclass
class Cohort:
    """Per-subject arm labels, covariate values, and responses."""

    arm: np.ndarray
    covariates: dict[str, np.ndarray]
    response: np.ndarray

    def __post_init__(self) -> None:
        m = len(self.arm)
        if m < 1:
            raise DataGenError("a cohort needs at least one subject")
        bad = [k for k, v in self.covariates.items() if len(v) != m]
        if bad or len(self.response) != m:
            raise DataGenError("per-subject vectors have mismatched lengths")

    @property
    def size(self) -> int:
        return len(self.arm)

    @classmethod
    def concat(cls, cohorts: Sequence["Cohort"]) -> "Cohort":
        return cls(
            arm=np.concatenate([c.arm for c in cohorts]),
            covariates={
                k: np.concatenate([c.covariates[k] for c in cohorts])
                for k in cohorts[0].covariates
            },
            response=np.concatenate([c.response for c in cohorts]),
        )


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
    if m < 1:
        raise DataGenError(f"cohort size must be >= 1, got {m}")
    names = np.array(list(weights), dtype=object)
    w = np.abs(np.array(list(weights.values()), dtype=float))
    total = w.sum()
    if total == 0.0:
        raise DataGenError("allocation weights are all zero")
    prob = w / total

    if method == "simple":
        return rng.choice(names, size=m, p=prob)
    if method == "balanced":
        quota = m * prob
        counts = np.floor(quota).astype(int)
        leftover = m - counts.sum()
        if leftover > 0:
            # ties broken toward lower arm index via stable sort
            order = np.argsort(-(quota - counts), kind="stable")
            counts[order[:leftover]] += 1
        labels = np.repeat(names, counts)
        return rng.permutation(labels)
    raise DataGenError(f"unknown allocation method {method!r}")


# --------------------------------------------------------------------------
# covariate generators
# --------------------------------------------------------------------------


def _gen_normal(params, m, rng):
    sd = params.get("sd", 1.0)
    if sd < 0:
        raise DataGenError("normal covariate sd must be >= 0")
    return {None: rng.normal(params.get("mean", 0.0), sd, size=m)}


def _gen_bernoulli(params, m, rng):
    p = params["p"]
    if not 0.0 <= p <= 1.0:
        raise DataGenError(f"bernoulli p must lie in [0, 1], got {p}")
    return {None: rng.binomial(1, p, size=m).astype(float)}


def _gen_uniform(params, m, rng):
    return {None: rng.uniform(params.get("low", 0.0), params.get("high", 1.0), size=m)}


def _gen_mvnormal(params, m, rng):
    names = list(params["names"])
    draws = rng.multivariate_normal(
        np.asarray(params["mean"], dtype=float),
        np.asarray(params["cov"], dtype=float),
        size=m,
    )
    return {name: draws[:, i] for i, name in enumerate(names)}


_GENERATORS = {
    "normal": _gen_normal,
    "bernoulli": _gen_bernoulli,
    "uniform": _gen_uniform,
    "mvnormal": _gen_mvnormal,
}


def simulate_covariates(
    specs: Sequence[CovariateSpec], m: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Draw m values for each covariate, in spec order.

    Univariate generators yield one column named after the covariate; the
    ``mvnormal`` generator yields one jointly-drawn column per entry of its
    ``names`` parameter.
    """
    values: dict[str, np.ndarray] = {}
    for spec in specs:
        try:
            gen = _GENERATORS[spec.generator]
        except KeyError:
            raise DataGenError(
                f"unknown covariate generator id {spec.generator!r}"
            ) from None
        for name, column in gen(spec.params, m, rng).items():
            values[name if name is not None else spec.name] = column
    return values


def simulate_response(
    eta: np.ndarray,
    family: str,
    link: str,
    nuisance,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw responses with mean inverse_link(eta) from the given family.

    The negative binomial uses the gamma-poisson mixture with dispersion
    phi, giving variance mu + mu^2/phi.
    """
    eta = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(eta)):
        raise DataGenError("linear predictor contains non-finite values")
    nuisance = dict(nuisance or {})
    check_nuisance(family, nuisance)
    mu = inverse_link(link, eta)
    if not np.all(np.isfinite(mu)):
        raise DataGenError("response mean is not finite; check beta_true and link")

    if family == "gaussian":
        return rng.normal(mu, nuisance["sd"])
    if family == "binomial":
        if np.any((mu < 0.0) | (mu > 1.0)):
            raise DataGenError("binomial means must lie in [0, 1]")
        return rng.binomial(1, mu)
    if family == "poisson":
        return rng.poisson(mu)
    if family == "nbinomial":
        phi = nuisance["dispersion"]
        lam = rng.gamma(shape=phi, scale=mu / phi)
        return rng.poisson(lam)
    raise DataGenError(f"unknown family {family!r}")
