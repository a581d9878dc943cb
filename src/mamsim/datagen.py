"""Cohort simulation: arm allocation, covariates, and responses.

Reproducibility contract: every random draw comes from a counter-based
Philox generator whose stream is derived from the replicate seed plus a
label path (``substream(seed, "look", j, "response")`` and friends).
Because sub-streams are keyed by purpose rather than consumed in sequence,
adding a covariate to a design never perturbs the response draws, and
replicates are bit-reproducible regardless of execution order.

``substream`` defines the streams.  A Philox stream is its 128-bit key
with the counter at zero, so the engine does not build one generator per
stream: ``stream_keys`` derives the keys of a whole block of (seed, label
path) pairs in one vectorised pass, and ``rekey`` restarts a single
generator at each key in turn.  Both give ``substream``'s draws exactly.
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


# numpy's SeedSequence (numpy/random/bit_generator.pyx): pool size in 32-bit
# words and the hash constants of its entropy mixing (A), state output (B)
# and pool mixing (MIX)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF


@functools.lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, n: int) -> tuple[int, ...]:
    """The first n + 1 hash constants: init, init * mult, init * mult**2, ..."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK)
    return tuple(consts)


def _hashmix(value, consts, i: int):
    """SeedSequence's hash of a word (uint32 array or int) by its i-th call."""
    value = (value ^ consts[i]) * consts[i + 1] & _MASK
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of a pool word with a hashed word (uint32 arrays)."""
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> 16


def _entropy_words(seed) -> list[int]:
    """The 32-bit words of a seed, least significant first, as SeedSequence
    splits its entropy."""
    seed = int(seed)
    if seed < 0:
        raise DataGenError(f"seeds must be non-negative, got {seed}")
    words = [seed & _MASK]
    while seed > _MASK:
        seed >>= 32
        words.append(seed & _MASK)
    return words


def _seed_pool(entropy: np.ndarray) -> list[np.ndarray]:
    """SeedSequence's pool words after mixing in seed entropy, for a
    (words, seeds) uint32 array of at least ``_POOL`` words per seed."""
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * len(entropy))
    pool = [_hashmix(entropy[d], consts, d) for d in range(_POOL)]
    call = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts, call))
                call += 1
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts, call))
            call += 1
    return pool


@functools.lru_cache(maxsize=None)
def _spawn_hashes(label_reprs: tuple[str, ...], start: int) -> tuple[int, ...]:
    """Hashes of a label path's words at entropy positions ``start`` onwards,
    four per word (one per pool word), in the order SeedSequence mixes them.

    They depend on the labels and their positions only, so they are cached
    on the labels' ``repr``, as ``_label_int`` is.
    """
    # calls so far: one per pool word, the pool's cross-mix, then one per
    # pool word for each entropy word past the pool
    first = _POOL * _POOL + _POOL * (start - _POOL)
    consts = _hash_consts(_INIT_A, _MULT_A, first + _POOL * len(label_reprs))
    return tuple(
        _hashmix(_label_int(r), consts, first + _POOL * l + d)
        for l, r in enumerate(label_reprs)
        for d in range(_POOL)
    )


def stream_keys(seeds, paths) -> np.ndarray:
    """Philox keys of every (seed, label path) pair, as a
    (len(seeds), len(paths), 2) uint64 array.

    ``keys[i, p]`` is ``SeedSequence(entropy=seeds[i], spawn_key=<the
    label ints of paths[p]>).generate_state(2, np.uint64)``, the key of
    ``substream(seeds[i], *paths[p])``, computed for all pairs at once in
    uint32 array arithmetic: each seed's entropy is mixed once, and a label
    path's words enter every seed's pool as precomputed hashes.
    """
    words = [_entropy_words(s) for s in seeds]
    reprs = [tuple(repr(l) for l in path) for path in paths]
    depth = max(map(len, reprs), default=0)
    keys = np.empty((len(words), len(reprs), 2), dtype=np.uint64)
    by_size: dict[int, list[int]] = {}
    for i, w in enumerate(words):
        # with a spawn key, SeedSequence pads the entropy to the pool size;
        # without one, its mixing reads missing pool words as 0 all the same
        by_size.setdefault(max(len(w), _POOL), []).append(i)
    for size, rows in by_size.items():
        entropy = np.zeros((size, len(rows)), dtype=np.uint32)
        for c, i in enumerate(rows):
            entropy[: len(words[i]), c] = words[i]
        pool = _seed_pool(entropy)
        # spawn words, as (depth, pool word, path) hashes; shorter paths
        # skip the positions past their end
        hashes = np.zeros((len(reprs), depth * _POOL), dtype=np.uint32)
        present = np.zeros((len(reprs), depth), dtype=bool)
        for p, r in enumerate(reprs):
            hashes[p, : len(r) * _POOL] = _spawn_hashes(r, size)
            present[p, : len(r)] = True
        hashes = hashes.reshape(len(reprs), depth, _POOL).transpose(1, 2, 0)
        pool = [word[:, None] for word in pool]
        for l in range(depth):
            for d in range(_POOL):
                pool[d] = np.where(present[:, l], _mix(pool[d], hashes[l, d]), pool[d])
        out = _hash_consts(_INIT_B, _MULT_B, _POOL)
        state = [_hashmix(pool[d], out, d).astype(np.uint64) for d in range(_POOL)]
        keys[rows, :, 0] = state[0] | state[1] << np.uint64(32)
        keys[rows, :, 1] = state[2] | state[3] << np.uint64(32)
    return keys


_ZERO4 = np.zeros(4, dtype=np.uint64)


def rekey(rng: np.random.Generator, key: np.ndarray) -> np.random.Generator:
    """Restart ``rng``, a Philox generator, at the first draw of the stream
    with ``key`` (a row of ``stream_keys``): counter zero, empty buffer, no
    spare 32-bit word.  It then draws what a new generator with that key
    draws, whatever it drew before."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": key},
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


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
    names = np.array(list(weights), dtype=object)
    return names[allocate_codes(m, list(weights.values()), method, rng)]


def allocate_codes(m: int, weights, method: str, rng: np.random.Generator) -> np.ndarray:
    """Positions in ``weights`` of the arms of m subjects, as ``allocate_arms``
    draws them: the same generator draws give the same arms."""
    if m < 1:
        raise DataGenError(f"cohort size must be >= 1, got {m}")
    w = np.abs(np.array(weights, dtype=float))
    total = w.sum()
    if total == 0.0:
        raise DataGenError("allocation weights are all zero")
    if not np.isfinite(total):
        raise DataGenError("allocation weights must be finite, with a finite sum")
    prob = w / total

    if method == "simple":
        # Generator.choice(len(w), size=m, p=prob) without its checks: the
        # same cdf, uniforms and search, so the same draws
        cdf = prob.cumsum()
        cdf /= cdf[-1]
        return cdf.searchsorted(rng.random(m), side="right")
    if method == "balanced":
        quota = m * prob
        counts = np.floor(quota).astype(int)
        leftover = m - counts.sum()
        if leftover > 0:
            # ties broken toward lower arm index via stable sort
            order = np.argsort(-(quota - counts), kind="stable")
            counts[order[:leftover]] += 1
        return rng.permutation(np.repeat(np.arange(len(w)), counts))
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


def response_means(eta: np.ndarray, family: str, link: str, nuisance) -> np.ndarray:
    """Response means inverse_link(eta), checked as ``simulate_response``
    needs them: a finite predictor, valid nuisance values, finite means and,
    for the binomial, means in [0, 1]."""
    eta = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(eta)):
        raise DataGenError("linear predictor contains non-finite values")
    check_nuisance(family, dict(nuisance or {}))
    mu = inverse_link(link, eta)
    if not np.all(np.isfinite(mu)):
        raise DataGenError("response mean is not finite; check beta_true and link")
    if family == "binomial" and np.any((mu < 0.0) | (mu > 1.0)):
        raise DataGenError("binomial means must lie in [0, 1]")
    return mu


def draw_response(mu: np.ndarray, family: str, nuisance, rng: np.random.Generator) -> np.ndarray:
    """Draw responses with the means ``mu`` of ``response_means``.

    The negative binomial uses the gamma-poisson mixture with dispersion
    phi, giving variance mu + mu^2/phi.
    """
    if family == "gaussian":
        return rng.normal(mu, nuisance["sd"])
    if family == "binomial":
        return rng.binomial(1, mu)
    if family == "poisson":
        return rng.poisson(mu)
    if family == "nbinomial":
        phi = nuisance["dispersion"]
        lam = rng.gamma(shape=phi, scale=mu / phi)
        return rng.poisson(lam)
    raise DataGenError(f"unknown family {family!r}")


def simulate_response(
    eta: np.ndarray,
    family: str,
    link: str,
    nuisance,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw responses with mean inverse_link(eta) from the given family."""
    mu = response_means(eta, family, link, nuisance)
    return draw_response(mu, family, nuisance, rng)
