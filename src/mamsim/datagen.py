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
path) pairs in one vectorised pass.  Philox is counter-based, so the
uniforms of every stream of a block can be computed at once in uint64
array arithmetic (``stream_uniforms``).  Draws of one uniform each are
taken that way: ``simple`` allocation (``allocate_simple``) and binomial
responses with per-arm means (``binomial_inversion``,
``binomial_responses``).  Draws that need numpy's rejection samplers or a
permutation (gaussian, poisson and negative binomial responses,
covariates, and the permutation that orders a ``balanced`` cohort, whose
per-arm counts ``balanced_counts`` computes for a whole block) are not
emulated: ``rekey`` restarts a single generator at each stream's key in
turn.  Every path gives ``substream``'s draws exactly.
"""

from __future__ import annotations

import functools
import hashlib
import math
import numbers
from typing import NamedTuple, Sequence

import numpy as np

from .config import CovariateSpec, DataGenError, check_nuisance
from .glm import inverse_link
from .rules import row_sums


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


# numpy's Philox is Philox4x64-10 (Salmon et al., SC'11; numpy/random/src/
# philox/philox.h): the round multipliers and the Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LOW32, _SHIFT32 = np.uint64(_MASK), np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products of the constant m with
    the uint64 array x.  The high word sums the products of their 32-bit
    halves with the carries of Hacker's Delight's ``mulhu``, none of whose
    partial sums can wrap; the low word is the wrapping uint64 product."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & _MASK)
    x_hi, x_lo = x >> _SHIFT32, x & _LOW32
    lo_lo = m_lo * x_lo
    mid = m_hi * x_lo + (lo_lo >> _SHIFT32)
    low_mid = m_lo * x_hi + (mid & _LOW32)
    return m_hi * x_hi + (mid >> _SHIFT32) + (low_mid >> _SHIFT32), x * np.uint64(m)


def _philox(key: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of each (key, counter) pair: ``key`` a (..., 2) uint64
    array, ``counter`` the low word of a counter whose other words are 0,
    broadcast against ``key[..., 0]``; returns the (..., 4) output words.
    The uint64 products and key increments wrap, as the C code's do."""
    k0, k1 = key[..., 0], key[..., 1]
    zero = np.zeros(np.broadcast_shapes(k0.shape, np.shape(counter)), dtype=np.uint64)
    c0, c1, c2, c3 = zero + counter, zero, zero, zero
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1)


def stream_uniforms(keys, sizes: Sequence[int]) -> list[np.ndarray]:
    """The first draws of Philox streams, computed in one vectorised pass.

    ``keys`` is a (..., len(sizes), 2) uint64 array of stream keys (rows of
    ``stream_keys``).  Entry s of the result is the (..., sizes[s]) array
    of the first doubles that the streams ``keys[..., s, :]`` give:
    ``substream(...).random(sizes[s])``.  A Philox stream's counter runs
    from 1, each counter gives 4 words, and a double is the top 53 bits of
    a word times 2**-53.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    counters = [-(-m // 4) for m in sizes]
    stream = np.repeat(np.arange(len(sizes)), counters)
    counter = np.concatenate([np.arange(1, c + 1, dtype=np.uint64) for c in counters])
    words = _philox(keys[..., stream, :], counter)
    u = (words >> np.uint64(11)).astype(float) * 2.0**-53
    u = u.reshape(*keys.shape[:-2], -1)
    starts = np.cumsum([0, *counters]) * 4
    return [u[..., start : start + m] for start, m in zip(starts.tolist(), sizes)]


class Inversion(NamedTuple):
    """``Generator.binomial(1, p)`` for a set of means p, each draw a test
    of one uniform u (see ``binomial_inversion``)."""

    threshold: np.ndarray
    above: np.ndarray  # p <= 0.5: the draw is 1 iff u > threshold, else iff u <= it
    draws: np.ndarray  # p > 0: the draw takes a uniform


_MAX_UNIFORM = 1.0 - 2.0**-53


def binomial_inversion(mu) -> Inversion | None:
    """The tests of numpy's binomial inversion with n = 1, one per mean.

    For p <= 0.5 numpy draws 1 iff u > exp(log(1 - p)); for p > 0.5 it
    draws 1 - (the draw for 1 - p), so 1 iff u <= exp(log(1 - (1 - p))).
    p == 0 draws 0 without taking a uniform.  The thresholds use
    ``math.exp``/``math.log``, the C library functions numpy calls, not
    numpy's vectorised ``exp``, which may round differently.

    Past its threshold t, numpy's loop would reject u and draw again were
    u - t above (the smaller of p and 1 - p) * t / (1 - that); only a
    uniform within rounding of 1 could be, and for no mean tried can the
    largest uniform, 1 - 2**-53, be.  Should some mean's t allow it, None
    is returned, and the draws must come from a generator.
    """
    threshold, above = [], []
    for p in np.asarray(mu, dtype=float).tolist():
        small = p if p <= 0.5 else 1.0 - p
        q = 1.0 - small
        t = math.exp(math.log(q))
        if _MAX_UNIFORM - t > small * t / q:
            return None
        threshold.append(t)
        above.append(p <= 0.5)
    return Inversion(np.array(threshold), np.array(above), np.asarray(mu) > 0.0)


def binomial_responses(inversion: Inversion, codes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``Generator.binomial(1, p[codes[i]])`` for each row i of a block of
    cohorts, from the uniforms ``u[i]`` of its response stream: a subject
    takes the next uniform unless its mean is 0."""
    if not inversion.draws.all():  # else subject i takes uniform i
        taken = inversion.draws[codes].cumsum(axis=1) - 1
        u = np.take_along_axis(u, np.maximum(taken, 0), axis=1)
    threshold = inversion.threshold[codes]
    return np.where(inversion.above[codes], u > threshold, u <= threshold).astype(np.int64)


def _probabilities(weights: np.ndarray, mask: np.ndarray, m: int) -> np.ndarray:
    """Per row, abs(w) / sum(abs(w)) over the entries in ``mask`` (0
    elsewhere), the sum with the bits of numpy's 1-D ``sum`` of those
    entries; checked for cohorts of m subjects."""
    if m < 1:
        raise DataGenError(f"cohort size must be >= 1, got {m}")
    w = np.where(mask, np.abs(weights), 0.0)
    total = row_sums(w, mask)
    if (total == 0.0).any():
        raise DataGenError("allocation weights are all zero")
    if not np.isfinite(total).all():
        raise DataGenError("allocation weights must be finite, with a finite sum")
    return w / total[:, None]


def allocate_simple(weights: np.ndarray, mask: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Arm codes of a block of ``simple`` cohorts: row i's subjects draw arm
    positions of ``weights[i]``, restricted to ``mask[i]``, with the
    uniforms ``u[i]``, one per subject.

    A row's codes are those of ``reference.allocate_codes`` on its masked
    weights, mapped back to positions in the row: a subject gets the first
    arm whose cdf exceeds its uniform, the ``searchsorted(side="right")`` of
    the compacted cdf.  Zero-padding the masked-out arms leaves every
    partial sum exact, so the padded cdf holds the compacted one's values.
    """
    cdf = _probabilities(weights, mask, u.shape[1]).cumsum(axis=1)
    cdf = cdf / cdf[:, -1:]
    # counted arm by arm, over (arm, row, subject): a short last axis would
    # make the count a loop of tiny reductions
    return np.count_nonzero(cdf.T[:, :, None] <= u, axis=0)


def balanced_counts(weights: np.ndarray, mask: np.ndarray, m: int) -> np.ndarray:
    """Subjects per arm of a block of ``balanced`` cohorts of m: per row,
    the largest-remainder apportionment of m * abs(w)/sum(abs(w)) over the
    arms in ``mask``, none elsewhere.  A cohort's arms are a permutation of
    its row's arm positions, each repeated its count of times."""
    quota = m * _probabilities(weights, mask, m)
    counts = np.floor(quota).astype(int)
    leftover = m - counts.sum(axis=1)
    # one more subject for each of the arms with the largest remainders,
    # ties broken toward the lower arm by a stable sort; masked-out arms
    # sort last
    order = np.argsort(np.where(mask, -(quota - counts), 1.0), axis=1, kind="stable")
    return counts + (np.argsort(order, axis=1) < leftover[:, None])


# --------------------------------------------------------------------------
# covariate generators
# --------------------------------------------------------------------------


def _gen_normal(params, m, rng):
    sd = _param(params, "sd", "normal", float, 1.0)
    if sd < 0:
        raise DataGenError("normal covariate sd must be >= 0")
    return {None: rng.normal(_param(params, "mean", "normal", float, 0.0), sd, size=m)}


def _gen_bernoulli(params, m, rng):
    p = _param(params, "p", "bernoulli", float)
    if not 0.0 <= p <= 1.0:
        raise DataGenError(f"bernoulli p must lie in [0, 1], got {p}")
    return {None: rng.binomial(1, p, size=m).astype(float)}


def _gen_uniform(params, m, rng):
    low = _param(params, "low", "uniform", float, 0.0)
    high = _param(params, "high", "uniform", float, 1.0)
    if high < low:
        raise DataGenError(f"uniform covariate needs low <= high, got low {low} and high {high}")
    return {None: rng.uniform(low, high, size=m)}


def _gen_mvnormal(params, m, rng):
    names = _param(params, "names", "mvnormal", list)
    mean = _param(params, "mean", "mvnormal", list)
    cov = _param(params, "cov", "mvnormal", list)
    if not all(map(_is_number, mean)) or not all(
        isinstance(row, list) and all(map(_is_number, row)) for row in cov
    ):
        raise DataGenError("mvnormal mean must be a list of numbers, and cov a list of such lists")
    k = len(names)
    if not k:
        raise DataGenError("mvnormal covariate names no column: names is empty")
    if len(mean) != k or len(cov) != k or any(len(row) != k for row in cov):
        raise DataGenError(
            f"mvnormal names {k} columns, so mean needs {k} entries and cov {k} x {k}; "
            f"got mean of {len(mean)} entries and cov rows of lengths {[len(row) for row in cov]}"
        )
    try:
        draws = rng.multivariate_normal(mean, cov, size=m, check_valid="raise")
    except ValueError:
        raise DataGenError("mvnormal cov must be symmetric positive semi-definite") from None
    return {name: draws[:, i] for i, name in enumerate(names)}


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _param(params, name: str, generator: str, kind, default=None):
    """Generator parameter ``name``, of type ``kind``: ``float`` takes a real
    number that is not a bool, ``list`` a list.  An absent parameter takes
    ``default``, and is an error where there is none."""
    if name not in params:
        if default is None:
            raise DataGenError(f"{generator} covariate needs parameter {name!r}")
        return default
    value = params[name]
    if not (_is_number(value) if kind is float else isinstance(value, list)):
        expected = "a number" if kind is float else "a list"
        raise DataGenError(
            f"{generator} covariate parameter {name!r} must be {expected}, got {value!r}"
        )
    return value


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
    phi, giving variance mu + mu^2/phi.  Its gamma draws are numpy's
    ``gamma(shape=phi, scale=mu / phi)``, which is ``scale`` times
    ``standard_gamma(phi)`` element by element, without the per-call checks
    of an array ``scale``: the same draws from the same stream.
    """
    if family == "gaussian":
        return rng.normal(mu, nuisance["sd"])
    if family == "binomial":
        return rng.binomial(1, mu)
    if family == "poisson":
        return _poisson(mu, rng)
    if family == "nbinomial":
        phi = nuisance["dispersion"]
        lam = rng.standard_gamma(phi, size=mu.shape) * (mu / phi)
        return _poisson(lam, rng)
    raise DataGenError(f"unknown family {family!r}")


def _poisson(lam: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """numpy's poisson draws; a mean it refuses (one too large for int64
    counts, or NaN) is a ``DataGenError``."""
    try:
        return rng.poisson(lam)
    except ValueError as exc:
        raise DataGenError(f"cannot draw poisson counts: {exc}") from None


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


# Tracing-only binding, like ``glm``'s: benchmark/tracing.py and
# benchmark/micro.py look this reference name up on ``datagen``.  It goes
# when the benchmark hooks what runs and names ``mamsim.reference`` instead.
_REFERENCE_NAMES = ("allocate_arms",)


def __getattr__(name):
    if name in _REFERENCE_NAMES:
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
