"""Block stream keys and block Philox draws: the same Philox streams, and
the same uniforms, allocations and binomial responses, as ``substream``'s
generators give; and negative binomial responses drawn as numpy's
``gamma(shape, scale)`` mixture draws them."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mamsim import datagen, engine, glm, reference
from mamsim.datagen import DataGenError, substream


# label paths as the engine builds them, and labels whose values compare
# equal but whose reprs differ (0.0 and -0.0, 1 and np.int64(1))
_labels = st.one_of(
    st.integers(0, 50),
    st.integers(0, 50).map(np.int64),
    st.sampled_from(["look", "alloc", "covariates", "response", ""]),
    st.sampled_from([0.0, -0.0]),
)


_seeds = st.one_of(
    st.integers(0, 2**32 - 1),  # one entropy word
    st.integers(2**32, 2**128 - 1),  # two to four
    st.integers(2**128, 2**160 - 1),  # more than the pool
)


class TestStreamKeys:
    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(_seeds, min_size=1, max_size=6, unique=True),
        paths=st.lists(st.lists(_labels, max_size=4).map(tuple), min_size=1, max_size=5),
    )
    def test_block_keys_draw_as_substream(self, seeds, paths):
        keys = datagen.stream_keys(seeds, paths)
        assert keys.shape == (len(seeds), len(paths), 2) and keys.dtype == np.uint64
        rng = np.random.Generator(np.random.Philox(0))
        for i, seed in enumerate(seeds):
            for p, path in enumerate(paths):
                want = substream(seed, *path)
                assert np.array_equal(keys[i, p], want.bit_generator.state["state"]["key"])
                assert np.array_equal(datagen.rekey(rng, keys[i, p]).random(3), want.random(3))

    def test_equal_labels_with_other_reprs_get_other_keys(self):
        keys = datagen.stream_keys(
            [5], [("look", 0.0), ("look", -0.0), ("look", 1), ("look", np.int64(1))]
        )[0]
        assert len({tuple(k) for k in keys.tolist()}) == 4

    def test_negative_seed_rejected(self):
        with pytest.raises(DataGenError, match="non-negative"):
            datagen.stream_keys([3, -1], [("look", 0, "alloc")])

    def test_rekey_clears_generator_state(self):
        seeds, paths = [8, 9], [("look", 2, "response"), ("look", 3, "alloc")]
        keys = datagen.stream_keys(seeds, paths)
        rng = np.random.Generator(np.random.Philox(0))
        for i, seed in enumerate(seeds):
            for p, path in enumerate(paths):
                # leave a spare 32-bit word, a partly used buffer and the
                # binomial and gamma samplers' cached set-up behind
                rng.random(3, dtype=np.float32)
                assert rng.bit_generator.state["has_uint32"] == 1
                rng.binomial(1, 0.3, size=5)
                rng.gamma(0.7, size=3)
                got, want = datagen.rekey(rng, keys[i, p]), substream(seed, *path)
                for draw in (
                    # an even count, so the next round starts without a spare word
                    lambda g: g.random(2, dtype=np.float32),
                    lambda g: g.binomial(1, 0.3, size=5),
                    lambda g: g.gamma(0.7, size=3),
                    lambda g: g.random(4),
                ):
                    assert np.array_equal(draw(got), draw(want))

    def test_engine_keeps_substream_bound(self):
        # benchmark tracing wraps engine.substream by name
        assert engine.substream is datagen.substream

    @pytest.mark.parametrize(
        "name", ["build_design_matrix", "fit_laplace", "marginal_posterior_prob"]
    )
    def test_glm_resolves_reference_names(self, name):
        # benchmark tracing and microbenchmarks look these up on glm by name;
        # glm resolves them from mamsim.reference without defining them
        assert name not in vars(glm)
        assert getattr(glm, name) is getattr(reference, name)


# label paths as the engine keys a look's streams
_engine_paths = st.lists(
    st.tuples(
        st.just("look"), st.integers(0, 30), st.sampled_from(["alloc", "covariates", "response"])
    ),
    min_size=1, max_size=4, unique=True,
)

# numpy's n = 1 binomial at its edges: p == 0 takes no uniform, the
# smallest p never draws 1, p == 1 always does, and either side of 1/2
# tests the uniform on opposite sides of its threshold
EDGE_MEANS = [0.0, 5e-324, 0.3, 0.5, float(np.nextafter(0.5, 1.0)), 0.7, 1.0 - 2.0**-53, 1.0]


class TestBlockDraws:
    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(_seeds, min_size=1, max_size=4, unique=True),
        paths=_engine_paths,
        data=st.data(),
    )
    def test_block_uniforms_draw_as_substream(self, seeds, paths, data):
        sizes = data.draw(st.lists(st.integers(1, 70), min_size=len(paths), max_size=len(paths)))
        keys = datagen.stream_keys(seeds, paths)
        draws = datagen.stream_uniforms(keys, sizes)
        for p, (path, m) in enumerate(zip(paths, sizes)):
            assert draws[p].shape == (len(seeds), m)
            for i, seed in enumerate(seeds):
                assert np.array_equal(draws[p][i], substream(seed, *path).random(m))

    def test_every_uniform_count_up_to_70(self):
        # counts that are and are not multiples of the 4 words per counter
        keys = datagen.stream_keys([3, 2**64 + 5], [("look", 1, "alloc")])
        for m in range(1, 71):
            draws = datagen.stream_uniforms(keys, [m])[0]
            for i, seed in enumerate([3, 2**64 + 5]):
                assert np.array_equal(draws[i], substream(seed, "look", 1, "alloc").random(m))

    def test_key_increments_wrap(self):
        # keys within a Weyl increment of 2**64 wrap in the first key bump
        keys = np.array([[2**64 - 1, 2**64 - 1], [2**64 - 2**62, 1]], dtype=np.uint64)
        draws = datagen.stream_uniforms(keys, [9, 9])
        for key, got in zip(keys, draws):
            philox = np.random.Philox(key=key)
            assert np.array_equal(got, np.random.Generator(philox).random(9))

    @pytest.mark.parametrize("extra", [0, 8])
    def test_threshold_responses_draw_as_binomial(self, extra):
        means = np.array(EDGE_MEANS + np.random.default_rng(extra).random(extra).tolist())
        inversion = datagen.binomial_inversion(means)
        assert inversion is not None
        for seed in range(1, 101):
            codes = np.random.default_rng(seed).integers(0, len(means), size=(1, 37))
            u = datagen.stream_uniforms(datagen.stream_keys([seed], [("response",)]), [37])[0]
            got = datagen.binomial_responses(inversion, codes, u)
            want = substream(seed, "response").binomial(1, means[codes[0]])
            assert got.dtype == want.dtype and np.array_equal(got[0], want)

    def test_positive_means_take_one_uniform_each(self):
        # no mean of 0, so subject i takes uniform i
        means = np.array(EDGE_MEANS[1:])
        inversion = datagen.binomial_inversion(means)
        for seed in range(1, 41):
            codes = np.random.default_rng(seed).integers(0, len(means), size=(1, 37))
            u = datagen.stream_uniforms(datagen.stream_keys([seed], [("response",)]), [37])[0]
            got = datagen.binomial_responses(inversion, codes, u)
            assert np.array_equal(got[0], substream(seed, "response").binomial(1, means[codes[0]]))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=_seeds,
        means=st.lists(
            st.one_of(st.sampled_from(EDGE_MEANS), st.floats(0.0, 1.0)), min_size=1, max_size=6
        ),
        data=st.data(),
    )
    def test_zero_means_take_no_uniform(self, seed, means, data):
        # mixed cohorts: a subject of mean 0 leaves its uniform to the next
        means = np.array([0.0, *means])
        codes = np.array(
            data.draw(st.lists(st.integers(0, len(means) - 1), min_size=1, max_size=40))
        )
        u = datagen.stream_uniforms(datagen.stream_keys([seed], [("r",)]), [len(codes)])[0]
        got = datagen.binomial_responses(datagen.binomial_inversion(means), codes[None], u)[0]
        rng = substream(seed, "r")
        assert np.array_equal(got, rng.binomial(1, means[codes]))
        # both consumed the same uniforms: the streams go on alike
        taken = np.count_nonzero(means[codes] > 0)
        rest = datagen.stream_uniforms(datagen.stream_keys([seed], [("r",)]), [taken + 3])[0]
        assert np.array_equal(rest[0, taken:], rng.random(3))

    @settings(max_examples=60, deadline=None)
    @given(seed=_seeds, arms=st.integers(1, 10), m=st.integers(1, 40), data=st.data())
    def test_block_allocation_draws_as_choice(self, seed, arms, m, data):
        weights = np.array(data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 5.0)), min_size=arms, max_size=arms
        )))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=arms, max_size=arms)))
        if not (weights * mask).any():
            weights[0], mask[0] = 1.0, True
        u = datagen.stream_uniforms(datagen.stream_keys([seed], [("alloc",)]), [m])[0]
        got = datagen.allocate_simple(weights[None], mask[None], u)[0]
        # the arms of Generator.choice over the masked arms
        recruiting = np.flatnonzero(mask)
        prob = weights[recruiting] / weights[recruiting].sum()
        want = substream(seed, "alloc").choice(len(recruiting), size=m, p=prob)
        assert np.array_equal(got, recruiting[want])

    @staticmethod
    def balanced_reference(m, weights):
        """Largest-remainder counts of one cohort, arm by arm."""
        quota = m * weights / weights.sum()
        counts = np.floor(quota).astype(int)
        leftover = m - counts.sum()
        if leftover > 0:
            counts[np.argsort(-(quota - counts), kind="stable")[:leftover]] += 1
        return counts

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 4), arms=st.integers(1, 10), m=st.integers(1, 40), data=st.data())
    def test_block_balanced_counts_match_each_cohort(self, rows, arms, m, data):
        # whole numbers make tied remainders, which go to the lower arm
        weight = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.floats(1e-3, 5.0))
        weights = np.array(data.draw(st.lists(
            st.lists(weight, min_size=arms, max_size=arms), min_size=rows, max_size=rows
        )))
        mask = np.array(data.draw(st.lists(
            st.lists(st.booleans(), min_size=arms, max_size=arms), min_size=rows, max_size=rows
        )))
        empty = ~(weights * mask).any(axis=1)
        weights[empty, 0], mask[empty, 0] = 1.0, True
        counts = datagen.balanced_counts(weights, mask, m)
        for w, keep, got in zip(weights, mask, counts):
            assert got.sum() == m and not got[~keep].any()
            assert np.array_equal(got[keep], self.balanced_reference(m, w[keep]))

    def test_block_allocation_checks_every_row(self):
        weights, mask = np.ones((3, 2)), np.ones((3, 2), dtype=bool)
        mask[1] = False
        with pytest.raises(DataGenError, match="all zero"):
            datagen.allocate_simple(weights, mask, np.zeros((3, 4)))
        weights[2, 0] = np.inf
        with pytest.raises(DataGenError, match="finite"):
            datagen.allocate_simple(weights, np.ones((3, 2), dtype=bool), np.zeros((3, 4)))
        with pytest.raises(DataGenError, match=">= 1"):
            datagen.allocate_simple(np.ones((3, 2)), np.ones((3, 2), dtype=bool), np.zeros((3, 0)))


def _philox_state(rng):
    state = rng.bit_generator.state
    return (
        state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
        state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"], state["uinteger"],
    )

@settings(max_examples=100, deadline=None)
@given(
    seed=_seeds,
    phi=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.05, 50.0)),
    means=st.lists(
        st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1.6, 4.0]), st.floats(0.0, 1e3)),
        min_size=1, max_size=40,
    ),
)
def test_nbinomial_responses_draw_as_gamma_with_scale(seed, phi, means):
    # zero and subnormal means included: numpy's gamma draws for them too
    mu = np.array(means)
    got_rng = substream(seed, "look", 0, "response")
    got = datagen.draw_response(mu, "nbinomial", {"dispersion": phi}, got_rng)
    want_rng = substream(seed, "look", 0, "response")
    want = want_rng.poisson(want_rng.gamma(shape=phi, scale=mu / phi))
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # both took the same words: the generators go on alike
    assert _philox_state(got_rng) == _philox_state(want_rng)
    assert got_rng.random() == want_rng.random()
