"""Block stream keys: the same Philox streams as ``substream``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mamsim import datagen, engine
from mamsim.datagen import DataGenError, substream


# label paths as the engine builds them, and labels whose values compare
# equal but whose reprs differ (0.0 and -0.0, 1 and np.int64(1))
_labels = st.one_of(
    st.integers(0, 50),
    st.integers(0, 50).map(np.int64),
    st.sampled_from(["look", "alloc", "covariates", "response", ""]),
    st.sampled_from([0.0, -0.0]),
)


class TestStreamKeys:
    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(
            st.one_of(
                st.integers(0, 2**32 - 1),  # one entropy word
                st.integers(2**32, 2**128 - 1),  # two to four
                st.integers(2**128, 2**160 - 1),  # more than the pool
            ),
            min_size=1, max_size=6, unique=True,
        ),
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
