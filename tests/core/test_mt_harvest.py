"""Direct parity tests for the stream harvest behind the batch kernel.

:func:`repro.core.sampling.mt19937_words` seeds small groups of uncached
streams through CPython's C generator and large ones through the numpy
``init_by_array`` replay.  Both must hand back, row for row, the raw
``genrand_uint32`` outputs of ``random.Random(seed)``.  The oracle here is
deliberately independent of either path: one ``getrandbits(32)`` call per
word, never the ``getrandbits(32 * words)`` bytes trick the C path uses.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import sampling
from repro.core.sampling import (
    MAX_HARVEST_WORDS,
    WordPool,
    mt19937_words,
    prefix_cache_clear,
    prefix_cache_info,
)

CROSSOVER = sampling._MT_C_STREAMS
#: 0 and 1 are the smallest one-word keys, 2**32 - 1 the largest; 2**32 is
#: the first two-word ``init_by_array`` key and 2**64 - 1 the largest seed.
BOUNDARY_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
PATHS = ("c", "numpy")


def oracle(seed: int, words: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(words)]


def assert_rows_match(seeds, words: int, out: np.ndarray) -> None:
    assert out.shape == (len(seeds), words)
    assert out.dtype == np.uint32
    for row, seed in enumerate(seeds):
        assert out[row].tolist() == oracle(seed, words), f"seed {seed}"


@contextmanager
def forced(path: str):
    """Route every uncached group through one harvest path."""
    limit = 2**63 if path == "c" else 0
    with mock.patch.object(sampling, "_MT_C_STREAMS", limit):
        yield


@contextmanager
def numpy_calls():
    """Count the streams :func:`_mt_words_chunk` seeds while active."""
    seeded: list[int] = []
    real = sampling._mt_words_chunk

    def spy(seeds, words):
        seeded.append(seeds.shape[0])
        return real(seeds, words)

    with mock.patch.object(sampling, "_mt_words_chunk", spy):
        yield seeded


@pytest.fixture(autouse=True)
def fresh_cache():
    prefix_cache_clear()
    yield
    prefix_cache_clear()


def group_of(size: int) -> list[int]:
    """``size`` distinct seeds, the boundary seeds first."""
    filler = random.Random(size)
    seeds = list(BOUNDARY_SEEDS)
    while len(seeds) < size:
        seed = filler.getrandbits(64)
        if seed not in seeds:
            seeds.append(seed)
    return seeds[:size]


@pytest.mark.parametrize("words", [1, MAX_HARVEST_WORDS])
@pytest.mark.parametrize("size", [CROSSOVER - 1, CROSSOVER, CROSSOVER + 1])
def test_groups_around_the_crossover(size, words):
    seeds = group_of(size)
    with numpy_calls() as seeded:
        out = mt19937_words(seeds, words)
    assert_rows_match(seeds, words, out)
    assert seeded == ([] if size < CROSSOVER else [size])
    assert prefix_cache_info() == {"hits": 0, "misses": size, "entries": size}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("words", [1, MAX_HARVEST_WORDS])
def test_boundary_seeds_on_both_paths(path, words):
    with forced(path), numpy_calls() as seeded:
        out = mt19937_words(list(BOUNDARY_SEEDS), words)
    assert_rows_match(BOUNDARY_SEEDS, words, out)
    assert bool(seeded) == (path == "numpy")


@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=40, deadline=None)
@given(
    seeds=st.lists(
        st.one_of(
            st.sampled_from(BOUNDARY_SEEDS),
            st.integers(min_value=0, max_value=2**64 - 1),
        ),
        min_size=1,
        max_size=12,
    ),
    words=st.integers(min_value=1, max_value=MAX_HARVEST_WORDS),
)
@example(seeds=[7, 7, 2**64 - 1, 7], words=1)
@example(seeds=[2**32, 0, 2**32], words=MAX_HARVEST_WORDS)
def test_any_group_matches_the_oracle(path, seeds, words):
    """Duplicates within a call are two misses and two identical rows."""
    prefix_cache_clear()
    with forced(path):
        out = mt19937_words(seeds, words)
    assert_rows_match(seeds, words, out)
    assert prefix_cache_info() == {
        "hits": 0,
        "misses": len(seeds),
        "entries": len(set(seeds)),
    }


def run_script(path: str, script):
    """Replay ``(seeds, words)`` calls on one path; outputs and counters."""
    prefix_cache_clear()
    outputs, counters = [], []
    with forced(path):
        for seeds, words in script:
            outputs.append(mt19937_words(seeds, words))
            counters.append(prefix_cache_info())
    return outputs, counters


@settings(max_examples=30, deadline=None)
@given(
    script=st.lists(
        st.tuples(
            st.lists(
                st.one_of(
                    st.sampled_from(BOUNDARY_SEEDS),
                    st.integers(min_value=0, max_value=40),
                ),
                min_size=1,
                max_size=8,
            ),
            st.integers(min_value=1, max_value=MAX_HARVEST_WORDS),
        ),
        min_size=1,
        max_size=5,
    )
)
@example(script=[([3, 2**32], 4), ([3, 2**32, 9, 3], MAX_HARVEST_WORDS), ([3], 2)])
def test_cached_and_uncached_rows_agree_across_paths(script):
    """A cached prefix shorter than the request is a miss and is re-harvested."""
    results = {path: run_script(path, script) for path in PATHS}
    c_out, c_counters = results["c"]
    np_out, np_counters = results["numpy"]
    assert c_counters == np_counters
    for (seeds, words), a, b in zip(script, c_out, np_out):
        assert np.array_equal(a, b)
        assert_rows_match(seeds, words, a)


@pytest.mark.parametrize("path", PATHS)
def test_short_cached_prefix_is_extended(path):
    with forced(path):
        mt19937_words([5, 2**64 - 1], 3)
        out = mt19937_words([5, 2**64 - 1, 2**32], MAX_HARVEST_WORDS)
        again = mt19937_words([2**32, 5], 10)
    assert_rows_match([5, 2**64 - 1, 2**32], MAX_HARVEST_WORDS, out)
    assert_rows_match([2**32, 5], 10, again)
    assert prefix_cache_info() == {"hits": 2, "misses": 5, "entries": 3}


@pytest.mark.parametrize("path", PATHS)
def test_word_pool_serves_the_oracle_stream(path):
    """``WordPool`` draws equal the live generator, through and past overflow."""
    seeds = [0, 2**32, 2**64 - 1]
    with forced(path):
        pool = WordPool(seeds, 4)
    live = [random.Random(seed) for seed in seeds]
    who = np.arange(len(seeds))
    for _ in range(4):  # 8 words each: the harvest, then demoted streams
        assert pool.random(who).tolist() == [rng.random() for rng in live]
    low = np.full(len(seeds), 1, dtype=np.int64)
    high = np.full(len(seeds), 10_000, dtype=np.int64)
    assert pool.randint(who, low, high).tolist() == [
        rng.randint(1, 10_000) for rng in live
    ]


def test_rng_words_advances_the_generator():
    rng = random.Random(2**40 + 3)
    first = sampling.rng_words(rng, 5)
    assert first.tolist() == oracle(2**40 + 3, 5)
    assert rng.getrandbits(32) == oracle(2**40 + 3, 6)[5]
