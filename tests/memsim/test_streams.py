"""Tests for address-stream generation (repro.memsim.streams)."""

import numpy as np
import pytest

from repro.core.patterns import CONTIGUOUS, FIXED, INDEXED, strided
from repro.machines import MACHINE_FACTORIES
from repro.memsim import streams
from repro.memsim.config import WORD_BYTES
from repro.memsim.node import DEFAULT_MEASURE_WORDS
from repro.memsim.streams import (
    _indexed_word_offsets,
    _indexed_word_offsets_reference,
    _replay_indexed_word_offsets,
    make_stream,
)

#: The seeds NodeMemorySystem builds its measurement streams with.
CALIBRATION_SEEDS = (12345, 54321)


def assert_matches_reference(nwords, run_length, seed):
    replayed = _indexed_word_offsets(nwords, run_length, seed)
    expected = _indexed_word_offsets_reference(
        nwords, run_length, np.random.default_rng(seed)
    )
    assert replayed.dtype == expected.dtype
    assert replayed.tobytes() == expected.tobytes()


class TestContiguous:
    def test_addresses_are_dense_words(self):
        stream = make_stream(CONTIGUOUS, 16, base=1000)
        expected = 1000 + np.arange(16) * WORD_BYTES
        assert np.array_equal(stream.addresses, expected)

    def test_no_index_addresses(self):
        assert make_stream(CONTIGUOUS, 8).index_addresses is None

    def test_payload_bytes(self):
        assert make_stream(CONTIGUOUS, 10).payload_bytes == 80


class TestStrided:
    def test_constant_stride(self):
        stream = make_stream(strided(64), 4)
        diffs = np.diff(stream.addresses)
        assert np.all(diffs == 64 * WORD_BYTES)

    def test_blocked_stride(self):
        stream = make_stream(strided(8, block=2), 6)
        # Pairs of consecutive words, 8 words apart:
        expected = np.array([0, 8, 64, 72, 128, 136])
        assert np.array_equal(stream.addresses, expected)

    def test_block_tail_truncated(self):
        stream = make_stream(strided(8, block=2), 5)
        assert stream.nwords == 5


class TestIndexed:
    def test_has_index_addresses(self):
        stream = make_stream(INDEXED, 64)
        assert stream.index_addresses is not None
        assert len(stream.index_addresses) == 64
        # Index elements are 4-byte ints read contiguously.
        assert np.all(np.diff(stream.index_addresses) == 4)

    def test_deterministic_given_seed(self):
        a = make_stream(INDEXED, 128, seed=7)
        b = make_stream(INDEXED, 128, seed=7)
        assert np.array_equal(a.addresses, b.addresses)

    def test_different_seeds_differ(self):
        a = make_stream(INDEXED, 128, seed=7)
        b = make_stream(INDEXED, 128, seed=8)
        assert not np.array_equal(a.addresses, b.addresses)

    def test_index_array_disjoint_from_data(self):
        stream = make_stream(INDEXED, 256)
        assert stream.index_addresses.min() > stream.addresses.max()

    def test_addresses_word_aligned(self):
        stream = make_stream(INDEXED, 256)
        assert np.all(stream.addresses % WORD_BYTES == 0)

    def test_run_length_increases_page_locality(self):
        def page_hit_fraction(run):
            stream = make_stream(INDEXED, 4096, seed=3, index_run=run)
            pages = stream.addresses // 256
            return float(np.mean(pages[1:] == pages[:-1]))

        assert page_hit_fraction(8) > page_hit_fraction(1) + 0.2

    def test_run_one_has_negligible_locality(self):
        stream = make_stream(INDEXED, 4096, seed=3, index_run=1)
        pages = stream.addresses // 256
        assert float(np.mean(pages[1:] == pages[:-1])) < 0.1


class TestIndexedReplay:
    """The bulk replay reproduces the per-run reference loop exactly."""

    @pytest.mark.parametrize("run_length", [1, 2, 3])
    @pytest.mark.parametrize(
        "nwords", [16, 17, 31, 100, 2047, 2048, 2049, 4097, 32768, 65536]
    )
    @pytest.mark.parametrize("seed", CALIBRATION_SEEDS)
    def test_matches_reference(self, nwords, run_length, seed):
        assert_matches_reference(nwords, run_length, seed)

    @pytest.mark.parametrize("run_length", [1, 2, 3])
    def test_every_length_across_small_blocks(self, run_length, monkeypatch):
        # Blocks barely longer than one run's lookahead: streams of every
        # length up to 400 words end at every point of a block and carry
        # state (a buffered half included) across many boundaries.
        monkeypatch.setattr(streams, "_REPLAY_BLOCK_WORDS", 24)
        for nwords in range(16, 400):
            assert_matches_reference(nwords, run_length, nwords)

    @pytest.mark.parametrize("run_length", [4, 1000])
    def test_long_runs_are_the_reference(self, run_length):
        # NumPy draws these by inversion: outside the replay envelope.
        assert_matches_reference(4096, run_length, 12345)

    @pytest.mark.parametrize("nwords", [1, 7, 8, 15])
    def test_single_region_is_the_reference(self, nwords):
        assert_matches_reference(nwords, 2, 12345)

    @pytest.mark.parametrize(
        "run_length, seed", [(1, 6385), (2, 1726), (3, 6385)]
    )
    def test_region_rejection_is_the_reference(self, run_length, seed):
        # 4264 words make 533 regions, whose Lemire draw rejects a half
        # with probability 529 / 2**32; these seeds hit one.
        nwords, n_regions = 4264, 533
        replay = _replay_indexed_word_offsets(
            nwords, 1.0 / run_length, 32, n_regions, np.random.PCG64(seed)
        )
        assert replay is None
        assert_matches_reference(nwords, run_length, seed)

    def test_calibration_streams_never_fall_back(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("indexed stream left the replay envelope")

        monkeypatch.setattr(
            streams, "_indexed_word_offsets_reference", forbidden
        )
        runs = {factory().index_run for factory in MACHINE_FACTORIES.values()}
        for index_run in sorted(runs):
            for seed in CALIBRATION_SEEDS:
                stream = make_stream(
                    INDEXED, DEFAULT_MEASURE_WORDS, seed=seed, index_run=index_run
                )
                assert stream.nwords == DEFAULT_MEASURE_WORDS


class TestValidation:
    def test_fixed_pattern_rejected(self):
        with pytest.raises(ValueError):
            make_stream(FIXED, 8)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            make_stream(CONTIGUOUS, 0)
