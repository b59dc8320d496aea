"""The node harness's memo of indexed-stream offsets (one draw of ω per seed).

A :class:`~repro.memsim.node.NodeMemorySystem` keeps the word offsets
of each indexed stream it builds, by seed, and hands them read-only to
every later indexed stream with that seed.  Reusing them must change no
kernel result on any machine, on the fast path or on the scalar
oracle.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.caching import CACHE_DIR_ENV, CACHE_ENV, default_cache
from repro.core.patterns import INDEXED
from repro.machines import MACHINE_FACTORIES
from repro.machines.measure import _pattern, calibration_entries
from repro.memsim import streams
from repro.memsim.node import NodeMemorySystem

#: Short streams keep the every-machine, both-engine grid quick.
_WORDS = 2048

_RESULT_OF = {
    "C": lambda node, read, write: node.copy_result(
        _pattern(read), _pattern(write)
    ),
    "S": lambda node, read, write: node.load_send_result(_pattern(read)),
    "F": lambda node, read, write: node.fetch_send_result(),
    "R": lambda node, read, write: node.receive_store_result(_pattern(write)),
    "D": lambda node, read, write: node.deposit_result(_pattern(write)),
}


def _harness(machine):
    return NodeMemorySystem(
        machine.node, nwords=_WORDS, index_run=machine.index_run
    )


@pytest.mark.parametrize("engine", ["fast", "scalar"])
@pytest.mark.parametrize("machine_key", sorted(MACHINE_FACTORIES))
def test_one_harness_measures_what_fresh_harnesses_do(
    machine_key, engine, scalar_oracle
):
    machine = MACHINE_FACTORIES[machine_key]()
    shared = _harness(machine)
    kernels = [
        entry for entry in calibration_entries(machine) if entry[0] in _RESULT_OF
    ]
    assert any("w" in entry for entry in kernels)
    with scalar_oracle() if engine == "scalar" else nullcontext() as oracle:
        for letter, read, write in kernels:
            result_of = _RESULT_OF[letter]
            memoized = result_of(shared, read, write)
            fresh_harness = _harness(machine)
            fresh = result_of(fresh_harness, read, write)
            # KernelResult equality leaves the tallies out; compare
            # them too.
            assert memoized == fresh, (letter, read, write)
            assert memoized.counts == fresh.counts, (letter, read, write)
            if letter != "F":
                assert fresh_harness.last_engine == engine
    if oracle is not None:
        assert oracle.kernels > 0
    assert shared._indexed_offsets


def test_memoized_offsets_are_read_only():
    machine = MACHINE_FACTORIES["t3d"]()
    node = _harness(machine)
    node.measure_copy(INDEXED, INDEXED)
    assert sorted(node._indexed_offsets) == [12345, 54321]
    for offsets in node._indexed_offsets.values():
        with pytest.raises(ValueError):
            offsets[0] = 1


def test_the_memo_hands_out_the_offsets_it_drew():
    offsets_by_seed = {}
    first = streams.make_stream(
        INDEXED, _WORDS, seed=7, offsets_by_seed=offsets_by_seed
    )
    again = streams.make_stream(
        INDEXED, _WORDS, base=4096, seed=7, offsets_by_seed=offsets_by_seed
    )
    plain = streams.make_stream(INDEXED, _WORDS, seed=7)
    assert np.array_equal(first.addresses, plain.addresses)
    assert np.array_equal(first.index_addresses, plain.index_addresses)
    assert np.array_equal(again.addresses, plain.addresses + 4096)
    assert list(offsets_by_seed) == [7]


def test_cold_figures_draw_each_seed_once_per_machine(monkeypatch, tmp_path):
    """A cold Figure 7 or 8 reads four ω kernels per machine (1Cω, ωC1,
    ωS0 and the ω receive or deposit) on two seeds: two draws."""
    from repro.bench.experiments import figure7, figure8
    from repro.sweep.worker import reset_memos

    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    draws = []
    draw = streams._indexed_word_offsets

    def counted(nwords, run_length, seed):
        draws.append(seed)
        return draw(nwords, run_length, seed)

    monkeypatch.setattr(streams, "_indexed_word_offsets", counted)
    for figure in (figure7, figure8):
        default_cache().clear()
        reset_memos()
        draws.clear()
        figure()
        assert sorted(draws) == [12345, 54321], figure.__name__
