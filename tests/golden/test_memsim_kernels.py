"""Bit-for-bit pins of the fast memory-simulator kernels.

The parity suite holds the fast engine to the scalar oracle only to
1e-9 relative, and the figure goldens carry tolerances, so neither
notices a change in the last bit of a kernel result.  This golden does:
for every registered machine, every calibration-grid kernel (``C``,
``S``, ``R``, ``D``) at two stream lengths, it pins ``float.hex`` of
``ns``, ``cache_hit_rate`` and ``dram_page_hit_rate``, and the kernel's
``counts``.  Every one of those kernels runs on the fast path: a
machine that leaves its envelope fails here instead of pinning oracle
values.

The lengths are the default measurement length and 5 000 words, which
ends inside a compile block, so the state carried across block seams
and a short last block are both pinned.

Regenerate after an intentional change and commit the diff::

    PYTHONPATH=src python tests/golden/test_memsim_kernels.py
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from repro.machines.measure import _pattern, calibration_entries
from repro.machines.registry import MACHINE_FACTORIES
from repro.memsim.node import DEFAULT_MEASURE_WORDS, NodeMemorySystem

DATA = os.path.join(os.path.dirname(__file__), "data", "memsim", "kernels.json")
LENGTHS = (DEFAULT_MEASURE_WORDS, 5000)

_RESULT_OF = {
    "C": lambda node, read, write: node.copy_result(
        _pattern(read), _pattern(write)
    ),
    "S": lambda node, read, write: node.load_send_result(_pattern(read)),
    "R": lambda node, read, write: node.receive_store_result(_pattern(write)),
    "D": lambda node, read, write: node.deposit_result(_pattern(write)),
}


def _payload() -> Dict[str, List]:
    """``"machine nwords letter read write"`` -> the pinned result."""
    pins: Dict[str, List] = {}
    for machine_key, factory in MACHINE_FACTORIES.items():
        machine = factory()
        for nwords in LENGTHS:
            node = NodeMemorySystem(
                machine.node, nwords=nwords, index_run=machine.index_run
            )
            for letter, read, write in calibration_entries(machine):
                if letter not in _RESULT_OF:
                    continue
                result = _RESULT_OF[letter](node, read, write)
                pins[f"{machine_key} {nwords} {letter} {read} {write}"] = [
                    result.ns.hex(),
                    result.cache_hit_rate.hex(),
                    result.dram_page_hit_rate.hex(),
                    [list(count) for count in result.counts],
                ]
            assert node.fastpath_fallbacks == 0, (machine_key, nwords)
    return pins


def test_fast_kernels_match_the_golden_bit_for_bit():
    with open(DATA) as handle:
        golden = json.load(handle)
    fresh = _payload()
    # A machine added to the registry shows up here until it is pinned.
    assert sorted(fresh) == sorted(golden)
    moved = [
        f"{key}:\n  expected {golden[key]}\n  got      {fresh[key]}"
        for key in sorted(golden)
        if fresh[key] != golden[key]
    ]
    assert not moved, (
        f"{len(moved)} of {len(golden)} kernel result(s) moved:\n"
        + "\n".join(moved)
    )


if __name__ == "__main__":
    payload = _payload()
    with open(DATA, "w") as handle:
        handle.write(
            "{\n"
            + ",\n".join(
                f"{json.dumps(key)}: {json.dumps(payload[key])}"
                for key in sorted(payload)
            )
            + "\n}\n"
        )
