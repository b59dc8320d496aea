"""Bit-identity of a batch of cells on shared memos against the serial reference.

:func:`~repro.sweep.worker.run_cells` runs a whole batch of cells in
order on one process's worker memos; it is the loop behind
``run_sweep(workers=1)`` and behind every pooled shard.  Memos kept
from one cell to the next, or from one batch to the next, may never
change a bit of any row: the rows must equal those of
:func:`~repro.sweep.run_serial`, which rebuilds every cell from fresh
memos — fault-seeded cells included.
"""

import dataclasses

from hypothesis import given

from repro.sweep import NOMINAL_SEED, SweepResult, run_serial
from repro.sweep import worker as worker_module

from .test_sweep_properties import SLOW_SETTINGS, transfer_specs


class TestBatchBitIdentity:
    @SLOW_SETTINGS
    @given(spec=transfer_specs())
    def test_batch_engine_matches_serial_reference(self, spec):
        seeded = dataclasses.replace(spec, seeds=(NOMINAL_SEED, 3))
        reference = run_serial(seeded)
        worker_module.reset_memos()
        try:
            cold = worker_module.run_cells(seeded.expand())
            warm = worker_module.run_cells(seeded.expand())
        finally:
            worker_module.reset_memos()
        for rows in (cold, warm):
            batched = SweepResult(spec=seeded, rows=tuple(rows))
            assert batched.canonical_json() == reference.canonical_json()
            assert batched.digest() == reference.digest()
