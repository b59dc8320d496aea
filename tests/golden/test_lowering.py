"""Pins of the two lowerings of ``xQy``: the runtime's phases and the
code generator's text.

``CommRuntime.phases`` and ``emit_pseudocode`` both render the
operation the model builds (``buffer_packing`` / ``chained``).  These
goldens fix what they produce case by case, so a change to how either
reads the model's expression shows every case it moves:

* ``phases.json``: every registered machine x patterns {1, 64, w}^2 x
  both styles x the four library profiles x deposit engine up or
  faulted x simplex or duplex x three sizes (below, at and above the
  library's fragment size).  A case is the phase list (names, chunk
  sizes, and each stage's name, rate, resource, per-chunk overhead and
  startup) or the ``CompositionError`` the runtime raised.  Rates come
  from the published tables (``rates="paper"``): they are fixed data,
  so the pin holds the lowering and not the memory simulator, and
  building the tables costs nothing.
* ``codegen.json``: ``emit_pseudocode`` text, byte for byte, for every
  registered machine's capabilities x patterns {1, 64, w}^2 x both
  styles.

Regenerate after an intentional change and commit the diff::

    PYTHONPATH=src python tests/golden/test_lowering.py
"""

from __future__ import annotations

import json
import os
from itertools import product
from typing import Dict, List

from repro.compiler import emit_pseudocode
from repro.core.errors import CompositionError
from repro.core.operations import OperationStyle
from repro.core.patterns import CONTIGUOUS, INDEXED, strided
from repro.machines.registry import MACHINE_FACTORIES
from repro.runtime.engine import CommRuntime
from repro.runtime.libraries import (
    lowlevel_profile,
    packing_profile,
    pvm3_profile,
    pvm_profile,
)

DATA = os.path.join(os.path.dirname(__file__), "data", "lowering")
PATTERNS = {"1": CONTIGUOUS, "64": strided(64), "w": INDEXED}
LIBRARIES = {
    "pvm": pvm_profile,
    "pvm3": pvm3_profile,
    "packing": packing_profile,
    "lowlevel": lowlevel_profile,
}
STYLES = tuple(OperationStyle)


def _interned(table: Dict[str, int], value) -> int:
    """``value``'s index in ``table`` (JSON text -> index), added if new."""
    return table.setdefault(json.dumps(value), len(table))


def _phases_payload() -> Dict:
    """Every case, with its stages and phases interned.

    ``cases[machine][library][case]`` holds one outcome index per size.
    An outcome is a list of phase indices, or the error the runtime
    raised.  A phase is ``[name, chunk_bytes, stage indices]`` and a
    stage is ``[name, rate_mbps, resource, chunk_overhead_ns,
    startup_ns]``.
    """
    stages: Dict[str, int] = {}
    phases: Dict[str, int] = {}
    outcomes: Dict[str, int] = {}
    cases: Dict[str, Dict[str, Dict[str, List]]] = {}
    for machine_key, factory in MACHINE_FACTORIES.items():
        machine = factory()
        for lib_key, profile in LIBRARIES.items():
            runtime = CommRuntime(machine, library=profile(), rates="paper")
            fragment = runtime.library.fragment_bytes
            sizes = (fragment // 2, fragment, 2 * fragment)
            cell = cases.setdefault(machine_key, {})[lib_key] = {}
            for (xk, x), (yk, y), style, deposit_ok, duplex in product(
                PATTERNS.items(), PATTERNS.items(), STYLES, (True, False),
                (False, True),
            ):
                key = (
                    f"{xk}Q{yk} {style.value} deposit={int(deposit_ok)} "
                    f"duplex={int(duplex)}"
                )
                cell[key] = []
                for nbytes in sizes:
                    try:
                        planned = runtime.phases(
                            x, y, nbytes, style, deposit_ok=deposit_ok,
                            duplex=duplex,
                        )
                    except CompositionError as exc:
                        outcome = f"CompositionError: {exc}"
                    else:
                        outcome = [
                            _interned(phases, [
                                phase.name,
                                phase.chunk_bytes,
                                [
                                    _interned(stages, [
                                        s.name, s.rate_mbps, s.resource,
                                        s.chunk_overhead_ns, s.startup_ns,
                                    ])
                                    for s in phase.stages
                                ],
                            ])
                            for phase in planned
                        ]
                    cell[key].append(_interned(outcomes, outcome))
    return {
        "rates": "paper",
        "stages": [json.loads(text) for text in stages],
        "phases": [json.loads(text) for text in phases],
        "outcomes": [json.loads(text) for text in outcomes],
        "cases": cases,
    }


def _flat_phases(payload: Dict) -> Dict[str, object]:
    """``"machine library case size#"`` -> its resolved phases or error."""
    def resolve(outcome):
        if isinstance(outcome, str):
            return outcome
        return [
            [name, chunk, [payload["stages"][i] for i in stage_ids]]
            for name, chunk, stage_ids in (payload["phases"][i] for i in outcome)
        ]

    return {
        f"{machine} {lib} {case} size{n}": resolve(payload["outcomes"][i])
        for machine, libs in payload["cases"].items()
        for lib, cell in libs.items()
        for case, indices in cell.items()
        for n, i in enumerate(indices)
    }


def _codegen_payload() -> Dict[str, str]:
    texts: Dict[str, str] = {}
    for machine_key, factory in MACHINE_FACTORIES.items():
        caps = factory().capabilities
        for xk, x in PATTERNS.items():
            for yk, y in PATTERNS.items():
                for style in STYLES:
                    key = f"{machine_key} {xk}Q{yk} {style.value}"
                    texts[key] = emit_pseudocode(x, y, style, caps)
    return texts


PAYLOADS = {"phases": _phases_payload, "codegen": _codegen_payload}


def _load(name: str) -> Dict:
    with open(os.path.join(DATA, f"{name}.json")) as handle:
        return json.load(handle)


def _differences(expected: Dict, got: Dict, show) -> List[str]:
    lines = []
    for key in sorted(set(expected) | set(got)):
        if key not in got:
            lines.append(f"{key}: missing")
        elif key not in expected:
            lines.append(f"{key}: unexpected")
        elif show(expected[key]) != show(got[key]):
            lines.append(
                f"{key}:\n  expected {show(expected[key])}\n"
                f"  got      {show(got[key])}"
            )
    return lines


def test_runtime_phases_match_the_golden():
    golden, fresh = _load("phases"), _phases_payload()
    assert golden["rates"] == fresh["rates"]
    problems = _differences(
        _flat_phases(golden), _flat_phases(fresh), json.dumps
    )
    assert not problems, (
        f"{len(problems)} phase case(s) moved:\n" + "\n".join(problems)
    )


def test_emitted_pseudocode_matches_the_golden():
    problems = _differences(_load("codegen"), _codegen_payload(), repr)
    assert not problems, (
        f"{len(problems)} pseudo-code case(s) moved:\n" + "\n".join(problems)
    )


def _write(name: str, payload: Dict) -> None:
    """Sorted JSON with one second-level entry per line, for small diffs."""
    rows = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, list):
            items = [json.dumps(item) for item in value]
            text = "[\n" + ",\n".join(items) + "\n]"
        elif isinstance(value, dict):
            items = [
                f"{json.dumps(k)}: {json.dumps(value[k], sort_keys=True)}"
                for k in sorted(value)
            ]
            text = "{\n" + ",\n".join(items) + "\n}"
        else:
            text = json.dumps(value)
        rows.append(f"{json.dumps(key)}: {text}")
    with open(os.path.join(DATA, f"{name}.json"), "w") as handle:
        handle.write("{\n" + ",\n".join(rows) + "\n}\n")


if __name__ == "__main__":
    os.makedirs(DATA, exist_ok=True)
    for name, payload in PAYLOADS.items():
        _write(name, payload())
