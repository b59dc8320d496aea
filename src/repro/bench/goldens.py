"""Golden-value regression harness for the paper experiments.

The accuracy suite (:mod:`repro.bench.accuracy`, ``benchmarks/``)
checks our numbers against the *paper's* within loose ratios — it
answers "is the reproduction faithful?".  This module answers a
different question: "did our own numbers move?".  Every target
experiment has a committed JSON golden (``tests/golden/data/``) of the
values the library currently produces; the golden tests regenerate
each experiment and demand agreement cell by cell, so an accidental
behavioral change — a timing-rule edit, an engine divergence, a cache
mixing stale entries — fails loudly with a readable per-cell report
even when it stays inside the paper-accuracy envelope.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python scripts/regen_goldens.py

and commit the diff — the diff itself then documents exactly which
published numbers the change moved.
"""

from __future__ import annotations

import json
import math
import os
from typing import Callable, Dict, List, Tuple

from ..contract import GOLDEN as GOLDEN_SCHEMA

__all__ = [
    "GOLDEN_SCHEMA",
    "GOLDEN_TARGETS",
    "GOLDEN_JSON_TARGETS",
    "DEFAULT_REL_TOL",
    "golden_dir",
    "golden_path",
    "generate_golden",
    "load_golden",
    "load_json_golden",
    "compare_values",
    "json_diff",
    "render_mismatches",
]

#: Default per-cell relative tolerance.  The simulation is pure
#: deterministic float arithmetic, so goldens reproduce exactly on the
#: platform that wrote them; the slack only absorbs cross-platform
#: libm/vectorization differences in the last ulps.
DEFAULT_REL_TOL = 1e-6


def golden_dir() -> str:
    """The committed golden directory (``tests/golden/data``)."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "tests", "golden", "data")


def golden_path(name: str) -> str:
    return os.path.join(golden_dir(), f"{name}.json")


# -- value generators ---------------------------------------------------------
#
# Each returns a flat {cell_key: value} mapping.  Keys are chosen to be
# stable and self-describing ("1C64", "strided stores (1Cs)@16",
# "1Q64/chained measured") so a failure names the exact number that
# moved.


def _comparison_values(rows) -> Dict[str, float]:
    return {row.label: row.ours for row in rows}


def _table_values(table_fn, machine_key: str) -> Dict[str, float]:
    from ..machines import paragon, t3d

    machine = {"t3d": t3d, "paragon": paragon}[machine_key]()
    return _comparison_values(table_fn(machine))


def _figure4_values(machine_key: str) -> Dict[str, float]:
    from ..machines import paragon, t3d

    from .experiments import figure4

    machine = {"t3d": t3d, "paragon": paragon}[machine_key]()
    values: Dict[str, float] = {}
    for series, points in figure4(machine).items():
        for stride, rate in points:
            values[f"{series}@{stride}"] = rate
    return values


def _grid_values(figure_fn) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for pattern, entries in figure_fn().items():
        for entry, rate in entries.items():
            values[f"{pattern}/{entry}"] = rate
    return values


def _make_targets() -> Dict[str, Callable[[], Dict[str, float]]]:
    from .experiments import (
        collective_table,
        figure7,
        figure8,
        machine_grid,
        table1,
        table2,
        table3,
    )

    targets: Dict[str, Callable[[], Dict[str, float]]] = {}
    for machine_key in ("t3d", "paragon"):
        for table_name, table_fn in (
            ("table1", table1),
            ("table2", table2),
            ("table3", table3),
        ):
            targets[f"{table_name}_{machine_key}"] = (
                lambda fn=table_fn, key=machine_key: _table_values(fn, key)
            )
        targets[f"figure4_{machine_key}"] = (
            lambda key=machine_key: _figure4_values(key)
        )
    targets["figure7"] = lambda: _grid_values(figure7)
    targets["figure8"] = lambda: _grid_values(figure8)
    # The new machines get the same figure7-style grid pin, plus a
    # collective table pinning algorithm costs and crossover picks.
    for machine_key in ("cluster", "xe"):
        targets[f"figure7_{machine_key}"] = (
            lambda key=machine_key: _grid_values(
                lambda: machine_grid(key)
            )
        )
        targets[f"collectives_{machine_key}"] = (
            lambda key=machine_key: _grid_values(
                lambda: collective_table(key)
            )
        )
    return targets


#: Golden target registry: name -> zero-arg generator of cell values.
GOLDEN_TARGETS: Dict[str, Callable[[], Dict[str, float]]] = _make_targets()


# -- exact-JSON targets (verifier diagnostics) --------------------------------
#
# Unlike the numeric targets above (compared within a relative
# tolerance), these goldens pin an entire JSON payload bit for bit:
# the verifier's diagnostics — rule ids, messages, spans, bounds,
# coverage verdicts — are discrete artifacts where any drift is a
# behavior change worth reviewing.


def _verify_payload(machine_key: str, example: str) -> Dict:
    from ..analysis.verify.examples import example_payload

    return example_payload(machine_key, example)


def _verify_collective_payload(machine_key: str) -> Dict:
    from ..analysis.verify.api import results_payload, verify_plan
    from ..analysis.verify.examples import collective_plan, example_machine

    plan = collective_plan("broadcast", 8)
    model = example_machine(machine_key).model()
    return results_payload([verify_plan(plan, model=model)])


def _make_json_targets() -> Dict[str, Callable[[], Dict]]:
    targets: Dict[str, Callable[[], Dict]] = {}
    for machine_key in ("t3d", "paragon"):
        for example in ("clean", "racy"):
            targets[f"verify_{example}_{machine_key}"] = (
                lambda key=machine_key, ex=example: _verify_payload(key, ex)
            )
    # One collective plan verified end to end on every registered
    # machine: the plan IR lowering, the CT21x passes and the bounds
    # all pinned bit for bit.
    from ..machines.registry import machine_names

    for machine_key in machine_names():
        targets[f"verify_collective_{machine_key}"] = (
            lambda key=machine_key: _verify_collective_payload(key)
        )
    return targets


#: Exact-equality golden registry: name -> zero-arg payload generator.
#: The committed file *is* the payload (no golden envelope); it carries
#: its own schema tag (``repro-verify-report/1``).
GOLDEN_JSON_TARGETS: Dict[str, Callable[[], Dict]] = _make_json_targets()


def load_json_golden(name: str) -> Dict:
    with open(golden_path(name)) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "schema" not in payload:
        raise ValueError(f"{golden_path(name)}: not a schema-tagged payload")
    return payload


def json_diff(expected, got, path: str = "$") -> List[str]:
    """Recursive exact diff of two JSON-plain values.

    Returns human-readable ``path: problem`` lines; empty means the
    values are identical.
    """
    problems: List[str] = []
    if type(expected) is not type(got):
        problems.append(
            f"{path}: type {type(got).__name__}, "
            f"expected {type(expected).__name__}"
        )
    elif isinstance(expected, dict):
        for key in sorted(set(expected) - set(got)):
            problems.append(f"{path}.{key}: missing")
        for key in sorted(set(got) - set(expected)):
            problems.append(f"{path}.{key}: unexpected")
        for key in sorted(set(expected) & set(got)):
            problems.extend(json_diff(expected[key], got[key], f"{path}.{key}"))
    elif isinstance(expected, list):
        if len(expected) != len(got):
            problems.append(
                f"{path}: length {len(got)}, expected {len(expected)}"
            )
        for index, (want, have) in enumerate(zip(expected, got)):
            problems.extend(json_diff(want, have, f"{path}[{index}]"))
    elif expected != got:
        problems.append(f"{path}: {got!r}, expected {expected!r}")
    return problems


# -- payloads -----------------------------------------------------------------


def generate_golden(name: str) -> Dict:
    """Regenerate the golden payload for one target."""
    values = GOLDEN_TARGETS[name]()
    return {
        "schema": GOLDEN_SCHEMA,
        "name": name,
        "rel_tol": DEFAULT_REL_TOL,
        "tolerances": {},  # per-cell overrides, edited by hand if needed
        "values": {key: values[key] for key in sorted(values)},
    }


def load_golden(name: str) -> Dict:
    with open(golden_path(name)) as handle:
        payload = json.load(handle)
    if payload.get("schema") != GOLDEN_SCHEMA:
        raise ValueError(
            f"{golden_path(name)}: expected schema {GOLDEN_SCHEMA!r}, "
            f"got {payload.get('schema')!r}"
        )
    return payload


# -- comparison ---------------------------------------------------------------


def compare_values(
    golden: Dict, fresh: Dict[str, float]
) -> List[Tuple[str, str]]:
    """Diff fresh values against a golden payload.

    Returns ``(cell_key, problem)`` pairs — empty when everything
    agrees within tolerance.  Missing and unexpected cells are
    problems too: a silently grown or shrunk grid is a behavior
    change.
    """
    rel_tol = float(golden.get("rel_tol", DEFAULT_REL_TOL))
    overrides = golden.get("tolerances", {})
    expected = golden["values"]
    problems: List[Tuple[str, str]] = []
    for key in sorted(set(expected) - set(fresh)):
        problems.append((key, "missing from regenerated values"))
    for key in sorted(set(fresh) - set(expected)):
        problems.append(
            (key, f"unexpected new cell (value {fresh[key]:.6g})")
        )
    for key in sorted(set(expected) & set(fresh)):
        want = float(expected[key])
        got = float(fresh[key])
        tol = float(overrides.get(key, rel_tol))
        if not math.isclose(got, want, rel_tol=tol, abs_tol=tol):
            drift = (got / want - 1.0) * 100.0 if want else float("inf")
            problems.append(
                (
                    key,
                    f"expected {want:.9g}, got {got:.9g} "
                    f"({drift:+.4f}%, tol {tol:g})",
                )
            )
    return problems


def render_mismatches(name: str, problems: List[Tuple[str, str]]) -> str:
    """A readable failure report for one golden target."""
    lines = [
        f"golden {name!r}: {len(problems)} cell(s) drifted",
        "(intentional change? regenerate with "
        "`PYTHONPATH=src python scripts/regen_goldens.py` and commit "
        "the diff)",
    ]
    for key, problem in problems:
        lines.append(f"  {key:40} {problem}")
    return "\n".join(lines)
