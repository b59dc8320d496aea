"""Serialization of calibration tables and model summaries.

Calibration tables are the interface between measurement campaigns and
model users, so they need a stable on-disk form.  The format is plain
JSON with paper-notation keys::

    {
      "name": "Cray T3D (published)",
      "entries": {"1C1": 93.0, "1C64": 67.9, "Nd": 69.0, ...}
    }

Keys parse back through the same notation rules the library prints
with (``<read><letter><write>``, ``Nd``, ``Nadp``), so a table survives
a round trip bit-exactly.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Union

from .calibration import ThroughputTable
from .errors import CalibrationError
from .transfers import TransferKind

__all__ = ["table_to_dict", "table_from_dict", "dump_table", "load_table"]

_NOTATION = re.compile(r"^(?P<read>0|1|w|\d+(?:x\d+)?)"
                       r"(?P<kind>[CSFRD])"
                       r"(?P<write>0|1|w|\d+(?:x\d+)?)$")

_KIND_BY_LETTER = {
    "C": TransferKind.COPY,
    "S": TransferKind.LOAD_SEND,
    "F": TransferKind.FETCH_SEND,
    "R": TransferKind.RECEIVE_STORE,
    "D": TransferKind.RECEIVE_DEPOSIT,
}


def _parse_side(text: str) -> Union[str, int]:
    if text in ("0", "1", "w"):
        return text
    if "x" in text:
        # Blocked strides key by the stride alone in tables.
        text = text.partition("x")[0]
    return int(text)


def table_to_dict(table: ThroughputTable, measure: bool = True) -> Dict:
    """Serialize a table to a JSON-compatible dict.

    ``measure=False`` leaves a deferred table's unmeasured entries out
    (see :meth:`ThroughputTable.to_dict`).
    """
    return {"name": table.name, "entries": table.to_dict(measure=measure)}


def table_from_dict(payload: Dict) -> ThroughputTable:
    """Rebuild a table from :func:`table_to_dict` output."""
    if "entries" not in payload:
        raise CalibrationError("payload has no 'entries' field")
    table = ThroughputTable(payload.get("name", "unnamed"))
    for key, rate in payload["entries"].items():
        if key == "Nd":
            table.set(TransferKind.NETWORK_DATA, "0", "0", rate)
            continue
        if key == "Nadp":
            table.set(TransferKind.NETWORK_ADP, "0", "0", rate)
            continue
        match = _NOTATION.match(key)
        if not match:
            raise CalibrationError(f"unparseable table key {key!r}")
        table.set(
            _KIND_BY_LETTER[match.group("kind")],
            _parse_side(match.group("read")),
            _parse_side(match.group("write")),
            rate,
        )
    return table


def dump_table(table: ThroughputTable, path: str) -> None:
    """Write a table to a JSON file."""
    with open(path, "w") as handle:
        json.dump(table_to_dict(table), handle, indent=2, sort_keys=True)


def load_table(path: str) -> ThroughputTable:
    """Read a table from a JSON file."""
    with open(path) as handle:
        return table_from_dict(json.load(handle))
