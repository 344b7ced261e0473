"""The result-line format, checked against ``BENCHMARK.json``.

The benchmark's last stdout line is one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Untraced
runs report every ``end_to_end`` metric, traced runs every
``per_layer`` metric, each as ``{"value": <finite number>, "unit":
<declared unit>}``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class FormatError(ValueError):
    """A result line that does not match the declared format."""


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def declared(spec: dict, trace: bool) -> dict[str, str]:
    """Metric name -> unit the given mode must report."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result: dict, spec: dict, trace: bool) -> None:
    """Raise :class:`FormatError` unless ``result`` (and its JSON line)
    matches the contract for this mode."""
    if set(result) != RESULT_KEYS:
        raise FormatError(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    if not isinstance(result["correct"], bool):
        raise FormatError("correct must be a bool")
    for key in ("attempted", "failed"):
        if type(result[key]) is not int or result[key] < 0:
            raise FormatError(f"{key} must be a non-negative whole number")
    if result["attempted"] < 1 or result["failed"] > result["attempted"]:
        raise FormatError("need attempted >= 1 and failed <= attempted")
    want = declared(spec, trace)
    metrics = result["metrics"]
    if set(metrics) != set(want):
        missing, extra = set(want) - set(metrics), set(metrics) - set(want)
        raise FormatError(f"metrics missing {sorted(missing)}, unexpected {sorted(extra)}")
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"}:
            raise FormatError(f"{name}: keys {sorted(entry)} != ['unit', 'value']")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise FormatError(f"{name}: value {value!r} is not a finite number")
        if entry["unit"] != want[name]:
            raise FormatError(f"{name}: unit {entry['unit']!r} != declared {want[name]!r}")
    line = json.dumps(result)
    if "\n" in line or json.loads(line) != result:
        raise FormatError("result does not round-trip as one JSON line")
