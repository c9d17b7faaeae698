"""The reference kernel that the benchmark counts host time against.

The machine a benchmark runs on may change speed while it runs (other
tenants of a shared core, frequency scaling). The kernel below is timed
right around the program's work, and the program's time is reported as a
multiple of it, so a machine-wide slowdown moves both and cancels out.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class _Record:
    number: int
    name: str
    pair: tuple


def reference_seconds() -> float:
    """Time one run of a fixed stdlib-only kernel: build frozen records,
    copy them with ``dataclasses.replace``, turn them into dicts, dump
    them to JSON and index them by name.

    It shares no code with cloudpass, so no change to the program moves
    it, but it is the same kind of interpreter work as the simulator
    (frozen dataclasses, ``replace``, dicts, JSON), so it slows down with
    the program when other tenants of a shared machine load the core.
    """
    start = time.perf_counter()
    rows = []
    for i in range(600):
        record = replace(_Record(i, f"n{i:05d}", (i, i + 1)), number=2 * i)
        rows.append({"seq": record.number, "name": record.name,
                     "pair": list(record.pair)})
    json.dumps(rows)
    {row["name"]: row["seq"] for row in rows}
    return time.perf_counter() - start

