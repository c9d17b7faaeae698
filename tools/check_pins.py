"""Recompute the golden pins without pytest or Hypothesis.

    PYTHONPATH=src python3 tools/check_pins.py

Recomputes the report digests of ``tests/test_golden.py`` and the codec
digests of ``tests/test_codec_golden.py`` with those files' own code and
compares them with ``tests/golden/*.json``. It prints one line per pin
that differs or is missing, then a total, and exits 1 if any does. It is
for an interpreter that has neither pytest nor Hypothesis installed: both
test files are imported with a stand-in for each, whose decorators hand
the test function back unchanged. No test runs; only the pin code does.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1] / "tests"


class _StandIn(types.ModuleType):
    """Any attribute is the stand-in itself, any call returns it, and a
    call on one function alone (a decorator) returns that function."""

    def __getattr__(self, name):
        return self

    def __call__(self, *args, **kwargs):
        if len(args) == 1 and not kwargs and isinstance(args[0], types.FunctionType):
            return args[0]
        return self


def _import_tests():
    for name in ("pytest", "hypothesis"):
        sys.modules.setdefault(name, _StandIn(name))
    sys.path.insert(0, str(TESTS))
    import test_codec_golden
    import test_golden
    return test_golden, test_codec_golden


def _differences(pinned: dict[str, str], computed: dict[str, str]) -> list[str]:
    return [f"{name}: pinned {pinned.get(name)}, computed {computed.get(name)}"
            for name in sorted(pinned.keys() | computed.keys())
            if pinned.get(name) != computed.get(name)]


def main() -> int:
    golden, codec = _import_tests()
    reports = {golden._case_id(*case): golden._report_digest(*case)
               for case in golden._cases()}
    records = {name: codec._digest(record)
               for name, record in codec.records().items()}
    differences = (_differences(golden._pinned(), reports)
                   + _differences(codec._pinned(), records))
    for line in differences:
        print(line)
    print(f"Python {sys.version.split()[0]}: {len(reports)} report and "
          f"{len(records)} codec pins recomputed, {len(differences)} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
