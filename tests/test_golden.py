"""Pinned report bytes for the shipped scenarios.

Every ``scenarios/*.cps`` runs through ``cloudpass run`` at seeds 1, 2
and 3, once without a fault and once with each README fault verb at
fixed parameters. The SHA-256 of each report file must equal the digest
committed in ``golden/report_digests.json``, so any change that moves a
report byte fails here.

After a deliberate change to the report, re-pin with

    PYTHONPATH=src python tests/test_golden.py > tests/golden/report_digests.json

and say in the change why the bytes moved.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
import tempfile
from pathlib import Path

import pytest

from cloudpass.simnet.cli import EXIT_OK, main

_ROOT = Path(__file__).resolve().parent.parent
_DIGESTS = Path(__file__).resolve().parent / "golden" / "report_digests.json"
_SEEDS = (1, 2, 3)
# The README's fault verbs; {name} is the scenario's traveler.
_FAULTS = (None, "tamper-visa {name} byte=7", "wrong-time {name}",
           "wrong-image-answer {name}", "replay-otp {name}",
           "oversleep {name} wait=601s", "skip-sync")
_TRAVELER_RE = re.compile(r"^traveler\s+(\S+)", re.MULTILINE)


def _cases() -> list[tuple[str, int, str | None]]:
    cases = []
    for path in sorted((_ROOT / "scenarios").glob("*.cps")):
        name = _TRAVELER_RE.search(path.read_text()).group(1)
        for seed in _SEEDS:
            for fault in _FAULTS:
                cases.append((path.name, seed,
                              fault.format(name=name) if fault else None))
    return cases


def _case_id(scenario: str, seed: int, fault: str | None) -> str:
    verb = fault.split()[0] if fault else "none"
    return f"{Path(scenario).stem}-seed{seed}-{verb}"


def _report_digest(scenario: str, seed: int, fault: str | None) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.jsonl"
        argv = ["run", "--scenario", str(_ROOT / "scenarios" / scenario),
                "--seed", str(seed), "--report", str(report)]
        if fault:
            argv += ["--fault", fault]
        assert main(argv) == EXIT_OK
        return hashlib.sha256(report.read_bytes()).hexdigest()


def _pinned() -> dict[str, str]:
    return json.loads(_DIGESTS.read_text())


def test_every_pinned_case_is_run():
    assert sorted(_pinned()) == sorted(_case_id(*case) for case in _cases())


@pytest.mark.parametrize("scenario,seed,fault", _cases(),
                         ids=[_case_id(*case) for case in _cases()])
def test_report_digest(scenario, seed, fault):
    expected = _pinned()[_case_id(scenario, seed, fault)]
    assert _report_digest(scenario, seed, fault) == expected


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_report_digests_hold_in_another_order_in_one_process(order):
    # Process-wide state, the NFC tap memos among it, outlives a run; no
    # run may read what an earlier one left.
    cases = _cases()
    if order == "reversed":
        cases.reverse()
    else:
        random.Random(1968).shuffle(cases)
    pinned = _pinned()
    moved = {}
    for case in cases:
        digest = _report_digest(*case)
        if digest != pinned[_case_id(*case)]:
            moved[_case_id(*case)] = digest
    assert len(cases) == 63
    assert moved == {}


if __name__ == "__main__":
    digests = {_case_id(*case): _report_digest(*case) for case in _cases()}
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
