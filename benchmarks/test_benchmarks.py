"""Self-tests for the benchmark's generator, ledger and tracing.

Run with ``python3 -m pytest benchmarks``. They live beside the benchmark,
outside ``tests/``, so the program's own suite stays as fast as it is.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import generate  # noqa: E402
import layers  # noqa: E402
import ledger  # noqa: E402
from cloudpass import wire  # noqa: E402
from cloudpass.simnet import engine, events, scenario  # noqa: E402
from spans import Tracer  # noqa: E402

SCENARIOS = ROOT / "scenarios"


def _outcomes(evs) -> list[tuple]:
    return [(e.actor, e.details["checkpoint"], e.details["airport"],
             e.details["outcome"]) for e in evs if e.event == "check-outcome"]


def _expected(text, faults=()) -> list[tuple]:
    return [(e.traveler, e.checkpoint, e.airport, e.outcome)
            for e in ledger.expected_checks(text, faults)]


@pytest.mark.parametrize("make", [
    generate.enroll_scenario, generate.border_scenario, generate.wire_lines,
    lambda seed: generate.fault_sweep(seed, SCENARIOS)])
def test_generator_is_deterministic(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


@pytest.mark.parametrize("make", [generate.enroll_scenario,
                                  generate.border_scenario])
def test_generated_scenarios_load_and_match_ledger(make):
    for seed in (1, 2):
        text = make(seed)
        world, evs = engine.run(scenario.load_scenario(text, seed))
        expected = _expected(text)
        assert expected and all(e[3] == "PERMIT" for e in expected)
        assert _outcomes(evs) == expected


def test_sweep_ledger_right_for_every_shipped_scenario_and_fault():
    runs = generate.fault_sweep(3, SCENARIOS)
    shipped = {p.name for p in SCENARIOS.glob("*.cps")}
    assert {r.scenario for r in runs} == shipped
    assert {r.fault.split()[0] for r in runs} == set(generate.FAULT_VERBS)
    for run in runs:
        fault = scenario.parse_fault(run.fault)
        _, evs = engine.run(scenario.load_scenario(run.text, run.seed), (fault,))
        assert _outcomes(evs) == _expected(run.text, [run.fault]), run


def test_second_tamper_at_same_offset_restores_the_image():
    text = (SCENARIOS / "tampered_visa.cps").read_text()
    for fault, outcome in (("tamper-visa alice byte=7", "PERMIT"),
                           ("tamper-visa alice byte=263", "PERMIT"),
                           ("tamper-visa alice byte=8", "ISOLATE")):
        expected = _expected(text, [fault])
        assert [e[3] for e in expected] == [outcome, outcome]
        _, evs = engine.run(scenario.load_scenario(text, 5),
                            (scenario.parse_fault(fault),))
        assert _outcomes(evs) == expected


def test_lock_persists_for_later_checks():
    text = (SCENARIOS / "happy_path.cps").read_text()
    expected = _expected(text, ["wrong-image-answer alice"])
    assert [e[3] for e in expected] == ["LOCK_AND_ALERT", "LOCK_AND_ALERT"]


def test_wire_replies_match_expected_status():
    from cloudpass.clouds import AirportCloud, EmbassyCloud
    import random
    embassy = EmbassyCloud(generate.WIRE_EMBASSY, bytes(16))
    airport = AirportCloud(generate.WIRE_AIRPORT)
    rng = random.Random(0)
    payloads = {}
    for i, line in enumerate(generate.wire_lines(4)):
        text = line.text(payloads)
        reply = (wire.handle_embassy_line(embassy, text, rng)
                 if line.role == "embassy" else wire.handle_airport_line(airport, text))
        status, _, payload = reply.partition(" ")
        assert status == line.status, (text[:60], reply[:60])
        if isinstance(line.reply, bytes):
            assert payload == line.reply.hex()
        elif line.reply is not None:
            assert payload == line.reply
        payloads[i] = payload


def test_tracing_wraps_by_name_imports_and_restores_them():
    from cloudpass import immigration, nfc
    original = nfc.tap_check
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert immigration.tap_check is nfc.tap_check is not original
        text = (SCENARIOS / "happy_path.cps").read_text()
        _, evs = engine.run(scenario.load_scenario(text, 42))
        events.emit_report(evs, io.StringIO())
    finally:
        tracer.uninstall()
    assert immigration.tap_check is nfc.tap_check is original
    names = {span[0] for span in tracer.spans}
    assert {"nfc.tap_check", "qrlink.encode", "immigration.run_check",
            "engine.cmd.depart", "events.emit_report"} <= names
    checks = [s for s in tracer.spans if s[0] == "immigration.run_check"]
    for check in checks:
        parent = tracer.spans[check[3]]
        assert parent[0] == "engine.cmd." + ("depart", "arrive")[checks.index(check)]
        assert parent[4] == check[4]
    metrics = layers.metrics(tracer, 1, 1, [1.0], 1.0)
    assert list(metrics) == list(layers.PER_LAYER)
    assert metrics["immigration.outcome.PERMIT"] == 2
    assert metrics["nfc.tap_check_calls"] == 2


def test_sliced_timer_times_the_kernel_inside_a_long_item():
    import time
    import run
    timer = run.Timer(sliced=True)
    timer.start()
    end = time.process_time() + 6 * run.SLICE_S
    while time.process_time() < end:
        pass
    timer.stop()
    assert len(timer.items) >= 4
    assert len(timer.refs) == len(timer.items) + 1
    assert timer.in_refs > 0


def _declared(section: str) -> list[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc[section]]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section, capsys):
    import run
    run.main(["--workload", "wire", "--seed", "1", "--seconds", "0.2",
              "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == _declared(section)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "enroll", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
