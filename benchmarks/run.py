"""The cloudpass benchmark: one command, four workloads.

    python3 benchmarks/run.py --workload enroll --seed 1 --seconds 12 --trace 0

Generates the workload's inputs from ``--seed``, times cloudpass from the
outside in a closed loop (one thread, the next op starts when the last
returns), checks every output against the generator's expectations, and
prints one JSON object as the last line of stdout:

* ``--trace 0``: the end-to-end metrics ``setup_s``, ``ops_per_ref`` and
  ``peak_rss_mb``, with tracing off;
* ``--trace 1``: half the time untraced, half with spans around every
  layer boundary (see ``layers.py``), and the per-layer metrics plus the
  tracing overhead. The spans are written to ``.bench_out/``.

Lines before the JSON give the deterministic counts of one unit (events,
QR bits, virtual seconds, outcomes, report digest), which a speed-only
change must leave identical, and the error rate. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 15
# Nominal time of the set-up reference (see setup_probe.py), which turns
# set-up time counted against it back into seconds.
SETUP_REFERENCE_S = 0.040
# CPU seconds between two reference runs inside a long item of work.
SLICE_S = 0.05

import generate  # noqa: E402
import layers  # noqa: E402
import ledger  # noqa: E402
from reference import reference_seconds  # noqa: E402
from spans import Tracer  # noqa: E402


def load_program():
    """Import cloudpass from this checkout's source tree, and only there."""
    init = SRC / "cloudpass" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: no cloudpass source at {init}")
    sys.path.insert(0, str(SRC))
    import cloudpass
    if Path(cloudpass.__file__).resolve() != init.resolve():
        raise SystemExit(f"benchmark: imported cloudpass from {cloudpass.__file__}, "
                         f"not {init}")
    return cloudpass


class Timer:
    """Host time of the program's work, in items, with the reference
    kernel timed before the first item and after every item.

    A sliced timer also cuts a long item into slices: an interval timer
    interrupts the work every SLICE_S seconds of CPU time and the signal
    handler times the reference kernel there, between two bytecodes of the
    program. The kernel's own time is left out of the items, so a change
    of the machine's speed in the middle of a long run is tracked as well.
    Traced units are not sliced, so no span covers the kernel.
    """

    def __init__(self, sliced: bool = False):
        self.items: list[float] = []
        self.refs = [reference_seconds()]
        self.sliced = sliced
        self._start = 0.0
        self._running = False

    def start(self) -> None:
        self._start = time.perf_counter()
        self._running = True
        if self.sliced:
            signal.signal(signal.SIGVTALRM, self._slice)
            signal.setitimer(signal.ITIMER_VIRTUAL, SLICE_S, SLICE_S)

    def _slice(self, signum, frame) -> None:
        if self._running:
            self.add(time.perf_counter() - self._start)
            self._start = time.perf_counter()

    def stop(self) -> None:
        self._running = False
        end = time.perf_counter()
        if self.sliced:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        self.add(end - self._start)

    def add(self, seconds: float) -> None:
        """Record an item timed by the caller."""
        self.items.append(seconds)
        self.refs.append(reference_seconds())

    @property
    def seconds(self) -> float:
        return sum(self.items)

    @property
    def in_refs(self) -> float:
        """The items' time counted in runs of the reference kernel, each
        against the mean of the reference times right around it."""
        return sum(2 * item / (before + after) for item, before, after
                   in zip(self.items, self.refs, self.refs[1:]))


@dataclass
class Unit:
    """One pass over a workload's inputs."""

    ops: int
    timer: Timer
    failed: int
    digest: str
    counts: dict
    devices: list = field(default_factory=list)   # kept by traced units only

    @property
    def ops_per_ref(self) -> float:
        return self.ops / self.timer.in_refs


def _outcomes(events) -> list[tuple]:
    return [(e.actor, e.details["checkpoint"], e.details["airport"],
             e.details["outcome"]) for e in events if e.event == "check-outcome"]


def _mismatches(actual: list, expected: list) -> int:
    return sum(a != e for a, e in zip(actual, expected)) + abs(len(actual) - len(expected))


def _scenario_counts(events, world) -> Counter:
    counts = Counter(e.details["outcome"] for e in events if e.event == "check-outcome")
    counts["events"] = len(events)
    counts["qr_bits_sum"] = sum(e.details["qr_bits"] for e in events
                                if e.event == "visa-downloaded")
    counts["virtual_s"] = world.clock.now
    return counts


class ScenarioWorkload:
    """``enroll`` and ``border``: one op is one scenario command."""

    setup_kind = "scenario"

    def __init__(self, program, text: str, seed: int):
        self.program, self.text, self.seed = program, text, seed
        self.setup_input = text
        self.expected = [(e.traveler, e.checkpoint, e.airport, e.outcome)
                         for e in ledger.expected_checks(text)]
        self.scenario = program.simnet.scenario.load_scenario(text, seed)
        self.travelers = sum(c.verb == "traveler" for c in self.scenario.commands)

    def unit(self, traced: bool) -> Unit:
        simnet = self.program.simnet
        scenario = (simnet.scenario.load_scenario(self.text, self.seed) if traced
                    else self.scenario)
        report = io.StringIO()
        timer = Timer(sliced=not traced)
        timer.start()
        try:
            world, events = simnet.engine.run(scenario)
            simnet.events.emit_report(events, report)
        except self.program.ScenarioRuntimeError as exc:
            timer.stop()
            return Unit(exc.index + 1, timer, 1, "", {})
        timer.stop()
        text = report.getvalue()
        return Unit(len(scenario.commands), timer,
                    _mismatches(_outcomes(events), self.expected),
                    hashlib.sha256(text.encode()).hexdigest(),
                    _scenario_counts(events, world),
                    [t.device for t in world.travelers.values()] if traced else [])


class SweepWorkload:
    """``fault_sweep``: one op is a whole small run, parse to report, as
    ``cloudpass run --fault`` does it."""

    setup_kind = "import"
    setup_input = ""

    def __init__(self, program, seed: int):
        self.program = program
        self.runs = generate.fault_sweep(seed, ROOT / "scenarios")
        if not self.runs:
            raise SystemExit("benchmark: no scenarios/*.cps to sweep")
        self.expected = [[(e.traveler, e.checkpoint, e.airport, e.outcome)
                          for e in ledger.expected_checks(r.text, [r.fault])]
                         for r in self.runs]
        self.travelers = len(self.runs)

    def unit(self, traced: bool) -> Unit:
        simnet = self.program.simnet
        digest = hashlib.sha256()
        counts: Counter = Counter()
        timer, failed, devices = Timer(sliced=not traced), 0, []
        for run, expected in zip(self.runs, self.expected):
            report = io.StringIO()
            timer.start()
            try:
                scenario = simnet.scenario.load_scenario(run.text, run.seed)
                fault = simnet.scenario.parse_fault(run.fault)
                world, events = simnet.engine.run(scenario, (fault,))
                simnet.events.emit_report(events, report)
            except self.program.ScenarioRuntimeError:
                timer.stop()
                failed += 1
                continue
            timer.stop()
            failed += _mismatches(_outcomes(events), expected) > 0
            digest.update(report.getvalue().encode())
            counts.update(_scenario_counts(events, world))
            if traced:
                devices.extend(t.device for t in world.travelers.values())
        return Unit(len(self.runs), timer, failed, digest.hexdigest(),
                    counts, devices)


class WireWorkload:
    """``wire``: one op is one request line answered by the pure handlers
    of a fresh embassy and airport cloud."""

    setup_kind = "wire"
    setup_input = ""

    def __init__(self, program, seed: int):
        self.program, self.seed = program, seed
        self.lines = generate.wire_lines(seed)
        self.travelers = generate.WIRE_RECORDS
        # Replies whose payload a later request carries.
        self.referenced = {part for line in self.lines for part in line.parts
                           if isinstance(part, int)}

    def unit(self, traced: bool) -> Unit:
        """Only the handler calls are timed. Filling in a request and
        checking its reply happen between them, and no reply is kept
        beyond the payloads later requests carry."""
        clouds, wire = self.program.clouds, self.program.wire
        embassy = clouds.EmbassyCloud(generate.WIRE_EMBASSY, bytes(16))
        airport = clouds.AirportCloud(generate.WIRE_AIRPORT)
        rng = random.Random(self.seed)
        clock = time.perf_counter
        payloads: dict[int, str] = {}
        digest = hashlib.sha256()
        counts: Counter = Counter()
        busy, failed = 0.0, 0
        timer = Timer()
        for i, line in enumerate(self.lines):
            text = line.text(payloads)
            if line.role == "embassy":
                start = clock()
                reply = wire.handle_embassy_line(embassy, text, rng)
            else:
                start = clock()
                reply = wire.handle_airport_line(airport, text)
            busy += clock() - start
            digest.update(reply.encode() + b"\n")
            status, _, payload = reply.partition(" ")
            counts[status] += 1
            if i in self.referenced:
                payloads[i] = payload
            if line.verb == "COMPARE" and status == "OK":
                counts[f"compare.{payload}"] += 1
            expected = line.reply.hex() if isinstance(line.reply, bytes) else line.reply
            failed += status != line.status or (
                expected is not None and payload != expected)
        timer.add(busy)
        return Unit(len(self.lines), timer, failed, digest.hexdigest(), counts)


def make_workload(name: str, seed: int, program):
    if name == "enroll":
        return ScenarioWorkload(program, generate.enroll_scenario(seed), seed)
    if name == "border":
        return ScenarioWorkload(program, generate.border_scenario(seed), seed)
    if name == "fault_sweep":
        return SweepWorkload(program, seed)
    return WireWorkload(program, seed)


WORKLOADS = ("enroll", "border", "fault_sweep", "wire")


def setup_seconds(workload) -> tuple[float, float]:
    """Set-up time of fresh interpreters, median over SETUP_PROBES after
    one unmeasured start that leaves the bytecode cache warm.

    Returns it counted against the set-up reference timed in the same
    interpreter right after it, in seconds at the nominal reference time
    SETUP_REFERENCE_S, and in plain host seconds.
    """
    normalised, plain = [], []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC),
             workload.setup_kind],
            input=workload.setup_input, capture_output=True, text=True,
            cwd=ROOT, timeout=60, check=True)
        setup, ref = (float(x) for x in done.stdout.split())
        if i:
            normalised.append(setup / ref * SETUP_REFERENCE_S)
            plain.append(setup)
    return statistics.median(normalised), statistics.median(plain)


def measure(workload, seconds: float, traced: bool) -> list[Unit]:
    """Whole units back to back until ``seconds`` have passed (at least one)."""
    units = []
    deadline = time.perf_counter() + seconds
    while True:
        units.append(workload.unit(traced))
        if time.perf_counter() >= deadline:
            return units


def codec_round_trips(program, devices, times_us: list[float]) -> int:
    """Canonically encode and decode each device; returns the failures."""
    serialize, deserialize = program.canonical_serialize, program.canonical_deserialize
    failures = 0
    for device in devices:
        start = time.perf_counter()
        data = serialize(device)
        again = deserialize(data)
        times_us.append(1e6 * (time.perf_counter() - start))
        failures += serialize(again) != data
    return failures


def traced_run(program, workload, seconds: float, name: str, seed: int):
    """Half the time untraced, half traced. Returns the units of both and
    the per-layer metrics."""
    plain = measure(workload, seconds / 2, traced=False)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = measure(workload, seconds / 2, traced=True)
    finally:
        tracer.uninstall()
    codec_us: list[float] = []
    codec_failures = sum(codec_round_trips(program, u.devices, codec_us)
                         for u in traced)
    overhead = (statistics.median(u.timer.in_refs for u in traced)
                / statistics.median(u.timer.in_refs for u in plain))
    per_layer = layers.metrics(tracer, len(traced),
                               workload.travelers * len(traced), codec_us, overhead)
    tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
    return plain, traced, per_layer, codec_failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = load_program()
    workload = make_workload(args.workload, args.seed, program)
    codec_failures = 0
    if args.trace:
        plain, traced, metrics, codec_failures = traced_run(
            program, workload, args.seconds, args.workload, args.seed)
        units = plain + traced
        units_out = {n: (metrics[n], layers.PER_LAYER[n][0]) for n in metrics}
    else:
        setup, setup_plain = setup_seconds(workload)
        print(f"setup_host_s={setup_plain:.4f} (median probe, host time, "
              f"not steady on a shared machine)")
        units = measure(workload, args.seconds, traced=False)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units_out = {"setup_s": (setup, "s"),
                     "ops_per_ref": (statistics.median(u.ops_per_ref for u in units),
                                     "ops/ref"),
                     "peak_rss_mb": (rss_mb, "MB")}

    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    digests = {u.digest for u in units}
    correct = failed == 0 and len(digests) == 1 and codec_failures == 0
    first = units[0]
    print(f"workload={args.workload} seed={args.seed} units={len(units)} "
          f"ops_per_unit={first.ops} ops_per_s="
          f"{statistics.median(u.ops / u.timer.seconds for u in units):.1f} "
          f"(median unit, host time, not steady on a shared machine) "
          f"reference_ms={1e3 * statistics.median(r for u in units for r in u.timer.refs):.3f}")
    print("deterministic counts per unit: " + json.dumps(
        {**dict(sorted(first.counts.items())), "report_sha256": first.digest}))
    print(f"error_rate={failed / attempted:.6f} ({failed} of {attempted} ops failed); "
          f"distinct digests={len(digests)}; codec failures={codec_failures}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in units_out.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
