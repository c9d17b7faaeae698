"""Scenario language, virtual clock, event log, engine, and CLI."""

import ast
import io
import json
import re
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudpass import authflow
from cloudpass.errors import (ScenarioParseError, ScenarioRuntimeError,
                              ValidationError)
from cloudpass.immigration import PHASE_AUTH, TranscriptEvent
from cloudpass.model import MAX_IMAGE_BYTES
from cloudpass.simnet import (SCENARIO_EPOCH, EventLog, FaultKind,
                              ScenarioEvent, ScenarioRng, VirtualClock,
                              emit_report, event_line, load_scenario,
                              outcome_counts, parse_duration, parse_fault,
                              render_iso, run)
from cloudpass.simnet.cli import main as cli_main
from cloudpass.simnet.clock import CLOCK_MAX
from cloudpass.simnet.scenario import _FAULTS, _VALIDATORS

from test_golden import _cases as golden_cases

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
HAPPY = (SCENARIOS / "happy_path.cps").read_text()


# ---------------------------------------------------------------------------
# durations and clock


@pytest.mark.parametrize("text,seconds", [
    ("90", 90),
    ("45s", 45),
    ("45m", 2700),
    ("2h", 7200),
    ("1d", 86400),
    ("0", 0),
])
def test_parse_duration(text, seconds):
    assert parse_duration(text) == seconds


@pytest.mark.parametrize("text", ["", "-5", "2 h", "h", "1.5h", "2w", "2h\n"])
def test_parse_duration_rejects(text):
    with pytest.raises(ValueError):
        parse_duration(text)


def test_clock_advances_and_never_reverses():
    clock = VirtualClock()
    assert clock.now == 0
    assert clock.advance(7200) == 7200
    assert clock.advance(0) == 7200
    with pytest.raises(ValueError):
        clock.advance(-1)
    with pytest.raises(ValueError):
        VirtualClock(-3)


def test_clock_refuses_to_pass_last_renderable_second():
    assert CLOCK_MAX == 251_824_463_999
    clock = VirtualClock(CLOCK_MAX - 1)
    assert clock.advance(1) == CLOCK_MAX
    assert clock.advance(0) == CLOCK_MAX
    for seconds in (1, (1 << 63) - 1):
        with pytest.raises(ValidationError) as err:
            clock.advance(seconds)
        assert err.value.code == "CLOCK_OVERFLOW"
        assert clock.now == CLOCK_MAX


def _seconds_to(day: date) -> int:
    return (day - date(2020, 1, 1)).days * 86400


def _strftime_iso(ts: int) -> str:
    """The datetime form render_iso replaced, kept as its reference."""
    return (SCENARIO_EPOCH + timedelta(seconds=ts)).strftime("%Y-%m-%dT%H:%M:%SZ")


def test_render_iso_epoch_and_offsets():
    assert render_iso(0) == "2020-01-01T00:00:00Z"
    assert render_iso(86400 + 3600 + 90) == "2020-01-02T01:01:30Z"


@pytest.mark.parametrize("ts,text", [
    (86399, "2020-01-01T23:59:59Z"),
    (86400, "2020-01-02T00:00:00Z"),
    (_seconds_to(date(2020, 2, 29)) + 43200, "2020-02-29T12:00:00Z"),
    (_seconds_to(date(2020, 3, 1)) - 1, "2020-02-29T23:59:59Z"),
    (_seconds_to(date(2100, 3, 1)), "2100-03-01T00:00:00Z"),
    (_seconds_to(date(2100, 3, 1)) - 1, "2100-02-28T23:59:59Z"),
    (_seconds_to(date(2400, 2, 29)), "2400-02-29T00:00:00Z"),
    (251_824_463_999, "9999-12-31T23:59:59Z"),
])
def test_render_iso_calendar_edges(ts, text):
    assert render_iso(ts) == text


@given(st.integers(0, CLOCK_MAX))
def test_render_iso_matches_strftime(ts):
    assert render_iso(ts) == _strftime_iso(ts)


# ---------------------------------------------------------------------------
# rng streams


def test_rng_streams_are_isolated():
    a = ScenarioRng(42)
    b = ScenarioRng(42)
    first = a.stream("alice").random()
    b.stream("bob").random()          # unrelated stream consumed first
    assert b.stream("alice").random() == first


def test_rng_stream_is_cached_not_reseeded():
    rng = ScenarioRng(1)
    stream = rng.stream("x")
    stream.random()
    assert rng.stream("x") is stream


def test_rng_seed_changes_draws():
    assert ScenarioRng(1).stream("x").random() != ScenarioRng(2).stream("x").random()


# ---------------------------------------------------------------------------
# scenario parsing


def test_load_scenario_counts_commands():
    scenario = load_scenario(HAPPY, seed=42)
    assert scenario.seed == 42
    assert len(scenario.commands) > 10
    assert scenario.commands[0].verb == "embassy"


def test_comments_and_blanks_ignored():
    scenario = load_scenario("# nothing\n\n  # indented comment\nembassy IN\n")
    assert [c.verb for c in scenario.commands] == ["embassy"]


def test_inline_comment_stripped():
    scenario = load_scenario("airport BLR  # Bengaluru\n")
    assert scenario.commands[0].args["code"] == "BLR"


def test_unknown_verb_points_at_line_and_column():
    with pytest.raises(ScenarioParseError) as err:
        load_scenario("embassy IN\nteleport alice\n")
    assert err.value.line == 2
    assert err.value.column == 1
    assert err.value.code == "PARSE_ERROR"


def test_missing_value_points_past_key():
    with pytest.raises(ScenarioParseError) as err:
        load_scenario("tamper-visa alice byte=\n")
    assert err.value.line == 1
    assert "byte" in str(err.value)


def test_unknown_key_rejected():
    with pytest.raises(ScenarioParseError) as err:
        load_scenario("advance-clock by=2h\n")
    assert "by" in str(err.value)


def test_missing_positional_rejected():
    with pytest.raises(ScenarioParseError):
        load_scenario("depart alice\n")        # airport missing


def test_bad_airport_code_rejected():
    with pytest.raises(ScenarioParseError):
        load_scenario("airport bengaluru\n")


def test_positional_after_key_rejected():
    with pytest.raises(ScenarioParseError):
        load_scenario("tamper-visa byte=1 alice\n")


def test_zero_image_bytes_rejected_at_value():
    with pytest.raises(ScenarioParseError) as err:
        load_scenario("embassy IN\napprove-visa alice image-bytes=0\n")
    assert (err.value.line, err.value.column) == (2, 32)
    load_scenario("approve-visa alice image-bytes=1\n")


def test_image_bytes_over_bound_rejected_at_value():
    with pytest.raises(ScenarioParseError) as err:
        load_scenario(f"embassy IN\napprove-visa alice "
                      f"image-bytes={MAX_IMAGE_BYTES + 1}\n")
    assert (err.value.line, err.value.column) == (2, 32)
    load_scenario(f"approve-visa alice image-bytes={MAX_IMAGE_BYTES}\n")


I64_MAX = (1 << 63) - 1


@pytest.mark.parametrize("line,column", [
    ("approve-passport alice expire-in=99999999999999999999d", 34),
    (f"advance-clock {I64_MAX + 1}", 15),
    (f"advance-clock {I64_MAX // 86400 + 1}d", 15),
    (f"traveler alice offset-min={-I64_MAX - 2}", 27),
    (f"traveler alice offset-min={I64_MAX + 1}", 27),
    (f"download-visa alice page={I64_MAX + 1}", 26),
    ("tamper-visa alice byte=" + "9" * 5000, 24),
], ids=["expire-in", "seconds", "days", "offset-low", "offset-high", "page",
        "5000-digits"])
def test_out_of_range_numbers_rejected_at_value(line, column):
    with pytest.raises(ScenarioParseError) as err:
        load_scenario(line + "\n")
    assert (err.value.line, err.value.column) == (1, column)


@pytest.mark.parametrize("line", [
    f"advance-clock {I64_MAX}",
    f"advance-clock {I64_MAX // 86400}d",
    f"advance-clock 000000000000000000000{I64_MAX}s",
    f"traveler alice offset-min={-I64_MAX - 1}",
    f"traveler alice offset-min=+{I64_MAX}",
    f"tamper-visa alice byte={I64_MAX}",
])
def test_i64_extremes_accepted(line):
    assert len(load_scenario(line + "\n").commands) == 1


@pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\x85", "\u2028"],
                         ids=["form-feed", "file-separator", "nel",
                              "line-separator"])
def test_line_ends_only_at_newline(separator):
    with pytest.raises(ScenarioParseError) as err:
        load_scenario(f"embassy IN{separator}airport BLR\n")
    assert err.value.line == 1


def test_crlf_scenario_reports_like_lf():
    crlf = HAPPY.replace("\n", "\r\n")
    assert crlf != HAPPY
    for seed in (1, 2):
        assert (report_bytes(run(load_scenario(crlf, seed))[1])
                == report_bytes(run(load_scenario(HAPPY, seed))[1]))


# ---------------------------------------------------------------------------
# faults


def test_parse_fault_round_trips_to_command():
    command = parse_fault("tamper-visa alice byte=17")
    assert command.verb == "tamper-visa"
    assert _FAULTS[command.verb][0] is FaultKind.TAMPER_VISA_BYTE
    assert command.args == {"name": "alice", "byte": "17"}


def test_parse_fault_rejects_non_fault_verbs():
    with pytest.raises(ScenarioParseError):
        parse_fault("advance-clock 2h")


@pytest.mark.parametrize("validator,value", [
    ("name", "alice"), ("airport", "BLR"), ("country", "IN"), ("int", "7"),
    ("image-size", "256"), ("signed-int", "-5"), ("duration", "2h"),
])
def test_grammar_validators_refuse_trailing_newline(validator, value):
    assert _VALIDATORS[validator](value)
    assert not _VALIDATORS[validator](value + "\n")


def test_fault_spec_requires_actor():
    with pytest.raises(ScenarioParseError):
        parse_fault("oversleep")          # parser wants the name positional


# ---------------------------------------------------------------------------
# event log and report format


def test_empty_log_reports_single_summary_line():
    buf = io.StringIO()
    emit_report([], buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1
    summary = json.loads(lines[0])
    assert summary["event"] == "summary"
    assert summary["details"] == {"events": 0, "permit": 0, "isolate": 0,
                                  "lock_and_alert": 0}


def test_report_has_one_line_per_event_plus_summary():
    log = EventLog()
    log.emit(0, "world", "boot")
    log.emit(5, "alice", "check-outcome", outcome="PERMIT")
    buf = io.StringIO()
    emit_report(log.events, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[-1])["details"]["permit"] == 1


def test_event_line_key_order_fixed():
    log = EventLog()
    ev = log.emit(3, "alice", "ping", extra=1)
    pairs = json.loads(event_line(ev), object_pairs_hook=list)
    assert [k for k, _ in pairs] == ["seq", "ts", "actor", "event", "details"]


@pytest.mark.parametrize("cls,fields,values", [
    (ScenarioEvent, ("seq", "ts", "actor", "event", "details"),
     (3, 7, "alice", "ping", {"n": 1})),
    (TranscriptEvent, ("ts", "phase", "detail"),
     (7, PHASE_AUTH, "credentials-ok")),
], ids=["ScenarioEvent", "TranscriptEvent"])
def test_event_records_keep_field_order_and_refuse_assignment(cls, fields,
                                                              values):
    record = cls(*values)
    # The report path unpacks records by position.
    assert tuple(record) == values
    assert tuple(getattr(record, name) for name in fields) == values
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert tuple(record) == values


def test_report_reemission_is_byte_identical():
    log = EventLog()
    for i in range(4):
        log.emit(i, "a", "tick", n=i)
    first, second = io.StringIO(), io.StringIO()
    emit_report(log.events, first)
    emit_report(log.events, second)
    assert first.getvalue() == second.getvalue()


_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\xe9\U0001f600'),
                         st.characters(blacklist_categories=())),
                max_size=12)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner,
                                                                max_size=4),
    max_leaves=8)
_DETAILS = st.dictionaries(_TEXT, _JSON, max_size=5)
# Small timestamps repeat and go backwards; large ones reach the last second.
_TS = st.integers(0, 3) | st.integers(0, CLOCK_MAX)


def _dumps_line(seq, ts, actor, event, details) -> str:
    """The json.dumps form of a report line, kept as the reference."""
    return json.dumps({"seq": seq, "ts": _strftime_iso(ts), "actor": actor,
                       "event": event, "details": details},
                      separators=(", ", ": "))


@given(st.integers(0, 10**6), _TS, _TEXT, _TEXT, _DETAILS)
def test_event_line_matches_json_dumps(seq, ts, actor, event, details):
    line = event_line(ScenarioEvent(seq, ts, actor, event, details))
    assert line == _dumps_line(seq, ts, actor, event, details)


_OUTCOME = st.sampled_from(["PERMIT", "ISOLATE", "LOCK_AND_ALERT"])


# Line content is event_line's property above; this one varies the order
# and repetition of timestamps and the outcome counts.
@given(st.lists(st.tuples(_TS, st.sampled_from(["alice", "BLR"]), st.one_of(
    st.tuples(st.just("check-outcome"), st.fixed_dictionaries({"outcome": _OUTCOME})),
    st.tuples(st.just("tick"), st.dictionaries(st.just("n"), st.integers())))),
    max_size=12))
def test_emit_report_is_event_lines_plus_summary(entries):
    log = EventLog()
    for ts, actor, (event, details) in entries:
        log.emit(ts, actor, event, **details)
    counts = outcome_counts(log.events)
    summary = {"events": len(log.events),
               **{key.lower(): n for key, n in counts.items()}}
    last_ts = log.events[-1].ts if log.events else 0
    expected = [event_line(e) for e in log.events]
    expected.append(_dumps_line(len(log.events), last_ts, "world", "summary",
                                summary))
    buf = io.StringIO()
    emit_report(log.events, buf)
    assert buf.getvalue() == "\n".join(expected) + "\n"


def test_outcome_counts_only_reads_check_outcomes():
    log = EventLog()
    log.emit(0, "x", "police-alert", outcome="LOCK_AND_ALERT")
    log.emit(1, "x", "check-outcome", outcome="ISOLATE")
    assert outcome_counts(log.events) == {"PERMIT": 0, "ISOLATE": 1,
                                          "LOCK_AND_ALERT": 0}


# ---------------------------------------------------------------------------
# engine runs


def report_bytes(events):
    buf = io.StringIO()
    emit_report(events, buf)
    return buf.getvalue()


def test_happy_path_two_permits_one_stamp():
    world, events = run(load_scenario(HAPPY, seed=42))
    counts = outcome_counts(events)
    assert counts == {"PERMIT": 2, "ISOLATE": 0, "LOCK_AND_ALERT": 0}
    stamps = world.traveler("alice").device.passport.all_stamps()
    assert len(stamps) == 1
    assert stamps[0].kind.value == "ARRIVAL"


def test_happy_path_same_seed_byte_identical():
    first = report_bytes(run(load_scenario(HAPPY, seed=42))[1])
    second = report_bytes(run(load_scenario(HAPPY, seed=42))[1])
    assert first == second


def test_event_timestamps_never_decrease():
    _, events = run(load_scenario(HAPPY, seed=42))
    times = [e.ts for e in events]
    assert times == sorted(times)
    assert [e.seq for e in events] == list(range(len(events)))


@pytest.mark.parametrize("scenario,seed,fault",
                         [case for case in golden_cases() if case[1] == 1])
def test_every_event_enters_through_emit(monkeypatch, scenario, seed, fault):
    calls = []
    original = EventLog.emit

    def counting_emit(self, *args, **details):
        calls.append(args[2])
        return original(self, *args, **details)

    monkeypatch.setattr(EventLog, "emit", counting_emit)
    text = (SCENARIOS / scenario).read_text()
    faults = (parse_fault(fault),) if fault else ()
    world, events = run(load_scenario(text, seed), faults)
    assert len(calls) == len(world.events) == len(events)
    assert calls == [e.event for e in events]
    assert [e.seq for e in events] == list(range(len(events)))


def test_fault_tamper_isolates():
    spec = parse_fault("tamper-visa alice byte=7")
    _, events = run(load_scenario(HAPPY, seed=42), faults=(spec,))
    counts = outcome_counts(events)
    assert counts["ISOLATE"] >= 1
    assert counts["PERMIT"] == 0
    details = [e.details for e in events if e.event == "desk-compare"]
    assert any("MISMATCH" in d.get("detail", "") for d in details)


def test_fault_skip_sync_isolates_not_found():
    spec = parse_fault("skip-sync")
    _, events = run(load_scenario(HAPPY, seed=42), faults=(spec,))
    assert outcome_counts(events)["ISOLATE"] >= 1
    assert any(e.event == "sync-skipped" for e in events)
    joined = " ".join(e.details.get("detail", "") for e in events)
    assert "NOT_FOUND" in joined


def test_fault_wrong_time_locks_and_alerts():
    spec = parse_fault("wrong-time alice")
    world, events = run(load_scenario(HAPPY, seed=42), faults=(spec,))
    counts = outcome_counts(events)
    assert counts["LOCK_AND_ALERT"] >= 1
    assert counts["PERMIT"] == 0
    assert world.traveler("alice").device.locked
    alerts = [e for e in events if e.event == "police-alert"]
    assert len(alerts) == len(world.alerts) == counts["LOCK_AND_ALERT"]


def test_fault_wrong_image_locks_with_single_alert_per_check():
    spec = parse_fault("wrong-image-answer alice")
    world, events = run(load_scenario(HAPPY, seed=42), faults=(spec,))
    outcomes = [e for e in events if e.event == "check-outcome"]
    first = outcomes[0]
    assert first.details["outcome"] == "LOCK_AND_ALERT"
    alerts = [e for e in events if e.event == "police-alert"]
    assert len(alerts) == len(outcomes)


def test_fault_replay_otp_rejected_then_permits():
    spec = parse_fault("replay-otp alice")
    _, events = run(load_scenario(HAPPY, seed=42), faults=(spec,))
    counts = outcome_counts(events)
    assert counts["PERMIT"] == 2
    joined = " ".join(e.details.get("detail", "") for e in events)
    assert "otp-rejected" in joined


def test_fault_oversleep_expires_then_recovers():
    spec = parse_fault("oversleep alice wait=700s")
    _, events = run(load_scenario(HAPPY, seed=42), faults=(spec,))
    joined = " ".join(e.details.get("detail", "") for e in events)
    assert "SESSION_EXPIRED" in joined
    assert outcome_counts(events)["PERMIT"] == 2


# ---------------------------------------------------------------------------
# the fault table


def _readme_fault_verbs() -> list[str]:
    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split("Fault verbs arm", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"`([a-z][a-z-]*)[^`]*`", paragraph)


def _bench_fault_verbs() -> tuple[str, ...]:
    """``FAULT_VERBS`` from the benchmark's generator, read, not run."""
    tree = ast.parse((ROOT / "benchmarks" / "generate.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "FAULT_VERBS"):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/generate.py has no FAULT_VERBS")


def test_fault_table_matches_kinds_readme_and_benchmark():
    kinds = [kind for kind, _ in _FAULTS.values()]
    assert sorted(kinds, key=str) == sorted(FaultKind, key=str)
    assert sorted(_FAULTS) == sorted(_readme_fault_verbs())
    assert sorted(_FAULTS) == sorted(_bench_fault_verbs())


# A valid value for each validator a fault key can require.
_SAMPLE_VALUES = {"int": "7", "duration": "601s"}


def _sample_fault(verb: str) -> str:
    """A valid line for a fault verb: alice as actor, required keys set."""
    grammar = _FAULTS[verb][1]
    words = [verb] + ["alice" for _ in grammar.positionals]
    words += [f"{key}={_SAMPLE_VALUES[grammar.keys[key]]}"
              for key in grammar.required]
    return " ".join(words)


@pytest.mark.parametrize("verb", list(_FAULTS))
def test_fault_row_round_trips(verb):
    assert parse_fault(_sample_fault(verb)).verb == verb


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("verb", list(_FAULTS))
def test_injected_fault_runs_like_the_inline_line(verb, seed):
    line = _sample_fault(verb)
    if _FAULTS[verb][0] is FaultKind.SKIP_SYNC:
        inline = f"{line}\n{HAPPY}"
    else:
        marker = "depart alice BLR\n"
        assert HAPPY.count(marker) == 1
        inline = HAPPY.replace(marker, f"{line}\n{marker}")
    injected = run(load_scenario(HAPPY, seed), (parse_fault(line),))[1]
    written = run(load_scenario(inline, seed))[1]
    assert report_bytes(injected) == report_bytes(written)


@pytest.mark.parametrize("text,valid", [
    ("tamper-visa alice byte=7", True),
    ("wrong-time alice", True),
    ("wrong-image-answer alice", True),
    ("replay-otp alice", True),
    ("oversleep alice", True),
    ("oversleep alice wait=2h", True),
    ("skip-sync", True),
    # missing name
    ("tamper-visa byte=7", False),
    ("wrong-time", False),
    ("wrong-image-answer", False),
    ("replay-otp", False),
    ("oversleep wait=5s", False),
    ("wrong-time 9lives", False),
    # bad or missing byte
    ("tamper-visa alice", False),
    ("tamper-visa alice byte=x", False),
    ("tamper-visa alice byte=-1", False),
    ("tamper-visa alice byte=99999999999999999999", False),
    # bad wait
    ("oversleep alice wait=soon", False),
    ("oversleep alice wait=5y", False),
    ("oversleep alice wait=", False),
    # unknown key
    ("tamper-visa alice byte=7 page=3", False),
    ("wrong-time alice speed=2", False),
    ("wrong-image-answer alice tries=3", False),
    ("replay-otp alice code=123456", False),
    ("oversleep alice nap=5s", False),
    ("skip-sync alice", False),
])
def test_fault_spec_accepts_what_parse_fault_accepts(text, valid):
    """A fault spec, the text after ``--fault``, is one scenario line of
    a fault verb: what the grammar accepts there, ``parse_fault`` does."""
    if valid:
        assert parse_fault(text) == load_scenario(text).commands[0]
        return
    with pytest.raises(ScenarioParseError):
        parse_fault(text)


def test_fault_spec_gets_its_verbs_defaults():
    assert parse_fault("oversleep alice").args == {"name": "alice",
                                                   "wait": "601s"}


def _run_with_fault_between_checks(fault: str, seed: int = 1):
    marker = "depart alice BLR\n"
    assert HAPPY.count(marker) == 1
    text = HAPPY.replace(marker, f"{marker}{fault}\n")
    world, events = run(load_scenario(text, seed))
    outcomes = [e.details["outcome"] for e in events
                if e.event == "check-outcome"]
    details = [e.details.get("detail", "") for e in events]
    return world, outcomes, details


def test_replay_armed_between_checks_presents_departure_otp(monkeypatch):
    presented = []
    original = authflow.redeem_otp

    def recording_redeem(store, code, transaction_id):
        presented.append((transaction_id, code))
        return original(store, code, transaction_id)

    monkeypatch.setattr(authflow, "redeem_otp", recording_redeem)
    world, outcomes, details = _run_with_fault_between_checks(
        "replay-otp alice")
    assert outcomes == ["PERMIT", "PERMIT"]
    assert sum(d.startswith("otp-rejected") for d in details) == 1
    departure_tx = presented[0][0]
    arrival_tx, replayed = presented[1]
    assert arrival_tx != departure_tx
    assert replayed == world.otp_store.get(departure_tx).code
    assert presented[2] == (arrival_tx, world.otp_store.get(arrival_tx).code)


def test_oversleep_armed_between_checks_idles_once():
    _, outcomes, details = _run_with_fault_between_checks(
        "oversleep alice wait=700s")
    assert sum(d.startswith("agent-idle") for d in details) == 1
    assert outcomes == ["PERMIT", "PERMIT"]


def test_wrong_time_armed_between_checks_locks_the_arrival():
    world, outcomes, _ = _run_with_fault_between_checks("wrong-time alice")
    assert outcomes == ["PERMIT", "LOCK_AND_ALERT"]
    assert world.traveler("alice").device.locked


def test_runtime_error_carries_index_and_world():
    scenario = load_scenario("embassy IN\ndepart ghost BLR\n")
    with pytest.raises(ScenarioRuntimeError) as err:
        run(scenario)
    assert err.value.index == 1
    assert err.value.world.clock.now == 0
    assert err.value.cause.code == "NO_SUCH_TRAVELER"


def test_duplicate_embassy_is_runtime_error():
    with pytest.raises(ScenarioRuntimeError) as err:
        run(load_scenario("embassy IN\nembassy IN\n"))
    assert err.value.index == 1


# ---------------------------------------------------------------------------
# command line


def test_cli_run_writes_report(tmp_path, capsys):
    report = tmp_path / "out.jsonl"
    code = cli_main(["run", "--scenario", str(SCENARIOS / "happy_path.cps"),
                     "--seed", "42", "--report", str(report)])
    assert code == 0
    lines = report.read_text().splitlines()
    summary = json.loads(lines[-1])
    assert summary["details"]["permit"] == 2


def test_cli_run_stdout_when_no_report(tmp_path, capsys):
    code = cli_main(["run", "--scenario", str(SCENARIOS / "happy_path.cps")])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out.splitlines()[-1])["event"] == "summary"


def test_cli_fault_flag_changes_outcome(tmp_path, capsys):
    code = cli_main(["run", "--scenario", str(SCENARIOS / "happy_path.cps"),
                     "--seed", "42", "--fault", "tamper-visa alice byte=3"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out.splitlines()[-1])["details"]["isolate"] >= 1


def test_cli_validate_ok(tmp_path, capsys):
    code = cli_main(["validate", "--scenario",
                     str(SCENARIOS / "tampered_visa.cps")])
    assert code == 0
    assert capsys.readouterr().out.startswith("ok:")


def test_cli_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.cps"
    bad.write_text("teleport alice\n")
    assert cli_main(["validate", "--scenario", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_non_utf8_scenario_exit_1(tmp_path, capsys, command):
    bad = tmp_path / "latin1.cps"
    bad.write_bytes("embassy IN\nairport é".encode("utf-8") + b"\xff\n")
    assert cli_main([command, "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "cloudpass: line 2, column 10: byte 0xff is not UTF-8\n")


def test_cli_non_utf8_position_counts_lines_at_newline(tmp_path, capsys):
    bad = tmp_path / "form-feed.cps"
    bad.write_bytes(b"embassy IN\x0cairport BLR\xff\n")
    assert cli_main(["validate", "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "cloudpass: line 1, column 23: byte 0xff is not UTF-8\n")


def test_cli_runtime_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "ghost.cps"
    bad.write_text("embassy IN\ndepart ghost BLR\n")
    assert cli_main(["run", "--scenario", str(bad)]) == 2
    assert "command 1" in capsys.readouterr().err


@pytest.mark.parametrize("scenario,message", [
    ("embassy IN\ndepart ghost BLR\n", "command 1: NO_SUCH_TRAVELER: ghost"),
    ("traveler alice\ndepart alice XYZ\n",
     "command 1: DESK_MISCONFIGURED: XYZ-D1"),
    (HAPPY.replace("page=3", "page=40"), "command 10: NO_SUCH_PAGE: page 40 of 32"),
    ("advance-clock 2920000d\n", "command 0: CLOCK_OVERFLOW: 0 + 252288000000s "
     "passes 9999-12-31T23:59:59Z"),
], ids=["no-such-traveler", "desk-misconfigured", "no-such-page",
        "clock-overflow"])
def test_cli_runtime_error_names_its_code_once(tmp_path, capsys, scenario,
                                               message):
    path = tmp_path / "fault.cps"
    path.write_text(scenario)
    assert cli_main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"cloudpass: {message}\n"


@pytest.mark.parametrize("scenario,code", [
    ("traveler alice\napply-passport alice authority=IN\n",
     "NO_SUCH_AUTHORITY"),
    ("embassy IN\ntraveler alice\napply-passport alice authority=IN\n"
     "install-app alice\n", "NO_NOTIFICATION"),
    ("airport BLR\nairport BLR\n", "DUPLICATE_AIRPORT"),
    ("traveler alice\ntraveler alice\n", "DUPLICATE_TRAVELER"),
    ("traveler alice\napprove-passport alice\n", "NO_APPLICATION"),
    ("traveler alice\ninstall-app alice\n", "NO_APPLICATION"),
    ("traveler alice\napprove-visa alice\n", "NO_APPLICATION"),
    ("traveler alice\ndownload-visa alice page=3\n", "NO_APPLICATION"),
    ("embassy US\ntraveler alice\napply-visa alice authority=US\n"
     "approve-visa alice\n", "NO_PASSPORT"),
    ("traveler alice\nmanifest alice airport=BLR date=1d\n", "NO_VISA"),
    ("traveler alice\ntamper-visa alice byte=7\n", "NO_VISA"),
    ("embassy IN\nsync BLR from=IN\n", "NO_SUCH_AIRPORT"),
], ids=["no-such-authority", "no-notification", "duplicate-airport",
        "duplicate-traveler", "approve-passport-no-application",
        "install-app-no-application", "approve-visa-no-application",
        "download-visa-no-application", "approve-visa-no-passport",
        "manifest-no-visa", "tamper-visa-no-visa", "no-such-airport"])
def test_cli_engine_refusal_exit_2(tmp_path, capsys, scenario, code):
    path = tmp_path / "refused.cps"
    path.write_text(scenario)
    assert cli_main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cloudpass: command ")
    assert err.count(code) == 1
    assert "Traceback" not in err


def test_sync_from_an_embassy_without_the_visa_reports_dangling():
    text = HAPPY.replace("embassy US\n", "embassy US\nembassy GB\n").replace(
        "sync BLR from=US", "sync BLR from=GB")
    _, events = run(load_scenario(text))
    at_blr = [e for e in events if e.actor == "BLR"]
    assert [e.event for e in at_blr] == ["airport-created",
                                         "manifest-dangling", "sync-completed"]
    assert at_blr[2].details["dangling"] == 1
    assert at_blr[2].details["source"] == "GB"
    outcomes = [e.details for e in events if e.event == "check-outcome"]
    assert outcomes[0]["airport"] == "BLR"
    assert outcomes[0]["outcome"] == "ISOLATE"
    assert any(e.event == "desk-outcome" and e.details["detail"] ==
               "ISOLATE compare=NOT_FOUND" for e in events)


_VISA_THEN ="""embassy IN
airport BLR
traveler alice
apply-passport alice authority=IN
approve-passport alice{expire}
install-app alice
apply-visa alice authority=IN
approve-visa alice{image}
download-visa alice page=3
{tail}
"""


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("scenario,line", [
    (_VISA_THEN.format(expire="", image=" image-bytes=0",
                       tail="tamper-visa alice byte=1"), 8),
    (_VISA_THEN.format(expire=" expire-in=99999999999999999999d", image="",
                       tail="manifest alice airport=BLR date=1d\n"
                            "sync BLR from=IN\ndepart alice BLR"), 5),
    # Refused before anything runs, so nothing of that size is allocated.
    (_VISA_THEN.format(expire="", image=f" image-bytes={I64_MAX}",
                       tail="tamper-visa alice byte=1"), 8),
], ids=["image-bytes-0", "expire-in-huge", "image-bytes-huge"])
def test_cli_out_of_range_values_exit_1(tmp_path, capsys, command, scenario,
                                        line):
    path = tmp_path / "bad.cps"
    path.write_text(scenario)
    assert cli_main([command, "--scenario", str(path)]) == 1
    assert f"line {line}," in capsys.readouterr().err


_DEPART = "manifest alice airport=BLR date=1d\nsync BLR from=IN\ndepart alice BLR"


@pytest.mark.parametrize("scenario,faults,code", [
    ("advance-clock 2920000d\n", [], "CLOCK_OVERFLOW"),
    (f"advance-clock {I64_MAX}s\n", [], "CLOCK_OVERFLOW"),
    (HAPPY, [f"oversleep alice wait={I64_MAX}s"], "CLOCK_OVERFLOW"),
    ("advance-clock 2s\n" + _VISA_THEN.format(
        expire=f" expire-in={I64_MAX}s", image="", tail=_DEPART), [],
     "DATE_OUT_OF_RANGE"),
    ("advance-clock 2s\n" + _VISA_THEN.format(
        expire="", image=f" valid-for={I64_MAX}s", tail=_DEPART), [],
     "DATE_OUT_OF_RANGE"),
], ids=["clock-past-9999", "clock-i64-max", "oversleep", "expire-in",
        "valid-for"])
def test_cli_time_overflow_exit_2(tmp_path, capsys, scenario, faults, code):
    path = tmp_path / "far.cps"
    path.write_text(scenario)
    args = ["run", "--scenario", str(path)]
    for fault in faults:
        args += ["--fault", fault]
    assert cli_main(args) == 2
    assert code in capsys.readouterr().err


def test_cli_missing_file_exit_3(capsys):
    with pytest.raises(SystemExit) as err:
        cli_main(["run", "--scenario", "/nonexistent/x.cps"])
    assert err.value.code == 3


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cloudpass.simnet.cli", "validate",
         "--scenario", str(SCENARIOS / "lockout.cps")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok:")
