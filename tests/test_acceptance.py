"""Acceptance gates for the shipped system.

One test per guarantee, eleven in all. Each evaluates its condition,
prints a single PASS/FAIL line (visible under pytest -s), and asserts.
Everything is seeded; a red line here means the guarantee is broken,
not that the dice came up wrong.
"""

import itertools
import random
from collections import Counter

import pytest

from cloudpass.authflow import (OtpStore, SessionState, begin_image_auth,
                                check_timeout, issue_otp, open_session,
                                redeem_otp, verify_credentials,
                                verify_image_answer, verify_time_auth)
from cloudpass.clouds import (AirportCloud, Checkpoint, EmbassyCloud,
                              ManifestEntry, SYNC_HORIZON_S, TravelManifest,
                              daily_sync)
from cloudpass.errors import AuthError, NfcError
from cloudpass.immigration import DeskCheck, Outcome, run_check
from cloudpass.model import (VisaImage, VisaRecord, VisaStatus, content_hash,
                             replace)
from cloudpass.nfc import establish
from cloudpass.qrlink import decode_payload, encode_payload
from cloudpass.simnet import load_scenario, outcome_counts, run

from conftest import build_kit
from test_qrlink import oracle_min_bits
from test_simnet import HAPPY, report_bytes


def gate(number, label, failures, detail=""):
    ok = not failures
    tail = detail if ok else "; ".join(str(f) for f in failures[:3])
    print(f"[{'PASS' if ok else 'FAIL'}] {number:02d} {label}: {tail}")
    assert ok, f"criterion {number} ({label}): {tail}"


def desk_run(k, desk_id, checkpoint=Checkpoint.DEPARTURE, **script_kw):
    desk = DeskCheck(checkpoint, "BLR", desk_id, k.clock.now)
    return run_check(desk, k.device, k.airport, k.script(**script_kw),
                     k.clock, k.rng, credentials=k.credentials,
                     otp_store=k.otp_store)


# ---------------------------------------------------------------------------
# 1. golden end-to-end scenario


def test_c01_end_to_end_golden():
    failures = []
    world, events = run(load_scenario(HAPPY, seed=42))
    counts = outcome_counts(events)
    if counts != {"PERMIT": 2, "ISOLATE": 0, "LOCK_AND_ALERT": 0}:
        failures.append(f"outcomes {counts}")

    stamps = world.traveler("alice").device.passport.all_stamps()
    if len(stamps) != 1 or stamps[0].kind.value != "ARRIVAL":
        failures.append(f"stamps {[s.kind.value for s in stamps]}")
    stamp_events = [e for e in events if e.event == "desk-stamp"]
    if len(stamp_events) != 1:
        failures.append(f"{len(stamp_events)} stamp events")
    elif stamps and stamps[0].stamped_at != stamp_events[0].ts:
        failures.append(f"stamp ts {stamps[0].stamped_at} != "
                        f"event ts {stamp_events[0].ts}")
    if stamps and stamps[0].stamped_at != world.clock.now:
        failures.append("stamp ts is not the clock at stamping")

    again = report_bytes(run(load_scenario(HAPPY, seed=42))[1])
    if report_bytes(events) != again:
        failures.append("same-seed logs differ")
    gate(1, "golden scenario, stamp, replay", failures,
         f"2 PERMIT, 1 ARRIVAL stamp at t={stamps[0].stamped_at}, "
         f"log {len(events)} events byte-stable")


# ---------------------------------------------------------------------------
# 2. single-byte tamper detection, 100/100


def test_c02_tamper_detection():
    k = build_kit()
    pristine = k.device.visas[k.visa_id]
    rng = random.Random(0xC2)
    failures = []
    for trial in range(100):
        position = rng.randrange(len(pristine.data))
        data = bytearray(pristine.data)
        data[position] ^= 1 << rng.randrange(8)
        k.device.visas[k.visa_id] = VisaImage.of(bytes(data),
                                                 pristine.media_type)
        transcript = desk_run(k, f"BLR-T{trial}")
        mismatch = any("MISMATCH" in e.detail for e in transcript.events)
        if transcript.outcome is not Outcome.ISOLATE or not mismatch:
            failures.append(f"byte {position}: {transcript.outcome.value}")
    k.device.visas[k.visa_id] = pristine
    if desk_run(k, "BLR-CLEAN").outcome is not Outcome.PERMIT:
        failures.append("pristine image no longer permits")
    gate(2, "single-byte tamper detection", failures,
         "100/100 ISOLATE with MISMATCH, zero misses")


# ---------------------------------------------------------------------------
# 3. exhausted auth then tap


def test_c03_lock_and_alert():
    k = build_kit()
    transcript = desk_run(k, "BLR-D1", wrong_image_answer=True)
    failures = []
    if transcript.outcome is not Outcome.LOCK_AND_ALERT:
        failures.append(f"outcome {transcript.outcome.value}")
    if not k.device.locked:
        failures.append("device not locked")
    alerts = [e for e in transcript.events if e.detail.startswith("police-alerted")]
    if len(alerts) != 1 or transcript.cause is None:
        failures.append(f"{len(alerts)} alerts, cause {transcript.cause}")
    gate(3, "exhausted auth then tap", failures,
         "LOCK_AND_ALERT, device locked, exactly one police alert")


# ---------------------------------------------------------------------------
# 4. the 600 s wall, boundary exact

_OPS = ("time", "credentials", "image-prompt", "image-answer")


def _apply(k, session, prompt, op, now):
    if op == "time":
        captcha = session.pending_captcha.text if session.pending_captcha else ""
        return verify_time_auth(k.device, k.device.displayed_time(now),
                                captcha, now), prompt
    if op == "credentials":
        return verify_credentials(k.device, k.username, k.password,
                                  k.credentials, now), prompt
    if op == "image-prompt":
        return begin_image_auth(k.device, k.rng, now)
    return verify_image_answer(k.device, k.answers[prompt], now), prompt


def _staged(k, steps, now=0):
    session, prompt = open_session(k.device, now, k.rng), 0
    for op in _OPS[:steps]:
        session, prompt = _apply(k, session, prompt, op, now)
    return session, prompt


def test_c04_timeout_wall():
    failures = []
    for i, op in enumerate(_OPS):
        k = build_kit()
        session, prompt = _staged(k, i)
        try:
            session, _ = _apply(k, session, prompt, op, now=599)
        except AuthError as exc:
            failures.append(f"{op} at 599: {exc.code}")
        k = build_kit()
        session, prompt = _staged(k, i)
        try:
            _apply(k, session, prompt, op, now=600)
            failures.append(f"{op} at 600 succeeded")
        except AuthError as exc:
            if exc.code != "SESSION_EXPIRED":
                failures.append(f"{op} at 600: {exc.code}")
    # at the wall every operation expires regardless of staged state
    for steps, op in itertools.product(range(4), _OPS):
        k = build_kit()
        session, prompt = _staged(k, steps)
        with pytest.raises(AuthError) as err:
            _apply(k, session, prompt, op, now=600)
        if err.value.code != "SESSION_EXPIRED":
            failures.append(f"{op} after {steps} steps at 600: {err.value.code}")
    gate(4, "session timeout wall", failures,
         "599 s permits, 600 s expires, all four operations, all states")


# ---------------------------------------------------------------------------
# 5. OTP single use across 1,000 interleaved transactions


def test_c05_otp_single_use():
    store = OtpStore()
    rng = random.Random(0xC5)
    codes = {}
    for i in range(1000):
        codes[f"tx-{i}"] = issue_otp(store, f"tx-{i}", rng).code

    attempts = [(tx, code) for tx, code in codes.items() for _ in range(3)]
    txs = list(codes)
    attempts += [(rng.choice(txs), codes[rng.choice(txs)]) for _ in range(300)]
    rng.shuffle(attempts)

    successes = Counter()
    failures = []
    for tx, code in attempts:
        try:
            redeem_otp(store, code, tx)
            successes[tx] += 1
        except AuthError as exc:
            if exc.code not in ("OTP_ALREADY_USED", "OTP_WRONG_TRANSACTION",
                                "OTP_UNKNOWN"):
                failures.append(f"{tx}: {exc.code}")
    over = [tx for tx, n in successes.items() if n > 1]
    if over:
        failures.append(f"{len(over)} OTPs redeemed more than once")
    if sum(successes.values()) != 1000:
        failures.append(f"{sum(successes.values())} total successes")
    gate(5, "OTP single use", failures,
         f"1000 OTPs, {len(attempts)} interleaved attempts, "
         "1 success each, every replay rejected")


# ---------------------------------------------------------------------------
# 6. device-displayed time, not UTC


def test_c06_timezone_semantics():
    now = 6 * 3600 + 30 * 60          # 06:30 UTC, device shows 12:00
    failures = []

    def attempt(submitted):
        k = build_kit(offset_min=330)
        session = open_session(k.device, now, k.rng)
        try:
            verify_time_auth(k.device, submitted,
                             session.pending_captcha.text, now)
            return True
        except AuthError as exc:
            if exc.code != "BAD_TIME":
                failures.append(f"{submitted}: {exc.code}")
            return False

    k = build_kit(offset_min=330)
    if k.device.displayed_time(now) != "12:00":
        failures.append(f"displayed {k.device.displayed_time(now)}")
    for submitted, expected in [("12:00", True), ("06:30", False),
                                ("11:59", True), ("12:01", True),
                                ("11:58", False), ("12:02", False)]:
        if attempt(submitted) is not expected:
            failures.append(f"{submitted} should {'pass' if expected else 'fail'}")
    gate(6, "displayed-time authentication", failures,
         "offset +330: displayed passes, UTC fails, both 1 min edges exact")


# ---------------------------------------------------------------------------
# 7. image prompts: uniform draw, immutable set


def test_c07_image_distribution_and_fixity():
    n = 10_000
    k = build_kit()
    session, _ = _staged(k, 2)
    rng = random.Random(0xC7)
    counts = Counter()
    for _ in range(n):
        probe = replace(session, state=SessionState.PASSPORT_VISIBLE,
                        pending_image_index=None)
        k.device.session = probe
        _, index = begin_image_auth(k.device, rng, now=0)
        counts[index] += 1
    low, high = n // 10 - 4 * int(n ** 0.5), n // 10 + 4 * int(n ** 0.5)
    failures = [f"index {i}: {counts[i]} outside [{low}, {high}]"
                for i in range(10) if not low <= counts[i] <= high]
    if set(counts) != set(range(10)):
        failures.append(f"indices drawn: {sorted(counts)}")

    honest, locked = build_kit(), build_kit()
    before = [[img.image_hash for img in kit.device.auth_images]
              for kit in (honest, locked)]
    desk_run(honest, "BLR-D1")
    desk_run(locked, "BLR-D1", wrong_image_answer=True)
    after = [[img.image_hash for img in kit.device.auth_images]
             for kit in (honest, locked)]
    if before != after:
        failures.append("auth image hashes changed during a scenario")
    gate(7, "image prompt distribution and fixity", failures,
         f"10 indices over {n} draws all within [{low}, {high}], "
         "hash set unchanged by scenarios")


# ---------------------------------------------------------------------------
# 8. proximity gate at exactly 15 cm


def test_c08_nfc_proximity():
    k = build_kit()
    failures = []
    channel = establish(k.device, 15.0)
    if channel.distance_cm != 15.0:
        failures.append("establish at 15.0 cm failed")
    if establish(k.device, 0.0) is None:
        failures.append("establish at contact failed")
    for epsilon in (0.1, 1, 100):
        try:
            establish(k.device, 15.0 + epsilon)
            failures.append(f"established at 15.0 + {epsilon}")
        except NfcError as exc:
            if exc.code != "OUT_OF_RANGE":
                failures.append(f"15.0 + {epsilon}: {exc.code}")
    gate(8, "NFC proximity gate", failures,
         "15.0 cm establishes; +0.1, +1, +100 all refused")


# ---------------------------------------------------------------------------
# 9. daily sync equals the brute-force filter, and is idempotent


def test_c09_sync_random_manifests():
    rng = random.Random(0xC9)
    airports = ["BLR", "JFK", "LHR", "DXB", "HND"]
    failures = []
    for trial in range(200):
        pool = rng.sample(range(10_000), rng.randint(1, 50))
        embassy = EmbassyCloud("IN", b"sync-secret")
        for i in pool:
            status = VisaStatus.REVOKED if rng.random() < 0.1 else VisaStatus.ISSUED
            embassy.visas[f"V{i:07d}"] = VisaRecord(
                f"V{i:07d}", f"P{i:07d}", "IN", "US", 0, 10 ** 9,
                content_hash(f"image {i}".encode()), status)
        entries = []
        for i in pool:
            vid = f"V{i:07d}" if rng.random() > 0.1 else f"V{i + 10_000:07d}"
            entries.append(ManifestEntry(f"P{i:07d}", vid,
                                         rng.choice(airports[:rng.randint(1, 5)]),
                                         rng.randrange(0, 6 * 86400)))
        code = rng.choice(airports)
        date = rng.randrange(0, 4 * 86400)
        cloud = AirportCloud(code)
        dangling = []
        daily_sync(cloud, embassy, TravelManifest(entries), date, dangling)

        expected, expected_dangling = {}, []
        for e in entries:
            if e.airport != code or not date <= e.travel_date <= date + SYNC_HORIZON_S:
                continue
            record = embassy.visas.get(e.visa_id)
            if record is None:
                expected_dangling.append(e)
            elif record.status is VisaStatus.ISSUED:
                expected[e.visa_id] = (record.passport_no, record.image_hash)
        if cloud.replicated != expected:
            failures.append(f"trial {trial}: replica differs from oracle")
        if dangling != expected_dangling:
            failures.append(f"trial {trial}: dangling report differs")

        once = cloud.snapshot_bytes()
        daily_sync(cloud, embassy, TravelManifest(entries), date)
        if cloud.snapshot_bytes() != once:
            failures.append(f"trial {trial}: second sync changed the replica")
    gate(9, "manifest sync vs brute force", failures,
         "200 random manifests match the filter oracle; twice == once")


# ---------------------------------------------------------------------------
# 10. QR segmentation is bit-optimal
#
# Cost depends only on each byte's mode class. The four-character
# alphabet has three classes: digit, alphanumeric-not-digit (A and
# space), byte-only (a). Sweeping every class string of length <= 12
# (797,160 of them) with the production encoder against an independent
# boundary DP covers every concrete string once the class-invariance
# check below holds; a second, structurally different DP (a mode/phase
# automaton) cross-checks the first.

_QR_HEADER = {"NUM": 14, "ALNUM": 13, "BYTE": 12}
_NUMDATA = [10 * (k // 3) + (0, 4, 7)[k % 3] for k in range(13)]
_ALNDATA = [11 * (k // 2) + 6 * (k % 2) for k in range(13)]
_NUM_DELTA = (3, 4, 3)                # indexed by new length mod 3
_ALN_DELTA = (5, 6)                   # indexed by new length mod 2
_CLASS_REPS = (ord("7"), ord("A"), ord("a"))


def _sweep_class_strings(max_len, failures):
    """DFS over class strings comparing three ways to cost each prefix."""
    best = [0] * (max_len + 1)
    minbyte = [0] * (max_len + 1)     # min of best[j] - 8j over j <= i
    run_num = [0] * (max_len + 1)
    run_aln = [0] * (max_len + 1)
    auto = [dict() for _ in range(max_len + 1)]
    rep = bytearray(max_len)
    nodes = 0

    def visit(depth):
        nonlocal nodes
        for cls in (0, 1, 2):
            n = depth + 1
            rep[depth] = _CLASS_REPS[cls]
            prev = auto[depth]
            prev_min = min(prev.values()) if prev else 0
            states = {}
            if cls == 0:              # NUMERIC stays available
                for p in (0, 1, 2):
                    v = prev.get(p)
                    if v is not None:
                        np = (p + 1) % 3
                        d = v + _NUM_DELTA[np]
                        if states.get(np, 1 << 30) > d:
                            states[np] = d
                fresh = prev_min + _QR_HEADER["NUM"] + 4
                if states.get(1, 1 << 30) > fresh:
                    states[1] = fresh
            if cls <= 1:              # ALPHANUMERIC stays available
                for p in (3, 4):
                    v = prev.get(p)
                    if v is not None:
                        np = 3 + (p - 3 + 1) % 2
                        d = v + _ALN_DELTA[np - 3]
                        if states.get(np, 1 << 30) > d:
                            states[np] = d
                fresh = prev_min + _QR_HEADER["ALNUM"] + 6
                if states.get(4, 1 << 30) > fresh:
                    states[4] = fresh
            byte_cont = prev.get(5)
            fresh = prev_min + _QR_HEADER["BYTE"] + 8
            states[5] = fresh if byte_cont is None else min(fresh, byte_cont + 8)
            auto[n] = states

            run_num[n] = run_num[depth] + 1 if cls == 0 else 0
            run_aln[n] = run_aln[depth] + 1 if cls <= 1 else 0
            bound = 12 + 8 * n + minbyte[depth]
            for length in range(1, run_num[n] + 1):
                cost = best[n - length] + 14 + _NUMDATA[length]
                if cost < bound:
                    bound = cost
            for length in range(1, run_aln[n] + 1):
                cost = best[n - length] + 13 + _ALNDATA[length]
                if cost < bound:
                    bound = cost
            best[n] = bound
            minbyte[n] = min(minbyte[depth], bound - 8 * n)

            text = bytes(rep[:n])
            if bound != min(states.values()):
                failures.append(f"DPs disagree on {text!r}")
                return
            if encode_payload(text).total_bits != bound:
                failures.append(f"encoder suboptimal on {text!r}")
                return
            nodes += 1
            if n < max_len:
                visit(n)

    visit(0)
    return nodes


def test_c10_qr_optimality():
    failures = []
    nodes = _sweep_class_strings(12, failures)
    if not failures and nodes != (3 ** 13 - 3) // 2:
        failures.append(f"swept {nodes} class strings")

    rng = random.Random(0xC10)
    alphabet = b"7Aa "
    for _ in range(2000):             # cost is class-invariant: swap A/space
        text = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        twin = bytes(rng.choice(b"A ") if b in b"A " else b for b in text)
        if encode_payload(text).total_bits != encode_payload(twin).total_bits:
            failures.append(f"class twin differs: {text!r} vs {twin!r}")
            break

    pool = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ abcdefghij$%*+-./:"
    for _ in range(1000):
        text = bytes(rng.choice(pool) for _ in range(rng.randint(1, 20)))
        payload = encode_payload(text)
        if payload.total_bits != oracle_min_bits(text):
            failures.append(f"suboptimal on {text!r}")
        if decode_payload(payload) != text:
            failures.append(f"decode(encode) broke {text!r}")
    gate(10, "QR segmentation optimality", failures,
         f"{nodes} class strings <= 12 chars exhausted, twins agree, "
         "1000 random <= 20 optimal, decode(encode) is identity")


# ---------------------------------------------------------------------------
# 11. session state machine, exhaustively

_LIVE_STATES = (SessionState.TIME_AUTH_PENDING, SessionState.CREDENTIALS_PENDING,
                SessionState.PASSPORT_VISIBLE, SessionState.IMAGE_AUTH_PENDING,
                SessionState.VISA_VISIBLE)


def test_c11_state_machine_exhaustion():
    failures = []

    # every (state x operation) pair lands inside the declared graph
    for steps, (i, op) in itertools.product(range(5), enumerate(_OPS)):
        k = build_kit()
        session, prompt = _staged(k, steps)
        staged_state = _LIVE_STATES[steps]
        try:
            session, _ = _apply(k, session, prompt, op, now=1)
            if steps != i:
                failures.append(f"{op} allowed from {staged_state.value}")
            elif session.state is not _LIVE_STATES[steps + 1]:
                failures.append(f"{op} moved to {session.state.value}")
        except AuthError as exc:
            if steps == i:
                failures.append(f"{op} refused from {staged_state.value}")
            elif exc.code != "WRONG_STATE":
                failures.append(f"{op} from {staged_state.value}: {exc.code}")
            elif k.device.session.state is not staged_state:
                failures.append(f"{op} failure moved state")

    for terminal, expected_code in ((SessionState.EXPIRED, "SESSION_EXPIRED"),
                                    (SessionState.TERMINATED, "WRONG_STATE")):
        for op in _OPS:
            k = build_kit()
            session, prompt = _staged(k, 0)
            session = replace(session, state=terminal, pending_captcha=None)
            k.device.session = session
            try:
                _apply(k, session, prompt, op, now=1)
                failures.append(f"{op} escaped {terminal.value}")
            except AuthError as exc:
                if exc.code != expected_code:
                    failures.append(f"{op} in {terminal.value}: {exc.code}")
            if k.device.session.state is not terminal:
                failures.append(f"{terminal.value} not absorbing under {op}")

    # expiry forces EXPIRED from every live state
    for steps in range(5):
        k = build_kit()
        session, _ = _staged(k, steps)
        if check_timeout(session, 600).state is not SessionState.EXPIRED:
            failures.append(f"timeout from {_LIVE_STATES[steps].value}")

    # all traces up to length 5: only the full ordered walk shows the visa
    k = build_kit()
    reached = 0
    for length in range(1, 6):
        for trace in itertools.product(range(4), repeat=length):
            session, prompt = open_session(k.device, 0, k.rng), 0
            expected = 0
            for i in trace:
                if i == expected:
                    expected += 1
                try:
                    session, prompt = _apply(k, session, prompt, _OPS[i], now=1)
                except AuthError:
                    pass
            if session.state is not _LIVE_STATES[expected]:
                failures.append(f"trace {trace} ended {session.state.value}")
                break
            skipped = any(i not in trace for i in range(4))
            if session.state is SessionState.VISA_VISIBLE:
                reached += 1
                if skipped:
                    failures.append(f"trace {trace} skipped a level")
    gate(11, "state machine exhaustion", failures,
         f"all pairs on-graph, 1364 traces replayed, visa visible in "
         f"{reached} and never by skipping a level")
