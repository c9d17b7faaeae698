"""Line protocol handlers and the TCP wrapper around them."""

import hashlib
import json
import random
import re
import socket
import threading
from pathlib import Path

import pytest

from cloudpass.clouds import AirportCloud, EmbassyCloud
from cloudpass.model import MAX_IMAGE_BYTES, content_hash
from cloudpass.wire import (MAX_LINE_BYTES, CloudServer, handle_airport_line,
                            handle_embassy_line)


_WIRE_DOC = (Path(__file__).resolve().parents[1] / "docs" / "wire.md").read_text()


@pytest.fixture
def embassy():
    return EmbassyCloud("IN", b"wire-test-secret")


@pytest.fixture
def airport():
    return AirportCloud("BLR")


def ask(cloud, line, rng=None):
    if isinstance(cloud, EmbassyCloud):
        return handle_embassy_line(cloud, line, rng or random.Random(7))
    return handle_airport_line(cloud, line)


# ---------------------------------------------------------------------------
# request framing


def test_ping_both_roles(embassy, airport):
    assert ask(embassy, "PING") == "OK pong"
    assert ask(airport, "PING") == "OK pong"


def test_unknown_op(embassy, airport):
    assert ask(embassy, "EXPLODE") == "ERR BAD_OP"
    assert ask(airport, "EXPLODE now") == "ERR BAD_OP"


def test_empty_line(embassy):
    assert ask(embassy, "   ") == "ERR EMPTY_LINE"


def test_wrong_arg_count(embassy):
    assert ask(embassy, "PING extra") == "ERR BAD_ARGS"
    assert ask(embassy, "SUBMIT alice") == "ERR BAD_ARGS"


def _documented_ops(role: str) -> dict[str, int]:
    """op -> argument count, from the role's table in docs/wire.md."""
    section = _WIRE_DOC.split(f"## {role} role", 1)[1].split("\n## ", 1)[0]
    ops = {}
    for request in re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE):
        ops[request.split()[0]] = len(re.findall(r"<[^>]+>", request))
    return ops


@pytest.mark.parametrize("role", ["Embassy", "Airport"])
def test_documented_arity_is_enforced(role, embassy, airport):
    cloud, other = ((embassy, airport) if role == "Embassy"
                    else (airport, embassy))
    ops = _documented_ops(role)
    other_ops = _documented_ops("Airport" if role == "Embassy" else "Embassy")
    assert {"PING", "SNAPSHOT"} <= ops.keys() & other_ops.keys()
    for op, count in ops.items():
        for wrong in {count - 1, count + 1} - {-1}:
            assert ask(cloud, " ".join([op] + ["x"] * wrong)) == "ERR BAD_ARGS"
    for op in other_ops.keys() - ops.keys():
        assert ask(cloud, op) == "ERR BAD_OP"


def test_bad_hex(embassy):
    long_prefix = "APPROVE_VISA t V1 P1 US 0 9"
    assert ask(embassy, f"{long_prefix} zz") == "ERR BAD_HEX"


def test_bad_enum(embassy):
    assert ask(embassy, "SUBMIT alice DOG_LICENSE") == "ERR BAD_ARGS"
    # Integers too: ASCII [+-]?[0-9]+ only, as in the scenario grammar.
    tracking = ask(embassy, "SUBMIT alice PASSPORT_APPLICATION").split()[1]
    for issued, expires in [("1_000", "2000"), ("1000", "２０００"),
                            ("٣", "2000"), ("+", "2000"), ("9" * 5000, "1")]:
        line = f"APPROVE_PASSPORT {tracking} P1 alice IN {issued} {expires}"
        assert ask(embassy, line) == "ERR BAD_ARGS"
    assert ask(embassy, f"STATUS {tracking}") == "OK SUBMITTED"


# ---------------------------------------------------------------------------
# embassy flow over the protocol


def test_embassy_full_passport_flow(embassy):
    rng = random.Random(7)
    reply = ask(embassy, "SUBMIT alice PASSPORT_APPLICATION", rng)
    assert reply.startswith("OK ")
    tracking = reply.split()[1]
    assert len(tracking) == 12

    assert ask(embassy, f"STATUS {tracking}", rng) == "OK SUBMITTED"

    reply = ask(embassy,
                f"APPROVE_PASSPORT {tracking} P7654321 alice IN 0 315360000",
                rng)
    assert reply.startswith("OK ")
    token_hex = reply.split()[1]

    assert ask(embassy, f"STATUS {tracking}", rng) == "OK APPROVED"
    assert ask(embassy, f"RESOLVE {token_hex}", rng) == "OK PASSPORT_APP P7654321"


def test_embassy_visa_flow_with_blob(embassy):
    rng = random.Random(7)
    image = bytes(range(64))
    tracking = ask(embassy, "SUBMIT alice VISA_APPLICATION", rng).split()[1]
    reply = ask(embassy,
                f"APPROVE_VISA {tracking} V42 P7654321 US 0 999 {image.hex()}",
                rng)
    token_hex = reply.split()[1]
    resolved = ask(embassy, f"RESOLVE {token_hex}", rng)
    assert resolved == "OK VISA_IMAGE V42"

    digest = content_hash(image)
    assert ask(embassy, f"BLOB {digest}", rng) == f"OK {image.hex()}"
    assert ask(embassy, "BLOB deadbeef", rng) == "ERR NO_SUCH_BLOB"


def test_embassy_duplicate_passport_no_rejected(embassy):
    rng = random.Random(7)
    first = ask(embassy, "SUBMIT alice PASSPORT_APPLICATION", rng).split()[1]
    reply = ask(embassy, f"APPROVE_PASSPORT {first} P1 alice IN 0 315360000",
                rng)
    assert reply.startswith("OK ")
    second = ask(embassy, "SUBMIT bob PASSPORT_APPLICATION", rng).split()[1]
    snapshot = ask(embassy, "SNAPSHOT", rng)
    reply = ask(embassy, f"APPROVE_PASSPORT {second} P1 bob IN 0 315360000",
                rng)
    assert reply == "ERR DUPLICATE_PASSPORT_NO"
    assert ask(embassy, "SNAPSHOT", rng) == snapshot
    assert embassy.passports["P1"].holder_name == "alice"
    assert ask(embassy, f"STATUS {second}", rng) == "OK SUBMITTED"


def test_embassy_image_too_large(embassy):
    rng = random.Random(7)
    tracking = ask(embassy, "SUBMIT alice VISA_APPLICATION", rng).split()[1]
    image = bytes(MAX_IMAGE_BYTES + 1).hex()
    reply = ask(embassy, f"APPROVE_VISA {tracking} V42 P1 US 0 999 {image}", rng)
    assert reply == "ERR IMAGE_TOO_LARGE"
    assert ask(embassy, f"STATUS {tracking}", rng) == "OK SUBMITTED"


def test_embassy_errors_pass_through(embassy):
    assert ask(embassy, "STATUS NOPE") == "ERR NOT_FOUND"
    assert ask(embassy, "RESOLVE 00ff") == "ERR BAD_TOKEN_WIRE"


def test_embassy_snapshot_deterministic(embassy):
    first = ask(embassy, "SNAPSHOT")
    assert first.startswith("OK ")
    assert ask(embassy, "SNAPSHOT") == first


def _snapshot_digest(cloud) -> str:
    reply = ask(cloud, "SNAPSHOT", random.Random(7))
    return hashlib.sha256(reply.encode("utf-8")).hexdigest()


def test_snapshot_replies_pinned(embassy, airport):
    """The SNAPSHOT payload documented in docs/wire.md, one small fixed
    store per role. A key, an ordering or a separator that moves changes
    these digests."""
    rng = random.Random(7)
    passport = ask(embassy, "SUBMIT alice PASSPORT_APPLICATION", rng).split()[1]
    ask(embassy, f"APPROVE_PASSPORT {passport} P1 alice IN 0 315360000", rng)
    visa = ask(embassy, "SUBMIT alice VISA_APPLICATION", rng).split()[1]
    ask(embassy, f"APPROVE_VISA {visa} V1 P1 US 0 999 {b'pixels'.hex()}", rng)
    ask(embassy, "SUBMIT bob PASSPORT_APPLICATION", rng)
    assert _snapshot_digest(embassy) == ("0526588ccf72364e04e71f81376f0044"
                                       "cb44ad2a559dd453f18e66e198b286b7")

    digest = content_hash(b"pixels")
    ask(airport, f"REPLICATE V1 P1 {digest}")
    ask(airport, f"REPLICATE V0 P0 {content_hash(b'other')}")
    ask(airport, f"DESK_COPY V1 DEPARTURE {b'pixels'.hex()}")
    ask(airport, f"DESK_COPY V1 ARRIVAL {b'tampered'.hex()}")
    airport.last_sync_date = 86400
    assert _snapshot_digest(airport) == ("065237b0a63adb9e31dd9315930aa691"
                                       "2a35e78eb8977f060e9547774aa1d627")


# ---------------------------------------------------------------------------
# airport flow over the protocol


def test_airport_replicate_and_compare(airport):
    image = b"visa pixels"
    digest = content_hash(image)
    assert ask(airport, f"REPLICATE V42 P1 {digest}") == "OK"
    assert ask(airport, "REPLICATED V42") == f"OK P1 {digest}"
    assert ask(airport, "REPLICATED V43") == "ERR NOT_REPLICATED"

    reply = ask(airport, f"DESK_COPY V42 DEPARTURE {image.hex()}")
    assert reply == f"OK {digest}"
    assert ask(airport, "COMPARE V42 DEPARTURE") == "OK MATCH"

    tampered = bytearray(image)
    tampered[3] ^= 0xFF
    ask(airport, f"DESK_COPY V42 ARRIVAL {bytes(tampered).hex()}")
    assert ask(airport, "COMPARE V42 ARRIVAL") == "OK MISMATCH"


def test_airport_compare_unreplicated(airport):
    image = b"x"
    ask(airport, f"DESK_COPY V9 DEPARTURE {image.hex()}")
    assert ask(airport, "COMPARE V9 DEPARTURE") == "OK NOT_FOUND"


def test_airport_compare_without_desk_copy(airport):
    ask(airport, "REPLICATE V1 P1 cafe")
    assert ask(airport, "COMPARE V1 DEPARTURE") == "ERR NO_DESK_COPY"


def test_airport_bad_checkpoint(airport):
    assert ask(airport, "COMPARE V1 SIDEWAYS") == "ERR BAD_ARGS"


# ---------------------------------------------------------------------------
# sockets


def test_server_round_trip():
    server = CloudServer(EmbassyCloud("IN", b"socket-secret"), port=0)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection((host, port), timeout=5) as conn:
            fp = conn.makefile("rw", encoding="utf-8", newline="\n")
            fp.write("PING\nSUBMIT bob PASSPORT_APPLICATION\n")
            fp.flush()
            assert fp.readline().strip() == "OK pong"
            reply = fp.readline().strip()
            assert reply.startswith("OK ")
            tracking = reply.split()[1]
            fp.write(f"STATUS {tracking}\n")
            fp.flush()
            assert fp.readline().strip() == "OK SUBMITTED"
            # Blank lines still get a reply; a silent skip would hang clients.
            fp.write("\n")
            fp.flush()
            assert fp.readline().strip() == "ERR EMPTY_LINE"
    finally:
        server.shutdown()
        server.server_close()


def test_server_refuses_bytes_that_are_not_utf8():
    server = CloudServer(EmbassyCloud("IN", b"socket-secret"), port=0)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection((host, port), timeout=5) as conn:
            conn.sendall(b"SUBMIT al\xffice PASSPORT_APPLICATION\nSNAPSHOT\n")
            fp = conn.makefile("rb")
            assert fp.readline() == b"ERR BAD_UTF8\n"
            # One reply, and the connection stays open for the next line.
            op, store = fp.readline().split()
            assert op == b"OK"
            assert json.loads(bytes.fromhex(store.decode()))["applications"] == {}
    finally:
        server.shutdown()
        server.server_close()


def test_server_line_length_cap():
    server = CloudServer(EmbassyCloud("IN", b"socket-secret"), port=0)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection((host, port), timeout=5) as conn:
            fp = conn.makefile("rw", encoding="utf-8", newline="\n")
            fp.write("SUBMIT alice VISA_APPLICATION\n")
            fp.flush()
            tracking = fp.readline().split()[1]
            # The longest valid request: a visa image at the size bound.
            image = bytes(MAX_IMAGE_BYTES).hex()
            fp.write(f"APPROVE_VISA {tracking} V42 P1 US 0 999 {image}\n")
            fp.flush()
            assert fp.readline().startswith("OK ")
        with socket.create_connection((host, port), timeout=5) as conn:
            # Sent from its own thread: the server stops reading mid-line,
            # so the rest of this write may fail once it hangs up.
            def send_long_line():
                try:
                    conn.sendall(b"PING " + b"x" * MAX_LINE_BYTES + b"\n")
                except OSError:
                    pass
            writer = threading.Thread(target=send_long_line, daemon=True)
            writer.start()
            fp = conn.makefile("r", encoding="utf-8", newline="\n")
            assert fp.readline() == "ERR LINE_TOO_LONG\n"
            try:
                rest = fp.readline()
            except ConnectionResetError:
                rest = ""
            assert rest == ""       # and the connection is closed
            writer.join(timeout=5)
            assert not writer.is_alive()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
