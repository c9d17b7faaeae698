"""Line protocol handlers and the TCP wrapper around them."""

import hashlib
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from cloudpass.clouds import AirportCloud, EmbassyCloud
from cloudpass.model import MAX_IMAGE_BYTES, content_hash
from cloudpass.server import CloudServer, _default_cloud
from cloudpass.wire import (MAX_LINE_BYTES, handle_airport_line,
                            handle_embassy_line)
from cloudpass.simnet.cli import main as cli_main


_ROOT = Path(__file__).resolve().parents[1]
_WIRE_DOC = (_ROOT / "docs" / "wire.md").read_text()


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


@pytest.mark.parametrize("kind, bad, good", [
    ("PASSPORT", "P\ud800 bob IN 0 100", "P1 bob IN 0 100"),
    ("VISA", "V\ud800 P1 US 0 999 00ff", "V1 P1 US 0 999 00ff"),
], ids=["passport", "visa"])
def test_refused_approval_leaves_the_store_as_it_was(embassy, kind, bad, good):
    # A lone surrogate cannot ride the link, so the approval is refused;
    # it stores no document, files no notice, and the retry is approved.
    rng = random.Random(7)
    tracking = ask(embassy, f"SUBMIT bob {kind}_APPLICATION", rng).split()[1]
    snapshot = ask(embassy, "SNAPSHOT", rng)
    assert ask(embassy, f"APPROVE_{kind} {tracking} {bad}", rng) == "ERR BAD_UTF8"
    assert ask(embassy, "SNAPSHOT", rng) == snapshot
    assert ask(embassy, f"STATUS {tracking}", rng) == "OK SUBMITTED"
    assert embassy.latest_notices == {}
    assert ask(embassy, f"APPROVE_{kind} {tracking} {good}", rng).startswith("OK ")
    assert ask(embassy, f"STATUS {tracking}", rng) == "OK APPROVED"


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
    assert ask(airport, f"REPLICATE V1 P1 {content_hash(b'x')}") == "OK"
    assert ask(airport, "COMPARE V1 DEPARTURE") == "ERR NO_DESK_COPY"


@pytest.mark.parametrize("image_hash", [
    "zz", "cafe", content_hash(b"x").upper(), content_hash(b"x")[:-1],
    content_hash(b"x") + "0"],
    ids=["not-hex", "short", "upper-case", "63-digits", "65-digits"])
def test_airport_replicate_refuses_malformed_hash(airport, image_hash):
    """A replica row holds a SHA-256 in 64 lowercase hex digits, or no row."""
    assert ask(airport, f"REPLICATE V1 P1 {image_hash}") == "ERR BAD_HASH_FORMAT"
    assert ask(airport, "REPLICATED V1") == "ERR NOT_REPLICATED"


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


def test_airport_server_round_trip_without_rng():
    """Only an embassy draws from an rng, so an airport server has none."""
    server = CloudServer(AirportCloud("BLR"), port=0)
    assert server.rng is None
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection((host, port), timeout=5) as conn:
            fp = conn.makefile("rw", encoding="utf-8", newline="\n")
            digest = content_hash(b"pixels")
            fp.write(f"REPLICATE V1 P1 {digest}\nREPLICATED V1\nREPLICATE V2 P1 zz\n")
            fp.flush()
            assert [fp.readline().strip() for _ in range(3)] == [
                "OK", f"OK P1 {digest}", "ERR BAD_HASH_FORMAT"]
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


# ---------------------------------------------------------------------------
# cloudpass serve


def test_import_cloudpass_leaves_the_socket_shell_out():
    # A fresh interpreter, so modules other tests loaded do not count.
    probe = ("import sys; before = set(sys.modules); import cloudpass; "
             "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    added = set(subprocess.run([sys.executable, "-c", probe], env=env,
                               capture_output=True, text=True,
                               check=True).stdout.split())
    assert "cloudpass.wire" in added
    assert not added & {"socket", "socketserver", "selectors",
                        "cloudpass.server"}


def test_default_clouds_can_work():
    embassy = _default_cloud("embassy", None)
    tracking = ask(embassy, "SUBMIT alice PASSPORT_APPLICATION").split()[1]
    line = f"APPROVE_PASSPORT {tracking} P1 alice IN 0 100"
    assert ask(embassy, line).startswith("OK ")
    airport = _default_cloud("airport", None)
    assert ask(airport, f"REPLICATE V1 P1 {'0' * 64}") == "OK"


@pytest.mark.parametrize("role,name,code", [
    ("embassy", "India", "BAD_COUNTRY_CODE"),
    ("airport", "blr", "BAD_AIRPORT_CODE"),
])
def test_serve_refuses_a_malformed_name(role, name, code):
    # In a child process, so a server that starts anyway is cut by the
    # timeout instead of holding the test run.
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "cloudpass.simnet.cli", "serve",
         "--role", role, "--port", "0", "--name", name],
        capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 1
    assert proc.stdout == ""                # it never said it listens
    assert proc.stderr.startswith("cloudpass: ")
    assert proc.stderr.count("\n") == 1
    assert code in proc.stderr


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_serve_refuses_port_out_of_range(port, capsys):
    assert cli_main(["serve", "--role", "airport", "--port", port]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"cloudpass: cannot serve on port {port}: ")
    assert err.count("\n") == 1


def test_serve_stops_on_sigint():
    # Port 0: the OS picks the port, and the first stdout line names it.
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cloudpass.simnet.cli", "serve",
         "--role", "embassy", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    lines = []
    reader = threading.Thread(target=lambda: lines.append(proc.stdout.readline()),
                              daemon=True)
    reader.start()
    try:
        reader.join(timeout=20)
        assert lines, "cloudpass serve never said where it listens"
        match = re.fullmatch(r"listening on 127\.0\.0\.1:([0-9]+)\n", lines[0])
        assert match, (lines, proc.poll())
        port = int(match.group(1))
        assert port != 0
        with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
            conn.sendall(b"PING\n")
            assert conn.makefile("rb").readline() == b"OK pong\n"
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert out == ""
    assert "Traceback" not in err
