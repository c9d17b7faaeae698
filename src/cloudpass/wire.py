"""Line protocol for serving a cloud over TCP.

One request per line: an op name followed by space-separated args, byte
args hex-encoded, so args themselves can never contain whitespace.
Every request gets exactly one response line back, either "OK ..." or
"ERR <code>". The handlers are pure string-to-string functions over a
cloud instance; the socket server just frames lines around them,
caps their length and serializes access with a lock.
"""

from __future__ import annotations

import hashlib
import random
import socketserver
import threading

from . import clouds
from .clouds import AirportCloud, Checkpoint, EmbassyCloud
from .errors import CloudPassError
from .model import MAX_IMAGE_BYTES, IdKind
from .qrlink import resolve_link_token, token_from_wire, token_wire

__all__ = ["MAX_LINE_BYTES", "handle_embassy_line", "handle_airport_line",
           "CloudServer", "serve"]

# Longest request line the server reads, terminator included. The longest
# valid request is APPROVE_VISA with an image at the size bound,
# hex-encoded; the allowance covers its op, its six other arguments, the
# separators and a CRLF terminator.
MAX_LINE_BYTES = 2 * MAX_IMAGE_BYTES + 4096


class _BadRequest(Exception):
    def __init__(self, code: str):
        self.code = code


def _need(parts: list[str], count: int) -> None:
    if len(parts) != count:
        raise _BadRequest("BAD_ARGS")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _BadRequest("BAD_ARGS") from None


def _hex(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise _BadRequest("BAD_HEX") from None


def _enum(cls, name: str):
    try:
        return cls(name)
    except ValueError:
        raise _BadRequest("BAD_ARGS") from None


def _embassy_dispatch(cloud: EmbassyCloud, op: str, args: list[str],
                      rng: random.Random) -> str:
    if op == "PING":
        _need(args, 0)
        return "OK pong"
    if op == "SUBMIT":
        _need(args, 2)
        tracking = clouds.submit_application(cloud, args[0],
                                             _enum(IdKind, args[1]), rng)
        return f"OK {tracking.value}"
    if op == "STATUS":
        _need(args, 1)
        return f"OK {clouds.application_status(cloud, args[0]).value}"
    if op == "APPROVE_PASSPORT":
        _need(args, 6)
        note = clouds.approve_passport(
            cloud, args[0], passport_no=args[1], holder_name=args[2],
            nationality=args[3], issue_date=_int(args[4]),
            expiry_date=_int(args[5]))
        return f"OK {token_wire(note.payload)}"
    if op == "APPROVE_VISA":
        _need(args, 7)
        note = clouds.approve_visa(
            cloud, args[0], visa_id=args[1], passport_no=args[2],
            destination_country=args[3], valid_from=_int(args[4]),
            valid_to=_int(args[5]), image_bytes=_hex(args[6]))
        return f"OK {token_wire(note.payload)}"
    if op == "RESOLVE":
        _need(args, 1)
        token = token_from_wire(args[0])
        resource_id = resolve_link_token(token, cloud)
        return f"OK {token.resource_kind.value} {resource_id}"
    if op == "BLOB":
        _need(args, 1)
        blob = cloud.blobs.get(args[0])
        if blob is None:
            raise _BadRequest("NO_SUCH_BLOB")
        return f"OK {blob.hex()}"
    if op == "SNAPSHOT":
        _need(args, 0)
        return f"OK {cloud.snapshot_bytes().hex()}"
    raise _BadRequest("BAD_OP")


def _airport_dispatch(cloud: AirportCloud, op: str, args: list[str]) -> str:
    if op == "PING":
        _need(args, 0)
        return "OK pong"
    if op == "REPLICATE":
        _need(args, 3)
        cloud.replicated[args[0]] = (args[1], args[2])
        return "OK"
    if op == "DESK_COPY":
        _need(args, 3)
        digest = clouds.receive_desk_copy(cloud, args[0], _hex(args[2]),
                                          _enum(Checkpoint, args[1]))
        return f"OK {digest}"
    if op == "COMPARE":
        _need(args, 2)
        result = clouds.compare_visa(cloud, args[0],
                                     _enum(Checkpoint, args[1]))
        return f"OK {result.value}"
    if op == "REPLICATED":
        _need(args, 1)
        entry = cloud.replicated.get(args[0])
        if entry is None:
            raise _BadRequest("NOT_REPLICATED")
        return f"OK {entry[0]} {entry[1]}"
    if op == "SNAPSHOT":
        _need(args, 0)
        return f"OK {cloud.snapshot_bytes().hex()}"
    raise _BadRequest("BAD_OP")


def _handle(line: str, dispatch) -> str:
    parts = line.split()
    if not parts:
        return "ERR EMPTY_LINE"
    try:
        return dispatch(parts[0], parts[1:])
    except _BadRequest as exc:
        return f"ERR {exc.code}"
    except CloudPassError as exc:
        return f"ERR {exc.code}"


def handle_embassy_line(cloud: EmbassyCloud, line: str,
                        rng: random.Random | None = None) -> str:
    rng = rng if rng is not None else random.Random(0)
    return _handle(line, lambda op, args: _embassy_dispatch(cloud, op, args, rng))


def handle_airport_line(cloud: AirportCloud, line: str) -> str:
    return _handle(line, lambda op, args: _airport_dispatch(cloud, op, args))


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: CloudServer = self.server  # type: ignore[assignment]
        while raw := self.rfile.readline(MAX_LINE_BYTES + 1):
            if len(raw) > MAX_LINE_BYTES:
                # The rest of the line is never read, so no reply can be
                # lined up with the next request: answer once and hang up.
                self._reply("ERR LINE_TOO_LONG")
                return
            line = raw.decode("utf-8", errors="replace").strip()
            with server.lock:
                if isinstance(server.cloud, EmbassyCloud):
                    reply = handle_embassy_line(server.cloud, line, server.rng)
                else:
                    reply = handle_airport_line(server.cloud, line)
            self._reply(reply)

    def _reply(self, reply: str) -> None:
        self.wfile.write(reply.encode("utf-8") + b"\n")
        self.wfile.flush()


class CloudServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, cloud, port: int, host: str = "127.0.0.1"):
        self.cloud = cloud
        self.lock = threading.Lock()
        seed_name = getattr(cloud, "authority_id", None) or cloud.airport
        self.rng = random.Random(int.from_bytes(
            hashlib.sha256(f"wire:{seed_name}".encode()).digest()[:8], "big"))
        super().__init__((host, port), _Handler)


def _default_cloud(role: str, name: str | None):
    if role == "embassy":
        authority = name or "EMBASSY"
        secret = hashlib.sha256(f"wire-secret:{authority}".encode()).digest()[:16]
        return EmbassyCloud(authority, secret)
    return AirportCloud(name or "XXX")


def serve(role: str, port: int, name: str | None = None) -> None:
    """Run one cloud on a TCP port until interrupted."""
    with CloudServer(_default_cloud(role, name), port) as server:
        server.serve_forever()
