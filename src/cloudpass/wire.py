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
import re
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

# Integer arguments, as in the scenario grammar: no "_" separators and no
# digits outside ASCII, both of which int() would accept.
_INT_RE = re.compile(r"[+-]?[0-9]+")


class _BadRequest(Exception):
    def __init__(self, code: str):
        self.code = code


def _int(text: str) -> int:
    if _INT_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise _BadRequest("BAD_ARGS")


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


def _submit(cloud: EmbassyCloud, rng, applicant, kind) -> str:
    tracking = clouds.submit_application(cloud, applicant,
                                         _enum(IdKind, kind), rng)
    return f"OK {tracking.value}"


def _approve_passport(cloud: EmbassyCloud, rng, tracking, passport_no,
                      holder, nationality, issued, expires) -> str:
    note = clouds.approve_passport(
        cloud, tracking, passport_no=passport_no, holder_name=holder,
        nationality=nationality, issue_date=_int(issued),
        expiry_date=_int(expires))
    return f"OK {token_wire(note.payload)}"


def _approve_visa(cloud: EmbassyCloud, rng, tracking, visa_id, passport_no,
                  destination, valid_from, valid_to, image) -> str:
    note = clouds.approve_visa(
        cloud, tracking, visa_id=visa_id, passport_no=passport_no,
        destination_country=destination, valid_from=_int(valid_from),
        valid_to=_int(valid_to), image_bytes=_hex(image))
    return f"OK {token_wire(note.payload)}"


def _resolve(cloud: EmbassyCloud, rng, token_hex) -> str:
    token = token_from_wire(token_hex)
    resource_id = resolve_link_token(token, cloud)
    return f"OK {token.resource_kind.value} {resource_id}"


def _blob(cloud: EmbassyCloud, rng, content_hash) -> str:
    blob = cloud.blobs.get(content_hash)
    if blob is None:
        raise _BadRequest("NO_SUCH_BLOB")
    return f"OK {blob.hex()}"


def _replicate(cloud: AirportCloud, rng, visa_id, passport_no,
               image_hash) -> str:
    cloud.replicated[visa_id] = (passport_no, image_hash)
    return "OK"


def _desk_copy(cloud: AirportCloud, rng, visa_id, checkpoint, image) -> str:
    digest = clouds.receive_desk_copy(cloud, visa_id, _hex(image),
                                      _enum(Checkpoint, checkpoint))
    return f"OK {digest}"


def _compare(cloud: AirportCloud, rng, visa_id, checkpoint) -> str:
    result = clouds.compare_visa(cloud, visa_id, _enum(Checkpoint, checkpoint))
    return f"OK {result.value}"


def _replicated(cloud: AirportCloud, rng, visa_id) -> str:
    entry = cloud.replicated.get(visa_id)
    if entry is None:
        raise _BadRequest("NOT_REPLICATED")
    return f"OK {entry[0]} {entry[1]}"


# op -> (argument count, handler). A handler is called as
# handler(cloud, rng, *args); only SUBMIT draws from the rng.
_SHARED_OPS = {
    "PING": (0, lambda cloud, rng: "OK pong"),
    "SNAPSHOT": (0, lambda cloud, rng: f"OK {cloud.snapshot_bytes().hex()}"),
}
_EMBASSY_OPS = {
    **_SHARED_OPS,
    "SUBMIT": (2, _submit),
    "STATUS": (1, lambda cloud, rng, tracking:
               f"OK {clouds.application_status(cloud, tracking).value}"),
    "APPROVE_PASSPORT": (6, _approve_passport),
    "APPROVE_VISA": (7, _approve_visa),
    "RESOLVE": (1, _resolve),
    "BLOB": (1, _blob),
}
_AIRPORT_OPS = {
    **_SHARED_OPS,
    "REPLICATE": (3, _replicate),
    "DESK_COPY": (3, _desk_copy),
    "COMPARE": (2, _compare),
    "REPLICATED": (1, _replicated),
}


def _handle(ops: dict, cloud, line: str, rng=None) -> str:
    parts = line.split()
    if not parts:
        return "ERR EMPTY_LINE"
    if parts[0] not in ops:
        return "ERR BAD_OP"
    arity, handler = ops[parts[0]]
    if len(parts) - 1 != arity:
        return "ERR BAD_ARGS"
    try:
        return handler(cloud, rng, *parts[1:])
    except (_BadRequest, CloudPassError) as exc:
        return f"ERR {exc.code}"


def handle_embassy_line(cloud: EmbassyCloud, line: str,
                        rng: random.Random | None = None) -> str:
    rng = rng if rng is not None else random.Random(0)
    return _handle(_EMBASSY_OPS, cloud, line, rng)


def handle_airport_line(cloud: AirportCloud, line: str) -> str:
    return _handle(_AIRPORT_OPS, cloud, line)


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: CloudServer = self.server  # type: ignore[assignment]
        while raw := self.rfile.readline(MAX_LINE_BYTES + 1):
            if len(raw) > MAX_LINE_BYTES:
                # The rest of the line is never read, so no reply can be
                # lined up with the next request: answer once and hang up.
                self._reply("ERR LINE_TOO_LONG")
                return
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                self._reply("ERR BAD_UTF8")
                continue
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
