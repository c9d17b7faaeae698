"""Line protocol for serving a cloud over TCP.

One request per line: an op name followed by its args, separated by
runs of whitespace as ``str.split()`` knows it; byte args are
hex-encoded, so args themselves can never contain whitespace.
Every request gets exactly one response line back, either "OK ..." or
"ERR <code>". The handlers here are pure string-to-string functions
over a cloud instance. The socket server that frames lines around them,
caps their length and serializes access with a lock is in ``server``,
which only ``cloudpass serve`` imports.
"""

from __future__ import annotations

from binascii import a2b_hex
import random

from . import clouds
from .clouds import AirportCloud, Checkpoint, EmbassyCloud
from .errors import CloudPassError
from .model import _SIGNED_RE, MAX_IMAGE_BYTES, IdKind, _in_i64, content_hash
from .qrlink import resolve_link_token, token_from_wire, token_wire

__all__ = ["MAX_LINE_BYTES", "handle_embassy_line", "handle_airport_line"]

# Longest request line the server reads, terminator included. The longest
# valid request is APPROVE_VISA with an image at the size bound,
# hex-encoded; the allowance covers its op, its six other arguments, the
# separators and a CRLF terminator.
MAX_LINE_BYTES = 2 * MAX_IMAGE_BYTES + 4096


def _int(text: str) -> int:
    value = _SIGNED_RE.fullmatch(text) and _in_i64(text)
    if value is None:
        raise CloudPassError("BAD_ARGS")
    return value


def _hex(text: str) -> bytes:
    """Two hex digits a byte, in either case. An argument holds no
    whitespace, and on such text ``a2b_hex`` refuses exactly what
    ``bytes.fromhex`` refuses."""
    try:
        return a2b_hex(text)
    except ValueError:
        raise CloudPassError("BAD_HEX") from None


# Enum arguments by value, each table built once.
_ID_KINDS = {kind.value: kind for kind in IdKind}
_CHECKPOINTS = {checkpoint.value: checkpoint for checkpoint in Checkpoint}


def _member(members: dict, value: str):
    member = members.get(value)
    if member is None:
        raise CloudPassError("BAD_ARGS")
    return member


def _submit(cloud: EmbassyCloud, rng, applicant, kind) -> str:
    tracking = clouds.submit_application(cloud, applicant,
                                         _member(_ID_KINDS, kind), rng)
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
        raise CloudPassError("NO_SUCH_BLOB")
    return f"OK {blob.hex()}"


def _replicate(cloud: AirportCloud, rng, visa_id, passport_no,
               image_hash) -> str:
    clouds.replicate(cloud, visa_id, passport_no, image_hash)
    return "OK"


def _desk_copy(cloud: AirportCloud, rng, visa_id, checkpoint, image) -> str:
    digest = content_hash(_hex(image))
    clouds.receive_desk_copy(cloud, visa_id, digest,
                             _member(_CHECKPOINTS, checkpoint))
    return f"OK {digest}"


def _compare(cloud: AirportCloud, rng, visa_id, checkpoint) -> str:
    result = clouds.compare_visa(cloud, visa_id,
                                 _member(_CHECKPOINTS, checkpoint))
    return f"OK {result.value}"


def _replicated(cloud: AirportCloud, rng, visa_id) -> str:
    entry = cloud.replicated.get(visa_id)
    if entry is None:
        raise CloudPassError("NOT_REPLICATED")
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


# The ten ASCII characters ``str.isspace()`` accepts; in text that is
# ASCII, these are all the separators ``str.split()`` knows.
_ASCII_SPACE = "".join(c for c in map(chr, range(128)) if c.isspace())

# Below this many characters a full split costs less than finding the
# op first and scanning the last argument; the two cost the same, ~1.4
# us, near 1,500 characters (CPython 3.11 on x86-64).
_LONG_LINE = 2048


def _split_long(ops: dict, line: str) -> list[str]:
    """``line.split()``, without the splitter walking the last argument a
    character at a time: on the longest requests it is a hex blob. The
    op is looked up first, and the line split at most ``arity`` times.
    The last part is kept whole when it is ASCII and holds none of the
    ASCII separators, each found by a memchr scan; otherwise, and when
    the line does not start with an op and a space, it is split in full."""
    # An op holds no whitespace, so a line that starts with one and a
    # space has it as its first word. (With no space at all, the slice is
    # the line less its last character, far longer than any op.)
    entry = ops.get(line[:line.find(" ")])
    if entry is None:
        return line.split()
    parts = line.split(None, entry[0])
    tail = parts[-1]
    if tail.isascii() and not any(map(tail.__contains__, _ASCII_SPACE)):
        return parts
    return line.split()


def _handle(ops: dict, cloud, line: str, rng=None) -> str:
    parts = line.split() if len(line) < _LONG_LINE else _split_long(ops, line)
    if not parts:
        return "ERR EMPTY_LINE"
    if parts[0] not in ops:
        return "ERR BAD_OP"
    arity, handler = ops[parts[0]]
    if len(parts) - 1 != arity:
        return "ERR BAD_ARGS"
    try:
        return handler(cloud, rng, *parts[1:])
    except CloudPassError as exc:
        return f"ERR {exc.code}"


def handle_embassy_line(cloud: EmbassyCloud, line: str,
                        rng: random.Random) -> str:
    return _handle(_EMBASSY_OPS, cloud, line, rng)


def handle_airport_line(cloud: AirportCloud, line: str) -> str:
    return _handle(_AIRPORT_OPS, cloud, line)
